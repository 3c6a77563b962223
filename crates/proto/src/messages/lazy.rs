//! The LazyCtrl vendor-extension message family.
//!
//! These are the messages the paper adds on top of OpenFlow (§III-B.3,
//! §IV-A/B): group membership configuration, L-FIB synchronization over peer
//! links, bloom-filter (G-FIB) updates, aggregated state reports over the
//! state link, keep-alives for the failure-detection wheel, and the
//! group-size bargaining of Appendix C.

use bytes::BufMut;
use lazyctrl_net::{GroupId, MacAddr, PortNo, SwitchId, TenantId};
use serde::{Deserialize, Serialize};

use crate::wire::Reader;
use crate::{ProtoError, Result};

const SUB_GROUP_ASSIGN: u16 = 1;
const SUB_LFIB_SYNC: u16 = 2;
const SUB_GFIB_UPDATE: u16 = 3;
const SUB_STATE_REPORT: u16 = 4;
const SUB_KEEP_ALIVE: u16 = 5;
const SUB_BARGAIN: u16 = 6;
const SUB_BLOCK_ARP: u16 = 7;
const SUB_WHEEL_REPORT: u16 = 8;
const SUB_CONGESTION_NOTICE: u16 = 9;

/// One L-FIB entry: a host known to live behind a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LfibEntry {
    /// Host MAC address.
    pub mac: MacAddr,
    /// Tenant owning the host.
    pub tenant: TenantId,
    /// Local port the host is attached to.
    pub port: PortNo,
}

impl LfibEntry {
    const WIRE_LEN: usize = 6 + 2 + 2;

    fn encode_into<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(&self.mac.octets());
        buf.put_u16(self.tenant.as_u16());
        buf.put_u16(self.port.as_u16());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let mac = MacAddr::new(r.array()?);
        let tenant_raw = r.u16()?;
        if tenant_raw > 0x0fff {
            return Err(ProtoError::InvalidField {
                field: "lfib.tenant",
                value: tenant_raw as u64,
            });
        }
        let port = PortNo::new(r.u16()?);
        Ok(LfibEntry {
            mac,
            tenant: TenantId::new(tenant_raw),
            port,
        })
    }
}

/// Group membership configuration pushed by the controller at setup and at
/// every regrouping (§III-D.1: designated switch selection, logical-ring
/// ordering, timing parameters).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupAssignMsg {
    /// The group being (re)configured.
    pub group: GroupId,
    /// Monotonic grouping epoch; stale-epoch traffic is rejected.
    pub epoch: u32,
    /// All member switches, in controller-chosen ring order.
    pub members: Vec<SwitchId>,
    /// The designated switch.
    pub designated: SwitchId,
    /// Backup designated switches.
    pub backups: Vec<SwitchId>,
    /// Receiver's upstream neighbour on the failure-detection wheel.
    pub ring_prev: SwitchId,
    /// Receiver's downstream neighbour on the failure-detection wheel.
    pub ring_next: SwitchId,
    /// How often members push state to the designated switch (ms).
    pub sync_interval_ms: u32,
    /// Keep-alive period on the wheel (ms).
    pub keepalive_interval_ms: u32,
    /// The group size limit in force.
    pub group_size_limit: u32,
}

/// L-FIB delta flooded over peer links (and relayed upward on the state
/// link): entries added/updated plus MACs removed (VM migration/removal).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LfibSyncMsg {
    /// Switch whose L-FIB changed.
    pub origin: SwitchId,
    /// Grouping epoch the update belongs to.
    pub epoch: u32,
    /// Added or refreshed entries.
    pub entries: Vec<LfibEntry>,
    /// Addresses withdrawn.
    pub removed: Vec<MacAddr>,
}

/// A bloom-filter snapshot of one switch's L-FIB, used to refresh peers'
/// G-FIBs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GfibUpdateMsg {
    /// Switch whose L-FIB the filter summarizes.
    pub origin: SwitchId,
    /// Grouping epoch.
    pub epoch: u32,
    /// Number of hash functions used by the filter.
    pub num_hashes: u8,
    /// Exact number of addressable bits (the byte array is padded to whole
    /// 64-bit words; probe indexes are taken modulo this value).
    pub m_bits: u32,
    /// Number of addresses inserted.
    pub entries: u32,
    /// Raw filter bits.
    pub bits: Vec<u8>,
}

/// Per-switch counters carried in state reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SwitchStats {
    /// New flows per second observed at this switch (the paper's intensity
    /// unit, §III-C.1).
    pub new_flows_per_sec: f64,
    /// Packets forwarded locally (L-FIB hits).
    pub local_hits: u64,
    /// Packets tunnelled intra-group (G-FIB hits).
    pub group_hits: u64,
    /// Packets punted to the controller.
    pub controller_punts: u64,
}

/// Aggregated group state the designated switch reports to the controller
/// over the state link (asynchronously, §III-B.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateReportMsg {
    /// Reporting group.
    pub group: GroupId,
    /// Grouping epoch.
    pub epoch: u32,
    /// Pairwise intensity samples: (src switch, dst switch, new flows/sec).
    pub intensity: Vec<(SwitchId, SwitchId, f64)>,
    /// Per-switch counters.
    pub stats: Vec<(SwitchId, SwitchStats)>,
}

/// Wheel keep-alive (§III-E.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KeepAliveMsg {
    /// Sender.
    pub from: SwitchId,
    /// Monotonic sequence number.
    pub seq: u64,
}

/// One round of the modified Rubinstein group-size bargaining (Appendix C).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BargainMsg {
    /// Bargaining round number.
    pub round: u32,
    /// True if the controller made this offer, false if a switch did.
    pub from_controller: bool,
    /// Proposed group size limit.
    pub proposed_limit: u32,
    /// True when the sender accepts the counterparty's last offer; the
    /// `proposed_limit` then records the agreed value.
    pub accept: bool,
}

/// Which keep-alive source went silent, from the reporter's viewpoint
/// (the columns of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum WheelLoss {
    /// The upstream ring neighbour's keep-alives stopped (`Sn → Sn+1` seen
    /// missing by `Sn+1`).
    Upstream,
    /// The downstream ring neighbour's keep-alives stopped (`Sn → Sn−1`
    /// seen missing by `Sn−1`).
    Downstream,
    /// The controller's keep-alives stopped (`Controller → Sn`).
    Controller,
}

impl WheelLoss {
    fn to_u8(self) -> u8 {
        match self {
            WheelLoss::Upstream => 0,
            WheelLoss::Downstream => 1,
            WheelLoss::Controller => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => WheelLoss::Upstream,
            1 => WheelLoss::Downstream,
            2 => WheelLoss::Controller,
            other => {
                return Err(ProtoError::InvalidField {
                    field: "wheel_report.loss",
                    value: other as u64,
                })
            }
        })
    }
}

/// How many keep-alive intervals a wheel participant waits before
/// declaring (and re-raising) a loss. Part of the wheel protocol
/// contract: the controller's Table-I correlation window is derived from
/// it (≥ 2 × interval × threshold), so reporter and detector must agree.
pub const WHEEL_MISS_THRESHOLD: u32 = 3;

/// A keep-alive loss observation reported towards the controller, the raw
/// material for Table I failure inference (§III-E.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WheelReportMsg {
    /// The switch that observed the silence.
    pub reporter: SwitchId,
    /// The switch whose keep-alives went missing (the reporter itself when
    /// the controller's keep-alives stopped).
    pub missing: SwitchId,
    /// Which keep-alive direction dried up.
    pub loss: WheelLoss,
}

/// ECN-style controller back-pressure notification: the controller's
/// ingress queue crossed its high-water mark and flow-setup work is being
/// shed, so switches should pace their PacketIn-driven setups. Tiny and
/// unreliable by design — a lost notice merely delays pacing one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CongestionNoticeMsg {
    /// The overloaded controller (cluster member index).
    pub from: u32,
    /// Overload severity in backoff doublings the switch should apply on
    /// top of its current pacing state (capped switch-side).
    pub level: u8,
}

/// The LazyCtrl extension message family.
///
/// The bulk configuration/sync payloads are boxed so the enum's inline
/// size stays small: a `Message` rides every scheduler entry, and the
/// *frequent* members of this family (`KeepAlive`, `WheelReport`,
/// `BlockArp`) are tiny — only the rare fat ones pay a heap indirection.
/// Wire formats are unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LazyMsg {
    /// Group membership configuration (boxed: fat, infrequent).
    GroupAssign(Box<GroupAssignMsg>),
    /// L-FIB delta over a peer/state link (boxed: fat, infrequent).
    LfibSync(Box<LfibSyncMsg>),
    /// Bloom-filter refresh for peers' G-FIBs (boxed: fat, infrequent).
    GfibUpdate(Box<GfibUpdateMsg>),
    /// Designated switch's aggregated report to the controller (boxed:
    /// fat, infrequent).
    StateReport(Box<StateReportMsg>),
    /// Failure-detection wheel keep-alive.
    KeepAlive(KeepAliveMsg),
    /// Group-size bargaining round.
    Bargain(BargainMsg),
    /// Controller orders a switch to suppress ARP punts for a tenant whose
    /// hosts all live inside one group (§III-D.3).
    BlockArp {
        /// Tenant whose ARP traffic is handled entirely intra-group.
        tenant: TenantId,
        /// True to block, false to unblock.
        block: bool,
    },
    /// Keep-alive loss observation for Table I failure inference.
    WheelReport(WheelReportMsg),
    /// Controller overload back-pressure: pace PacketIn-driven setups.
    CongestionNotice(CongestionNoticeMsg),
}

impl LazyMsg {
    /// Wraps (and boxes) a group assignment.
    pub fn group_assign(m: GroupAssignMsg) -> Self {
        LazyMsg::GroupAssign(Box::new(m))
    }

    /// Wraps (and boxes) an L-FIB sync.
    pub fn lfib_sync(m: LfibSyncMsg) -> Self {
        LazyMsg::LfibSync(Box::new(m))
    }

    /// Wraps (and boxes) a G-FIB update.
    pub fn gfib_update(m: GfibUpdateMsg) -> Self {
        LazyMsg::GfibUpdate(Box::new(m))
    }

    /// Wraps (and boxes) a state report.
    pub fn state_report(m: StateReportMsg) -> Self {
        LazyMsg::StateReport(Box::new(m))
    }

    pub(crate) fn encode_body<B: BufMut>(&self, buf: &mut B) {
        match self {
            LazyMsg::GroupAssign(m) => {
                buf.put_u16(SUB_GROUP_ASSIGN);
                buf.put_u32(m.group.0);
                buf.put_u32(m.epoch);
                buf.put_u32(m.members.len() as u32);
                for s in &m.members {
                    buf.put_u32(s.0);
                }
                buf.put_u32(m.designated.0);
                buf.put_u32(m.backups.len() as u32);
                for s in &m.backups {
                    buf.put_u32(s.0);
                }
                buf.put_u32(m.ring_prev.0);
                buf.put_u32(m.ring_next.0);
                buf.put_u32(m.sync_interval_ms);
                buf.put_u32(m.keepalive_interval_ms);
                buf.put_u32(m.group_size_limit);
            }
            LazyMsg::LfibSync(m) => {
                buf.put_u16(SUB_LFIB_SYNC);
                buf.put_u32(m.origin.0);
                buf.put_u32(m.epoch);
                buf.put_u32(m.entries.len() as u32);
                for e in &m.entries {
                    e.encode_into(buf);
                }
                buf.put_u32(m.removed.len() as u32);
                for mac in &m.removed {
                    buf.put_slice(&mac.octets());
                }
            }
            LazyMsg::GfibUpdate(m) => {
                buf.put_u16(SUB_GFIB_UPDATE);
                buf.put_u32(m.origin.0);
                buf.put_u32(m.epoch);
                buf.put_u8(m.num_hashes);
                buf.put_u32(m.m_bits);
                buf.put_u32(m.entries);
                buf.put_u32(m.bits.len() as u32);
                buf.put_slice(&m.bits);
            }
            LazyMsg::StateReport(m) => {
                buf.put_u16(SUB_STATE_REPORT);
                buf.put_u32(m.group.0);
                buf.put_u32(m.epoch);
                buf.put_u32(m.intensity.len() as u32);
                for (a, b, w) in &m.intensity {
                    buf.put_u32(a.0);
                    buf.put_u32(b.0);
                    buf.put_u64(w.to_bits());
                }
                buf.put_u32(m.stats.len() as u32);
                for (s, st) in &m.stats {
                    buf.put_u32(s.0);
                    buf.put_u64(st.new_flows_per_sec.to_bits());
                    buf.put_u64(st.local_hits);
                    buf.put_u64(st.group_hits);
                    buf.put_u64(st.controller_punts);
                }
            }
            LazyMsg::KeepAlive(m) => {
                buf.put_u16(SUB_KEEP_ALIVE);
                buf.put_u32(m.from.0);
                buf.put_u64(m.seq);
            }
            LazyMsg::Bargain(m) => {
                buf.put_u16(SUB_BARGAIN);
                buf.put_u32(m.round);
                buf.put_u8(m.from_controller as u8);
                buf.put_u32(m.proposed_limit);
                buf.put_u8(m.accept as u8);
            }
            LazyMsg::BlockArp { tenant, block } => {
                buf.put_u16(SUB_BLOCK_ARP);
                buf.put_u16(tenant.as_u16());
                buf.put_u8(*block as u8);
            }
            LazyMsg::WheelReport(m) => {
                buf.put_u16(SUB_WHEEL_REPORT);
                buf.put_u32(m.reporter.0);
                buf.put_u32(m.missing.0);
                buf.put_u8(m.loss.to_u8());
            }
            LazyMsg::CongestionNotice(m) => {
                buf.put_u16(SUB_CONGESTION_NOTICE);
                buf.put_u32(m.from);
                buf.put_u8(m.level);
            }
        }
    }

    pub(crate) fn decode_body(body: &[u8]) -> Result<Self> {
        let mut r = Reader::new(body, "lazy body");
        let subtype = r.u16()?;
        let msg = match subtype {
            SUB_GROUP_ASSIGN => {
                let group = GroupId::new(r.u32()?);
                let epoch = r.u32()?;
                let n = r.count_prefix(4)?;
                let mut members = Vec::with_capacity(n);
                for _ in 0..n {
                    members.push(SwitchId::new(r.u32()?));
                }
                let designated = SwitchId::new(r.u32()?);
                let nb = r.count_prefix(4)?;
                let mut backups = Vec::with_capacity(nb);
                for _ in 0..nb {
                    backups.push(SwitchId::new(r.u32()?));
                }
                LazyMsg::group_assign(GroupAssignMsg {
                    group,
                    epoch,
                    members,
                    designated,
                    backups,
                    ring_prev: SwitchId::new(r.u32()?),
                    ring_next: SwitchId::new(r.u32()?),
                    sync_interval_ms: r.u32()?,
                    keepalive_interval_ms: r.u32()?,
                    group_size_limit: r.u32()?,
                })
            }
            SUB_LFIB_SYNC => {
                let origin = SwitchId::new(r.u32()?);
                let epoch = r.u32()?;
                let n = r.count_prefix(LfibEntry::WIRE_LEN)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(LfibEntry::decode(&mut r)?);
                }
                let nr = r.count_prefix(6)?;
                let mut removed = Vec::with_capacity(nr);
                for _ in 0..nr {
                    removed.push(MacAddr::new(r.array()?));
                }
                LazyMsg::lfib_sync(LfibSyncMsg {
                    origin,
                    epoch,
                    entries,
                    removed,
                })
            }
            SUB_GFIB_UPDATE => {
                let origin = SwitchId::new(r.u32()?);
                let epoch = r.u32()?;
                let num_hashes = r.u8()?;
                let m_bits = r.u32()?;
                let entries = r.u32()?;
                let n = r.len_prefix()?;
                // A switch holds the bits as whole 64-bit words, at most
                // `u16::MAX` of them, and probes modulo `m_bits`.
                if n == 0 || !n.is_multiple_of(8) || n / 8 > u16::MAX as usize {
                    return Err(ProtoError::InvalidField {
                        field: "gfib.bits",
                        value: n as u64,
                    });
                }
                if m_bits == 0 || m_bits as u64 > n as u64 * 8 {
                    return Err(ProtoError::InvalidField {
                        field: "gfib.m_bits",
                        value: m_bits as u64,
                    });
                }
                LazyMsg::gfib_update(GfibUpdateMsg {
                    origin,
                    epoch,
                    num_hashes,
                    m_bits,
                    entries,
                    bits: r.bytes(n)?,
                })
            }
            SUB_STATE_REPORT => {
                let group = GroupId::new(r.u32()?);
                let epoch = r.u32()?;
                let n = r.count_prefix(16)?;
                let mut intensity = Vec::with_capacity(n);
                for _ in 0..n {
                    let a = SwitchId::new(r.u32()?);
                    let b = SwitchId::new(r.u32()?);
                    let w = r.f64()?;
                    intensity.push((a, b, w));
                }
                let ns = r.count_prefix(36)?;
                let mut stats = Vec::with_capacity(ns);
                for _ in 0..ns {
                    let s = SwitchId::new(r.u32()?);
                    stats.push((
                        s,
                        SwitchStats {
                            new_flows_per_sec: r.f64()?,
                            local_hits: r.u64()?,
                            group_hits: r.u64()?,
                            controller_punts: r.u64()?,
                        },
                    ));
                }
                LazyMsg::state_report(StateReportMsg {
                    group,
                    epoch,
                    intensity,
                    stats,
                })
            }
            SUB_KEEP_ALIVE => LazyMsg::KeepAlive(KeepAliveMsg {
                from: SwitchId::new(r.u32()?),
                seq: r.u64()?,
            }),
            SUB_BARGAIN => LazyMsg::Bargain(BargainMsg {
                round: r.u32()?,
                from_controller: r.u8()? != 0,
                proposed_limit: r.u32()?,
                accept: r.u8()? != 0,
            }),
            SUB_BLOCK_ARP => {
                let raw = r.u16()?;
                if raw > 0x0fff {
                    return Err(ProtoError::InvalidField {
                        field: "block_arp.tenant",
                        value: raw as u64,
                    });
                }
                LazyMsg::BlockArp {
                    tenant: TenantId::new(raw),
                    block: r.u8()? != 0,
                }
            }
            SUB_WHEEL_REPORT => LazyMsg::WheelReport(WheelReportMsg {
                reporter: SwitchId::new(r.u32()?),
                missing: SwitchId::new(r.u32()?),
                loss: WheelLoss::from_u8(r.u8()?)?,
            }),
            SUB_CONGESTION_NOTICE => LazyMsg::CongestionNotice(CongestionNoticeMsg {
                from: r.u32()?,
                level: r.u8()?,
            }),
            other => return Err(ProtoError::UnknownLazySubtype(other)),
        };
        if r.remaining() != 0 {
            return Err(ProtoError::LengthMismatch {
                declared: body.len(),
                actual: body.len() - r.remaining(),
            });
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: LazyMsg) {
        let mut body = Vec::new();
        m.encode_body(&mut body);
        assert_eq!(LazyMsg::decode_body(&body).unwrap(), m);
    }

    #[test]
    fn group_assign_round_trips() {
        round_trip(LazyMsg::group_assign(GroupAssignMsg {
            group: GroupId::new(2),
            epoch: 9,
            members: vec![SwitchId::new(1), SwitchId::new(5), SwitchId::new(9)],
            designated: SwitchId::new(5),
            backups: vec![SwitchId::new(9)],
            ring_prev: SwitchId::new(9),
            ring_next: SwitchId::new(5),
            sync_interval_ms: 1000,
            keepalive_interval_ms: 500,
            group_size_limit: 46,
        }));
    }

    #[test]
    fn lfib_sync_round_trips() {
        round_trip(LazyMsg::lfib_sync(LfibSyncMsg {
            origin: SwitchId::new(3),
            epoch: 1,
            entries: vec![
                LfibEntry {
                    mac: MacAddr::for_host(100),
                    tenant: TenantId::new(7),
                    port: PortNo::new(4),
                },
                LfibEntry {
                    mac: MacAddr::for_host(101),
                    tenant: TenantId::new(7),
                    port: PortNo::new(5),
                },
            ],
            removed: vec![MacAddr::for_host(55)],
        }));
    }

    #[test]
    fn gfib_update_round_trips() {
        round_trip(LazyMsg::gfib_update(GfibUpdateMsg {
            origin: SwitchId::new(12),
            epoch: 3,
            num_hashes: 4,
            m_bits: 2000,
            entries: 128,
            bits: vec![0xaa; 256],
        }));
    }

    #[test]
    fn gfib_update_a_switch_cannot_hold_is_rejected() {
        let decode = |m_bits, len| {
            let (origin, epoch, num_hashes, bits) = (SwitchId::new(12), 3, 4, vec![0xaa; len]);
            let update = GfibUpdateMsg {
                origin,
                epoch,
                num_hashes,
                m_bits,
                entries: 2,
                bits,
            };
            let mut body = Vec::new();
            LazyMsg::gfib_update(update).encode_body(&mut body);
            match LazyMsg::decode_body(&body) {
                Err(ProtoError::InvalidField { field, .. }) => field,
                other => panic!("{m_bits} bits in {len} bytes decoded to {other:?}"),
            }
        };
        // A 3-byte, 24-bit filter is not whole words.
        assert_eq!(decode(24, 3), "gfib.bits");
        assert_eq!(decode(0, 0), "gfib.bits");
        assert_eq!(decode(64, (u16::MAX as usize + 1) * 8), "gfib.bits");
        assert_eq!(decode(0, 8), "gfib.m_bits");
        assert_eq!(decode(65, 8), "gfib.m_bits");
    }

    #[test]
    fn state_report_round_trips() {
        round_trip(LazyMsg::state_report(StateReportMsg {
            group: GroupId::new(1),
            epoch: 2,
            intensity: vec![(SwitchId::new(1), SwitchId::new(2), 12.5)],
            stats: vec![(
                SwitchId::new(1),
                SwitchStats {
                    new_flows_per_sec: 100.25,
                    local_hits: 10,
                    group_hits: 20,
                    controller_punts: 3,
                },
            )],
        }));
    }

    #[test]
    fn keepalive_bargain_blockarp_round_trip() {
        round_trip(LazyMsg::KeepAlive(KeepAliveMsg {
            from: SwitchId::new(7),
            seq: u64::MAX,
        }));
        round_trip(LazyMsg::Bargain(BargainMsg {
            round: 3,
            from_controller: true,
            proposed_limit: 300,
            accept: false,
        }));
        round_trip(LazyMsg::BlockArp {
            tenant: TenantId::new(44),
            block: true,
        });
    }

    #[test]
    fn congestion_notice_round_trips() {
        round_trip(LazyMsg::CongestionNotice(CongestionNoticeMsg {
            from: 3,
            level: 2,
        }));
        round_trip(LazyMsg::CongestionNotice(CongestionNoticeMsg {
            from: u32::MAX,
            level: u8::MAX,
        }));
    }

    #[test]
    fn unknown_subtype_rejected() {
        let body = 0x7777u16.to_be_bytes();
        assert!(matches!(
            LazyMsg::decode_body(&body).unwrap_err(),
            ProtoError::UnknownLazySubtype(0x7777)
        ));
    }
}
