//! Controller-to-controller messages for the `lazyctrl-cluster` control
//! plane.
//!
//! A LazyCtrl *cluster* shards the switch groups across N cooperating
//! controllers (see `DESIGN.md`, "cluster architecture"). Three concerns
//! need wire messages between controllers, carried over the
//! controller-peer channel class:
//!
//! * **C-LIB replication** ([`PeerSyncMsg`]) — each controller
//!   publishes its C-LIB shard's deltas so inter-shard flow setups usually
//!   resolve against a local replica. *How* a delta reaches the other
//!   members is the cluster's dissemination strategy: direct flood
//!   (per-peer [`PeerSyncMsg`]), or relayed around a ring overlay in
//!   bundles ([`SyncRelayMsg`]), with a periodic anti-entropy digest
//!   exchange ([`SyncDigestMsg`]) as the catch-up path for members that
//!   missed deltas (crashed, partitioned, late-joining);
//! * **host lookups** ([`LookupRequestMsg`]/[`LookupReplyMsg`]) — the
//!   synchronous fallback when a destination is not yet replicated;
//! * **membership** ([`CtrlHeartbeatMsg`], [`OwnershipTransferMsg`]) —
//!   heartbeats on the controller ring feed the Table-I failure inference
//!   (reused from the switch wheel), and ownership transfers move groups
//!   between controllers for load rebalancing and failover takeover.

use bytes::BufMut;
use lazyctrl_net::{GroupId, MacAddr, PortNo, SwitchId, TenantId};
use serde::{Deserialize, Serialize};

use crate::wire::{encoded_len, Reader};
use crate::{ProtoError, Result};

const SUB_PEER_SYNC: u16 = 1;
const SUB_OWNERSHIP_TRANSFER: u16 = 2;
const SUB_CTRL_HEARTBEAT: u16 = 3;
const SUB_LOOKUP_REQUEST: u16 = 4;
const SUB_LOOKUP_REPLY: u16 = 5;
const SUB_SYNC_DIGEST: u16 = 6;
const SUB_SYNC_RELAY: u16 = 7;
const SUB_VOTE_REQUEST: u16 = 8;
const SUB_VOTE_REPLY: u16 = 9;
const SUB_LEADER_CLAIM: u16 = 10;
const SUB_TRANSFER_ACK: u16 = 11;

/// One replicated C-LIB entry: a host and the edge switch it lives behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HostEntry {
    /// Host MAC address.
    pub mac: MacAddr,
    /// The edge switch the host is attached to.
    pub switch: SwitchId,
    /// The port on that switch.
    pub port: PortNo,
    /// The owning tenant.
    pub tenant: TenantId,
}

impl HostEntry {
    const WIRE_LEN: usize = 6 + 4 + 2 + 2;

    fn encode_into<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(&self.mac.octets());
        buf.put_u32(self.switch.0);
        buf.put_u16(self.port.as_u16());
        buf.put_u16(self.tenant.as_u16());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let mac = MacAddr::new(r.array()?);
        let switch = SwitchId::new(r.u32()?);
        let port = PortNo::new(r.u16()?);
        let tenant_raw = r.u16()?;
        if tenant_raw > 0x0fff {
            return Err(ProtoError::InvalidField {
                field: "host_entry.tenant",
                value: tenant_raw as u64,
            });
        }
        Ok(HostEntry {
            mac,
            switch,
            port,
            tenant: TenantId::new(tenant_raw),
        })
    }
}

/// Asynchronous C-LIB shard replication: the origin controller's learned
/// host locations since the previous sync, plus withdrawals.
///
/// Application is idempotent: entries overwrite, withdrawals remove only
/// while the stored location still matches the withdrawing switch (the
/// C-LIB's stale-withdrawal rule). `seq` is a per-origin monotonic
/// sequence number: chunks of one flush share it (distinguished by
/// `chunk`), receivers track it as a high-water mark, and relay-based
/// dissemination dedups on the `(origin, seq, chunk)` triple.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerSyncMsg {
    /// The controller whose shard changed.
    pub origin: u32,
    /// Per-origin monotonic sequence number.
    pub seq: u64,
    /// Chunk index within the flush sharing `seq` (0 for the first or
    /// only chunk). Part of the relay dedup key.
    pub chunk: u32,
    /// True for an anti-entropy catch-up sync that carries *all* of the
    /// origin's knowledge up to `seq`: receivers advance their contiguous
    /// per-origin head to `seq` directly, instead of waiting for every
    /// intermediate delta. Ordinary flush deltas are `false`.
    pub summary: bool,
    /// Added or refreshed host locations.
    pub entries: Vec<HostEntry>,
    /// Host addresses withdrawn from the origin's shard, each with the
    /// switch that withdrew it (so receivers can apply the
    /// stale-withdrawal guard: a fresh learn elsewhere must not be
    /// clobbered by the old location's late withdrawal).
    pub removed: Vec<(MacAddr, SwitchId)>,
}

impl PeerSyncMsg {
    /// Splits a large sync into wire-sized messages, `max_entries` entries
    /// at a time (every chunk reuses the same `seq` and numbers its
    /// `chunk` consecutively; receivers treat the chunks of one flush as
    /// one logical update).
    pub fn chunked(
        origin: u32,
        seq: u64,
        entries: Vec<HostEntry>,
        removed: Vec<(MacAddr, SwitchId)>,
        max_entries: usize,
    ) -> Vec<PeerSyncMsg> {
        assert!(max_entries > 0, "max_entries must be positive");
        if entries.len() <= max_entries && removed.len() <= max_entries {
            return vec![PeerSyncMsg {
                origin,
                seq,
                chunk: 0,
                summary: false,
                entries,
                removed,
            }];
        }
        let mut out = Vec::new();
        let mut entries = entries.as_slice();
        let mut removed = removed.as_slice();
        let mut chunk = 0u32;
        while !entries.is_empty() || !removed.is_empty() {
            let take_e = entries.len().min(max_entries);
            let take_r = removed.len().min(max_entries);
            out.push(PeerSyncMsg {
                origin,
                seq,
                chunk,
                summary: false,
                entries: entries[..take_e].to_vec(),
                removed: removed[..take_r].to_vec(),
            });
            entries = &entries[take_e..];
            removed = &removed[take_r..];
            chunk += 1;
        }
        out
    }

    /// The relay/anti-entropy dedup key of this chunk.
    pub fn key(&self) -> (u32, u64, u32) {
        (self.origin, self.seq, self.chunk)
    }

    /// Encoded size of this sync as a [`ClusterMsg::PeerSync`] body: the
    /// 2-byte subtype plus its fields (peer-sync traffic accounting).
    pub fn wire_len(&self) -> usize {
        2 + encoded_len(|count| self.encode_fields(count))
    }

    fn encode_fields<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(self.origin);
        buf.put_u64(self.seq);
        buf.put_u32(self.chunk);
        buf.put_u8(u8::from(self.summary));
        buf.put_u32(self.entries.len() as u32);
        for e in &self.entries {
            e.encode_into(buf);
        }
        buf.put_u32(self.removed.len() as u32);
        for (mac, switch) in &self.removed {
            buf.put_slice(&mac.octets());
            buf.put_u32(switch.0);
        }
    }

    fn decode_fields(r: &mut Reader<'_>) -> Result<Self> {
        let origin = r.u32()?;
        let seq = r.u64()?;
        let chunk = r.u32()?;
        let summary = match r.u8()? {
            0 => false,
            1 => true,
            other => {
                return Err(ProtoError::InvalidField {
                    field: "peer_sync.summary",
                    value: other as u64,
                })
            }
        };
        let n = r.count_prefix(HostEntry::WIRE_LEN)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(HostEntry::decode(r)?);
        }
        let nr = r.count_prefix(10)?;
        let mut removed = Vec::with_capacity(nr);
        for _ in 0..nr {
            let mac = MacAddr::new(r.array()?);
            let switch = SwitchId::new(r.u32()?);
            removed.push((mac, switch));
        }
        Ok(PeerSyncMsg {
            origin,
            seq,
            chunk,
            summary,
            entries,
            removed,
        })
    }
}

/// A bundle of [`PeerSyncMsg`]s travelling the dissemination overlay
/// (one ring successor hop). Bundling is what makes ring dissemination
/// O(n) messages per flush round: every member
/// forwards *all* deltas it is relaying in one message per overlay edge,
/// instead of one message per (delta, peer) pair as flooding does.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncRelayMsg {
    /// The member that sent this bundle (the relay hop, not the deltas'
    /// origins — each bundled sync carries its own origin).
    pub from: u32,
    /// The bundled deltas, each dedupable by `(origin, seq, chunk)`.
    pub syncs: Vec<PeerSyncMsg>,
}

impl SyncRelayMsg {
    /// Bytes this bundle is charged in peer-sync traffic accounting: its
    /// subtype, sender and count, plus each bundled sync's
    /// [`PeerSyncMsg::wire_len`]. The nested syncs carry no subtype on the
    /// wire, so this is 2 bytes per sync above the encoded body; the
    /// historical figure is kept because `peer_sync_bytes` reports it.
    pub fn wire_len(&self) -> usize {
        2 + 4 + 4 + self.syncs.iter().map(PeerSyncMsg::wire_len).sum::<usize>()
    }
}

/// Anti-entropy digest: the per-origin replication high-waters the sender
/// currently holds. The receiver compares them against its own knowledge
/// and pushes the deltas (or a snapshot) the sender is missing — the
/// catch-up path that reconverges members that missed relayed deltas
/// (crashed mid-circulation, recovered after a takeover, late-joining).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncDigestMsg {
    /// The member whose knowledge is summarized.
    pub from: u32,
    /// `(origin, highest seq seen from that origin)`, ascending by origin.
    /// The sender's own origin appears with its own flush sequence.
    pub heads: Vec<(u32, u64)>,
}

/// Why a group changed owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransferReason {
    /// Load rebalancing moved the group off an overloaded controller.
    Rebalance,
    /// The previous owner was declared dead; a survivor took over.
    Failover,
}

impl TransferReason {
    fn to_u8(self) -> u8 {
        match self {
            TransferReason::Rebalance => 0,
            TransferReason::Failover => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => TransferReason::Rebalance,
            1 => TransferReason::Failover,
            other => {
                return Err(ProtoError::InvalidField {
                    field: "ownership_transfer.reason",
                    value: other as u64,
                })
            }
        })
    }
}

/// Moves ownership of one switch group between controllers. Carries the
/// ownership-map epoch so stale transfers are rejected, and the leader
/// term under which the transfer was initiated so a deposed leader's
/// in-flight announcements are recognizable as stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OwnershipTransferMsg {
    /// Ownership-map epoch after this transfer applies.
    pub epoch: u32,
    /// Leader term under which the transfer was initiated.
    pub term: u64,
    /// The group changing hands.
    pub group: GroupId,
    /// Previous owner.
    pub from: u32,
    /// New owner.
    pub to: u32,
    /// Why the transfer happened.
    pub reason: TransferReason,
}

/// Acknowledges receipt of an [`OwnershipTransferMsg`] by the new owner.
/// The initiating leader retransmits unacked transfers on its heartbeat
/// tick, closing the in-flight-loss window where a dropped announcement
/// would leave the new owner unaware of (and unseeded for) its group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TransferAckMsg {
    /// The acknowledging member (the transfer's `to`).
    pub from: u32,
    /// The acknowledged transfer's epoch.
    pub epoch: u32,
    /// The acknowledged transfer's group.
    pub group: GroupId,
}

/// Requests a vote for `candidate` in `term` (term-based leader
/// election, Raft-style: a member grants at most one vote per term, so
/// two candidates can never both assemble a majority for the same term).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VoteRequestMsg {
    /// The term the candidate is standing for.
    pub term: u64,
    /// The candidate (also the link-level sender).
    pub candidate: u32,
}

/// Reply to a [`VoteRequestMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VoteReplyMsg {
    /// The voter's current term (the candidate steps down if it trails).
    pub term: u64,
    /// The voting member.
    pub from: u32,
    /// Whether the vote was granted.
    pub granted: bool,
}

/// A candidate that assembled a majority announces itself leader of
/// `term`. Receivers at an older term adopt it immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LeaderClaimMsg {
    /// The claimed term.
    pub term: u64,
    /// The new leader.
    pub leader: u32,
}

/// Controller-ring keep-alive, the cluster analogue of the switch wheel's
/// [`KeepAliveMsg`](crate::KeepAliveMsg). Carries the sender's measured
/// load so receivers can rebalance without extra round trips.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CtrlHeartbeatMsg {
    /// Sending controller.
    pub from: u32,
    /// Monotonic sequence number.
    pub seq: u64,
    /// The sender's current election term.
    pub term: u64,
    /// True when the sender believes itself the leader of `term` — the
    /// leadership keep-alive that lets recovered members relearn who
    /// leads without a dedicated message.
    pub leader: bool,
    /// Sender's request rate over its meter window (requests/sec).
    pub load_rps: f64,
    /// Number of groups the sender currently owns.
    pub owned_groups: u32,
}

/// Synchronous host-location lookup towards a peer controller, the
/// fallback when the local replica misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LookupRequestMsg {
    /// Requesting controller.
    pub from: u32,
    /// The host being resolved.
    pub mac: MacAddr,
}

/// Reply to a [`LookupRequestMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LookupReplyMsg {
    /// Replying controller.
    pub from: u32,
    /// The host that was looked up.
    pub mac: MacAddr,
    /// The location, if the replier's shard (or replica) knows it.
    pub location: Option<HostEntry>,
}

/// The controller-cluster message family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClusterMsg {
    /// Asynchronous C-LIB shard replication (boxed: bulk payload, flush
    /// cadence — the frequent heartbeat/lookup variants stay inline).
    PeerSync(Box<PeerSyncMsg>),
    /// Group ownership transfer (rebalance or failover).
    OwnershipTransfer(OwnershipTransferMsg),
    /// Controller-ring keep-alive with load piggyback.
    Heartbeat(CtrlHeartbeatMsg),
    /// Synchronous host lookup (replica miss fallback).
    LookupRequest(LookupRequestMsg),
    /// Lookup response.
    LookupReply(LookupReplyMsg),
    /// Anti-entropy digest (boxed: bulk payload, repair cadence).
    SyncDigest(Box<SyncDigestMsg>),
    /// Bundled deltas on a ring dissemination edge (boxed: bulk
    /// payload, flush cadence).
    SyncRelay(Box<SyncRelayMsg>),
    /// Election: a candidate requests a vote.
    VoteRequest(VoteRequestMsg),
    /// Election: a member answers a vote request.
    VoteReply(VoteReplyMsg),
    /// Election: a majority winner announces its term.
    LeaderClaim(LeaderClaimMsg),
    /// Ownership-handoff acknowledgement (stops leader retransmits).
    TransferAck(TransferAckMsg),
}

impl ClusterMsg {
    /// Wraps (and boxes) a peer sync.
    pub fn peer_sync(m: PeerSyncMsg) -> Self {
        ClusterMsg::PeerSync(Box::new(m))
    }

    /// Wraps (and boxes) an anti-entropy digest.
    pub fn sync_digest(m: SyncDigestMsg) -> Self {
        ClusterMsg::SyncDigest(Box::new(m))
    }

    /// Wraps (and boxes) a relay bundle.
    pub fn sync_relay(m: SyncRelayMsg) -> Self {
        ClusterMsg::SyncRelay(Box::new(m))
    }

    pub(crate) fn encode_body<B: BufMut>(&self, buf: &mut B) {
        match self {
            ClusterMsg::PeerSync(m) => {
                buf.put_u16(SUB_PEER_SYNC);
                m.encode_fields(buf);
            }
            ClusterMsg::OwnershipTransfer(m) => {
                buf.put_u16(SUB_OWNERSHIP_TRANSFER);
                buf.put_u32(m.epoch);
                buf.put_u64(m.term);
                buf.put_u32(m.group.0);
                buf.put_u32(m.from);
                buf.put_u32(m.to);
                buf.put_u8(m.reason.to_u8());
            }
            ClusterMsg::Heartbeat(m) => {
                buf.put_u16(SUB_CTRL_HEARTBEAT);
                buf.put_u32(m.from);
                buf.put_u64(m.seq);
                buf.put_u64(m.term);
                buf.put_u8(u8::from(m.leader));
                buf.put_u64(m.load_rps.to_bits());
                buf.put_u32(m.owned_groups);
            }
            ClusterMsg::LookupRequest(m) => {
                buf.put_u16(SUB_LOOKUP_REQUEST);
                buf.put_u32(m.from);
                buf.put_slice(&m.mac.octets());
            }
            ClusterMsg::LookupReply(m) => {
                buf.put_u16(SUB_LOOKUP_REPLY);
                buf.put_u32(m.from);
                buf.put_slice(&m.mac.octets());
                match &m.location {
                    Some(e) => {
                        buf.put_u8(1);
                        e.encode_into(buf);
                    }
                    None => buf.put_u8(0),
                }
            }
            ClusterMsg::SyncDigest(m) => {
                buf.put_u16(SUB_SYNC_DIGEST);
                buf.put_u32(m.from);
                buf.put_u32(m.heads.len() as u32);
                for (origin, seq) in &m.heads {
                    buf.put_u32(*origin);
                    buf.put_u64(*seq);
                }
            }
            ClusterMsg::SyncRelay(m) => {
                buf.put_u16(SUB_SYNC_RELAY);
                buf.put_u32(m.from);
                buf.put_u32(m.syncs.len() as u32);
                for s in &m.syncs {
                    s.encode_fields(buf);
                }
            }
            ClusterMsg::VoteRequest(m) => {
                buf.put_u16(SUB_VOTE_REQUEST);
                buf.put_u64(m.term);
                buf.put_u32(m.candidate);
            }
            ClusterMsg::VoteReply(m) => {
                buf.put_u16(SUB_VOTE_REPLY);
                buf.put_u64(m.term);
                buf.put_u32(m.from);
                buf.put_u8(u8::from(m.granted));
            }
            ClusterMsg::LeaderClaim(m) => {
                buf.put_u16(SUB_LEADER_CLAIM);
                buf.put_u64(m.term);
                buf.put_u32(m.leader);
            }
            ClusterMsg::TransferAck(m) => {
                buf.put_u16(SUB_TRANSFER_ACK);
                buf.put_u32(m.from);
                buf.put_u32(m.epoch);
                buf.put_u32(m.group.0);
            }
        }
    }

    pub(crate) fn decode_body(body: &[u8]) -> Result<Self> {
        let mut r = Reader::new(body, "cluster body");
        let subtype = r.u16()?;
        let msg = match subtype {
            SUB_PEER_SYNC => ClusterMsg::peer_sync(PeerSyncMsg::decode_fields(&mut r)?),
            SUB_OWNERSHIP_TRANSFER => ClusterMsg::OwnershipTransfer(OwnershipTransferMsg {
                epoch: r.u32()?,
                term: r.u64()?,
                group: GroupId::new(r.u32()?),
                from: r.u32()?,
                to: r.u32()?,
                reason: TransferReason::from_u8(r.u8()?)?,
            }),
            SUB_CTRL_HEARTBEAT => {
                let from = r.u32()?;
                let seq = r.u64()?;
                let term = r.u64()?;
                let leader = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(ProtoError::InvalidField {
                            field: "heartbeat.leader",
                            value: other as u64,
                        })
                    }
                };
                ClusterMsg::Heartbeat(CtrlHeartbeatMsg {
                    from,
                    seq,
                    term,
                    leader,
                    load_rps: r.f64()?,
                    owned_groups: r.u32()?,
                })
            }
            SUB_LOOKUP_REQUEST => ClusterMsg::LookupRequest(LookupRequestMsg {
                from: r.u32()?,
                mac: MacAddr::new(r.array()?),
            }),
            SUB_LOOKUP_REPLY => {
                let from = r.u32()?;
                let mac = MacAddr::new(r.array()?);
                let location = match r.u8()? {
                    0 => None,
                    1 => Some(HostEntry::decode(&mut r)?),
                    other => {
                        return Err(ProtoError::InvalidField {
                            field: "lookup_reply.has_location",
                            value: other as u64,
                        })
                    }
                };
                ClusterMsg::LookupReply(LookupReplyMsg {
                    from,
                    mac,
                    location,
                })
            }
            SUB_SYNC_DIGEST => {
                let from = r.u32()?;
                let n = r.count_prefix(12)?;
                let mut heads = Vec::with_capacity(n);
                for _ in 0..n {
                    let origin = r.u32()?;
                    let seq = r.u64()?;
                    heads.push((origin, seq));
                }
                ClusterMsg::sync_digest(SyncDigestMsg { from, heads })
            }
            SUB_SYNC_RELAY => {
                let from = r.u32()?;
                // A sync is at least its fixed header (origin + seq +
                // chunk + summary flag + two empty count prefixes).
                let n = r.count_prefix(4 + 8 + 4 + 1 + 4 + 4)?;
                let mut syncs = Vec::with_capacity(n);
                for _ in 0..n {
                    syncs.push(PeerSyncMsg::decode_fields(&mut r)?);
                }
                ClusterMsg::sync_relay(SyncRelayMsg { from, syncs })
            }
            SUB_VOTE_REQUEST => ClusterMsg::VoteRequest(VoteRequestMsg {
                term: r.u64()?,
                candidate: r.u32()?,
            }),
            SUB_VOTE_REPLY => {
                let term = r.u64()?;
                let from = r.u32()?;
                let granted = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(ProtoError::InvalidField {
                            field: "vote_reply.granted",
                            value: other as u64,
                        })
                    }
                };
                ClusterMsg::VoteReply(VoteReplyMsg {
                    term,
                    from,
                    granted,
                })
            }
            SUB_LEADER_CLAIM => ClusterMsg::LeaderClaim(LeaderClaimMsg {
                term: r.u64()?,
                leader: r.u32()?,
            }),
            SUB_TRANSFER_ACK => ClusterMsg::TransferAck(TransferAckMsg {
                from: r.u32()?,
                epoch: r.u32()?,
                group: GroupId::new(r.u32()?),
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

    fn round_trip(m: ClusterMsg) {
        let mut body = Vec::new();
        m.encode_body(&mut body);
        assert_eq!(ClusterMsg::decode_body(&body).unwrap(), m);
    }

    fn entry(h: u64, s: u32) -> HostEntry {
        HostEntry {
            mac: MacAddr::for_host(h),
            switch: SwitchId::new(s),
            port: PortNo::new(2),
            tenant: TenantId::new(5),
        }
    }

    /// Layout tripwire: every C-LIB replica, outbox and peer-sync chunk
    /// stores `HostEntry`s by value, so its inline size is a per-host
    /// memory constant (its wire form is 14 bytes).
    #[test]
    fn host_entry_stays_compact() {
        use std::mem::size_of;
        assert!(
            size_of::<HostEntry>() <= 16,
            "HostEntry grew to {} bytes",
            size_of::<HostEntry>()
        );
    }

    #[test]
    fn peer_sync_round_trips() {
        round_trip(ClusterMsg::peer_sync(PeerSyncMsg {
            origin: 1,
            seq: 42,
            chunk: 3,
            summary: false,
            entries: vec![entry(10, 3), entry(11, 4)],
            removed: vec![(MacAddr::for_host(55), SwitchId::new(3))],
        }));
        round_trip(ClusterMsg::peer_sync(PeerSyncMsg {
            origin: 2,
            seq: 7,
            chunk: 0,
            summary: true,
            entries: vec![entry(12, 5)],
            removed: vec![],
        }));
    }

    #[test]
    fn sync_digest_round_trips() {
        round_trip(ClusterMsg::sync_digest(SyncDigestMsg {
            from: 2,
            heads: vec![(0, 17), (1, 0), (3, u64::MAX)],
        }));
        round_trip(ClusterMsg::sync_digest(SyncDigestMsg {
            from: 0,
            heads: vec![],
        }));
    }

    #[test]
    fn sync_relay_round_trips() {
        let bundle = SyncRelayMsg {
            from: 3,
            syncs: vec![
                PeerSyncMsg {
                    origin: 1,
                    seq: 9,
                    chunk: 0,
                    summary: false,
                    entries: vec![entry(10, 3)],
                    removed: vec![],
                },
                PeerSyncMsg {
                    origin: 2,
                    seq: 4,
                    chunk: 1,
                    summary: false,
                    entries: vec![],
                    removed: vec![(MacAddr::for_host(8), SwitchId::new(2))],
                },
            ],
        };
        round_trip(ClusterMsg::sync_relay(bundle));
        round_trip(ClusterMsg::sync_relay(SyncRelayMsg {
            from: 0,
            syncs: vec![],
        }));
    }

    #[test]
    fn wire_len_matches_encoded_size() {
        let sync = PeerSyncMsg {
            origin: 1,
            seq: 7,
            chunk: 0,
            summary: true,
            entries: vec![entry(10, 3), entry(11, 4)],
            removed: vec![(MacAddr::for_host(55), SwitchId::new(3))],
        };
        let mut body = Vec::new();
        ClusterMsg::peer_sync(sync.clone()).encode_body(&mut body);
        assert_eq!(sync.wire_len(), body.len());
        // A bundle is charged 2 bytes per sync above its encoded body.
        let relay = SyncRelayMsg {
            from: 2,
            syncs: vec![sync.clone(), sync],
        };
        let mut body = Vec::new();
        ClusterMsg::sync_relay(relay.clone()).encode_body(&mut body);
        assert_eq!(relay.wire_len(), body.len() + 2 * 2);
    }

    #[test]
    fn ownership_transfer_round_trips() {
        round_trip(ClusterMsg::OwnershipTransfer(OwnershipTransferMsg {
            epoch: 7,
            term: 1,
            group: GroupId::new(3),
            from: 0,
            to: 2,
            reason: TransferReason::Failover,
        }));
        round_trip(ClusterMsg::OwnershipTransfer(OwnershipTransferMsg {
            epoch: 8,
            term: u64::MAX,
            group: GroupId::new(1),
            from: 2,
            to: 1,
            reason: TransferReason::Rebalance,
        }));
    }

    #[test]
    fn heartbeat_round_trips() {
        round_trip(ClusterMsg::Heartbeat(CtrlHeartbeatMsg {
            from: 3,
            seq: u64::MAX,
            term: 12,
            leader: true,
            load_rps: 1234.5,
            owned_groups: 9,
        }));
        round_trip(ClusterMsg::Heartbeat(CtrlHeartbeatMsg {
            from: 0,
            seq: 1,
            term: 1,
            leader: false,
            load_rps: 0.0,
            owned_groups: 0,
        }));
    }

    #[test]
    fn election_messages_round_trip() {
        round_trip(ClusterMsg::VoteRequest(VoteRequestMsg {
            term: 3,
            candidate: 2,
        }));
        round_trip(ClusterMsg::VoteReply(VoteReplyMsg {
            term: 3,
            from: 1,
            granted: true,
        }));
        round_trip(ClusterMsg::VoteReply(VoteReplyMsg {
            term: 4,
            from: 0,
            granted: false,
        }));
        round_trip(ClusterMsg::LeaderClaim(LeaderClaimMsg {
            term: u64::MAX,
            leader: 7,
        }));
    }

    #[test]
    fn transfer_ack_round_trips() {
        round_trip(ClusterMsg::TransferAck(TransferAckMsg {
            from: 2,
            epoch: 19,
            group: GroupId::new(4),
        }));
    }

    #[test]
    fn bad_vote_flag_rejected() {
        let mut body = Vec::new();
        ClusterMsg::VoteReply(VoteReplyMsg {
            term: 1,
            from: 0,
            granted: false,
        })
        .encode_body(&mut body);
        *body.last_mut().unwrap() = 7;
        assert!(matches!(
            ClusterMsg::decode_body(&body).unwrap_err(),
            ProtoError::InvalidField {
                field: "vote_reply.granted",
                ..
            }
        ));
    }

    #[test]
    fn lookups_round_trip() {
        round_trip(ClusterMsg::LookupRequest(LookupRequestMsg {
            from: 0,
            mac: MacAddr::for_host(77),
        }));
        round_trip(ClusterMsg::LookupReply(LookupReplyMsg {
            from: 1,
            mac: MacAddr::for_host(77),
            location: Some(entry(77, 9)),
        }));
        round_trip(ClusterMsg::LookupReply(LookupReplyMsg {
            from: 1,
            mac: MacAddr::for_host(78),
            location: None,
        }));
    }

    #[test]
    fn chunking_splits_large_syncs() {
        let entries: Vec<HostEntry> = (0..250).map(|i| entry(i, (i % 16) as u32)).collect();
        let chunks = PeerSyncMsg::chunked(2, 9, entries.clone(), vec![], 100);
        assert_eq!(chunks.len(), 3);
        let reassembled: Vec<HostEntry> = chunks.iter().flat_map(|c| c.entries.clone()).collect();
        assert_eq!(reassembled, entries);
        for (i, c) in chunks.iter().enumerate() {
            assert_eq!(c.seq, 9);
            assert_eq!(c.chunk, i as u32, "chunks must number consecutively");
            assert!(c.entries.len() <= 100);
        }
    }

    #[test]
    fn unknown_subtype_rejected() {
        let body = 0x6666u16.to_be_bytes();
        assert!(ClusterMsg::decode_body(&body).is_err());
    }

    #[test]
    fn bad_option_flag_rejected() {
        let mut body = Vec::new();
        ClusterMsg::LookupReply(LookupReplyMsg {
            from: 1,
            mac: MacAddr::for_host(1),
            location: None,
        })
        .encode_body(&mut body);
        *body.last_mut().unwrap() = 9; // corrupt the option flag
        assert!(matches!(
            ClusterMsg::decode_body(&body).unwrap_err(),
            ProtoError::InvalidField {
                field: "lookup_reply.has_location",
                ..
            }
        ));
    }
}
