//! Control-protocol messages: the OpenFlow 1.0-style subset plus the
//! LazyCtrl vendor extension family.

mod cluster;
mod lazy;
mod of;

pub use cluster::{
    ClusterMsg, CtrlHeartbeatMsg, HostEntry, LeaderClaimMsg, LookupReplyMsg, LookupRequestMsg,
    OwnershipTransferMsg, PeerSyncMsg, SyncDigestMsg, SyncRelayMsg, TransferAckMsg, TransferReason,
    VoteReplyMsg, VoteRequestMsg,
};
pub use lazy::{
    BargainMsg, CongestionNoticeMsg, GfibUpdateMsg, GroupAssignMsg, KeepAliveMsg, LazyMsg,
    LfibEntry, LfibSyncMsg, StateReportMsg, SwitchStats, WheelLoss, WheelReportMsg,
    WHEEL_MISS_THRESHOLD,
};
pub use of::{
    EchoKind, ErrorCode, FlowModCommand, FlowModMsg, OfMessage, PacketInMsg, PacketInReason,
    PacketOutMsg,
};

use bytes::BufMut;
use serde::{Deserialize, Serialize};

use crate::header::Header;
use crate::wire::{encoded_len, Reader};
use crate::{MsgType, ProtoError, Result, OFP_HEADER_LEN, PROTO_VERSION};

/// A complete control message: transaction id plus body.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use lazyctrl_proto::{Message, OfMessage};
///
/// let msg = Message::of(7, OfMessage::EchoRequest(vec![1, 2, 3]));
/// let wire = msg.encode();
/// assert_eq!(Message::decode(&wire)?, msg);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Transaction id; replies echo the request's xid.
    pub xid: u32,
    /// The payload.
    pub body: MessageBody,
}

/// Ingress priority class of a control message at a controller, highest
/// first. The bounded ingress queues shed the *lowest* classes first when
/// overloaded; [`MsgPriority::Critical`] traffic (failure detection and
/// elections) is never shed — overload must not look like death.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MsgPriority {
    /// Keep-alives, wheel reports, controller heartbeats and election
    /// traffic. Never shed: shedding these would turn overload into
    /// spurious failovers.
    Critical,
    /// Ownership transfers, replication syncs, configuration pushes —
    /// state the cluster must eventually converge on.
    OwnershipSync,
    /// Synchronous host lookups (a shed lookup retries under its own
    /// deadline machinery).
    Lookup,
    /// PacketIn-driven flow setups — the elastic load, first to shed.
    FlowSetup,
}

impl MsgPriority {
    /// Number of priority classes (for dense per-class tables).
    pub const COUNT: usize = 4;

    /// Dense index of this class in `0..COUNT`, highest priority first.
    pub const fn index(self) -> usize {
        match self {
            MsgPriority::Critical => 0,
            MsgPriority::OwnershipSync => 1,
            MsgPriority::Lookup => 2,
            MsgPriority::FlowSetup => 3,
        }
    }
}

/// Either a standard OpenFlow-style message or a LazyCtrl extension.
///
/// A `Message` is moved through every scheduler entry and channel hop of
/// the simulation, so its inline size is a per-event constant. The fat
/// payload variants inside each family (`GroupAssign`, `StateReport`,
/// bulk syncs, `FlowMod`) are boxed at the *variant* level — see
/// [`LazyMsg`], [`ClusterMsg`], [`OfMessage`] — which keeps
/// `size_of::<Message>() ≤ 64` (enforced by a regression test below)
/// while the frequent small messages (`PacketIn`/`PacketOut` on the
/// packet path, `KeepAlive`/`Heartbeat`/`WheelReport` on the liveness
/// path) stay inline and allocation-free. Wire formats are unchanged —
/// encode/decode go through the boxes transparently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MessageBody {
    /// Standard OpenFlow 1.0-style message.
    Of(OfMessage),
    /// LazyCtrl vendor extension message.
    Lazy(LazyMsg),
    /// Controller-to-controller cluster message.
    Cluster(ClusterMsg),
}

impl From<LazyMsg> for MessageBody {
    fn from(m: LazyMsg) -> Self {
        MessageBody::Lazy(m)
    }
}

impl From<ClusterMsg> for MessageBody {
    fn from(m: ClusterMsg) -> Self {
        MessageBody::Cluster(m)
    }
}

impl Message {
    /// Wraps a standard message.
    pub fn of(xid: u32, msg: OfMessage) -> Self {
        Message {
            xid,
            body: MessageBody::Of(msg),
        }
    }

    /// Wraps a LazyCtrl extension message.
    pub fn lazy(xid: u32, msg: LazyMsg) -> Self {
        Message {
            xid,
            body: MessageBody::Lazy(msg),
        }
    }

    /// Wraps a controller-cluster message.
    pub fn cluster(xid: u32, msg: ClusterMsg) -> Self {
        Message {
            xid,
            body: MessageBody::Cluster(msg),
        }
    }

    /// The OpenFlow-style body, if this is a standard message.
    pub fn as_of(&self) -> Option<&OfMessage> {
        match &self.body {
            MessageBody::Of(m) => Some(m),
            _ => None,
        }
    }

    /// The LazyCtrl extension body, if any.
    pub fn as_lazy(&self) -> Option<&LazyMsg> {
        match &self.body {
            MessageBody::Lazy(m) => Some(m),
            _ => None,
        }
    }

    /// The cluster body, if any.
    pub fn as_cluster(&self) -> Option<&ClusterMsg> {
        match &self.body {
            MessageBody::Cluster(m) => Some(m),
            _ => None,
        }
    }

    /// The wire-level message type.
    pub fn msg_type(&self) -> MsgType {
        match &self.body {
            MessageBody::Of(m) => m.msg_type(),
            MessageBody::Lazy(_) => MsgType::Lazy,
            MessageBody::Cluster(_) => MsgType::Cluster,
        }
    }

    /// Exact encoded size of this message on the wire (header + body):
    /// the body encoder run into a byte counter, so it equals
    /// `self.encode().len()` by construction. The bandwidth model prices
    /// every dispatched message by this.
    pub fn wire_len(&self) -> usize {
        OFP_HEADER_LEN + encoded_len(|count| self.encode_body(count))
    }

    fn encode_body<B: BufMut>(&self, buf: &mut B) {
        match &self.body {
            MessageBody::Of(m) => m.encode_body(buf),
            MessageBody::Lazy(m) => m.encode_body(buf),
            MessageBody::Cluster(m) => m.encode_body(buf),
        }
    }

    /// The controller-ingress priority class of this message (see
    /// [`MsgPriority`] for the shedding ladder).
    pub fn priority(&self) -> MsgPriority {
        match &self.body {
            MessageBody::Of(OfMessage::PacketIn(_)) => MsgPriority::FlowSetup,
            MessageBody::Lazy(LazyMsg::KeepAlive(_) | LazyMsg::WheelReport(_)) => {
                MsgPriority::Critical
            }
            MessageBody::Cluster(
                ClusterMsg::Heartbeat(_)
                | ClusterMsg::VoteRequest(_)
                | ClusterMsg::VoteReply(_)
                | ClusterMsg::LeaderClaim(_),
            ) => MsgPriority::Critical,
            MessageBody::Cluster(ClusterMsg::LookupRequest(_) | ClusterMsg::LookupReply(_)) => {
                MsgPriority::Lookup
            }
            // Ownership transfers, replication syncs, configuration
            // pushes, and the miscellaneous OpenFlow plumbing.
            _ => MsgPriority::OwnershipSync,
        }
    }

    /// Serializes header + body.
    ///
    /// # Panics
    ///
    /// Panics if the encoded message exceeds 65535 bytes (the header length
    /// field is 16 bits, as in OpenFlow). Bulk payloads such as L-FIB syncs
    /// provide chunking helpers to stay under the limit.
    pub fn encode(&self) -> Vec<u8> {
        let total = self.wire_len();
        assert!(
            total <= u16::MAX as usize,
            "message of {total} bytes exceeds 16-bit length field; chunk the payload"
        );
        let mut buf = Vec::with_capacity(total);
        Header {
            version: PROTO_VERSION,
            msg_type: self.msg_type(),
            length: total as u16,
            xid: self.xid,
        }
        .encode_into(&mut buf);
        self.encode_body(&mut buf);
        debug_assert_eq!(buf.len(), total);
        buf
    }

    /// Parses one complete message from `buf`.
    ///
    /// `buf` must contain exactly one message. Nothing in the simulator
    /// decodes; this is the round-trip oracle for [`Message::encode`].
    ///
    /// # Errors
    ///
    /// Any header or body parse failure, or a length field that disagrees
    /// with `buf.len()`.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut r = Reader::new(buf, "message");
        let header = Header::decode(&mut r)?;
        if header.length as usize != buf.len() {
            return Err(ProtoError::LengthMismatch {
                declared: header.length as usize,
                actual: buf.len(),
            });
        }
        let body = &buf[OFP_HEADER_LEN..];
        let parsed = match header.msg_type {
            MsgType::Lazy => MessageBody::Lazy(LazyMsg::decode_body(body)?),
            MsgType::Cluster => MessageBody::Cluster(ClusterMsg::decode_body(body)?),
            t => MessageBody::Of(OfMessage::decode_body(t, body)?),
        };
        Ok(Message {
            xid: header.xid,
            body: parsed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyctrl_net::{MacAddr, PortNo, SwitchId, TenantId};

    /// The layout contract the hot path depends on: a `Message` moves
    /// through every scheduler entry and channel hop, so its inline size
    /// is a per-event constant. Boxing the fat payload variants
    /// (`GroupAssign`, bulk syncs, `StateReport`, `FlowMod`) bought the
    /// ≤64-byte bound — this test keeps the enums from silently regrowing
    /// when a variant gains a field.
    #[test]
    fn message_stays_compact() {
        use std::mem::size_of;
        assert!(
            size_of::<Message>() <= 64,
            "Message grew to {} bytes; box the offending variant",
            size_of::<Message>()
        );
        // The hot small variants stay inline (boxing them would put an
        // allocation on the per-packet / per-keepalive path), so each
        // family must stay within the bound on its own.
        assert!(size_of::<OfMessage>() <= 56, "OfMessage grew");
        assert!(size_of::<LazyMsg>() <= 32, "LazyMsg grew");
        assert!(size_of::<ClusterMsg>() <= 48, "ClusterMsg grew");
        assert!(size_of::<PacketInMsg>() <= 24, "PacketInMsg grew");
        assert!(size_of::<PacketOutMsg>() <= 48, "PacketOutMsg grew");
        // Boxed, but one box per FlowMod: the preload lands thousands.
        assert!(size_of::<FlowModMsg>() <= 64, "FlowModMsg grew");
    }

    #[test]
    fn body_accessors_see_through_the_box() {
        let of = Message::of(1, OfMessage::Hello);
        assert_eq!(of.as_of(), Some(&OfMessage::Hello));
        assert!(of.as_lazy().is_none() && of.as_cluster().is_none());
        let lazy = Message::lazy(
            2,
            LazyMsg::KeepAlive(KeepAliveMsg {
                from: SwitchId::new(1),
                seq: 9,
            }),
        );
        assert!(matches!(lazy.as_lazy(), Some(LazyMsg::KeepAlive(k)) if k.seq == 9));
        let cluster = Message::cluster(
            3,
            ClusterMsg::LookupRequest(LookupRequestMsg {
                from: 4,
                mac: MacAddr::for_host(5),
            }),
        );
        assert!(matches!(
            cluster.as_cluster(),
            Some(ClusterMsg::LookupRequest(r)) if r.from == 4
        ));
    }

    #[test]
    fn hello_round_trips() {
        let m = Message::of(1, OfMessage::Hello);
        let wire = m.encode();
        assert_eq!(wire.len(), OFP_HEADER_LEN);
        assert_eq!(Message::decode(&wire).unwrap(), m);
    }

    #[test]
    fn length_mismatch_detected() {
        let mut wire = Message::of(1, OfMessage::Hello).encode();
        wire.push(0); // trailing garbage
        assert!(matches!(
            Message::decode(&wire).unwrap_err(),
            ProtoError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn lazy_keepalive_round_trips() {
        let m = Message::lazy(
            9,
            LazyMsg::KeepAlive(KeepAliveMsg {
                from: SwitchId::new(3),
                seq: 77,
            }),
        );
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn packet_in_round_trips() {
        let m = Message::of(
            2,
            OfMessage::PacketIn(PacketInMsg {
                buffer_id: 42,
                in_port: PortNo::new(3),
                reason: PacketInReason::NoMatch,
                data: vec![1, 2, 3, 4].into(),
            }),
        );
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn lfib_sync_round_trips() {
        let m = Message::lazy(
            3,
            LazyMsg::lfib_sync(LfibSyncMsg {
                origin: SwitchId::new(8),
                epoch: 5,
                entries: vec![LfibEntry {
                    mac: MacAddr::for_host(11),
                    tenant: TenantId::new(2),
                    port: PortNo::new(1),
                }],
                removed: vec![MacAddr::for_host(12)],
            }),
        );
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    /// One representative `Message` per wire variant, fat payloads
    /// populated so every length term is exercised.
    fn every_variant() -> Vec<Message> {
        use crate::{Action, FlowMatch};
        let entry = HostEntry {
            mac: MacAddr::for_host(10),
            switch: SwitchId::new(3),
            port: PortNo::new(2),
            tenant: TenantId::new(5),
        };
        let sync = PeerSyncMsg {
            origin: 1,
            seq: 42,
            chunk: 3,
            summary: false,
            entries: vec![entry, entry],
            removed: vec![(MacAddr::for_host(55), SwitchId::new(3))],
        };
        vec![
            Message::of(1, OfMessage::Hello),
            Message::of(2, OfMessage::FeaturesRequest),
            Message::of(3, OfMessage::StatsRequest),
            Message::of(
                4,
                OfMessage::Error {
                    code: ErrorCode::StaleEpoch,
                    data: vec![1, 2, 3],
                },
            ),
            Message::of(5, OfMessage::EchoRequest(vec![7; 9])),
            Message::of(6, OfMessage::EchoReply(vec![])),
            Message::of(
                7,
                OfMessage::FeaturesReply {
                    datapath_id: 0xabcd,
                    n_ports: 48,
                },
            ),
            Message::of(
                8,
                OfMessage::PacketIn(PacketInMsg {
                    buffer_id: 42,
                    in_port: PortNo::new(3),
                    reason: PacketInReason::NoMatch,
                    data: vec![1, 2, 3, 4].into(),
                }),
            ),
            Message::of(
                9,
                OfMessage::PacketOut(PacketOutMsg {
                    buffer_id: u32::MAX,
                    in_port: PortNo::NONE,
                    actions: vec![Action::Output(PortNo::FLOOD)].into(),
                    data: vec![9; 60].into(),
                }),
            ),
            Message::of(
                10,
                OfMessage::flow_mod(FlowModMsg {
                    command: FlowModCommand::Add,
                    flow_match: FlowMatch::for_pair(MacAddr::for_host(1), MacAddr::for_host(2)),
                    priority: 100,
                    idle_timeout: 30,
                    hard_timeout: 0,
                    cookie: 0xfeed,
                    actions: vec![
                        Action::SetVlan(TenantId::new(7)),
                        Action::Output(PortNo::new(2)),
                    ]
                    .into(),
                }),
            ),
            Message::of(
                11,
                OfMessage::StatsReply {
                    packets: 1 << 40,
                    flows: 1000,
                    packet_ins: 77,
                },
            ),
            Message::lazy(
                12,
                LazyMsg::group_assign(GroupAssignMsg {
                    group: lazyctrl_net::GroupId::new(2),
                    epoch: 9,
                    members: vec![SwitchId::new(1), SwitchId::new(5), SwitchId::new(9)],
                    designated: SwitchId::new(5),
                    backups: vec![SwitchId::new(9)],
                    ring_prev: SwitchId::new(9),
                    ring_next: SwitchId::new(5),
                    sync_interval_ms: 1000,
                    keepalive_interval_ms: 500,
                    group_size_limit: 46,
                }),
            ),
            Message::lazy(
                13,
                LazyMsg::lfib_sync(LfibSyncMsg {
                    origin: SwitchId::new(3),
                    epoch: 1,
                    entries: vec![LfibEntry {
                        mac: MacAddr::for_host(100),
                        tenant: TenantId::new(7),
                        port: PortNo::new(4),
                    }],
                    removed: vec![MacAddr::for_host(55), MacAddr::for_host(56)],
                }),
            ),
            Message::lazy(
                14,
                LazyMsg::gfib_update(GfibUpdateMsg {
                    origin: SwitchId::new(12),
                    epoch: 3,
                    num_hashes: 4,
                    m_bits: 2000,
                    entries: 128,
                    bits: vec![0xaa; 256],
                }),
            ),
            Message::lazy(
                15,
                LazyMsg::state_report(StateReportMsg {
                    group: lazyctrl_net::GroupId::new(1),
                    epoch: 2,
                    intensity: vec![(SwitchId::new(1), SwitchId::new(2), 12.5)],
                    stats: vec![(SwitchId::new(1), SwitchStats::default())],
                }),
            ),
            Message::lazy(
                16,
                LazyMsg::KeepAlive(KeepAliveMsg {
                    from: SwitchId::new(1),
                    seq: 9,
                }),
            ),
            Message::lazy(
                17,
                LazyMsg::Bargain(BargainMsg {
                    round: 3,
                    from_controller: true,
                    proposed_limit: 300,
                    accept: false,
                }),
            ),
            Message::lazy(
                18,
                LazyMsg::BlockArp {
                    tenant: TenantId::new(44),
                    block: true,
                },
            ),
            Message::lazy(
                19,
                LazyMsg::WheelReport(WheelReportMsg {
                    reporter: SwitchId::new(1),
                    missing: SwitchId::new(2),
                    loss: WheelLoss::Upstream,
                }),
            ),
            Message::lazy(
                20,
                LazyMsg::CongestionNotice(CongestionNoticeMsg { from: 3, level: 2 }),
            ),
            Message::cluster(21, ClusterMsg::peer_sync(sync.clone())),
            Message::cluster(
                22,
                ClusterMsg::OwnershipTransfer(OwnershipTransferMsg {
                    epoch: 4,
                    term: 2,
                    group: lazyctrl_net::GroupId::new(7),
                    from: 0,
                    to: 1,
                    reason: TransferReason::Failover,
                }),
            ),
            Message::cluster(
                23,
                ClusterMsg::Heartbeat(CtrlHeartbeatMsg {
                    from: 0,
                    seq: 11,
                    term: 2,
                    leader: true,
                    load_rps: 12.5,
                    owned_groups: 3,
                }),
            ),
            Message::cluster(
                24,
                ClusterMsg::LookupRequest(LookupRequestMsg {
                    from: 4,
                    mac: MacAddr::for_host(5),
                }),
            ),
            Message::cluster(
                25,
                ClusterMsg::LookupReply(LookupReplyMsg {
                    from: 4,
                    mac: MacAddr::for_host(5),
                    location: Some(entry),
                }),
            ),
            Message::cluster(
                26,
                ClusterMsg::LookupReply(LookupReplyMsg {
                    from: 4,
                    mac: MacAddr::for_host(5),
                    location: None,
                }),
            ),
            Message::cluster(
                27,
                ClusterMsg::sync_digest(SyncDigestMsg {
                    from: 2,
                    heads: vec![(0, 17), (1, 0)],
                }),
            ),
            Message::cluster(
                28,
                ClusterMsg::sync_relay(SyncRelayMsg {
                    from: 1,
                    syncs: vec![sync.clone(), sync],
                }),
            ),
            Message::cluster(
                29,
                ClusterMsg::VoteRequest(VoteRequestMsg {
                    term: 3,
                    candidate: 1,
                }),
            ),
            Message::cluster(
                30,
                ClusterMsg::VoteReply(VoteReplyMsg {
                    term: 3,
                    from: 2,
                    granted: true,
                }),
            ),
            Message::cluster(
                31,
                ClusterMsg::LeaderClaim(LeaderClaimMsg { term: 3, leader: 1 }),
            ),
            Message::cluster(
                32,
                ClusterMsg::TransferAck(TransferAckMsg {
                    from: 1,
                    epoch: 4,
                    group: lazyctrl_net::GroupId::new(7),
                }),
            ),
        ]
    }

    /// `wire_len` must be *exact* for every variant — the bandwidth model
    /// prices messages by it, so a drifting size would silently skew
    /// congestion results.
    #[test]
    fn wire_len_matches_encoded_size() {
        for m in every_variant() {
            assert_eq!(
                m.wire_len(),
                m.encode().len(),
                "wire_len out of lockstep with encode for {:?}",
                m.body
            );
        }
    }

    /// The shedding ladder: failure detection/elections are Critical,
    /// PacketIns are FlowSetup, lookups sit between, everything else is
    /// OwnershipSync.
    #[test]
    fn priority_ladder_is_total_and_correct() {
        assert!(MsgPriority::Critical < MsgPriority::OwnershipSync);
        assert!(MsgPriority::OwnershipSync < MsgPriority::Lookup);
        assert!(MsgPriority::Lookup < MsgPriority::FlowSetup);
        for m in every_variant() {
            let p = m.priority();
            match &m.body {
                MessageBody::Of(OfMessage::PacketIn(_)) => {
                    assert_eq!(p, MsgPriority::FlowSetup)
                }
                MessageBody::Lazy(LazyMsg::KeepAlive(_) | LazyMsg::WheelReport(_))
                | MessageBody::Cluster(
                    ClusterMsg::Heartbeat(_)
                    | ClusterMsg::VoteRequest(_)
                    | ClusterMsg::VoteReply(_)
                    | ClusterMsg::LeaderClaim(_),
                ) => assert_eq!(p, MsgPriority::Critical),
                MessageBody::Cluster(ClusterMsg::LookupRequest(_) | ClusterMsg::LookupReply(_)) => {
                    assert_eq!(p, MsgPriority::Lookup)
                }
                _ => assert_eq!(p, MsgPriority::OwnershipSync),
            }
            assert!(p.index() < MsgPriority::COUNT);
        }
    }

    #[test]
    #[should_panic(expected = "chunk the payload")]
    fn oversized_message_panics_at_encode() {
        let entries = (0..7000)
            .map(|i| LfibEntry {
                mac: MacAddr::for_host(i),
                tenant: TenantId::new(1),
                port: PortNo::new(1),
            })
            .collect();
        let m = Message::lazy(
            1,
            LazyMsg::lfib_sync(LfibSyncMsg {
                origin: SwitchId::new(1),
                epoch: 1,
                entries,
                removed: vec![],
            }),
        );
        let _ = m.encode();
    }
}
