//! The OpenFlow 1.0-style message subset.

use std::sync::Arc;

use bytes::{BufMut, Bytes};
use lazyctrl_net::PortNo;
use serde::{Deserialize, Serialize};

use crate::actions::{decode_actions, encode_actions};
use crate::wire::Reader;
use crate::{Action, FlowMatch, MsgType, ProtoError, Result};

/// Why a switch punted a packet to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketInReason {
    /// No flow-table, L-FIB or G-FIB entry matched (the LazyCtrl inter-group
    /// path, Fig. 5 line 16).
    NoMatch,
    /// An explicit rule action sent it here.
    Action,
    /// The packet was mis-forwarded due to a G-FIB bloom-filter false
    /// positive and the egress switch elected to report it so the controller
    /// can install a corrective rule (Fig. 5, optional path after line 28).
    FalsePositive,
}

impl PacketInReason {
    fn to_u8(self) -> u8 {
        match self {
            PacketInReason::NoMatch => 0,
            PacketInReason::Action => 1,
            PacketInReason::FalsePositive => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => PacketInReason::NoMatch,
            1 => PacketInReason::Action,
            2 => PacketInReason::FalsePositive,
            other => {
                return Err(ProtoError::InvalidField {
                    field: "packet_in.reason",
                    value: other as u64,
                })
            }
        })
    }
}

/// Switch-to-controller: a packet that needs a controller decision.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketInMsg {
    /// Opaque id of the buffered packet on the switch (`u32::MAX` = none).
    pub buffer_id: u32,
    /// Port the packet arrived on.
    pub in_port: PortNo,
    /// Why it was punted.
    pub reason: PacketInReason,
    /// The raw packet bytes (possibly truncated by the switch). Shared:
    /// relaying a punted packet to several switches clones the handle,
    /// not the bytes.
    pub data: Bytes,
}

/// Controller-to-switch: inject/release a packet with an action list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketOutMsg {
    /// Buffered packet to release (`u32::MAX` = the packet is in `data`).
    pub buffer_id: u32,
    /// Port to treat as ingress for action processing.
    pub in_port: PortNo,
    /// Actions to apply. Shared: a fan-out of one packet to many switches
    /// carries one list.
    pub actions: Arc<[Action]>,
    /// Raw packet, when not referring to a buffer (shared bytes).
    pub data: Bytes,
}

/// Flow-table mutation command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowModCommand {
    /// Insert a new rule.
    Add,
    /// Modify matching rules' actions.
    Modify,
    /// Remove matching rules.
    Delete,
}

impl FlowModCommand {
    fn to_u8(self) -> u8 {
        match self {
            FlowModCommand::Add => 0,
            FlowModCommand::Modify => 1,
            FlowModCommand::Delete => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => FlowModCommand::Add,
            1 => FlowModCommand::Modify,
            3 => FlowModCommand::Delete,
            other => {
                return Err(ProtoError::InvalidField {
                    field: "flow_mod.command",
                    value: other as u64,
                })
            }
        })
    }
}

/// Controller-to-switch flow-table modification.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowModMsg {
    /// What to do.
    pub command: FlowModCommand,
    /// Which packets the rule matches.
    pub flow_match: FlowMatch,
    /// Rule priority; higher wins.
    pub priority: u16,
    /// Evict after this many seconds idle (0 = never).
    pub idle_timeout: u16,
    /// Evict after this many seconds regardless (0 = never).
    pub hard_timeout: u16,
    /// Opaque controller cookie.
    pub cookie: u64,
    /// Actions applied on match. Shared: every rule installed from this
    /// message — and every message of a fan-out built from one list —
    /// holds the same allocation.
    pub actions: Arc<[Action]>,
}

/// Error categories a peer can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorCode {
    /// Handshake failed.
    HelloFailed,
    /// Malformed or unsupported request.
    BadRequest,
    /// A `FlowMod` could not be applied (e.g. table full).
    FlowModFailed,
    /// The referenced epoch is stale (LazyCtrl regrouping races).
    StaleEpoch,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::HelloFailed => 0,
            ErrorCode::BadRequest => 1,
            ErrorCode::FlowModFailed => 3,
            ErrorCode::StaleEpoch => 0xf0,
        }
    }

    fn from_u16(v: u16) -> Result<Self> {
        Ok(match v {
            0 => ErrorCode::HelloFailed,
            1 => ErrorCode::BadRequest,
            3 => ErrorCode::FlowModFailed,
            0xf0 => ErrorCode::StaleEpoch,
            other => {
                return Err(ProtoError::InvalidField {
                    field: "error.code",
                    value: other as u64,
                })
            }
        })
    }
}

/// The standard message subset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OfMessage {
    /// Connection handshake.
    Hello,
    /// Error report with the request's raw bytes attached.
    Error {
        /// Category.
        code: ErrorCode,
        /// Offending request prefix.
        data: Vec<u8>,
    },
    /// Liveness probe.
    EchoRequest(Vec<u8>),
    /// Liveness probe response.
    EchoReply(Vec<u8>),
    /// Ask the switch to describe itself.
    FeaturesRequest,
    /// Switch self-description.
    FeaturesReply {
        /// Unique datapath id.
        datapath_id: u64,
        /// Number of physical ports.
        n_ports: u16,
    },
    /// Packet punt.
    PacketIn(PacketInMsg),
    /// Packet injection.
    PacketOut(PacketOutMsg),
    /// Flow-table mutation. Boxed: `FlowModMsg` is the widest OpenFlow
    /// body by far and rides only the (infrequent) rule-install path,
    /// while `PacketIn`/`PacketOut` dominate event volume — boxing it
    /// here is what keeps `size_of::<Message>() ≤ 64` (see the layout
    /// regression test in `messages::mod`).
    FlowMod(Box<FlowModMsg>),
    /// Ask for switch counters.
    StatsRequest,
    /// Counter snapshot: (packets seen, flow-table entries, packet-ins sent).
    StatsReply {
        /// Total packets processed.
        packets: u64,
        /// Current flow-table size.
        flows: u32,
        /// Total `PacketIn`s emitted.
        packet_ins: u64,
    },
}

impl OfMessage {
    /// Wraps (and boxes) a flow-table mutation.
    pub fn flow_mod(msg: FlowModMsg) -> Self {
        OfMessage::FlowMod(Box::new(msg))
    }

    /// The wire-level message type for this body.
    pub(crate) fn msg_type(&self) -> MsgType {
        match self {
            OfMessage::Hello => MsgType::Hello,
            OfMessage::Error { .. } => MsgType::Error,
            OfMessage::EchoRequest(_) => MsgType::EchoRequest,
            OfMessage::EchoReply(_) => MsgType::EchoReply,
            OfMessage::FeaturesRequest => MsgType::FeaturesRequest,
            OfMessage::FeaturesReply { .. } => MsgType::FeaturesReply,
            OfMessage::PacketIn(_) => MsgType::PacketIn,
            OfMessage::PacketOut(_) => MsgType::PacketOut,
            OfMessage::FlowMod(_) => MsgType::FlowMod,
            OfMessage::StatsRequest => MsgType::StatsRequest,
            OfMessage::StatsReply { .. } => MsgType::StatsReply,
        }
    }

    pub(crate) fn encode_body<B: BufMut>(&self, buf: &mut B) {
        match self {
            OfMessage::Hello | OfMessage::FeaturesRequest | OfMessage::StatsRequest => {}
            OfMessage::Error { code, data } => {
                buf.put_u16(code.to_u16());
                buf.put_u32(data.len() as u32);
                buf.put_slice(data);
            }
            OfMessage::EchoRequest(data) | OfMessage::EchoReply(data) => {
                buf.put_u32(data.len() as u32);
                buf.put_slice(data);
            }
            OfMessage::FeaturesReply {
                datapath_id,
                n_ports,
            } => {
                buf.put_u64(*datapath_id);
                buf.put_u16(*n_ports);
            }
            OfMessage::PacketIn(m) => {
                buf.put_u32(m.buffer_id);
                buf.put_u16(m.in_port.as_u16());
                buf.put_u8(m.reason.to_u8());
                buf.put_u32(m.data.len() as u32);
                buf.put_slice(&m.data);
            }
            OfMessage::PacketOut(m) => {
                buf.put_u32(m.buffer_id);
                buf.put_u16(m.in_port.as_u16());
                encode_actions(&m.actions, buf);
                buf.put_u32(m.data.len() as u32);
                buf.put_slice(&m.data);
            }
            OfMessage::FlowMod(m) => {
                buf.put_u8(m.command.to_u8());
                m.flow_match.encode_into(buf);
                buf.put_u16(m.priority);
                buf.put_u16(m.idle_timeout);
                buf.put_u16(m.hard_timeout);
                buf.put_u64(m.cookie);
                encode_actions(&m.actions, buf);
            }
            OfMessage::StatsReply {
                packets,
                flows,
                packet_ins,
            } => {
                buf.put_u64(*packets);
                buf.put_u32(*flows);
                buf.put_u64(*packet_ins);
            }
        }
    }

    pub(crate) fn decode_body(msg_type: MsgType, body: &[u8]) -> Result<Self> {
        let mut r = Reader::new(body, "of body");
        let msg = match msg_type {
            MsgType::Hello => OfMessage::Hello,
            MsgType::FeaturesRequest => OfMessage::FeaturesRequest,
            MsgType::StatsRequest => OfMessage::StatsRequest,
            MsgType::Error => {
                let code = ErrorCode::from_u16(r.u16()?)?;
                let n = r.len_prefix()?;
                OfMessage::Error {
                    code,
                    data: r.bytes(n)?,
                }
            }
            MsgType::EchoRequest => {
                let n = r.len_prefix()?;
                OfMessage::EchoRequest(r.bytes(n)?)
            }
            MsgType::EchoReply => {
                let n = r.len_prefix()?;
                OfMessage::EchoReply(r.bytes(n)?)
            }
            MsgType::FeaturesReply => OfMessage::FeaturesReply {
                datapath_id: r.u64()?,
                n_ports: r.u16()?,
            },
            MsgType::PacketIn => {
                let buffer_id = r.u32()?;
                let in_port = PortNo::new(r.u16()?);
                let reason = PacketInReason::from_u8(r.u8()?)?;
                let n = r.len_prefix()?;
                OfMessage::PacketIn(PacketInMsg {
                    buffer_id,
                    in_port,
                    reason,
                    data: r.bytes(n)?.into(),
                })
            }
            MsgType::PacketOut => {
                let buffer_id = r.u32()?;
                let in_port = PortNo::new(r.u16()?);
                let actions = decode_actions(&mut r)?.into();
                let n = r.len_prefix()?;
                OfMessage::PacketOut(PacketOutMsg {
                    buffer_id,
                    in_port,
                    actions,
                    data: r.bytes(n)?.into(),
                })
            }
            MsgType::FlowMod => {
                let command = FlowModCommand::from_u8(r.u8()?)?;
                let flow_match = FlowMatch::decode(&mut r)?;
                let priority = r.u16()?;
                let idle_timeout = r.u16()?;
                let hard_timeout = r.u16()?;
                let cookie = r.u64()?;
                let actions = decode_actions(&mut r)?.into();
                OfMessage::flow_mod(FlowModMsg {
                    command,
                    flow_match,
                    priority,
                    idle_timeout,
                    hard_timeout,
                    cookie,
                    actions,
                })
            }
            MsgType::StatsReply => OfMessage::StatsReply {
                packets: r.u64()?,
                flows: r.u32()?,
                packet_ins: r.u64()?,
            },
            MsgType::Lazy | MsgType::Cluster => {
                return Err(ProtoError::InvalidField {
                    field: "of.msg_type",
                    value: msg_type as u64,
                })
            }
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
    use lazyctrl_net::{MacAddr, TenantId};

    fn round_trip(m: OfMessage) {
        let mut body = Vec::new();
        m.encode_body(&mut body);
        let back = OfMessage::decode_body(m.msg_type(), &body).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn bodyless_messages() {
        round_trip(OfMessage::Hello);
        round_trip(OfMessage::FeaturesRequest);
        round_trip(OfMessage::StatsRequest);
    }

    #[test]
    fn echo_and_error() {
        round_trip(OfMessage::EchoRequest(vec![]));
        round_trip(OfMessage::EchoReply(vec![9; 100]));
        round_trip(OfMessage::Error {
            code: ErrorCode::StaleEpoch,
            data: vec![1, 2, 3],
        });
    }

    #[test]
    fn features_and_stats() {
        round_trip(OfMessage::FeaturesReply {
            datapath_id: 0xabcd,
            n_ports: 48,
        });
        round_trip(OfMessage::StatsReply {
            packets: 1 << 40,
            flows: 1000,
            packet_ins: 77,
        });
    }

    #[test]
    fn flow_mod_full() {
        round_trip(OfMessage::flow_mod(FlowModMsg {
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
        }));
    }

    #[test]
    fn packet_out_with_buffer_ref() {
        round_trip(OfMessage::PacketOut(PacketOutMsg {
            buffer_id: 55,
            in_port: PortNo::NONE,
            actions: vec![Action::Output(PortNo::FLOOD)].into(),
            data: vec![].into(),
        }));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = Vec::new();
        OfMessage::FeaturesReply {
            datapath_id: 1,
            n_ports: 1,
        }
        .encode_body(&mut body);
        body.push(0);
        assert!(matches!(
            OfMessage::decode_body(MsgType::FeaturesReply, &body).unwrap_err(),
            ProtoError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn bad_reason_rejected() {
        let m = OfMessage::PacketIn(PacketInMsg {
            buffer_id: 1,
            in_port: PortNo::new(1),
            reason: PacketInReason::NoMatch,
            data: vec![].into(),
        });
        let mut body = Vec::new();
        m.encode_body(&mut body);
        body[6] = 9; // reason byte
        assert!(OfMessage::decode_body(MsgType::PacketIn, &body).is_err());
    }
}
