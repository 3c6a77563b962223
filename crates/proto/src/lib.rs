//! OpenFlow-like control protocol for LazyCtrl, with the paper's vendor
//! extensions.
//!
//! The paper’s prototype "extends the OpenFlow protocol" (§IV): the control
//! link speaks OpenFlow 1.0-style messages (`Hello`, `Echo`, `PacketIn`,
//! `PacketOut`, `FlowMod`, ...) extended with switch-grouping messages, and
//! `FlowMod` gains an **Encap** action that makes a switch tunnel matching
//! packets to a remote edge switch over the IP underlay.
//!
//! The simulator passes messages between state machines as Rust values, so
//! bytes exist for two jobs only: [`Message::wire_len`] prices a message on
//! a capacitated link, and [`Message::encode`] gives the model checker an
//! exact image to hash. Every message has one binary encoding over
//! [`bytes`]; the length is counted from the same encoder, so the two
//! cannot drift. [`Message::decode`] is kept as the round-trip oracle for
//! that encoding's injectivity, which the checker's in-flight hashes rely
//! on.
//!
//! Three logical channels carry these messages (§III-B.3):
//!
//! * **control link** — controller ⟷ every switch (`PacketIn`, `FlowMod`,
//!   `GroupAssign`, ...),
//! * **state link** — controller ⟷ designated switch (`StateReport`,
//!   `LfibSync` snapshots),
//! * **peer link** — designated switch ⟷ group members (`LfibSync`,
//!   `GfibUpdate`, `KeepAlive`).
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use lazyctrl_proto::{Message, OfMessage};
//!
//! let echo = Message::of(1, OfMessage::EchoRequest(vec![1, 2, 3]));
//! let wire = echo.encode();
//! assert_eq!(wire.len(), echo.wire_len());
//! assert_eq!(Message::decode(&wire)?, echo);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actions;
mod error;
pub mod flow_match;
mod header;
pub mod messages;
pub mod plan;
pub mod sink;
mod wire;

pub use actions::Action;
pub use error::ProtoError;
pub use flow_match::FlowMatch;
pub use header::{MsgType, OFP_HEADER_LEN, PROTO_VERSION};
pub use messages::{
    BargainMsg, ClusterMsg, CongestionNoticeMsg, CtrlHeartbeatMsg, EchoKind, ErrorCode,
    FlowModCommand, FlowModMsg, GfibUpdateMsg, GroupAssignMsg, HostEntry, KeepAliveMsg, LazyMsg,
    LeaderClaimMsg, LfibEntry, LfibSyncMsg, LookupReplyMsg, LookupRequestMsg, Message, MessageBody,
    MsgPriority, OfMessage, OwnershipTransferMsg, PacketInMsg, PacketInReason, PacketOutMsg,
    PeerSyncMsg, StateReportMsg, SwitchStats, SyncDigestMsg, SyncRelayMsg, TransferAckMsg,
    TransferReason, VoteReplyMsg, VoteRequestMsg, WheelLoss, WheelReportMsg, WHEEL_MISS_THRESHOLD,
};
pub use plan::{EventPlan, InjectedEvent, ScheduledEvent};
pub use sink::OutputSink;

/// Result alias used across the protocol layer.
pub type Result<T> = std::result::Result<T, ProtoError>;
