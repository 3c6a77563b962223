//! `lazyctrl-cluster`: a sharded multi-controller control plane for
//! LazyCtrl.
//!
//! The paper's scalability argument (§III, §V) devolves *frequent* control
//! into the switch groups and leaves only rare inter-group events to the
//! central controller — but that controller is still one process. This
//! crate applies the same devolution one layer up, following the designs
//! the paper builds on (*Use of Devolved Controllers in Data Center
//! Networks*, Tam et al.; *Controlling a Software-Defined Network via
//! Distributed Controllers*, Yazıcı et al.): run N cooperating
//! [`LazyController`](lazyctrl_controller::LazyController)s, each owning a
//! disjoint set of switch groups, so the control plane's capacity scales
//! with the data center.
//!
//! The three pillars (see [`ClusterControlPlane`] for the full
//! architecture notes):
//!
//! * [`OwnershipMap`] — which member owns each group, with epochal
//!   transfers for load rebalancing;
//! * [`ReplicaStore`] + peer-sync dissemination
//!   ([`DisseminationStrategy`]: direct flood or ring circulation, with
//!   anti-entropy digest catch-up) —
//!   asynchronous C-LIB replication, so inter-shard flow setups resolve
//!   locally (with a synchronous peer lookup as miss fallback);
//! * controller failover — ring heartbeats feeding the *same* Table-I
//!   inference machinery the switch wheel uses
//!   ([`lazyctrl_controller::FailureDetector`]), with leader-driven
//!   ownership takeover seeded from the replicas.
//!
//! Everything is deterministic: same seed ⇒ bit-identical results, which
//! `lazyctrl-core`'s cluster scenarios assert.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod dissemination;
mod election;
mod fingerprint;
mod model;
mod ownership;
mod plane;
mod replica;

pub use config::ClusterConfig;
pub use dissemination::DisseminationStrategy;
pub use election::{ElectionRole, ElectionState};
pub use fingerprint::{hash_wire_ignoring_xid, Fnv64};
pub use model::StepModel;
pub use ownership::OwnershipMap;
pub use plane::{
    ctrl_pseudo_switch, ClusterControlPlane, ClusterOutput, ClusterTimer, ClusterTimerKind,
    MemberCounter, LEADER_LEASE_MS,
};
pub use replica::ReplicaStore;
