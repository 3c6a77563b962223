//! The LazyCtrl central controller (and the standard-OpenFlow baseline).
//!
//! Mirrors the paper's Floodlight-based implementation (§IV-B) as pure
//! state machines:
//!
//! * [`Clib`] — the Central Location Information Base: the union of every
//!   switch's L-FIB, fed by `LfibSync` messages relayed up the state links;
//! * [`BaselineController`] — the comparison point: a Floodlight-style
//!   reactive learning-switch controller that handles *every* flow setup
//!   ("normal mode" in §V-A);
//! * [`LazyController`] — the hybrid controller: inter-group flow setup
//!   from the C-LIB, switch-grouping management (the SGI algorithm with
//!   the paper's regrouping triggers), tenant information management
//!   (scoped ARP relay, `BlockArp`), failover (Table I inference), and
//!   group-size bargaining;
//! * [`WorkloadMeter`] — request-rate measurement plus the load-dependent
//!   service-time model behind the steady-state latency experiment
//!   (Fig. 9).
//!
//! Controllers consume [`Message`](lazyctrl_proto::Message)s and produce
//! [`ControllerOutput`] effects; the simulation driver in `lazyctrl-core`
//! wires them to links and timers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod clib;
mod failover;
mod grouping;
mod lazy;
mod tenant;
mod workload;

pub use baseline::BaselineController;
pub use clib::{Clib, HostLocation};
pub use failover::{FailureDetector, FailureKind};
pub use grouping::{FrozenGrouping, GroupingManager, RegroupDecision};
pub use lazy::{
    ControllerOutput, ControllerTimer, LazyConfig, LazyController, REGROUP_CHECK_INTERVAL_MS,
};
pub use workload::WorkloadMeter;
