//! The LazyCtrl edge switch.
//!
//! Mirrors the paper's Open vSwitch-based implementation (§IV-A) as a pure,
//! deterministic state machine:
//!
//! * [`FlowTable`] — OpenFlow-style rule table (the "flow table" lane of
//!   Fig. 5, lines 4–5), fed by controller `FlowMod`s;
//! * [`Lfib`] — Local Forwarding Information Base: MAC → local port
//!   learning table with aging and delta tracking;
//! * [`Gfib`] — Group FIB: one Bloom filter per peer switch in the local
//!   control group (§III-D.2);
//! * [`forwarding`] — the packet forwarding routine of Fig. 5, as a pure
//!   function from switch state to a [`ForwardingDecision`];
//! * `StateAdvertiser` — collects L-FIB deltas and traffic statistics and
//!   emits peer-link sync messages (§IV-A "state advertisement module");
//! * `DesignatedRole` — aggregation/relay duties of the designated switch
//!   (state link reports, group-wide dissemination);
//! * [`wheel`] — the failure-detection wheel participant (§III-E.1);
//! * [`EdgeSwitch`] — the composed switch: consumes packets, control
//!   messages and timers; produces [`SwitchOutput`] effects.
//!
//! The switch knows nothing about the simulator: time is a plain
//! nanosecond counter and all I/O is returned as values, which is what
//! makes the forwarding routine unit-testable at this density.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod designated;
mod flow_table;
pub mod forwarding;
mod gfib;
mod lfib;
mod state_adv;
mod switch;
pub mod wheel;

use designated::DesignatedRole;
pub use flow_table::{FlowRule, FlowTable, PacketFields};
pub use forwarding::ForwardingDecision;
pub use gfib::{build_update as build_gfib_update, Gfib};
pub use lfib::Lfib;
use state_adv::StateAdvertiser;
pub use switch::{floods_only, EdgeSwitch, GroupConfig, SwitchOutput, SwitchTimer};
