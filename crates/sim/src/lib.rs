//! Deterministic discrete-event simulation kernel for LazyCtrl experiments.
//!
//! The paper evaluated on a physical testbed (6 Pronto switches, 24 servers,
//! 272 virtual Open vSwitch instances). This crate is the substitution for
//! that testbed (see `DESIGN.md`): a virtual-time event simulator with
//!
//! * [`SimTime`]/[`SimDuration`] — nanosecond virtual clock;
//! * [`EventQueue`]/[`Scheduler`]/[`run`] — the kernel: a total order over
//!   events with deterministic tie-breaking, and a driver loop over a
//!   user-provided [`World`] that merges the queue with a sorted source of
//!   arrivals. The queue is a hierarchical timing wheel (near-O(1)
//!   schedule/pop);
//! * [`LatencyModel`] — per-channel-class delivery latencies (data path,
//!   control link, state link, peer link) with optional deterministic
//!   jitter;
//! * [`BandwidthModel`] — per-class link capacities pricing *load*:
//!   closed-form serialization + queueing delay from message size and
//!   per-link backlog, with no RNG draws;
//! * [`LinkState`] — crashed nodes, per-class loss and network partitions,
//!   the substrate for the failover experiments (§III-E);
//! * [`MetricsSink`] — counters, time-bucketed series (the paper's per-2h
//!   workload plots) and latency histograms.
//!
//! Determinism: given the same seed and inputs, every run produces
//! bit-identical results. Ties in event time are broken by insertion order.
//!
//! # Example
//!
//! ```
//! use lazyctrl_sim::{run, EventQueue, Scheduler, SimDuration, SimTime, World};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, _ev: Ev, sched: &mut Scheduler<'_, Ev>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             sched.schedule_in(now, SimDuration::from_millis(100), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut world = Counter { fired: 0 };
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, Ev::Tick);
//! let end = run(&mut world, &mut queue, std::iter::empty(), SimTime::from_secs(60));
//! assert_eq!(world.fired, 10);
//! assert_eq!(end, SimTime::from_millis(900));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod event;
mod latency;
mod link;
mod metrics;
mod shard;
mod time;

pub use bandwidth::BandwidthModel;
pub use event::{run, run_until_idle, EventQueue, Scheduler, World};
pub use latency::{ChannelClass, LatencyModel};
pub use link::{LinkId, LinkState};
pub use metrics::{CounterId, Log2Histogram, MetricsSink, TimeSeries, LOG2_BUCKETS};
pub use shard::{run_sharded, Outbox, ShardOpts, ShardStats, ShardWorld};
pub use time::{SimDuration, SimTime};
