//! Bounded model checking for the LazyCtrl cluster protocols.
//!
//! The cluster control plane ([`lazyctrl_cluster::ClusterControlPlane`])
//! is a pure, clonable state machine behind the
//! [`lazyctrl_cluster::StepModel`] seam: every transition is a function
//! of `(state, input, now)`. This crate exploits that purity to explore
//! the protocol's reachable state space mechanically — every reordering,
//! drop, and duplication of in-flight controller-peer messages, plus
//! member crashes, recoveries, and network partitions (isolating any
//! one member until a heal) within a fault budget — and checks
//! invariant predicates in every state it reaches:
//!
//! 1. **No double apply** — no member ever applies more replicated delta
//!    chunks than its peers created.
//! 2. **Convergence** — after a fault-free settling run, every
//!    functioning member agrees on the per-origin replica heads.
//! 3. **At-most-once relay forwarding** — no member forwards the same
//!    `(origin, seq, chunk)` to the same peer twice.
//! 4. **Ownership integrity** — every group has exactly one owner, the
//!    group count never changes, and after settling the owner is a
//!    functioning member.
//! 5. **Single leader per term** — at no observable point do two
//!    functioning members both lead the same election term.
//!
//! Exploration is exhaustive iterative-deepening DFS with
//! state-fingerprint deduplication by default ([`Mode::Exhaustive`]), or
//! guided random walks for larger clusters ([`Mode::RandomWalk`]).
//! A violation yields a `Counterexample`: the exact event
//! schedule, replayable step-for-step, with its crash/recovery skeleton
//! exportable as a [`lazyctrl_proto::EventPlan`] for the full simulator.
//!
//! The same transitions the simulator executes are the transitions the
//! checker branches over — there is no separate protocol model to drift
//! out of sync.

mod checker;
mod event;
mod invariants;
mod settle;
mod state;
mod trace;

pub use checker::{check, CheckOutcome, CheckStats, CheckerConfig, Mode};
pub use event::{FaultBudget, McEvent};
pub use state::{McState, PendingMsg};
