//! Deterministic settling: the fair executor the liveness invariants
//! assume.
//!
//! From any exploration state, `settle` runs the system forward with a
//! benign network — every in-flight message delivered promptly in FIFO
//! order, every timer fired on time, no faults — for a bounded virtual
//! horizon. Detection, takeover, election, and anti-entropy all get the
//! time their cadences need, after which the terminal invariants
//! (convergence, live ownership, an elected leader) must hold.

use crate::event::McEvent;
use crate::state::McState;

/// Runs `state` fault-free for `horizon_ns` of virtual time and returns
/// the settled copy. The input state is not modified.
///
/// An active partition is healed first: the liveness invariants assume
/// partitions eventually heal (a permanently split cluster can neither
/// converge nor keep a quorum leader, by design, not by bug), so the
/// terminal check always judges the *post-heal* behavior.
pub(crate) fn settle(state: &McState, horizon_ns: u64) -> McState {
    let mut s = state.clone();
    if s.partition.is_some() {
        s.apply(McEvent::Heal);
    }
    let end = s.now_ns.saturating_add(horizon_ns);
    loop {
        if !s.pending().is_empty() {
            s.apply(McEvent::Deliver(0));
            continue;
        }
        match s.min_timer() {
            Some(i) if s.timers()[i].0 <= end => {
                s.apply(McEvent::FireTimer);
            }
            _ => break,
        }
    }
    s
}
