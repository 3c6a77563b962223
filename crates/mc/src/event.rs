//! Event enumeration: what the adversary (the network and the fault
//! injector) can do next in a given state.

use crate::state::McState;

/// One adversarial choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McEvent {
    /// Deliver in-flight message `pending[i]`.
    Deliver(usize),
    /// Drop in-flight message `pending[i]` (consumes drop budget).
    Drop(usize),
    /// Deliver a copy of `pending[i]`, leaving the original in flight
    /// (consumes duplicate budget).
    Duplicate(usize),
    /// Fire the earliest-due armed timer, advancing the clock to it.
    FireTimer,
    /// Crash a functioning member (consumes crash budget).
    Crash(u32),
    /// Restart a crashed member.
    Recover(u32),
    /// Sever member `m` from every peer (consumes partition budget). On
    /// a fabric of members only, every two-way cut is "isolate one
    /// member" up to symmetry, so this single shape covers the clean
    /// split and the leader-island cut alike. In-flight messages across
    /// the cut are destroyed, and messages sent across it while the
    /// partition stands never enter the in-flight set.
    Partition(u32),
    /// Restore full reachability (consumes heal budget).
    Heal,
}

/// How much damage the adversary may do along one schedule. Bounding the
/// budget is what keeps exhaustive exploration finite *and* matches the
/// fairness assumptions the liveness invariants need (a network that
/// drops everything forever converges on nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultBudget {
    /// Message drops available.
    pub drops: u32,
    /// Message duplications available.
    pub dups: u32,
    /// Member crashes available.
    pub crashes: u32,
    /// Partition starts available (each isolates one member from every
    /// peer until healed).
    pub partitions: u32,
    /// Partition heals available. Liveness does not depend on the
    /// adversary spending these: `crate::settle` heals unconditionally
    /// before the terminal invariants are checked — the standard
    /// "partitions eventually heal" fairness assumption.
    pub heals: u32,
}

impl FaultBudget {
    /// No faults: pure reordering exploration.
    pub fn none() -> FaultBudget {
        FaultBudget {
            drops: 0,
            dups: 0,
            crashes: 0,
            partitions: 0,
            heals: 0,
        }
    }
}

/// Enumerates the events enabled in `state` under `budget`, in a fixed
/// deterministic order.
///
/// Symmetry reduction: two in-flight messages that are bit-identical on
/// the same link (xid blinded — equal [`crate::PendingMsg::wire_hash`])
/// lead to identical successor states, so only the first enumerates
/// Deliver/Drop/Duplicate branches.
pub(crate) fn enabled_events(
    state: &McState,
    budget: FaultBudget,
    max_pending: usize,
) -> Vec<McEvent> {
    let pending = state.pending();
    let first_of_its_wire = |&i: &usize| {
        let w = pending[i].wire_hash();
        pending[..i].iter().all(|p| p.wire_hash() != w)
    };
    let distinct = (0..pending.len()).filter(first_of_its_wire);
    let mut events: Vec<McEvent> = distinct.clone().map(McEvent::Deliver).collect();
    if budget.drops > 0 {
        events.extend(distinct.clone().map(McEvent::Drop));
    }
    if budget.dups > 0 && pending.len() < max_pending {
        events.extend(distinct.map(McEvent::Duplicate));
    }
    if !state.timers().is_empty() {
        events.push(McEvent::FireTimer);
    }
    let members = state.plane.num_controllers() as u32;
    let functioning = (0..members)
        .filter(|&id| !state.plane.is_crashed(id))
        .count();
    // Never crash the last functioning member: with nobody left to act,
    // every invariant holds vacuously and the subtree is noise.
    if budget.crashes > 0 && functioning > 1 {
        for id in 0..members {
            if !state.plane.is_crashed(id) {
                events.push(McEvent::Crash(id));
            }
        }
    }
    for id in 0..members {
        if state.plane.is_crashed(id) {
            events.push(McEvent::Recover(id));
        }
    }
    // One partition at a time: a second cut before the heal would only
    // re-partition an already-severed fabric, and keeping the partition
    // state a single island bound keeps the space small.
    if budget.partitions > 0 && state.partition.is_none() && functioning > 1 {
        for id in 0..members {
            if !state.plane.is_crashed(id) {
                events.push(McEvent::Partition(id));
            }
        }
    }
    if budget.heals > 0 && state.partition.is_some() {
        events.push(McEvent::Heal);
    }
    events
}

/// Deducts the cost of `ev` from `budget`.
pub(crate) fn spend(budget: &mut FaultBudget, ev: McEvent) {
    match ev {
        McEvent::Drop(_) => budget.drops -= 1,
        McEvent::Duplicate(_) => budget.dups -= 1,
        McEvent::Crash(_) => budget.crashes -= 1,
        McEvent::Partition(_) => budget.partitions -= 1,
        McEvent::Heal => budget.heals -= 1,
        McEvent::Deliver(_) | McEvent::FireTimer | McEvent::Recover(_) => {}
    }
}
