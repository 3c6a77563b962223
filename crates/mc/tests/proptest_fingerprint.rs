//! Property tests for the checker's state fingerprint, which takes the
//! in-flight and armed-timer multisets as hash sums kept up to date by
//! every transition instead of sorting and hashing them per state.
//!
//! Random walks on 3 and 5 members — deliveries, drops, duplicates, timer
//! firings, crashes, recoveries, partitions and heals — apply every event
//! enabled in each state they pass through, then take one. Against an
//! oracle that fingerprints the way the checker once did (sort both
//! multisets, hash every element through `Fnv64`), they assert that:
//!
//! * two visited states have equal oracle fingerprints if and only if
//!   they have equal checker fingerprints;
//! * delivering two messages to different members in either order gives
//!   the same fingerprint whenever the oracle sees the same state — and
//!   seeded walks show that such diamonds occur with the in-flight set
//!   in a different order, as do states with two equal messages in
//!   flight;
//! * after every step the kept sums equal a full recompute
//!   (`McState::check_multisets`).
//!
//! Planted mutations that must fail this file: the in-flight sum not
//! reduced on `Drop`; not reduced by `Partition`'s retain; the timer sum
//! not reduced by `Crash`'s retain; an element present twice counted once.

mod common;

use std::collections::HashMap;

use common::initial;
use lazyctrl_cluster::Fnv64;
use lazyctrl_mc::{FaultBudget, McEvent, McState, PendingMsg};
use proptest::prelude::*;

const MAX_PENDING: usize = 24;

/// The fingerprint as it was before the multiset sums: both multisets
/// sorted, every element hashed.
fn oracle(s: &McState) -> u64 {
    let mut h = Fnv64::new();
    h.u64(s.plane.state_fingerprint());
    h.u64(s.now_ns);
    match s.partition {
        Some(p) => h.u32(1).u32(p),
        None => h.u32(0),
    };
    let mut wires: Vec<u64> = s.pending().iter().map(PendingMsg::wire_hash).collect();
    wires.sort_unstable();
    h.usize(wires.len());
    for w in wires {
        h.u64(w);
    }
    let mut arms: Vec<(u64, u32, u8, u32)> = s
        .timers()
        .iter()
        .map(|&(due, t)| (due, t.node, t.kind.tag(), t.gen))
        .collect();
    arms.sort_unstable();
    h.usize(arms.len());
    for (due, node, kind, gen) in arms {
        h.u64(due).u32(node).u8(kind).u32(gen);
    }
    h.finish()
}

/// Every event the adversary may take in `s` under `budget`, without the
/// checker's symmetry reduction: equal messages are each delivered,
/// dropped and duplicated.
fn all_events(s: &McState, budget: FaultBudget) -> Vec<McEvent> {
    let n = s.pending().len();
    let mut events: Vec<McEvent> = (0..n).map(McEvent::Deliver).collect();
    if budget.drops > 0 {
        events.extend((0..n).map(McEvent::Drop));
    }
    if budget.dups > 0 && n < MAX_PENDING {
        events.extend((0..n).map(McEvent::Duplicate));
    }
    if !s.timers().is_empty() {
        events.push(McEvent::FireTimer);
    }
    let functioning = s.functioning();
    for id in 0..s.plane.num_controllers() as u32 {
        let up = functioning.contains(&id);
        if up && budget.crashes > 0 && functioning.len() > 1 {
            events.push(McEvent::Crash(id));
        }
        if !up {
            events.push(McEvent::Recover(id));
        }
        if up && budget.partitions > 0 && s.partition.is_none() && functioning.len() > 1 {
            events.push(McEvent::Partition(id));
        }
    }
    if budget.heals > 0 && s.partition.is_some() {
        events.push(McEvent::Heal);
    }
    events
}

fn spend(budget: &mut FaultBudget, ev: McEvent) {
    match ev {
        McEvent::Drop(_) => budget.drops -= 1,
        McEvent::Duplicate(_) => budget.dups -= 1,
        McEvent::Crash(_) => budget.crashes -= 1,
        McEvent::Partition(_) => budget.partitions -= 1,
        McEvent::Heal => budget.heals -= 1,
        McEvent::Deliver(_) | McEvent::FireTimer | McEvent::Recover(_) => {}
    }
}

/// The two fingerprints of every state seen, each way round: a pair that
/// disagrees is two states one fingerprint merges and the other splits.
#[derive(Default)]
struct Pairs {
    new_of_old: HashMap<u64, u64>,
    old_of_new: HashMap<u64, u64>,
}

impl Pairs {
    fn visit(&mut self, s: &McState) {
        assert_eq!(s.check_multisets(), Ok(()));
        let (old, new) = (oracle(s), s.fingerprint());
        let seen_new = *self.new_of_old.entry(old).or_insert(new);
        assert_eq!(seen_new, new, "one oracle state, two fingerprints");
        let seen_old = *self.old_of_new.entry(new).or_insert(old);
        assert_eq!(seen_old, old, "two oracle states, one fingerprint");
    }
}

fn after(s: &McState, events: &[McEvent]) -> McState {
    let mut s = s.clone();
    for &ev in events {
        s.apply(ev);
    }
    s
}

/// Delivers `pending[i]` then `pending[j]`, and the other way round.
fn both_orders(s: &McState, i: usize, j: usize) -> (McState, McState) {
    let shifted = |k: usize, gone: usize| k - usize::from(k > gone);
    (
        after(s, &[McEvent::Deliver(i), McEvent::Deliver(shifted(j, i))]),
        after(s, &[McEvent::Deliver(j), McEvent::Deliver(shifted(i, j))]),
    )
}

fn wires(s: &McState) -> Vec<u64> {
    s.pending().iter().map(PendingMsg::wire_hash).collect()
}

/// How often a walk met the cases the sums could get wrong.
#[derive(Default)]
struct Seen {
    /// Diamonds whose two orders left the in-flight set in different
    /// orders.
    reordered: u32,
    /// States with two equal messages in flight.
    twins: u32,
}

/// Walks `members` members through one event per pick, checking every
/// state reached on the way: every one-step successor of each state, and
/// each pair of messages to different members delivered in both orders.
fn walk(members: usize, picks: impl IntoIterator<Item = u64>) -> Seen {
    let mut budget = FaultBudget {
        drops: 3,
        dups: 8,
        crashes: 1,
        partitions: 1,
        heals: 1,
    };
    let mut state = initial(members);
    let mut pairs = Pairs::default();
    let mut seen = Seen::default();
    pairs.visit(&state);
    for pick in picks {
        let events = all_events(&state, budget);
        if events.is_empty() {
            break;
        }
        for &ev in &events {
            pairs.visit(&after(&state, &[ev]));
        }
        let w = wires(&state);
        seen.twins += u32::from((0..w.len()).any(|i| w[..i].contains(&w[i])));
        let p = state.pending();
        for i in 0..p.len() {
            for j in (i + 1)..p.len() {
                if p[i].to() == p[j].to() {
                    continue;
                }
                let (ab, ba) = both_orders(&state, i, j);
                pairs.visit(&ab);
                pairs.visit(&ba);
                if oracle(&ab) == oracle(&ba) {
                    assert_eq!(ab.fingerprint(), ba.fingerprint(), "order leaked in");
                    seen.reordered += u32::from(wires(&ab) != wires(&ba));
                }
            }
        }
        let ev = events[(pick % events.len() as u64) as usize];
        spend(&mut budget, ev);
        state.apply(ev);
        pairs.visit(&state);
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sums_split_states_exactly_as_sorting_did(
        five in any::<bool>(),
        picks in proptest::collection::vec(any::<u64>(), 1..160),
    ) {
        walk(if five { 5 } else { 3 }, picks);
    }
}

/// The cases that make a multiset hash hard do occur: seeded walks reach
/// diamonds that close with the in-flight set in another order, and
/// states with two equal messages in flight (twelve 200-step walks on 3
/// members meet 18 and 12 of them).
#[test]
fn walks_meet_reorders_and_twins() {
    let mut total = Seen::default();
    for seed in 0..12u64 {
        let mut rng = seed;
        let picks = std::iter::repeat_with(|| {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            (rng ^ (rng >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 16
        });
        let seen = walk(3, picks.take(200));
        total.reordered += seen.reordered;
        total.twins += seen.twins;
    }
    assert!(total.reordered > 0, "no reordered diamond closed");
    assert!(total.twins > 0, "no twin messages in flight");
}
