//! Differential property test: the timing-wheel scheduler pops the exact
//! same `(time, seq, event)` sequence as the `BinaryHeap` reference model
//! below under arbitrary schedules — equal-time bursts, sub-tick
//! spacings, day-scale horizons and far-future (top-level) times
//! included, with pops interleaved between schedules so the wheel's
//! cursor advances mid-stream. A second property pins the run loop's
//! merge: a sorted arrival source handed to `run` fires exactly what
//! scheduling the source first and then running fires.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lazyctrl_sim::{run, EventQueue, Scheduler, SimTime, World};
use proptest::prelude::*;

/// The reference model: a min-heap on `(time, insertion seq)`. This was
/// the simulator's first scheduler; the wheel replaced it and must keep
/// popping exactly what it pops.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    scheduled: u64,
    popped: u64,
}

impl HeapModel {
    fn schedule(&mut self, at: SimTime, event: u32) {
        self.heap.push(Reverse((at, self.scheduled, event)));
        self.scheduled += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        self.pop_until(SimTime::MAX)
    }

    fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, u32)> {
        let &Reverse((at, ..)) = self.heap.peek()?;
        if at > until {
            return None;
        }
        self.popped += 1;
        self.heap.pop().map(|Reverse((at, _, event))| (at, event))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Schedule one event at an absolute time.
    Schedule(u64),
    /// Schedule a burst of events at the same time (tie-break stress).
    Burst(u64, u8),
    /// Pop up to `n` events, comparing wheel and model pop by pop.
    Pop(u8),
    /// Pop up to `n` events bounded by a horizon (the driver loop's
    /// `pop_until` fast path).
    PopUntil(u64, u8),
}

/// Times spanning every wheel level: sub-tick, short-delay, day-horizon
/// and the far-future top level.
fn arb_time() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..4_096,
        0u64..10_000_000,
        0u64..86_400_000_000_000,
        (u64::MAX - 1_000_000)..u64::MAX,
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_time().prop_map(Op::Schedule),
        (arb_time(), 1u8..16).prop_map(|(t, n)| Op::Burst(t, n)),
        (1u8..16).prop_map(Op::Pop),
        (arb_time(), 1u8..16).prop_map(|(t, n)| Op::PopUntil(t, n)),
    ]
}

fn drive(ops: &[Op]) {
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut heap = HeapModel::default();
    let mut next_event = 0u32;
    for op in ops {
        match *op {
            Op::Schedule(t) => {
                wheel.schedule(SimTime::from_nanos(t), next_event);
                heap.schedule(SimTime::from_nanos(t), next_event);
                next_event += 1;
            }
            Op::Burst(t, n) => {
                for _ in 0..n {
                    wheel.schedule(SimTime::from_nanos(t), next_event);
                    heap.schedule(SimTime::from_nanos(t), next_event);
                    next_event += 1;
                }
            }
            Op::Pop(n) => {
                for _ in 0..n {
                    let a = wheel.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "wheel and heap model diverged mid-stream");
                    if a.is_none() {
                        break;
                    }
                }
            }
            Op::PopUntil(t, n) => {
                let until = SimTime::from_nanos(t);
                for _ in 0..n {
                    let a = wheel.pop_until(until);
                    let b = heap.pop_until(until);
                    assert_eq!(a, b, "wheel and heap model diverged under a horizon");
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
        assert_eq!(wheel.len(), heap.len());
    }
    // Drain what remains; the full tail must agree too.
    loop {
        let a = wheel.pop();
        let b = heap.pop();
        assert_eq!(a, b, "wheel and heap model diverged in the drain");
        if a.is_none() {
            break;
        }
    }
    assert_eq!(wheel.scheduled_total(), heap.scheduled);
    assert_eq!(wheel.popped_total(), heap.popped);
}

proptest! {
    #[test]
    fn wheel_pops_exactly_like_the_heap(
        ops in proptest::collection::vec(arb_op(), 1..120)
    ) {
        drive(&ops);
    }
}

#[test]
fn horizon_wrap_across_every_level() {
    // One event per wheel level, scheduled in reverse, with a burst at
    // each boundary; then interleaved pops and re-schedules into the
    // past (relative to the advanced cursor).
    let mut ops = Vec::new();
    for level in (0..9).rev() {
        let t = 1u64 << (13 + 6 * level); // at/above each level boundary
        ops.push(Op::Burst(t.saturating_sub(1), 3));
        ops.push(Op::Schedule(t));
        ops.push(Op::Schedule(t.saturating_add(1)));
    }
    ops.push(Op::Pop(10));
    ops.push(Op::Schedule(0)); // into the past of the advanced cursor
    ops.push(Op::Pop(255));
    drive(&ops);
}

/// Follow-up delays of the merge tests' world, in ns: zero and one-tick
/// delays land on the instants where arrivals sit, so scheduled events
/// tie with arrivals at equal nanoseconds.
const FOLLOW_UP_NS: [u64; 4] = [0, 1, 37, 1_000];
/// Most events the merge tests' world creates (bounds the chain).
const MAX_EVENTS: u32 = 600;

/// The merge tests' world logic: records every `(time, payload)` it
/// handles, and every third payload schedules two follow-ups with fresh
/// payloads.
struct Chain {
    next_id: u32,
    fired: Vec<(SimTime, u32)>,
}

impl Chain {
    fn react(&mut self, now: SimTime, payload: u32) -> Vec<(SimTime, u32)> {
        self.fired.push((now, payload));
        let mut follow_ups = Vec::new();
        if payload.is_multiple_of(3) {
            for k in 0..2 {
                if self.next_id == MAX_EVENTS {
                    break;
                }
                let delay = FOLLOW_UP_NS[(payload as usize + k) % FOLLOW_UP_NS.len()];
                follow_ups.push((SimTime::from_nanos(now.as_nanos() + delay), self.next_id));
                self.next_id += 1;
            }
        }
        follow_ups
    }
}

impl World for Chain {
    type Event = u32;
    fn handle(&mut self, now: SimTime, payload: u32, sched: &mut Scheduler<'_, u32>) {
        for (at, follow_up) in self.react(now, payload) {
            sched.schedule_at(at, follow_up);
        }
    }
}

/// Runs `source` (sorted; payloads `0..n`) beside `scheduled` (payloads
/// `n..`) to `until` both ways — merged by `run`, and scheduled source
/// first into the heap model — and asserts they fire the same sequence
/// and count the same events. Returns what fired.
fn merge_matches_prefill(source: &[u64], scheduled: &[u64], until: u64) -> Vec<(SimTime, u32)> {
    assert!(
        source.windows(2).all(|w| w[0] <= w[1]),
        "source must be sorted"
    );
    let until = SimTime::from_nanos(until);
    let n = (source.len() + scheduled.len()) as u32;
    let arrivals = || {
        source
            .iter()
            .enumerate()
            .map(|(i, &t)| (SimTime::from_nanos(t), i as u32))
    };
    let plan = || {
        scheduled
            .iter()
            .enumerate()
            .map(|(i, &t)| (SimTime::from_nanos(t), source.len() as u32 + i as u32))
    };

    let mut merged = Chain {
        next_id: n,
        fired: Vec::new(),
    };
    let mut wheel: EventQueue<u32> = EventQueue::new();
    for (at, payload) in plan() {
        wheel.schedule(at, payload);
    }
    run(&mut merged, &mut wheel, arrivals(), until);

    let mut prefilled = Chain {
        next_id: n,
        fired: Vec::new(),
    };
    let mut heap = HeapModel::default();
    for (at, payload) in arrivals().filter(|&(at, _)| at <= until).chain(plan()) {
        heap.schedule(at, payload);
    }
    while let Some((now, payload)) = heap.pop_until(until) {
        for (at, follow_up) in prefilled.react(now, payload) {
            heap.schedule(at, follow_up);
        }
    }

    assert_eq!(merged.fired, prefilled.fired, "merge diverged from prefill");
    assert_eq!(wheel.popped_total(), heap.popped, "events processed differ");
    assert_eq!(wheel.len(), heap.len(), "pending past the horizon differ");
    merged.fired
}

/// Instants clustered so that arrivals, scheduled events and follow-ups
/// collide: t = 0, a handful of shared small times, and a wider spread.
fn arb_instant() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..8, 0u64..2_048, 0u64..20_000_000]
}

proptest! {
    #[test]
    fn merged_arrivals_fire_like_a_prefilled_queue(
        mut source in proptest::collection::vec(arb_instant(), 0..40),
        scheduled in proptest::collection::vec(arb_instant(), 0..40),
        until in prop_oneof![Just(u64::MAX), 0u64..2_048, 0u64..20_000_000],
    ) {
        source.sort_unstable();
        merge_matches_prefill(&source, &scheduled, until);
    }
}

/// The cases the property must cover, built by hand so their presence
/// does not depend on the generator: an arrival at t = 0, several
/// arrivals at one instant, arrivals tied at equal ns with scheduled
/// events and with follow-ups, and arrivals past the horizon.
#[test]
fn merge_covers_ties_bursts_zero_and_the_horizon() {
    let source = [0, 0, 5, 5, 5, 37, 1_000, 1_005, 5_000, 9_000];
    let scheduled = [0, 5, 5, 38, 1_000, 4_999, 5_000];
    let until = 4_999;
    let fired = merge_matches_prefill(&source, &scheduled, until);
    let payloads_at = |t: u64| -> Vec<u32> {
        fired
            .iter()
            .filter(|&&(at, _)| at == SimTime::from_nanos(t))
            .map(|&(_, p)| p)
            .collect()
    };
    // Arrivals (payloads 0..10) lead their instant, in source order;
    // scheduled events (10..17) and follow-ups (17..) come after.
    assert_eq!(&payloads_at(0)[..3], [0, 1, 10]);
    assert_eq!(&payloads_at(5)[..5], [2, 3, 4, 11, 12]);
    assert_eq!(&payloads_at(1_000)[..2], [6, 14]);
    // Payload 3 (t = 5) scheduled follow-up 21 for t = 1 005, where
    // arrival 7 was still waiting in the source.
    assert_eq!(
        payloads_at(1_005),
        [7, 21],
        "an arrival wins a tie with a follow-up"
    );
    assert!(
        fired
            .iter()
            .all(|&(at, p)| at <= SimTime::from_nanos(until) && p != 8 && p != 9),
        "arrivals past the horizon never fire"
    );
}
