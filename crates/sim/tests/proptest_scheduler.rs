//! Differential property test: the timing-wheel scheduler pops the exact
//! same `(time, seq, event)` sequence as the `BinaryHeap` reference model
//! below under arbitrary schedules — equal-time bursts, sub-tick
//! spacings, day-scale horizons and far-future (top-level) times
//! included, with pops interleaved between schedules so the wheel's
//! cursor advances mid-stream.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lazyctrl_sim::{EventQueue, SimTime};
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
