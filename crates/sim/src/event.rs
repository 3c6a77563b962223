//! The event queue and driver loop.
//!
//! [`EventQueue`] is a hierarchical timing wheel: 9 levels of 64 slots
//! over ~8 µs ticks cover the full `u64` nanosecond range, so
//! `schedule`/`pop` are near-O(1) amortized. Events fire in
//! `(time, insertion seq)` order, bit-identically from run to run;
//! `tests/proptest_scheduler.rs` checks that order against a plain
//! `BinaryHeap` model under arbitrary schedules. [`run`] merges the wheel
//! with a sorted source of arrivals that are not yet in flight, so a
//! trace's flows never sit in the wheel. See `DESIGN.md` §"Scheduler".

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::Peekable;

use crate::{SimDuration, SimTime};

/// Tick granularity: 2¹³ ns ≈ 8 µs. Events inside one tick are ordered
/// exactly by `(time, seq)` through the ready stage, so the granularity
/// affects batching only, never fire order.
const TICK_SHIFT: u32 = 13;
/// log2(slots per level).
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Levels. 9 × 6 bits cover all 51 tick bits of a `u64` nanosecond
/// timestamp (with room to spare), so *every* future time has a slot —
/// there is no separate overflow list; the top level is the overflow.
const LEVELS: usize = 9;

/// The key a wheel slot actually stores and moves: fire time, tie-break
/// sequence, and the payload's slab index. 24 bytes and `Copy`, so the
/// cascade/sort churn of the wheel shuffles keys, not full events — the
/// payload sits still in the slab until its pop (see [`EventQueue`]).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: SimTime,
    seq: u64,
    idx: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `idx` is storage, not identity: (time, seq) is already total.
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Converts a slab length to a `u32` cell index, refusing to wrap: keys
/// store cell indices in 32 bits, so a slab past `u32::MAX` live cells
/// would silently alias earlier cells and corrupt the queue. More than
/// 4 billion *pending* events means something upstream is broken anyway,
/// so this is a loud invariant, not a capacity to engineer around.
#[inline]
fn slab_index(len: usize) -> u32 {
    u32::try_from(len)
        .unwrap_or_else(|_| panic!("wheel payload slab exceeded u32 capacity ({len} live cells)"))
}

/// A deterministic priority queue of future events, built as a
/// hierarchical timing wheel.
///
/// Events at equal times fire in insertion order, making every simulation
/// replayable bit-for-bit.
///
/// Invariants (see `DESIGN.md` for the full argument):
///
/// * `cursor` is the tick of the earliest event ever primed; it only
///   moves forward, directly to the next occupied tick (bitmap scans skip
///   empty slots — no tick-by-tick advancement).
/// * A level-`k` slot holds events whose tick agrees with the cursor on
///   all 6-bit groups above `k` and first differs (upward) at group `k`;
///   events never sit below the level that property assigns them, so each
///   event cascades at most `LEVELS` times over its lifetime.
/// * Events whose tick ≤ cursor live in the *ready stage*: the current
///   tick's batch, sorted descending by `(time, seq)` so popping the
///   minimum is `Vec::pop`, plus a tiny overflow heap for events
///   scheduled into the already-open tick while it drains. This is what
///   makes fire order exact (ns-resolution) even though wheel slots are
///   tick-granular — and it costs no per-event heap sift on the common
///   path.
/// * Payloads live in a **pooled slab**: `schedule` places the event in a
///   free slab cell (LIFO reuse, so steady-state traffic recycles the
///   same cache-hot cells), the wheel moves only 24-byte `Key`s, and
///   `pop` takes the payload back out of its cell. Park, cascade and the
///   ready-stage sort therefore never copy event payloads.
pub struct EventQueue<E> {
    /// `LEVELS × SLOTS` buckets, flattened.
    slots: Vec<Vec<Key>>,
    /// Per-level occupancy bitmaps (bit `s` ⇔ slot `s` non-empty).
    occ: [u64; LEVELS],
    /// Current tick (low 51 bits meaningful).
    cursor: u64,
    /// The current tick's batch, sorted descending by `(time, seq)`;
    /// popped from the back.
    ready: Vec<Key>,
    /// Events landing at or before the cursor tick *after* its batch was
    /// opened (e.g. zero-delay follow-ups) — usually empty.
    ready_extra: BinaryHeap<Reverse<Key>>,
    /// Events parked in wheel slots (excludes the ready stage).
    in_wheel: usize,
    /// Emptied slot buffers kept for reuse, so cascading a slot does not
    /// free its allocation just to re-grow it on the next park.
    spare: Vec<Vec<Key>>,
    /// Payload slab, indexed by [`Key::idx`]. `None` = free cell.
    payloads: Vec<Option<E>>,
    /// Free slab cells, reused LIFO.
    free: Vec<u32>,
    next_seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            cursor: 0,
            ready: Vec::new(),
            ready_extra: BinaryHeap::new(),
            in_wheel: 0,
            spare: Vec::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            popped: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Size in bytes of the record a wheel slot stores per pending event
    /// (the quantity the park/cascade/sort churn moves; the payload
    /// itself stays in the slab).
    pub const fn slot_entry_size() -> usize {
        std::mem::size_of::<Key>()
    }

    #[inline]
    fn tick_of(at: SimTime) -> u64 {
        at.as_nanos() >> TICK_SHIFT
    }

    /// Level a tick belongs to relative to the cursor: the 6-bit group of
    /// the highest bit where the two ticks differ.
    #[inline]
    fn level_of(&self, tick: u64) -> usize {
        let xor = tick ^ self.cursor;
        debug_assert!(xor != 0, "same-tick events go to ready, not the wheel");
        ((63 - xor.leading_zeros()) / LEVEL_BITS) as usize
    }

    #[inline]
    fn slot_index(level: usize, tick: u64) -> usize {
        let group = (tick >> (level as u32 * LEVEL_BITS)) & (SLOTS as u64 - 1);
        level * SLOTS + group as usize
    }

    /// Stores a payload in the slab, reusing a freed cell when one is
    /// available (LIFO: the most recently vacated cell is the hottest).
    #[inline]
    fn store(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.payloads[idx as usize] = Some(event);
                idx
            }
            None => {
                let idx = slab_index(self.payloads.len());
                self.payloads.push(Some(event));
                idx
            }
        }
    }

    /// Takes a popped key's payload back out of the slab and recycles
    /// its cell.
    #[inline]
    fn redeem(&mut self, key: Key) -> (SimTime, E) {
        let event = self.payloads[key.idx as usize]
            .take()
            .expect("every parked key owns a live slab cell");
        self.free.push(key.idx);
        self.popped += 1;
        (key.at, event)
    }

    #[inline]
    fn park(&mut self, key: Key) {
        let tick = Self::tick_of(key.at);
        if tick <= self.cursor {
            // Current (already-open) tick — or a past time, which must
            // surface next; both join the ready stage through the
            // overflow heap.
            self.ready_extra.push(Reverse(key));
            return;
        }
        let level = self.level_of(tick);
        let idx = Self::slot_index(level, tick);
        self.slots[idx].push(key);
        self.occ[level] |= 1 << (idx - level * SLOTS);
        self.in_wheel += 1;
    }

    /// Schedules `event` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.store(event);
        self.park(Key { at, seq, idx });
    }

    #[inline]
    fn ready_stage_empty(&self) -> bool {
        self.ready.is_empty() && self.ready_extra.is_empty()
    }

    /// Ensures the earliest pending event (if any) sits in the ready
    /// stage: advances the cursor to the next occupied tick, cascading
    /// higher-level slots down as it enters them.
    fn prime(&mut self) {
        while self.ready_stage_empty() && self.in_wheel > 0 {
            for level in 0..LEVELS {
                let shift = level as u32 * LEVEL_BITS;
                let cur_group = ((self.cursor >> shift) & (SLOTS as u64 - 1)) as usize;
                // Slots below the cursor's group hold past ticks, which
                // cannot exist (the cursor only moves to the minimum
                // pending tick); mask them off and take the lowest
                // occupied slot at or above it.
                let mask = self.occ[level] & (!0u64 << cur_group);
                if mask == 0 {
                    continue;
                }
                let slot = mask.trailing_zeros() as usize;
                let idx = level * SLOTS + slot;
                let replacement = self.spare.pop().unwrap_or_default();
                let mut batch = std::mem::replace(&mut self.slots[idx], replacement);
                self.occ[level] &= !(1u64 << slot);
                self.in_wheel -= batch.len();
                if level == 0 {
                    // All entries in a level-0 slot share one tick: move
                    // the cursor there and open the batch as the ready
                    // stage, sorted descending so the minimum pops from
                    // the back with no further moves.
                    self.cursor = (self.cursor & !(SLOTS as u64 - 1)) | slot as u64;
                    if batch.len() > 1 {
                        batch.sort_unstable_by(|a, b| b.cmp(a));
                    }
                    let consumed = std::mem::replace(&mut self.ready, batch);
                    self.spare.push(consumed);
                } else {
                    // Jump the cursor to the base of the slot's tick
                    // range (groups below `level` zeroed), then cascade
                    // its entries — each lands at a strictly lower level
                    // or in the ready stage, so this terminates.
                    if slot != cur_group {
                        let span = 1u64 << (shift + LEVEL_BITS);
                        self.cursor = (self.cursor & !(span - 1)) | ((slot as u64) << shift);
                    }
                    for key in batch.drain(..) {
                        self.park(key);
                    }
                    // `park` counts re-inserted wheel entries again.
                    self.spare.push(batch);
                }
                break;
            }
        }
    }

    /// True when the next ready-stage pop must come from the overflow
    /// heap rather than the sorted batch.
    #[inline]
    fn extra_first(&self) -> bool {
        match (self.ready.last(), self.ready_extra.peek()) {
            (Some(r), Some(Reverse(x))) => x < r,
            (None, Some(_)) => true,
            _ => false,
        }
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.prime();
        let key = if self.extra_first() {
            self.ready_extra.pop().map(|Reverse(k)| k)
        } else {
            self.ready.pop()
        };
        key.map(|k| self.redeem(k))
    }

    /// Pops the earliest event if it fires at or before `until` — one
    /// prime + one comparison, where a `peek_time` + `pop` pair would
    /// pay the queue front-end twice. Events beyond `until` stay queued.
    pub fn pop_until(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        self.prime();
        let key = if self.extra_first() {
            if self
                .ready_extra
                .peek()
                .is_some_and(|Reverse(k)| k.at <= until)
            {
                self.ready_extra.pop().map(|Reverse(k)| k)
            } else {
                None
            }
        } else if self.ready.last().is_some_and(|k| k.at <= until) {
            self.ready.pop()
        } else {
            None
        };
        key.map(|k| self.redeem(k))
    }

    /// Pops the earliest event at or before `until` from the wheel merged
    /// with `arrivals`, a source sorted by time. Wheel events strictly
    /// earlier than the next arrival go first; an arrival wins a tie (so
    /// one at t = 0 fires before any wheel event), and the merge fires
    /// exactly what scheduling every arrival up front (before anything
    /// else) would have fired. Arrivals past `until` stay in the source.
    /// Both kinds count in [`EventQueue::popped_total`].
    ///
    /// The wheel's `peek_time` picks the source, so only the pop that
    /// takes the event moves it. A `pop_until` one nanosecond before the
    /// arrival, with the source as the fallback, moved every event twice
    /// and measured slower.
    pub fn pop_merged<I>(
        &mut self,
        arrivals: &mut Peekable<I>,
        until: SimTime,
    ) -> Option<(SimTime, E)>
    where
        I: Iterator<Item = (SimTime, E)>,
    {
        let arrival_first = arrivals
            .peek()
            .is_some_and(|&(at, _)| at <= until && self.peek_time().is_none_or(|t| at <= t));
        if arrival_first {
            self.popped += 1;
            arrivals.next()
        } else {
            self.pop_until(until)
        }
    }

    /// Fire time of the earliest pending event.
    ///
    /// Takes `&mut self`: the wheel may advance its cursor (and cascade
    /// slots) to locate the minimum — pending events and their order are
    /// unaffected.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.prime();
        if self.extra_first() {
            self.ready_extra.peek().map(|Reverse(k)| k.at)
        } else {
            self.ready.last().map(|k| k.at)
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.in_wheel + self.ready.len() + self.ready_extra.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events scheduled over the queue's lifetime.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Total events popped over the queue's lifetime, arrivals merged by
    /// [`EventQueue::pop_merged`] included (what an experiment reports as
    /// events processed).
    pub fn popped_total(&self) -> u64 {
        self.popped
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("scheduled_total", &self.scheduled_total())
            .finish()
    }
}

/// Handle through which a [`World`] schedules follow-up events while one is
/// being handled.
pub struct Scheduler<'a, E> {
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// Wraps a queue so setup code outside the [`run`] loop (e.g. a
    /// controller bootstrap) can schedule through the same interface.
    pub fn over(queue: &'a mut EventQueue<E>) -> Self {
        Scheduler { queue }
    }

    /// Schedules an event at an absolute time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.schedule(at, event);
    }

    /// Schedules an event `delay` after `now`.
    pub fn schedule_in(&mut self, now: SimTime, delay: SimDuration, event: E) {
        self.queue.schedule(now + delay, event);
    }
}

impl<'a, E> std::fmt::Debug for Scheduler<'a, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler").finish_non_exhaustive()
    }
}

/// The simulated system: receives each event in time order.
pub trait World {
    /// The event payload type.
    type Event;

    /// Handles one event at virtual time `now`, optionally scheduling more.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<'_, Self::Event>);
}

/// Runs until the queue and `arrivals` drain or virtual time would
/// exceed `until`.
///
/// `arrivals` is a source of events sorted by time that enter the run
/// without being scheduled — a trace's flow arrivals, merged with the
/// queue by [`EventQueue::pop_merged`] — so the queue holds only what is
/// in flight. A run with no such source passes [`std::iter::empty`].
///
/// Returns the time of the last handled event (or [`SimTime::ZERO`] if
/// nothing fired). Events scheduled beyond `until` stay in the queue, and
/// arrivals beyond it are never fired.
pub fn run<W: World>(
    world: &mut W,
    queue: &mut EventQueue<W::Event>,
    arrivals: impl IntoIterator<Item = (SimTime, W::Event)>,
    until: SimTime,
) -> SimTime {
    let mut arrivals = arrivals.into_iter().peekable();
    let mut last = SimTime::ZERO;
    while let Some((now, event)) = queue.pop_merged(&mut arrivals, until) {
        let mut sched = Scheduler { queue };
        world.handle(now, event, &mut sched);
        last = now;
    }
    last
}

/// Runs until the queue is completely empty (use with care: worlds that
/// reschedule forever will not terminate).
pub fn run_until_idle<W: World>(world: &mut W, queue: &mut EventQueue<W::Event>) -> SimTime {
    run(world, queue, std::iter::empty(), SimTime::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl World for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<'_, u32>) {
            self.seen.push((now, ev));
            if ev == 1 {
                // Chain reaction: schedule two more.
                sched.schedule_in(now, SimDuration::from_millis(5), 10);
                sched.schedule_at(SimTime::from_millis(100), 11);
            }
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        let mut w = Recorder { seen: vec![] };
        run_until_idle(&mut w, &mut q);
        // Event 1 at t=10 chains event 10 at t=15 (before 2 at t=20) and
        // event 11 at t=100.
        let evs: Vec<u32> = w.seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, vec![1, 10, 2, 3, 11]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        // Values ≥ 100 so no chaining kicks in.
        for i in 100..150 {
            q.schedule(SimTime::from_millis(7), i);
        }
        let mut w = Recorder { seen: vec![] };
        run_until_idle(&mut w, &mut q);
        let evs: Vec<u32> = w.seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(evs, (100..150).collect::<Vec<_>>());
    }

    #[test]
    fn run_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 2);
        q.schedule(SimTime::from_secs(10), 3);
        let mut w = Recorder { seen: vec![] };
        let last = run(&mut w, &mut q, std::iter::empty(), SimTime::from_secs(5));
        assert_eq!(w.seen.len(), 1);
        assert_eq!(last, SimTime::from_secs(1));
        assert_eq!(q.len(), 1, "late event remains queued");
        assert_eq!(q.popped_total(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn empty_queue_returns_zero() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut w = Recorder { seen: vec![] };
        assert_eq!(run_until_idle(&mut w, &mut q), SimTime::ZERO);
        assert!(q.is_empty());
    }

    #[test]
    fn determinism_across_runs() {
        let run_once = || {
            let mut q = EventQueue::new();
            q.schedule(SimTime::from_millis(1), 1);
            q.schedule(SimTime::from_millis(1), 2);
            q.schedule(SimTime::from_millis(2), 3);
            let mut w = Recorder { seen: vec![] };
            run_until_idle(&mut w, &mut q);
            w.seen
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn far_future_and_equal_time_bursts() {
        // Crosses several wheel levels, including the top one. Times are
        // non-decreasing, so (time, seq) order is insertion order.
        let times: Vec<u64> = vec![
            0,
            1,
            1023,
            1024,
            1025,
            1 << 16,
            (1 << 16) + 1,
            3_600_000_000_000,  // 1 h
            86_400_000_000_000, // 24 h
            86_400_000_000_000, // equal-time burst far out
            u64::MAX >> 1,      // deep into the top level
            u64::MAX - 1,
        ];
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i as u32);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((SimTime::from_nanos(t), i as u32)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn scheduling_into_the_past_fires_immediately() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some(1));
        // The cursor is now at t=10 s; a smaller time must still surface,
        // first.
        q.schedule(SimTime::from_secs(20), 2);
        q.schedule(SimTime::from_secs(5), 3);
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
    }

    /// Layout contract of the pooled wheel: a slot stores (and the
    /// cascade/sort churn moves) only a 24-byte key — payloads stay in
    /// the slab regardless of how big the event type is. This is what
    /// keeps the scheduler's per-event cost independent of `E`.
    #[test]
    fn wheel_slot_entries_stay_small() {
        assert_eq!(EventQueue::<u64>::slot_entry_size(), 24);
        // The key size must not scale with the payload.
        assert_eq!(
            EventQueue::<[u8; 512]>::slot_entry_size(),
            EventQueue::<u8>::slot_entry_size()
        );
    }

    /// The slab recycles cells LIFO: steady-state schedule/pop traffic
    /// reuses the same hot cells instead of growing the slab.
    #[test]
    fn slab_cells_are_recycled() {
        let mut q: EventQueue<u64> = EventQueue::new();
        for round in 0..100u64 {
            q.schedule(SimTime::from_millis(round + 1), round);
            let _ = q.pop();
        }
        assert!(
            q.payloads.len() <= 2,
            "steady-state churn grew the slab to {} cells",
            q.payloads.len()
        );
    }

    /// Regression for the slab-index truncation bug: growing the slab past
    /// `u32::MAX` cells must panic instead of wrapping the index (which
    /// would alias cell 0 and corrupt the queue silently). The boundary is
    /// checked on the conversion helper directly — allocating 4 billion
    /// real cells in a test is not an option.
    #[test]
    fn slab_index_is_exact_up_to_u32_max() {
        assert_eq!(slab_index(0), 0);
        assert_eq!(slab_index(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeded u32 capacity")]
    #[cfg(target_pointer_width = "64")]
    fn slab_index_past_u32_panics_instead_of_wrapping() {
        let _ = slab_index(u32::MAX as usize + 1);
    }

    #[test]
    fn wheel_interleaves_sub_tick_times_exactly() {
        // Two events inside one tick (2^TICK_SHIFT ns), scheduled while
        // the first is being handled: order must be by exact nanosecond.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(2000), 1);
        q.schedule(SimTime::from_nanos(2500), 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!((t.as_nanos(), e), (2000, 1));
        q.schedule(SimTime::from_nanos(2100), 3);
        assert_eq!(q.pop().map(|(t, e)| (t.as_nanos(), e)), Some((2100, 3)));
        assert_eq!(q.pop().map(|(t, e)| (t.as_nanos(), e)), Some((2500, 2)));
    }
}
