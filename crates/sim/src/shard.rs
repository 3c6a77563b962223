//! Conservative parallel shard executor (multi-core PDES).
//!
//! [`run_sharded`] drives a set of partitions — each a world plus its own
//! [`EventQueue`] — through synchronized epochs on a pool of worker
//! threads. The protocol is classic conservative synchronization with a
//! twist that keeps reports **bit-identical at any worker count**:
//!
//! 1. **Epoch plan.** The coordinator peeks every partition's next event
//!    time, takes the global minimum `t_min`, and sets an *exclusive*
//!    horizon `H = t_min + window` (clamped to the run horizon and the
//!    next pending global event).
//! 2. **Parallel drain.** Every partition with work before `H` is drained
//!    independently — local follow-ups go straight into the partition's
//!    own queue, cross-partition sends into a per-partition [`Outbox`].
//!    Workers claim partitions off an atomic cursor (work stealing), so
//!    stragglers don't idle the pool; rounds with a single active
//!    partition are drained inline by the coordinator with no barrier
//!    traffic at all.
//! 3. **Deterministic merge.** After a barrier, the coordinator replays
//!    outboxes in fixed (source partition, emission order) order into the
//!    destination queues. Each queue assigns its `(time, seq)` tie-break
//!    order from insertion order, so the merged schedule — and therefore
//!    every downstream report — is a pure function of the partition
//!    layout and window, never of thread timing or worker count.
//!
//! An arrival that would land before `H` is bumped to `H`
//! (`eff = max(at, H)`): the destination has already simulated past its
//! nominal time. When `window` does not exceed the minimum
//! cross-partition latency (the [`LatencyModel::lookahead_floor`]), no
//! *latency-delayed* send can ever land inside the window that emitted
//! it, so no bump happens and event timing is exact — with one intended
//! exception: a world may forward an event it no longer owns with zero
//! delay (ownership re-resolution after a migration, see
//! `DataCenterWorld::dispatch_event`). Such a forward always lands below
//! the floor and is deferred to the horizon, deterministically, so the
//! forwarded event fires up to one window late even at the floor.
//! Larger windows additionally trade cross-partition timing precision
//! for fewer synchronization rounds; [`ShardStats::bumped_events`]
//! reports exactly how many arrivals were deferred (forwards included).
//!
//! Global events (fault injections and other whole-world mutations) are
//! applied at a barrier of their own: the coordinator applies each one to
//! *every* partition, in partition order, before any partition may
//! simulate past its timestamp.
//!
//! [`LatencyModel::lookahead_floor`]: crate::LatencyModel::lookahead_floor

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::{EventQueue, Scheduler, SimDuration, SimTime};

/// A partitioned simulation world: one shard of the full system state.
///
/// Mirrors [`World`](crate::World) with two extensions: handlers receive
/// an [`Outbox`] for cross-partition sends, and shards must accept
/// *global* events — whole-world mutations the coordinator applies to
/// every partition at a barrier.
pub trait ShardWorld: Send {
    /// The event payload type.
    type Event: Send;
    /// Whole-world mutation applied to every partition at a barrier.
    type Global;

    /// Handles one local event at virtual time `now`. Follow-ups for this
    /// partition go through `sched`; messages for other partitions go
    /// through `outbox`.
    fn handle(
        &mut self,
        now: SimTime,
        event: Self::Event,
        sched: &mut Scheduler<'_, Self::Event>,
        outbox: &mut Outbox<Self::Event>,
    );

    /// Applies one global event. Called once per partition, in partition
    /// order, with every partition paused at `now`.
    fn apply_global(
        &mut self,
        now: SimTime,
        global: &Self::Global,
        sched: &mut Scheduler<'_, Self::Event>,
        outbox: &mut Outbox<Self::Event>,
    );
}

/// One partition's world paired with its event queue — the unit
/// [`run_sharded`] takes in and hands back.
pub(crate) type Shard<W> = (W, EventQueue<<W as ShardWorld>::Event>);

/// Cross-partition sends staged during one epoch, merged deterministically
/// by the coordinator after the round's barrier.
#[derive(Debug)]
pub struct Outbox<E> {
    sends: Vec<(usize, SimTime, E)>,
}

impl<E> Outbox<E> {
    fn new() -> Self {
        Outbox { sends: Vec::new() }
    }

    /// Stages `event` for partition `dst` at nominal time `at`. If `at`
    /// falls before the epoch horizon the coordinator defers it to the
    /// horizon (see the module docs); with a window at or below the
    /// lookahead floor that only happens to zero-delay ownership
    /// forwards, never to latency-delayed sends.
    pub fn send(&mut self, dst: usize, at: SimTime, event: E) {
        self.sends.push((dst, at, event));
    }
}

/// Tuning knobs for [`run_sharded`].
#[derive(Debug, Clone, Copy)]
pub struct ShardOpts {
    /// Worker threads (including the coordinator, which also steals
    /// work). Capped at the partition count; `1` runs the identical
    /// epoch protocol inline with zero thread or barrier overhead.
    pub workers: usize,
    /// Synchronization window: each epoch simulates `[t_min, t_min +
    /// window)`. At or below the cross-partition lookahead floor the run
    /// is timing-exact; above it, cross-partition arrivals may be
    /// deferred to the epoch horizon (counted in
    /// [`ShardStats::bumped_events`]).
    pub window: SimDuration,
}

/// Counters describing one [`run_sharded`] execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Synchronization epochs executed (including global-event rounds).
    pub rounds: u64,
    /// Epochs that fanned out to the worker pool (≥ 2 active partitions).
    pub(crate) parallel_rounds: u64,
    /// Cross-partition events exchanged through outboxes.
    pub cross_events: u64,
    /// Cross-partition events deferred to an epoch horizon because their
    /// nominal arrival fell inside the window that emitted them. At or
    /// below the lookahead floor only zero-delay ownership forwards are
    /// counted here (see the module docs), so a nonzero value at the
    /// floor measures migration forwarding, not window tuning.
    pub bumped_events: u64,
    /// Global events applied (each counts once, not once per partition).
    pub globals_applied: u64,
}

struct Slot<W: ShardWorld> {
    world: W,
    queue: EventQueue<W::Event>,
    outbox: Outbox<W::Event>,
}

/// Round plan published by the coordinator before each parallel round.
/// Fixed-capacity and lock-free: workers only ever read it between the
/// start and end barriers of the round it describes.
struct Plan {
    active: Vec<AtomicUsize>,
    len: AtomicUsize,
    cursor: AtomicUsize,
    horizon_ns: AtomicU64,
}

impl Plan {
    fn new(nparts: usize) -> Self {
        Plan {
            active: (0..nparts).map(|_| AtomicUsize::new(0)).collect(),
            len: AtomicUsize::new(0),
            cursor: AtomicUsize::new(0),
            horizon_ns: AtomicU64::new(0),
        }
    }
}

/// A sense-reversing hybrid barrier. Epochs are short (often
/// microseconds), so parking threads in the OS between rounds would
/// dominate on a machine with enough cores; there the wait spins briefly,
/// then yields, then parks. When the host has fewer cores than barrier
/// participants (CI runners, containers pinned to one CPU), spinning only
/// steals the timeslice from the thread everyone is waiting for, so the
/// busy phases are skipped entirely and waiters park at once.
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
    /// Busy-phase budget: `SPINS_BEFORE_YIELD` when the host's cores cover
    /// every participant, 0 when oversubscribed.
    spin_limit: u32,
    park: Mutex<()>,
    parked: std::sync::Condvar,
}

const SPINS_BEFORE_YIELD: u32 = 10_000;
const YIELDS_BEFORE_PARK: u32 = 64;

impl SpinBarrier {
    fn new(total: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        SpinBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
            spin_limit: if cores >= total {
                SPINS_BEFORE_YIELD
            } else {
                0
            },
            park: Mutex::new(()),
            parked: std::sync::Condvar::new(),
        }
    }

    /// Blocks until all `total` participants arrive. `abort` breaks the
    /// wait (by panicking) if another participant died mid-round — a
    /// poisoned run must not hang the survivors.
    fn wait(&self, abort: &AtomicBool) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Relaxed);
            // Taking the park lock before bumping the generation closes
            // the race where a waiter checks the generation, the release
            // happens, and only then the waiter parks — it would sleep
            // through the wakeup (the 1 ms park timeout bounds the cost
            // even if this invariant is ever broken).
            let _guard = lock(&self.park);
            self.generation.fetch_add(1, Ordering::AcqRel);
            self.parked.notify_all();
        } else {
            let yield_limit = self.spin_limit.saturating_add(if self.spin_limit == 0 {
                1
            } else {
                YIELDS_BEFORE_PARK
            });
            let mut tries = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if abort.load(Ordering::Acquire) {
                    panic!("parallel shard round aborted: a participant panicked");
                }
                tries = tries.saturating_add(1);
                if tries < self.spin_limit {
                    std::hint::spin_loop();
                } else if tries < yield_limit {
                    std::thread::yield_now();
                } else {
                    let guard = lock(&self.park);
                    if self.generation.load(Ordering::Acquire) != gen {
                        break;
                    }
                    let (g, _) = self
                        .parked
                        .wait_timeout(guard, std::time::Duration::from_millis(1))
                        .unwrap_or_else(|p| p.into_inner());
                    drop(g);
                }
            }
        }
    }
}

struct Shared<W: ShardWorld> {
    slots: Vec<Mutex<Slot<W>>>,
    plan: Plan,
    done: AtomicBool,
    abort: AtomicBool,
    start: SpinBarrier,
    end: SpinBarrier,
}

/// Sets the shared abort flag if the owning thread unwinds, so peers
/// spinning at a barrier panic out instead of hanging forever.
struct AbortOnPanic<'a>(&'a AtomicBool);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Lock poisoning only matters if we keep running after a peer panic;
    // the abort flag already turns that into a prompt panic, so recover
    // the guard rather than double-panic with a worse message.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Runs `shards` to `until` under conservative epoch synchronization.
///
/// `shards` pairs each partition's world with its pre-split event queue;
/// `globals` lists whole-world events in time order (ties resolved by
/// list order). Events and globals scheduled beyond `until` are left
/// pending, mirroring [`run`](crate::run). Returns the partitions (with
/// their queues, whose pop counters feed events-processed accounting)
/// and the run's [`ShardStats`].
///
/// Determinism: the outcome is a pure function of the inputs, the
/// partition count, and `opts.window` — `opts.workers` affects wall
/// clock only, never results.
///
/// Tie-breaking against globals deliberately differs from the
/// sequential engine: when a global and an ordinary event share a
/// timestamp, **the global wins** (it is applied before any partition
/// may simulate that instant), whereas [`run`](crate::run) orders the
/// two by queue-insertion sequence. The divergence only surfaces on
/// exact timestamp collisions and is deterministic; it is the price of
/// applying globals at a clean all-partition barrier.
///
/// # Panics
///
/// Panics if `opts.workers == 0`, if a shard sends to an out-of-range
/// partition, or if a shard handler itself panics (the panic is
/// propagated once every worker has stopped).
pub fn run_sharded<W: ShardWorld>(
    shards: Vec<Shard<W>>,
    globals: Vec<(SimTime, W::Global)>,
    until: SimTime,
    opts: ShardOpts,
) -> (Vec<Shard<W>>, ShardStats) {
    assert!(opts.workers >= 1, "run_sharded needs at least one worker");
    let mut stats = ShardStats::default();
    let nparts = shards.len();
    if nparts == 0 {
        return (Vec::new(), stats);
    }
    let workers = opts.workers.min(nparts);
    let shared = Shared {
        slots: shards
            .into_iter()
            .map(|(world, queue)| {
                Mutex::new(Slot {
                    world,
                    queue,
                    outbox: Outbox::new(),
                })
            })
            .collect(),
        plan: Plan::new(nparts),
        done: AtomicBool::new(false),
        abort: AtomicBool::new(false),
        start: SpinBarrier::new(workers),
        end: SpinBarrier::new(workers),
    };

    if workers > 1 {
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(|| worker_loop(&shared));
            }
            let guard = AbortOnPanic(&shared.abort);
            coordinate(&shared, globals, until, opts.window, &mut stats, true);
            // Release the pool: parked workers re-check `done` after the
            // start barrier and exit.
            shared.done.store(true, Ordering::Release);
            shared.start.wait(&shared.abort);
            drop(guard);
        });
    } else {
        coordinate(&shared, globals, until, opts.window, &mut stats, false);
    }

    let out = shared
        .slots
        .into_iter()
        .map(|m| {
            let slot = m.into_inner().unwrap_or_else(|p| p.into_inner());
            (slot.world, slot.queue)
        })
        .collect();
    (out, stats)
}

fn worker_loop<W: ShardWorld>(shared: &Shared<W>) {
    let _guard = AbortOnPanic(&shared.abort);
    loop {
        shared.start.wait(&shared.abort);
        if shared.done.load(Ordering::Acquire) {
            break;
        }
        drain_from_plan(shared);
        shared.end.wait(&shared.abort);
    }
}

/// Claims active partitions off the round plan's atomic cursor and drains
/// each to the published horizon.
fn drain_from_plan<W: ShardWorld>(shared: &Shared<W>) {
    let h_incl = SimTime::from_nanos(shared.plan.horizon_ns.load(Ordering::Relaxed));
    let n = shared.plan.len.load(Ordering::Relaxed);
    loop {
        let i = shared.plan.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let p = shared.plan.active[i].load(Ordering::Relaxed);
        drain_one(&shared.slots[p], h_incl);
    }
}

/// Drains one partition through every event at or before `h_incl`.
fn drain_one<W: ShardWorld>(slot: &Mutex<Slot<W>>, h_incl: SimTime) {
    let mut guard = lock(slot);
    let Slot {
        world,
        queue,
        outbox,
    } = &mut *guard;
    while let Some((now, event)) = queue.pop_until(h_incl) {
        let mut sched = Scheduler::over(queue);
        world.handle(now, event, &mut sched, outbox);
    }
}

/// The coordinator's epoch loop. Runs on the caller's thread; with
/// `threads` set it fans multi-partition rounds out through the barriers,
/// otherwise everything is drained inline.
fn coordinate<W: ShardWorld>(
    shared: &Shared<W>,
    globals: Vec<(SimTime, W::Global)>,
    until: SimTime,
    window: SimDuration,
    stats: &mut ShardStats,
    threads: bool,
) {
    let one = SimDuration::from_nanos(1);
    let nparts = shared.slots.len();
    let mut nexts: Vec<Option<SimTime>> = vec![None; nparts];
    let mut next_global = 0usize;

    loop {
        let mut t_min: Option<SimTime> = None;
        for (slot, next) in shared.slots.iter().zip(nexts.iter_mut()) {
            *next = lock(slot).queue.peek_time();
            if let Some(t) = *next {
                t_min = Some(t_min.map_or(t, |m| m.min(t)));
            }
        }
        let g_next = globals.get(next_global).map(|&(at, _)| at);
        let next = match (t_min, g_next) {
            (Some(t), Some(g)) => t.min(g),
            (Some(t), None) => t,
            (None, Some(g)) => g,
            (None, None) => break,
        };
        if next > until {
            break;
        }
        stats.rounds += 1;

        // Global rounds: nothing may simulate past a pending global, so
        // once it is next it is applied to every partition, in partition
        // order, before ordinary rounds resume. Same-time globals apply
        // one per round, preserving their original schedule order.
        if g_next.is_some_and(|g| t_min.is_none_or(|t| g <= t)) {
            let (at, global) = &globals[next_global];
            for slot in &shared.slots {
                let mut guard = lock(slot);
                let Slot {
                    world,
                    queue,
                    outbox,
                } = &mut *guard;
                let mut sched = Scheduler::over(queue);
                world.apply_global(*at, global, &mut sched, outbox);
            }
            // Sends from a global apply at `now ≥ at`, so the floor never
            // actually defers anything here.
            merge_outboxes(shared, *at, stats);
            stats.globals_applied += 1;
            next_global += 1;
            continue;
        }

        let t_min = t_min.expect("event round requires a pending event");
        // Exclusive epoch horizon: the run horizon is inclusive (events
        // at exactly `until` fire, matching `run`) and a pending global
        // caps the window so no partition overtakes it.
        let mut h = t_min + window;
        let until_excl = until + one;
        if until_excl < h {
            h = until_excl;
        }
        if let Some(g) = g_next {
            if g < h {
                h = g;
            }
        }
        if h <= t_min {
            h = t_min + one; // degenerate zero-width window
        }
        let h_incl = SimTime::from_nanos(h.as_nanos().saturating_sub(1));

        let mut active = 0usize;
        for (p, next) in nexts.iter().enumerate() {
            if next.is_some_and(|t| t < h) {
                shared.plan.active[active].store(p, Ordering::Relaxed);
                active += 1;
            }
        }

        if threads && active > 1 {
            shared.plan.len.store(active, Ordering::Relaxed);
            shared.plan.cursor.store(0, Ordering::Relaxed);
            shared
                .plan
                .horizon_ns
                .store(h_incl.as_nanos(), Ordering::Relaxed);
            shared.start.wait(&shared.abort);
            drain_from_plan(shared); // the coordinator steals too
            shared.end.wait(&shared.abort);
            stats.parallel_rounds += 1;
        } else {
            for i in 0..active {
                let p = shared.plan.active[i].load(Ordering::Relaxed);
                drain_one(&shared.slots[p], h_incl);
            }
        }

        merge_outboxes(shared, h, stats);
    }
}

/// Replays every partition's outbox into the destination queues in fixed
/// (source partition, emission) order — the step that pins the merged
/// `(time, seq)` order, and with it bit-identical results, regardless of
/// how worker threads interleaved during the round.
fn merge_outboxes<W: ShardWorld>(shared: &Shared<W>, floor: SimTime, stats: &mut ShardStats) {
    for src in 0..shared.slots.len() {
        let mut sends = {
            let mut guard = lock(&shared.slots[src]);
            if guard.outbox.sends.is_empty() {
                continue;
            }
            std::mem::take(&mut guard.outbox.sends)
        };
        for (dst, at, event) in sends.drain(..) {
            stats.cross_events += 1;
            let eff = if at < floor {
                stats.bumped_events += 1;
                floor
            } else {
                at
            };
            lock(&shared.slots[dst]).queue.schedule(eff, event);
        }
        // Hand the drained buffer (and its capacity) back to the slot.
        lock(&shared.slots[src]).outbox.sends = sends;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A token circles `nparts` partitions, one hop per `delay`; every
    /// partition logs what it sees. Cross-partition by construction, so
    /// it exercises outboxes, bumping and the merge order end to end.
    struct Ring {
        id: usize,
        nparts: usize,
        delay: SimDuration,
        log: Vec<(SimTime, u64)>,
    }

    const GLOBAL_TAG: u64 = 1 << 32;

    impl ShardWorld for Ring {
        type Event = u64; // remaining hops
        type Global = u64;

        fn handle(
            &mut self,
            now: SimTime,
            hops: u64,
            sched: &mut Scheduler<'_, u64>,
            outbox: &mut Outbox<u64>,
        ) {
            self.log.push((now, hops));
            if hops > 0 {
                let dst = (self.id + 1) % self.nparts;
                if dst == self.id {
                    sched.schedule_in(now, self.delay, hops - 1);
                } else {
                    outbox.send(dst, now + self.delay, hops - 1);
                }
            }
        }

        fn apply_global(
            &mut self,
            now: SimTime,
            global: &u64,
            _sched: &mut Scheduler<'_, u64>,
            _outbox: &mut Outbox<u64>,
        ) {
            self.log.push((now, GLOBAL_TAG | *global));
        }
    }

    fn ring(
        nparts: usize,
        delay: SimDuration,
        hops: u64,
    ) -> (Vec<Shard<Ring>>, Vec<(SimTime, u64)>) {
        let shards = (0..nparts)
            .map(|id| {
                let mut queue = EventQueue::new();
                if id == 0 {
                    queue.schedule(SimTime::ZERO, hops);
                }
                (
                    Ring {
                        id,
                        nparts,
                        delay,
                        log: Vec::new(),
                    },
                    queue,
                )
            })
            .collect();
        (shards, Vec::new())
    }

    fn logs(parts: &[(Ring, EventQueue<u64>)]) -> Vec<Vec<(SimTime, u64)>> {
        parts.iter().map(|(w, _)| w.log.clone()).collect()
    }

    /// Window == the inter-partition latency: nothing may be deferred and
    /// every hop fires at its exact nominal time.
    #[test]
    fn exact_window_never_bumps() {
        let delay = SimDuration::from_millis(1);
        let (shards, globals) = ring(3, delay, 10);
        let (parts, stats) = run_sharded(
            shards,
            globals,
            SimTime::from_secs(1),
            ShardOpts {
                workers: 3,
                window: delay,
            },
        );
        assert_eq!(stats.bumped_events, 0);
        assert_eq!(stats.cross_events, 10);
        let log = logs(&parts);
        for hop in 0..=10u64 {
            let at = SimTime::from_nanos(hop * delay.as_nanos());
            assert!(
                log[(hop as usize) % 3].contains(&(at, 10 - hop)),
                "hop {hop} missing or mistimed"
            );
        }
        assert_eq!(parts.iter().map(|(_, q)| q.popped_total()).sum::<u64>(), 11);
    }

    /// A window wider than the latency defers arrivals — but identically
    /// at every worker count.
    #[test]
    fn wide_window_bumps_deterministically() {
        let delay = SimDuration::from_millis(1);
        let window = SimDuration::from_millis(10);
        let mut runs = Vec::new();
        for workers in [1usize, 2, 3] {
            let (shards, globals) = ring(3, delay, 20);
            let (parts, stats) = run_sharded(
                shards,
                globals,
                SimTime::from_secs(1),
                ShardOpts { workers, window },
            );
            assert!(stats.bumped_events > 0, "wide window must defer arrivals");
            runs.push((logs(&parts), stats));
        }
        assert_eq!(runs[0], runs[1], "workers 1 vs 2 diverged");
        assert_eq!(runs[0], runs[2], "workers 1 vs 3 diverged");
    }

    /// Globals reach every partition exactly once, at their timestamp,
    /// ordered against local events.
    #[test]
    fn globals_fan_out_to_every_partition() {
        let delay = SimDuration::from_millis(1);
        let (shards, _) = ring(3, delay, 10);
        let at = SimTime::from_nanos(4_500_000);
        let globals = vec![(at, 7u64)];
        let (parts, stats) = run_sharded(
            shards,
            globals,
            SimTime::from_secs(1),
            ShardOpts {
                workers: 2,
                window: delay,
            },
        );
        assert_eq!(stats.globals_applied, 1);
        for (p, log) in logs(&parts).iter().enumerate() {
            let hits: Vec<usize> = log
                .iter()
                .enumerate()
                .filter(|(_, &(_, v))| v == GLOBAL_TAG | 7)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(
                hits.len(),
                1,
                "partition {p} saw the global {} times",
                hits.len()
            );
            let (gt, _) = log[hits[0]];
            assert_eq!(gt, at);
            for (i, &(t, _)) in log.iter().enumerate() {
                if i < hits[0] {
                    assert!(t <= at, "partition {p}: event after the global ran first");
                } else if i > hits[0] {
                    assert!(t >= at, "partition {p}: event before the global ran later");
                }
            }
        }
    }

    /// Events beyond `until` stay queued, matching `run`'s contract, and
    /// pop counters account for exactly the processed prefix.
    #[test]
    fn until_leaves_future_events_pending() {
        let delay = SimDuration::from_millis(1);
        let (shards, globals) = ring(3, delay, 10);
        let (parts, _) = run_sharded(
            shards,
            globals,
            SimTime::from_millis(4),
            ShardOpts {
                workers: 2,
                window: delay,
            },
        );
        assert_eq!(
            parts.iter().map(|(_, q)| q.popped_total()).sum::<u64>(),
            5,
            "t = 0..=4 ms inclusive"
        );
        assert_eq!(
            parts.iter().map(|(_, q)| q.len()).sum::<usize>(),
            1,
            "the 5 ms hop stays pending"
        );
        for log in logs(&parts) {
            assert!(log.iter().all(|&(t, _)| t <= SimTime::from_millis(4)));
        }
    }

    /// Degenerate shapes: a single partition (everything local, workers
    /// capped) and zero partitions.
    #[test]
    fn degenerate_partition_counts() {
        let delay = SimDuration::from_millis(1);
        let (shards, globals) = ring(1, delay, 5);
        let (parts, stats) = run_sharded(
            shards,
            globals,
            SimTime::from_secs(1),
            ShardOpts {
                workers: 8,
                window: delay,
            },
        );
        assert_eq!(stats.cross_events, 0);
        assert_eq!(stats.parallel_rounds, 0);
        assert_eq!(parts[0].0.log.len(), 6);

        let (parts, stats) = run_sharded::<Ring>(
            Vec::new(),
            Vec::new(),
            SimTime::from_secs(1),
            ShardOpts {
                workers: 4,
                window: delay,
            },
        );
        assert!(parts.is_empty());
        assert_eq!(stats.rounds, 0);
    }
}
