//! Engine self-profiling: coarse, sampled wall-clock attribution.
//!
//! Per-event `Instant::now()` would dominate a 2.77 M events/sec dispatch
//! loop, so the profiler samples: a countdown counter decides (branch + dec)
//! whether this dispatch is timed; only one in `SAMPLE_EVERY` events pays
//! for two `Instant::now()` calls. The measured nanoseconds land in a fixed-size
//! [`Log2Histogram`] per event kind — no per-sample allocation, bounded
//! memory regardless of run length. Exact event *counts* are kept per kind
//! (they're just increments), so throughput attribution stays precise even
//! though latency attribution is sampled.

use lazyctrl_sim::Log2Histogram;
use std::time::Instant;

/// Take one wall-clock profiling sample every this many dispatched events.
/// Engine-level trace records (event pops, handler outcomes) follow the
/// same stride — recording them on every dispatch streams a cache line per
/// event through the ring and costs double-digit throughput, while
/// flow-scoped records (the causal chains) are cheap enough to always
/// capture.
const SAMPLE_EVERY: u32 = 64;

/// Wall-clock phase timings for one experiment run, seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTimings {
    /// Trace/world construction (before the first event pops).
    pub build_s: f64,
    /// The event loop itself.
    pub run_s: f64,
    /// Report collection after the loop drains.
    pub report_s: f64,
}

impl PhaseTimings {
    /// Total across phases.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.run_s + self.report_s
    }
}

/// One event kind's profile row.
#[derive(Debug, Clone)]
pub struct KindProfile {
    /// Dense event-kind index (world-defined).
    pub kind: u32,
    /// Subsystem the kind is attributed to ([`crate::intern::subsys`]).
    pub subsys: u16,
    /// Exact number of dispatches of this kind.
    pub count: u64,
    /// Sampled dispatch-time distribution, nanoseconds.
    pub ns: Log2Histogram,
}

/// Sampling dispatch-time profiler.
///
/// `MAX_KINDS` bounds the dense kind space; the world maps its event enum to
/// `0..n` and registers a subsystem per kind up front.
#[derive(Debug, Clone)]
pub struct EngineProfile {
    countdown: u32,
    pending: Option<(u32, Instant)>,
    counts: Vec<u64>,
    subsys_of: Vec<u16>,
    ns: Vec<Log2Histogram>,
    samples: u64,
}

impl EngineProfile {
    /// Profiler over `kinds` dense event kinds, sampling one dispatch in
    /// `SAMPLE_EVERY`. `subsys_of[kind]` attributes each kind to a
    /// subsystem.
    pub fn new(kinds: usize, subsys_of: Vec<u16>) -> Self {
        assert_eq!(subsys_of.len(), kinds, "one subsystem per kind");
        Self {
            countdown: SAMPLE_EVERY,
            pending: None,
            counts: vec![0; kinds],
            subsys_of,
            ns: vec![Log2Histogram::new(); kinds],
            samples: 0,
        }
    }

    /// Whether the *next* [`dispatch_begin`] call will take a timing
    /// sample. Lets callers gate their own per-dispatch bookkeeping (e.g.
    /// engine-level trace records) on the same sampling stride without
    /// perturbing the timed window.
    ///
    /// [`dispatch_begin`]: EngineProfile::dispatch_begin
    #[inline]
    pub fn will_sample(&self) -> bool {
        self.countdown == 1
    }

    /// Called just before an event of `kind` is dispatched. Cheap path is a
    /// count increment plus one countdown decrement; every
    /// `SAMPLE_EVERY`-th call also takes a timestamp.
    #[inline]
    pub fn dispatch_begin(&mut self, kind: u32) {
        self.counts[kind as usize] += 1;
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = SAMPLE_EVERY;
            self.pending = Some((kind, Instant::now()));
        }
    }

    /// Called after the dispatch returns; records the elapsed time if this
    /// dispatch was sampled.
    #[inline]
    pub fn dispatch_end(&mut self) {
        if let Some((kind, start)) = self.pending.take() {
            let ns = start.elapsed().as_nanos() as f64;
            self.ns[kind as usize].record(ns.max(1.0));
            self.samples += 1;
        }
    }

    /// Total sampled dispatches.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Total dispatches (exact).
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-kind rows, skipping kinds that never fired.
    pub fn kind_profiles(&self) -> Vec<KindProfile> {
        (0..self.counts.len())
            .filter(|&k| self.counts[k] > 0)
            .map(|k| KindProfile {
                kind: k as u32,
                subsys: self.subsys_of[k],
                count: self.counts[k],
                ns: self.ns[k].clone(),
            })
            .collect()
    }

    /// Fold another profile (same kind space) into this one: exact counts
    /// and sample totals add, sampled latency histograms merge bucket-wise.
    /// Used to roll per-partition profiles up into one run-level profile
    /// after a sharded run.
    pub fn merge(&mut self, other: &EngineProfile) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "profiles must cover the same kind space"
        );
        assert_eq!(
            self.subsys_of, other.subsys_of,
            "profiles must agree on the kind→subsystem mapping"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        for (h, o) in self.ns.iter_mut().zip(&other.ns) {
            h.merge(o);
        }
        self.samples += other.samples;
    }

    /// Roll dispatch counts and sampled time up by subsystem:
    /// `(subsys, exact count, sampled ns sum)`.
    pub fn subsys_rollup(&self) -> Vec<(u16, u64, f64)> {
        let max = self.subsys_of.iter().copied().max().map_or(0, |m| m + 1);
        let mut rows: Vec<(u16, u64, f64)> = (0..max).map(|s| (s, 0, 0.0)).collect();
        for k in 0..self.counts.len() {
            let s = self.subsys_of[k] as usize;
            rows[s].1 += self.counts[k];
            rows[s].2 += self.ns[k].sum();
        }
        rows.retain(|&(_, c, _)| c > 0);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_and_sampling_is_strided() {
        let n = 5 * SAMPLE_EVERY + 3;
        let mut p = EngineProfile::new(3, vec![0, 1, 1]);
        let mut announced = 0;
        for i in 0..n {
            let k = i % 3;
            if p.will_sample() {
                announced += 1;
            }
            p.dispatch_begin(k);
            p.dispatch_end();
        }
        assert_eq!(p.total_events(), n as u64);
        assert_eq!(p.samples(), 5); // every SAMPLE_EVERY-th dispatch
        assert_eq!(announced, 5, "will_sample must agree with dispatch_begin");
        let rows = p.kind_profiles();
        assert_eq!(rows.len(), 3);
        let kind0 = n.div_ceil(3) as u64;
        assert_eq!(rows[0].count, kind0);
        let rollup = p.subsys_rollup();
        assert_eq!(rollup[0].0, 0);
        assert_eq!(rollup[0].1, kind0);
        assert_eq!(rollup[1].1, n as u64 - kind0);
    }

    #[test]
    fn merge_adds_counts_and_samples() {
        let mut a = EngineProfile::new(2, vec![0, 1]);
        let mut b = EngineProfile::new(2, vec![0, 1]);
        for _ in 0..3 * SAMPLE_EVERY {
            a.dispatch_begin(0);
            a.dispatch_end();
        }
        for _ in 0..5 * SAMPLE_EVERY {
            b.dispatch_begin(1);
            b.dispatch_end();
        }
        a.merge(&b);
        assert_eq!(a.total_events(), 8 * SAMPLE_EVERY as u64);
        assert_eq!(a.samples(), 8);
        let rows = a.kind_profiles();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].count, 3 * SAMPLE_EVERY as u64);
        assert_eq!(rows[1].count, 5 * SAMPLE_EVERY as u64);
        assert_eq!(rows[1].ns.len(), 5, "sampled histograms must merge");
    }
}
