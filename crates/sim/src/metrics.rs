//! Measurement plumbing: counters, time-bucketed series and latency
//! histograms.
//!
//! The paper's evaluation reports controller workload in requests/sec per
//! 2-hour bucket (Fig. 7), grouping updates per hour (Fig. 8), and average
//! forwarding latency per 2-hour bucket (Fig. 9). [`TimeSeries`] produces
//! exactly those shapes; [`Log2Histogram`] backs the latency mean and tails.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{SimDuration, SimTime};

/// A time series of accumulated values in fixed-width buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    bucket_width: SimDuration,
    buckets: BTreeMap<u64, f64>,
    counts: BTreeMap<u64, u64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics on a zero bucket width.
    pub fn new(bucket_width: SimDuration) -> Self {
        assert!(bucket_width.as_nanos() > 0, "bucket width must be positive");
        TimeSeries {
            bucket_width,
            buckets: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    fn bucket_of(&self, at: SimTime) -> u64 {
        at.as_nanos() / self.bucket_width.as_nanos()
    }

    /// Adds `value` to the bucket containing `at`.
    pub fn record(&mut self, at: SimTime, value: f64) {
        let b = self.bucket_of(at);
        *self.buckets.entry(b).or_insert(0.0) += value;
        *self.counts.entry(b).or_insert(0) += 1;
    }

    /// Convenience: records a single occurrence (value 1).
    pub fn increment(&mut self, at: SimTime) {
        self.record(at, 1.0);
    }

    /// Sum accumulated in the bucket containing `at`.
    pub fn bucket_sum(&self, at: SimTime) -> f64 {
        self.buckets
            .get(&self.bucket_of(at))
            .copied()
            .unwrap_or(0.0)
    }

    /// All buckets as `(bucket_start_time, sum)` in time order, including
    /// empty gaps between the first and last non-empty bucket.
    pub fn sums(&self) -> Vec<(SimTime, f64)> {
        let (Some(&first), Some(&last)) =
            (self.buckets.keys().next(), self.buckets.keys().next_back())
        else {
            return Vec::new();
        };
        (first..=last)
            .map(|b| {
                (
                    SimTime::from_nanos(b * self.bucket_width.as_nanos()),
                    self.buckets.get(&b).copied().unwrap_or(0.0),
                )
            })
            .collect()
    }

    /// All buckets as `(bucket_start_time, sum / bucket_seconds)` — i.e.
    /// rates, the unit of Fig. 7 (requests per second).
    pub fn rates(&self) -> Vec<(SimTime, f64)> {
        let secs = self.bucket_width.as_secs_f64();
        self.sums()
            .into_iter()
            .map(|(t, s)| (t, s / secs))
            .collect()
    }

    /// Mean recorded value per bucket as `(bucket_start_time, mean)` —
    /// the unit of Fig. 9 (average latency per bucket).
    pub fn means(&self) -> Vec<(SimTime, f64)> {
        self.sums()
            .into_iter()
            .map(|(t, s)| {
                let b = self.bucket_of(t);
                let n = self.counts.get(&b).copied().unwrap_or(0);
                (t, if n == 0 { 0.0 } else { s / n as f64 })
            })
            .collect()
    }

    /// Total across all buckets.
    pub fn total(&self) -> f64 {
        self.buckets.values().sum()
    }

    /// Folds another series into this one bucket-by-bucket (used when
    /// merging per-partition metrics after a sharded run).
    ///
    /// # Panics
    ///
    /// Panics if the bucket widths differ.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "cannot merge series with different bucket widths"
        );
        for (&b, &v) in &other.buckets {
            *self.buckets.entry(b).or_insert(0.0) += v;
        }
        for (&b, &n) in &other.counts {
            *self.counts.entry(b).or_insert(0) += n;
        }
    }
}

/// Number of buckets in a [`Log2Histogram`] (power-of-two widths covering
/// `2^-32 .. 2^32`, i.e. sub-nanosecond to decades at millisecond units).
pub const LOG2_BUCKETS: usize = 64;

/// A fixed-footprint histogram with power-of-two bucket boundaries.
///
/// Folds each sample into one of [`LOG2_BUCKETS`] buckets keyed by
/// `floor(log2(value))` instead of storing it — constant memory regardless of
/// how many samples arrive, which is what unbounded per-event sites (the
/// 67 M-event paper runs, the engine self-profiler's dispatch timings)
/// need. The count, sum, min and max are tracked exactly, so
/// [`Log2Histogram::mean`] is exact; quantiles are bucket-resolution
/// estimates (within a factor of 2, reported as the bucket's upper edge).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Log2Histogram {
    buckets: [u64; LOG2_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; LOG2_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    /// Bucket index for a value: `floor(log2(v))` clamped into the bucket
    /// range, computed from the float's exponent bits (no `log2` call).
    fn bucket_of(value: f64) -> usize {
        if value <= 0.0 {
            return 0;
        }
        // Biased exponent of a positive f64; subnormals collapse to the
        // lowest bucket, which is where they belong anyway.
        let exp = ((value.to_bits() >> 52) & 0x7ff) as i64 - 1023;
        (exp + 32).clamp(0, LOG2_BUCKETS as i64 - 1) as usize
    }

    /// Upper edge of bucket `i` (`2^(i-31)`): every sample in the bucket
    /// is ≤ this value (modulo the clamped extremes).
    fn bucket_upper(i: usize) -> f64 {
        (2.0f64).powi(i as i32 - 31)
    }

    /// Records a sample.
    ///
    /// # Panics
    ///
    /// Panics on NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN");
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact minimum sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimated `q`-quantile (0 ≤ q ≤ 1) by nearest rank over the bucket
    /// counts, or `None` when empty. The estimate is the matched bucket's
    /// upper edge clamped into `[min, max]`, so it is exact at the
    /// extremes and within a factor of 2 in between.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0,1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as f64 * q).round() as u64;
        if rank == 0 {
            return Some(self.min);
        }
        if rank == self.count - 1 {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Some(Self::bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another histogram into this one (sharded-run merge): bucket
    /// counts, count and sum add; min/max fold. Exact statistics stay
    /// exact because they are all associative.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, &c) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(bucket_upper_edge, count)`, in value order —
    /// the export shape telemetry consumers read.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_upper(i), c))
    }
}

/// Handle to one counter of the [`MetricsSink`] that issued it (or of a
/// clone of that sink): its dense index, so a bump is an array access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Counter {
    name: &'static str,
    value: u64,
    /// Set by the first write, even a write of 0. Only written counters
    /// are visible in [`MetricsSink::counters`] — and through it in every
    /// report — so registering a counter changes no output.
    written: bool,
}

/// A bundle of named metrics for one experiment run.
///
/// Metric names are `&'static str` literals, so nothing allocates a
/// `String` per event. A counter is found by name with a binary search
/// that compares strings ([`MetricsSink::count`], [`MetricsSink::counter`],
/// [`MetricsSink::merge`]); code that bumps the same counters once per
/// event — the simulation loop touches several per event —
/// [registers](MetricsSink::register) them once and bumps by
/// [`CounterId`] instead ([`MetricsSink::bump`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsSink {
    /// Indexed by [`CounterId`], in registration order.
    counters: Vec<Counter>,
    /// Indices into `counters`, sorted by counter name: the by-name
    /// lookup and the order of [`MetricsSink::counters`].
    by_name: Vec<u32>,
    series: BTreeMap<&'static str, TimeSeries>,
    log2s: BTreeMap<&'static str, Log2Histogram>,
}

impl MetricsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.by_name
            .binary_search_by(|&i| self.counters[i as usize].name.cmp(name))
    }

    /// Hands out the dense id of a named counter, creating it unwritten
    /// (and so invisible) if the name is new. Ids are only meaningful to
    /// this sink and its clones.
    pub fn register(&mut self, name: &'static str) -> CounterId {
        match self.position(name) {
            Ok(at) => CounterId(self.by_name[at]),
            Err(at) => {
                let id = u32::try_from(self.counters.len()).expect("fewer than 2^32 counters");
                self.counters.push(Counter {
                    name,
                    value: 0,
                    written: false,
                });
                self.by_name.insert(at, id);
                CounterId(id)
            }
        }
    }

    /// Adds `n` to a registered counter.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a sink with more counters than this
    /// one.
    pub fn bump(&mut self, id: CounterId, n: u64) {
        let c = &mut self.counters[id.0 as usize];
        c.value += n;
        c.written = true;
    }

    /// Adds `n` to a named counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        let id = self.register(name);
        self.bump(id, n);
    }

    /// Reads a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.position(name)
            .map(|at| self.counters[self.by_name[at] as usize].value)
            .unwrap_or(0)
    }

    /// Gets (or creates) a named time series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if the series exists with a different bucket width.
    pub fn series_mut(&mut self, name: &'static str, bucket_width: SimDuration) -> &mut TimeSeries {
        let s = self
            .series
            .entry(name)
            .or_insert_with(|| TimeSeries::new(bucket_width));
        assert_eq!(
            s.bucket_width, bucket_width,
            "series {name} re-opened with different bucket width"
        );
        s
    }

    /// Reads a named series.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Gets (or creates) a named fixed-bucket histogram — constant
    /// memory, so fit for sites recording one sample per event (see
    /// [`Log2Histogram`]).
    pub fn log2_histogram_mut(&mut self, name: &'static str) -> &mut Log2Histogram {
        self.log2s.entry(name).or_default()
    }

    /// Reads a named log2 histogram.
    pub fn log2_histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.log2s.get(name)
    }

    /// Folds another sink into this one: counters add, series merge
    /// bucket-wise, log2 histograms add bucket counts. Deterministic for
    /// a fixed merge order.
    ///
    /// # Panics
    ///
    /// Panics if a shared series name has different bucket widths.
    pub fn merge(&mut self, other: &MetricsSink) {
        for (name, v) in other.counters() {
            self.count(name, v);
        }
        for (&name, s) in &other.series {
            match self.series.get_mut(name) {
                Some(mine) => mine.merge(s),
                None => {
                    self.series.insert(name, s.clone());
                }
            }
        }
        for (&name, h) in &other.log2s {
            self.log2s.entry(name).or_default().merge(h);
        }
    }

    /// All written counters' names and values, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.by_name
            .iter()
            .map(|&i| &self.counters[i as usize])
            .filter(|c| c.written)
            .map(|c| (c.name, c.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_buckets_and_rates() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(10));
        ts.increment(SimTime::from_secs(1));
        ts.increment(SimTime::from_secs(9));
        ts.increment(SimTime::from_secs(25));
        let sums = ts.sums();
        assert_eq!(sums.len(), 3); // buckets 0, 1 (gap), 2
        assert_eq!(sums[0], (SimTime::ZERO, 2.0));
        assert_eq!(sums[1], (SimTime::from_secs(10), 0.0));
        assert_eq!(sums[2], (SimTime::from_secs(20), 1.0));
        let rates = ts.rates();
        assert_eq!(rates[0].1, 0.2);
        assert_eq!(ts.total(), 3.0);
        assert_eq!(ts.bucket_sum(SimTime::from_secs(5)), 2.0);
    }

    #[test]
    fn series_means() {
        let mut ts = TimeSeries::new(SimDuration::from_secs(1));
        ts.record(SimTime::from_millis(100), 10.0);
        ts.record(SimTime::from_millis(200), 20.0);
        let means = ts.means();
        assert_eq!(means, vec![(SimTime::ZERO, 15.0)]);
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new(SimDuration::from_secs(1));
        assert!(ts.sums().is_empty());
        assert_eq!(ts.total(), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot record NaN")]
    fn nan_rejected() {
        Log2Histogram::new().record(f64::NAN);
    }

    #[test]
    fn log2_histogram_stats() {
        let mut h = Log2Histogram::new();
        for v in [0.5, 1.0, 2.0, 4.0, 1000.0] {
            h.record(v);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.mean(), Some(1007.5 / 5.0));
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(1000.0));
        assert_eq!(h.sum(), 1007.5);
        // Extremes are exact; the middle is bucket-resolution.
        assert_eq!(h.quantile(0.0), Some(0.5));
        assert_eq!(h.quantile(1.0), Some(1000.0));
        let p50 = h.quantile(0.5).unwrap();
        assert!((2.0..=4.0).contains(&p50), "p50 estimate {p50}");
        assert_eq!(h.nonzero_buckets().map(|(_, c)| c).sum::<u64>(), 5);
    }

    #[test]
    fn log2_histogram_handles_edge_values() {
        let mut h = Log2Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        h.record(f64::MAX);
        h.record(1e-300); // subnormal-adjacent tiny value
        assert_eq!(h.len(), 4);
        assert_eq!(h.min(), Some(-3.0));
        assert_eq!(h.max(), Some(f64::MAX));
        assert!(h.quantile(0.5).is_some());
        let empty = Log2Histogram::new();
        assert_eq!(empty.mean(), None);
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.max(), None);
    }

    #[test]
    fn sink_round_trip() {
        let mut sink = MetricsSink::new();
        sink.count("packet_in", 3);
        sink.count("packet_in", 2);
        assert_eq!(sink.counter("packet_in"), 5);
        assert_eq!(sink.counter("missing"), 0);

        sink.series_mut("workload", SimDuration::from_secs(2))
            .increment(SimTime::from_secs(1));
        assert_eq!(sink.series("workload").unwrap().total(), 1.0);

        sink.log2_histogram_mut("latency").record(0.8);
        assert_eq!(sink.log2_histogram("latency").unwrap().len(), 1);

        let names: Vec<&str> = sink.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["packet_in"]);
    }

    /// The visibility contract reports and `report_fingerprint` rest on: a
    /// counter shows up in `counters()` once it has been written — a write
    /// of 0 counts — and never because it was registered.
    #[test]
    fn registering_a_counter_does_not_make_it_visible() {
        let mut sink = MetricsSink::new();
        let idle = sink.register("idle");
        let busy = sink.register("busy");
        assert_eq!(sink.counters().count(), 0, "registered, never written");
        assert_eq!(sink.counter("idle"), 0);

        sink.bump(busy, 2);
        sink.count("zero_by_name", 0);
        let view: Vec<_> = sink.counters().collect();
        assert_eq!(view, vec![("busy", 2), ("zero_by_name", 0)]);

        sink.bump(idle, 0);
        let view: Vec<_> = sink.counters().collect();
        assert_eq!(view, vec![("busy", 2), ("idle", 0), ("zero_by_name", 0)]);

        // By id and by name are the same counter, whichever came first.
        assert_eq!(sink.register("busy"), busy);
        sink.count("busy", 3);
        assert_eq!(sink.counter("busy"), 5);
        assert_eq!(sink.register("zero_by_name"), sink.register("zero_by_name"));

        // An unwritten counter does not travel through a merge either.
        let mut other = MetricsSink::new();
        other.register("never");
        sink.merge(&other);
        assert!(sink.counters().all(|(name, _)| name != "never"));
    }

    #[test]
    fn merge_ignores_registration_order() {
        let names = ["delta", "alpha", "charlie", "bravo"];
        let mut a = MetricsSink::new();
        let a_ids: Vec<CounterId> = names.iter().map(|n| a.register(n)).collect();
        let mut b = MetricsSink::new();
        let b_ids: Vec<CounterId> = names.iter().rev().map(|n| b.register(n)).collect();
        // a writes delta, alpha, charlie; b writes delta, charlie, bravo.
        for (i, &id) in a_ids.iter().take(3).enumerate() {
            a.bump(id, 1 + i as u64);
        }
        for (&id, n) in b_ids.iter().zip([10, 20, 0, 40]).filter(|&(_, n)| n != 0) {
            b.bump(id, n);
        }
        let expected = vec![("alpha", 2), ("bravo", 10), ("charlie", 23), ("delta", 41)];

        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(ab.counters().collect::<Vec<_>>(), expected);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba.counters().collect::<Vec<_>>(), expected);
        let mut fresh = MetricsSink::new();
        fresh.merge(&b);
        fresh.merge(&a);
        assert_eq!(fresh.counters().collect::<Vec<_>>(), expected);
        // Ids issued before the merge still name the same counters.
        ab.bump(a_ids[1], 5);
        assert_eq!(ab.counter("alpha"), 7);
    }

    #[test]
    #[should_panic(expected = "different bucket width")]
    fn series_width_conflict_panics() {
        let mut sink = MetricsSink::new();
        sink.series_mut("x", SimDuration::from_secs(1));
        sink.series_mut("x", SimDuration::from_secs(2));
    }

    /// Worker threads hold (and merge-threads read) metrics across thread
    /// boundaries, so every metrics type must be `Send + Sync`.
    #[test]
    fn metrics_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TimeSeries>();
        assert_send_sync::<Log2Histogram>();
        assert_send_sync::<MetricsSink>();
    }

    #[test]
    fn series_merge_adds_buckets_and_counts() {
        let mut a = TimeSeries::new(SimDuration::from_secs(10));
        a.record(SimTime::from_secs(1), 2.0);
        let mut b = TimeSeries::new(SimDuration::from_secs(10));
        b.record(SimTime::from_secs(1), 3.0);
        b.record(SimTime::from_secs(25), 5.0);
        a.merge(&b);
        assert_eq!(a.bucket_sum(SimTime::from_secs(5)), 5.0);
        assert_eq!(a.bucket_sum(SimTime::from_secs(25)), 5.0);
        assert_eq!(a.total(), 10.0);
        // Means use merged counts: bucket 0 holds 2 records summing 5.
        assert_eq!(a.means()[0].1, 2.5);
    }

    #[test]
    #[should_panic(expected = "different bucket widths")]
    fn series_merge_width_conflict_panics() {
        let mut a = TimeSeries::new(SimDuration::from_secs(1));
        a.merge(&TimeSeries::new(SimDuration::from_secs(2)));
    }

    #[test]
    fn log2_merge_matches_recording_everything_in_one() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut all = Log2Histogram::new();
        for (i, v) in [0.5, 2.0, 1000.0, 3.0, 0.25].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v)
            } else {
                b.record(*v)
            }
            all.record(*v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        let empty = Log2Histogram::new();
        let mut c = all.clone();
        c.merge(&empty);
        assert_eq!(c, all, "merging an empty histogram is a no-op");
    }

    #[test]
    fn sink_merge_folds_every_metric_kind() {
        let mut a = MetricsSink::new();
        a.count("flows", 2);
        a.series_mut("workload", SimDuration::from_secs(2))
            .increment(SimTime::from_secs(1));
        a.log2_histogram_mut("ns").record(8.0);

        let mut b = MetricsSink::new();
        b.count("flows", 3);
        b.count("drops", 1);
        b.series_mut("workload", SimDuration::from_secs(2))
            .increment(SimTime::from_secs(1));
        b.series_mut("extra", SimDuration::from_secs(1))
            .increment(SimTime::ZERO);
        b.log2_histogram_mut("ns").record(16.0);

        a.merge(&b);
        assert_eq!(a.counter("flows"), 5);
        assert_eq!(a.counter("drops"), 1);
        assert_eq!(a.series("workload").unwrap().total(), 2.0);
        assert_eq!(a.series("extra").unwrap().total(), 1.0);
        assert_eq!(a.log2_histogram("ns").unwrap().len(), 2);
    }
}
