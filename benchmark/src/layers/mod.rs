//! One module per layer of the program. Each reaches its layer through
//! the narrowest public entry points and nothing else, so an API change
//! in one layer breaks one file here, not the benchmark.
//!
//! `*_ns` metrics come from *probes*: bench-side loops over a layer's
//! entry points, fed with inputs derived from the workload's own trace
//! (see [`fabric`]), each at least [`PROBE_MIN`] long and wrapped in a
//! span.

pub mod bloom;
pub mod cluster;
pub mod controller;
pub mod core;
pub mod fabric;
pub mod host;
pub mod mc;
pub mod obs;
pub mod partition;
pub mod proto;
pub mod sim;
pub mod switch;
pub mod trace;

use std::time::{Duration, Instant};

use crate::spans::Recorder;
use crate::stats::summarize;

/// Shortest time a probe measures for.
pub const PROBE_MIN: Duration = Duration::from_millis(200);

/// Accumulates the host time of the sections a probe pass puts on the
/// clock, so input preparation and state upkeep between operations stay
/// off it.
#[derive(Debug, Default)]
pub struct Stopwatch {
    ns: u64,
}

impl Stopwatch {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns += t.elapsed().as_nanos() as u64;
        out
    }

    pub fn ns(&self) -> u64 {
        self.ns
    }
}

/// Runs `pass` — which times some operations on a layer and returns how
/// many it performed — again and again for at least [`PROBE_MIN`], inside
/// a span named `name`, and returns the median timed nanoseconds per
/// operation over the passes (the median, not the fastest: some probes'
/// passes differ, e.g. one regroup window each). A pass with nothing to
/// do (returns 0) makes the probe read 0.
pub fn ns_per_op(
    rec: &mut Recorder,
    name: &str,
    mut pass: impl FnMut(&mut Stopwatch) -> u64,
) -> f64 {
    rec.span(name, |_| {
        // One unrecorded pass fills caches and lazily built state.
        if pass(&mut Stopwatch::default()) == 0 {
            return 0.0;
        }
        let mut samples = Vec::new();
        let begun = Instant::now();
        while begun.elapsed() < PROBE_MIN || samples.len() < 3 {
            let mut clock = Stopwatch::default();
            let ops = pass(&mut clock);
            samples.push(clock.ns as f64 / ops as f64);
        }
        summarize(&samples).median
    })
}
