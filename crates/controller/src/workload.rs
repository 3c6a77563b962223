//! Controller workload measurement and the load-dependent service-time
//! model.
//!
//! Fig. 7 reports workload as requests/sec; Fig. 9's latency win is "a
//! byproduct of reducing the workload of the controller as less load on the
//! controller leads to higher processing speed" (§V-E). We model the
//! controller as an M/M/1-style server: the mean response time grows as
//! utilization approaches capacity, so the latency gap *emerges* from the
//! measured request rate instead of being hard-coded.

use serde::{Deserialize, Serialize};

/// Unloaded service time of one request (ns).
const BASE_SERVICE_NS: u64 = 500_000;

/// Requests/sec at which the controller saturates. The paper cites ~30k
/// flow setups/sec for a commodity OpenFlow controller [14].
const CAPACITY_RPS: f64 = 30_000.0;

/// Sliding-window request-rate meter plus service-time model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadMeter {
    /// Window width for rate estimation (ns).
    window_ns: u64,
    /// Request timestamps in the current window, oldest first (ring
    /// pruned on insert). Non-decreasing: see [`WorkloadMeter::record`].
    recent: std::collections::VecDeque<u64>,
    /// Lifetime request count.
    total: u64,
}

impl WorkloadMeter {
    /// Creates a meter with the paper-calibrated defaults: 10 s rate
    /// window, 0.5 ms unloaded service time, 30 krps capacity.
    pub(crate) fn new() -> Self {
        WorkloadMeter {
            window_ns: 10_000_000_000,
            recent: std::collections::VecDeque::new(),
            total: 0,
        }
    }

    /// Records one handled request. Timestamps must arrive
    /// non-decreasing — callers pass the simulation clock, which never
    /// runs backwards — because both the pruning below and the window
    /// count in [`rate_rps`](WorkloadMeter::rate_rps) rely on `recent`
    /// being time-ordered.
    pub(crate) fn record(&mut self, now_ns: u64) {
        debug_assert!(
            self.newest_ns() <= now_ns,
            "request at {now_ns} ns recorded after one at {} ns",
            self.newest_ns()
        );
        self.total += 1;
        self.recent.push_back(now_ns);
        let cutoff = now_ns.saturating_sub(self.window_ns);
        while let Some(&front) = self.recent.front() {
            if front < cutoff {
                self.recent.pop_front();
            } else {
                break;
            }
        }
    }

    /// Time of the newest recorded request (0 before the first): the
    /// earliest timestamp `record` still accepts.
    pub fn newest_ns(&self) -> u64 {
        self.recent.back().copied().unwrap_or(0)
    }

    /// Lifetime request count.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Request rate over the sliding window (requests/sec).
    pub fn rate_rps(&self, now_ns: u64) -> f64 {
        let cutoff = now_ns.saturating_sub(self.window_ns);
        let in_window = self.recent.len() - self.recent.partition_point(|&t| t < cutoff);
        in_window as f64 / (self.window_ns as f64 / 1e9)
    }

    /// Mean service time at the current load: `base / (1 − ρ)` with
    /// utilization `ρ = rate / capacity`, clamped at 50× base when
    /// saturated (requests queue, they don't vanish).
    pub fn service_time_ns(&self, now_ns: u64) -> u64 {
        let rho = (self.rate_rps(now_ns) / CAPACITY_RPS).min(0.98);
        let factor = 1.0 / (1.0 - rho);
        ((BASE_SERVICE_NS as f64) * factor.min(50.0)) as u64
    }
}

impl Default for WorkloadMeter {
    fn default() -> Self {
        WorkloadMeter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_reflects_window() {
        let mut m = WorkloadMeter::new();
        for i in 0..100 {
            m.record(i * 100_000_000); // 10 rps for 10 s
        }
        let rate = m.rate_rps(10_000_000_000);
        assert!((rate - 10.0).abs() < 1.5, "rate {rate}");
        assert_eq!(m.total(), 100);
    }

    #[test]
    fn old_requests_age_out() {
        let mut m = WorkloadMeter::new();
        for i in 0..100 {
            m.record(i * 1_000_000);
        }
        // 100 requests in the first 0.1 s; 60 s later the window is empty.
        assert_eq!(m.rate_rps(60_000_000_000), 0.0);
    }

    #[test]
    fn service_time_grows_with_load() {
        let mut idle = WorkloadMeter::new();
        idle.record(0);
        let idle_t = idle.service_time_ns(1_000_000_000);

        let mut busy = WorkloadMeter::new();
        for i in 0..270_000 {
            busy.record(i * 37_037); // 27 krps ≈ 90% utilization
        }
        let busy_t = busy.service_time_ns(10_000_000_000);
        assert!(
            busy_t > idle_t * 5,
            "expected clear M/M/1 blowup: idle {idle_t} vs busy {busy_t}"
        );
    }

    /// The window count by binary search equals the filter over the whole
    /// deque it replaced, for any query time — including one that
    /// precedes the newest record.
    #[test]
    fn window_count_equals_the_filter_it_replaced() {
        fn filtered(m: &WorkloadMeter, now_ns: u64) -> f64 {
            let cutoff = now_ns.saturating_sub(m.window_ns);
            let in_window = m.recent.iter().filter(|&&t| t >= cutoff).count();
            in_window as f64 / (m.window_ns as f64 / 1e9)
        }
        // splitmix64: the crate has no RNG dependency.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut m = WorkloadMeter::new();
        let mut now = 0u64;
        let mut queried_the_past = false;
        for _ in 0..20_000 {
            // Mostly sub-millisecond gaps (repeats included), now and
            // then a jump that empties most or all of the window.
            now += match next() % 100 {
                0 => next() % (3 * m.window_ns),
                1..=9 => 0,
                _ => next() % 2_000_000,
            };
            m.record(now);
            let at = match next() % 4 {
                0 => now,
                1 => now + next() % (2 * m.window_ns),
                _ => now.saturating_sub(next() % (2 * m.window_ns)),
            };
            queried_the_past |= at < now;
            assert_eq!(
                m.rate_rps(at),
                filtered(&m, at),
                "query at {at}, last record {now}"
            );
        }
        assert!(queried_the_past);
    }

    #[test]
    fn saturation_is_clamped() {
        let mut m = WorkloadMeter::new();
        for i in 0..400_000 {
            m.record(i * 1_000); // 40 krps over the window: past capacity
        }
        let t = m.service_time_ns(1_000_000_000);
        assert!(t <= BASE_SERVICE_NS * 51, "runaway service time {t}");
    }
}
