//! Layer `mc`: the `mc_explore` workload — bounded model checking of the
//! cluster plane from the `repro_mc` initial states. Drives the same
//! plane `cluster_storm` simulates, through the same `StepModel` seam,
//! with no simulator and no switch in the process.

use std::time::Instant;

use lazyctrl::cluster::{ClusterConfig, DisseminationStrategy};
use lazyctrl::mc::{check, CheckOutcome, CheckStats, CheckerConfig, FaultBudget, McState, Mode};

use crate::metrics::Bag;
use crate::spans::Recorder;

const SEC: u64 = 1_000_000_000;

/// The cluster shape `repro_mc` checks: ring dissemination (the relay
/// path is the protocol under test), 1 s flush/heartbeat, 3 s
/// anti-entropy.
fn cluster_config(members: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::with_controllers(members);
    cfg.dissemination = DisseminationStrategy::Ring;
    cfg.lazy.group_size_limit = 3;
    cfg.replica_flush_interval_ms = 1_000;
    cfg.heartbeat_interval_ms = 1_000;
    cfg.heartbeat_miss_factor = 3;
    cfg.anti_entropy_interval_ms = 3_000;
    cfg.delta_log_flushes = 10_000;
    cfg
}

/// `members` controllers over as many switch groups, replication work
/// seeded on two of them (which hosts is the seed's choice), rolled
/// through the first flush/heartbeat round so traffic is in flight.
fn initial_state(members: usize, seed: u64) -> McState {
    let mut state = McState::bootstrap(members, cluster_config(members));
    state.seed_host(0, 1_001 + seed % 1_000);
    state.seed_host(1, 2_001 + seed % 1_000);
    state.advance_to(SEC);
    state
}

/// The two explorations of one pass, ready to run.
pub struct Inputs {
    three: McState,
    exhaustive: CheckerConfig,
    five: McState,
    guided: CheckerConfig,
}

/// What one pass explored and how long each half took.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    pub wall_s: f64,
    pub exhaustive: CheckStats,
    pub guided: CheckStats,
    exhaustive_s: f64,
    guided_s: f64,
    /// The counterexample of each exploration that found one.
    pub violations: Vec<String>,
}

impl Inputs {
    /// Bootstraps both initial states: exhaustive DFS on 3 members capped
    /// at 40 000 distinct states, and 400 seeded random walks of depth
    /// 220 on 5 members with a two-crash budget.
    pub fn generate(seed: u64) -> Inputs {
        Inputs {
            three: initial_state(3, seed),
            exhaustive: CheckerConfig {
                mode: Mode::Exhaustive,
                max_depth: 11,
                max_states: 40_000,
                budget: FaultBudget {
                    drops: 1,
                    dups: 1,
                    crashes: 1,
                    ..FaultBudget::none()
                },
                max_pending: 14,
                settle_horizon_ns: 45 * SEC,
                settle_every: 512,
            },
            five: initial_state(5, seed),
            guided: CheckerConfig {
                mode: Mode::RandomWalk {
                    walks: 400,
                    depth: 220,
                    seed,
                },
                budget: FaultBudget {
                    drops: 2,
                    dups: 2,
                    crashes: 2,
                    ..FaultBudget::none()
                },
                max_pending: 24,
                settle_horizon_ns: 45 * SEC,
                settle_every: 16,
                ..CheckerConfig::default()
            },
        }
    }

    /// The 3-member plane state, for the cluster clone/fingerprint probes.
    pub fn three_member_state(&self) -> &McState {
        &self.three
    }

    /// Runs both explorations once.
    pub fn run(&self, rec: &mut Recorder) -> Pass {
        let timed = |rec: &mut Recorder, name, state, cfg| -> (CheckOutcome, f64) {
            let t = Instant::now();
            let outcome = rec.span(name, |_| check(state, cfg));
            (outcome, t.elapsed().as_secs_f64())
        };
        let t = Instant::now();
        let (a, exhaustive_s) = timed(rec, "mc.exhaustive", &self.three, &self.exhaustive);
        let (b, guided_s) = timed(rec, "mc.guided", &self.five, &self.guided);
        let wall_s = t.elapsed().as_secs_f64();
        Pass {
            wall_s,
            exhaustive: a.stats,
            guided: b.stats,
            exhaustive_s,
            guided_s,
            violations: [&a, &b]
                .iter()
                .filter_map(|outcome| outcome.violation.as_ref())
                .map(|cx| cx.to_string())
                .collect(),
        }
    }
}

impl Pass {
    pub fn transitions(&self) -> u64 {
        self.exhaustive.explored + self.guided.explored
    }

    /// True if `other` explored exactly what this pass did.
    pub fn same_exploration(&self, other: &Pass) -> bool {
        (self.exhaustive, self.guided, self.violations.len())
            == (other.exhaustive, other.guided, other.violations.len())
    }

    pub fn layer_metrics(&self, bag: &mut Bag) {
        bag.set(
            "mc.exhaustive_transitions_per_sec",
            self.exhaustive.explored as f64 / self.exhaustive_s,
        );
        bag.set(
            "mc.guided_transitions_per_sec",
            self.guided.explored as f64 / self.guided_s,
        );
        bag.set(
            "mc.distinct_states",
            (self.exhaustive.distinct + self.guided.distinct) as f64,
        );
        let visits = self.exhaustive.distinct + self.exhaustive.deduped;
        bag.set(
            "mc.dedup_share",
            self.exhaustive.deduped as f64 / visits.max(1) as f64,
        );
    }
}
