//! Model-checking harness for the cluster protocols: exhaustive bounded
//! exploration of message reorderings, drops, duplications, and member
//! crash/recovery over the pure cluster state machine, with the five
//! protocol invariants checked in every reachable state (see the
//! `lazyctrl-mc` crate docs).
//!
//! Phases:
//!
//! 1. **Exhaustive, 3 members** — DFS with state-fingerprint dedup over
//!    a faulty network (one drop, one duplicate, one crash per
//!    schedule). Must find zero violations.
//! 2. **Guided, 5 members** — seeded random walks with a two-crash
//!    budget, deep enough to cross detection, election, and handoff
//!    windows. Must find zero violations.
//! 3. **Guided partition, 3 members** — seeded random walks whose fault
//!    budget includes a partition start and a heal (isolating any one
//!    member), alongside a drop, a duplicate, and a crash. Settling
//!    heals before the terminal invariants run, so this phase checks
//!    both split behavior (no double leader, no double apply) and
//!    post-heal convergence. Must find zero violations.
//!
//! Each phase must also explore exactly the states it is pinned to (its
//! [`CheckStats`]): a fingerprint collision, a stale state hash or a
//! changed event order shows as a different count before it can hide a
//! bug. The 400 000 states of the exhaustive phase are where a collision
//! would show first.
//!
//! Compiled with `--features mc-mutations`, the phases invert into a
//! self-test: the cluster crate's deliberate relay-dedup bypass is
//! compiled in, and the checker must *find* it, print the counterexample
//! schedule, and reproduce it by replay (each phase stops at its first
//! violation, so the pins do not apply). Exits non-zero on any
//! unexpected outcome either way.
//!
//! ```sh
//! cargo run --release -p lazyctrl-bench --bin repro_mc
//! cargo run --release -p lazyctrl-bench --bin repro_mc --features mc-mutations
//! ```

use std::process::ExitCode;
use std::time::Instant;

use lazyctrl_cluster::{ClusterConfig, DisseminationStrategy};
use lazyctrl_mc::{check, CheckOutcome, CheckStats, CheckerConfig, FaultBudget, McState, Mode};

const SEC: u64 = 1_000_000_000;

/// What each phase explores; a clean run must reproduce these exactly.
const EXHAUSTIVE_3: CheckStats = CheckStats {
    explored: 1_805_106,
    distinct: 400_000,
    deduped: 1_210_977,
    leaves: 0,
    settled: 829,
    truncated: true,
};
const GUIDED_5: CheckStats = CheckStats {
    explored: 132_000,
    distinct: 127_887,
    deduped: 4_114,
    leaves: 600,
    settled: 38,
    truncated: false,
};
const GUIDED_PARTITION_3: CheckStats = CheckStats {
    explored: 120_000,
    distinct: 68_096,
    deduped: 51_905,
    leaves: 500,
    settled: 32,
    truncated: false,
};

/// The cluster configuration under check: 1 s flush/heartbeat ticks, 3 s
/// anti-entropy, the default 3 s election timeout — the same shape the
/// cluster integration tests pin.
fn mc_config(n: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::with_controllers(n);
    // Ring dissemination, not the flood default: the relay path (dedup
    // windows, re-fanning, at-most-once forwarding) is the protocol under
    // test, and flood never relays.
    cfg.dissemination = DisseminationStrategy::Ring;
    cfg.lazy.group_size_limit = 3;
    cfg.replica_flush_interval_ms = 1_000;
    cfg.heartbeat_interval_ms = 1_000;
    cfg.heartbeat_miss_factor = 3;
    cfg.anti_entropy_interval_ms = 3_000;
    cfg.delta_log_flushes = 10_000;
    cfg
}

/// The initial state all phases explore from: `n` members over `n`
/// switch groups, replication work seeded on two members, pre-rolled
/// through the first flush/heartbeat round so the frontier has real
/// traffic in flight.
fn initial_state(n: usize) -> McState {
    let mut state = McState::bootstrap(n, mc_config(n));
    state.seed_host(0, 1_001);
    state.seed_host(1, 2_001);
    state.advance_to(SEC);
    state
}

fn print_outcome(phase: &str, outcome: &CheckOutcome, wall: f64) {
    let s = &outcome.stats;
    println!(
        "{phase}: {} transitions, {} distinct states, {} deduped, \
         {} leaves ({} settled){} in {wall:.2}s",
        s.explored,
        s.distinct,
        s.deduped,
        s.leaves,
        s.settled,
        if s.truncated { ", truncated" } else { "" },
    );
    match &outcome.violation {
        None => println!("{phase}: all invariants held\n"),
        Some(cx) => println!("{phase}: VIOLATION\n{cx}\n"),
    }
}

/// A violation is the expected outcome iff the protocol mutation is
/// compiled in.
fn expect_violation() -> bool {
    cfg!(feature = "mc-mutations")
}

fn run_phase(
    phase: &str,
    state: &McState,
    cfg: &CheckerConfig,
    pinned: CheckStats,
) -> Result<(), String> {
    let t = Instant::now();
    let outcome = check(state, cfg);
    print_outcome(phase, &outcome, t.elapsed().as_secs_f64());
    if !expect_violation() && outcome.stats != pinned {
        return Err(format!(
            "{phase}: explored {:?}, pinned {pinned:?}",
            outcome.stats
        ));
    }
    match (&outcome.violation, expect_violation()) {
        (None, false) => Ok(()),
        (Some(cx), true) => {
            // The counterexample must reproduce from the same initial
            // state — a schedule that cannot be replayed is useless.
            match cx.replay(state) {
                Some(v) => {
                    println!(
                        "{phase}: replay reproduces the violation ({})\n\
                         {phase}: fault-plan skeleton: {} injected event(s)\n",
                        v.invariant,
                        cx.fault_plan(state.plane.num_controllers()).len()
                    );
                    Ok(())
                }
                None => Err(format!("{phase}: counterexample did not replay")),
            }
        }
        (Some(cx), false) => Err(format!("{phase}: unexpected violation: {}", cx.violation)),
        (None, true) => Err(format!(
            "{phase}: mutation compiled in but no violation found"
        )),
    }
}

fn main() -> ExitCode {
    let mutated = expect_violation();
    println!(
        "lazyctrl-mc — bounded model checking of the cluster protocols{}\n",
        if mutated {
            " (mutation self-test: a violation MUST be found)"
        } else {
            ""
        }
    );

    // Phase 1: exhaustive DFS on 3 members. The fault budget keeps the
    // frontier finite; the depth crosses two full tick rounds.
    let exhaustive = CheckerConfig {
        mode: Mode::Exhaustive,
        max_depth: 11,
        max_states: 400_000,
        budget: FaultBudget {
            drops: 1,
            dups: 1,
            crashes: 1,
            ..FaultBudget::none()
        },
        max_pending: 14,
        settle_horizon_ns: 45 * SEC,
        settle_every: 512,
    };
    let state3 = initial_state(3);
    let mut failures = Vec::new();
    if let Err(e) = run_phase("exhaustive-3", &state3, &exhaustive, EXHAUSTIVE_3) {
        failures.push(e);
    }

    // Phase 2: guided random walks on 5 members, two crashes allowed,
    // deep enough (~8 virtual seconds) to cross failure detection, an
    // election, and the ownership handoff it triggers.
    let guided = CheckerConfig {
        mode: Mode::RandomWalk {
            walks: 600,
            depth: 220,
            seed: 0xC1C1,
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
    };
    let state5 = initial_state(5);
    if let Err(e) = run_phase("guided-5", &state5, &guided, GUIDED_5) {
        failures.push(e);
    }

    // Phase 3: guided walks on 3 members with a partition in the fault
    // model — any one member may be severed from its peers mid-schedule
    // and healed later (or left cut until settling heals it). Depth
    // crosses the detection deadline and the leader-lease window, so
    // isolated-leader demotion and majority takeover both happen inside
    // explored schedules, not only during settling.
    let partitioned = CheckerConfig {
        mode: Mode::RandomWalk {
            walks: 500,
            depth: 240,
            seed: 0xBADCA57,
        },
        budget: FaultBudget {
            drops: 1,
            dups: 1,
            crashes: 1,
            partitions: 1,
            heals: 1,
        },
        max_pending: 24,
        settle_horizon_ns: 45 * SEC,
        settle_every: 16,
        ..CheckerConfig::default()
    };
    if let Err(e) = run_phase(
        "guided-partition-3",
        &state3,
        &partitioned,
        GUIDED_PARTITION_3,
    ) {
        failures.push(e);
    }

    if failures.is_empty() {
        println!(
            "repro_mc: PASS{}",
            if mutated {
                " (mutation detected and replayed)"
            } else {
                ""
            }
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("repro_mc: FAIL — {f}");
        }
        ExitCode::FAILURE
    }
}
