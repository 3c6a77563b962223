//! Checker-level tests: exploration is deterministic, the invariants
//! hold on the real protocols, and — with the `mc-mutations` bypass
//! compiled in — the checker provably catches a real dedup bug.

mod common;

use common::initial;
use lazyctrl_mc::{check, CheckOutcome, CheckStats, CheckerConfig, FaultBudget, Mode};

/// Pins an exploration state for state: the counters below were recorded
/// before the checker's fingerprinting and cloning were made incremental,
/// so any change to which states are reached, deduplicated or settled —
/// a stale cached hash, a member shared when it should have been copied —
/// shows up as a different count. This is the checker's
/// `report_fingerprint`.
fn assert_golden(outcome: &CheckOutcome, [explored, distinct, deduped, leaves, settled]: [u64; 5]) {
    assert!(outcome.passed(), "violation: {:?}", outcome.violation);
    assert_eq!(
        outcome.stats,
        CheckStats {
            explored,
            distinct,
            deduped,
            leaves,
            settled,
            truncated: false,
        }
    );
}

/// Fault-free exhaustive exploration: reorderings alone must never
/// violate an invariant, and the fingerprint dedup must actually fire
/// (diamond interleavings reconverge).
#[test]
#[cfg_attr(feature = "mc-mutations", ignore = "mutation inverts the invariants")]
fn exhaustive_reorderings_hold_invariants() {
    let cfg = CheckerConfig {
        mode: Mode::Exhaustive,
        max_depth: 8,
        max_states: 200_000,
        budget: FaultBudget::none(),
        settle_every: 128,
        ..CheckerConfig::default()
    };
    let state = initial(3);
    let outcome = check(&state, &cfg);
    assert_golden(&outcome, [79_026, 11_908, 53_481, 4_808, 94]);

    // Same exploration, bit-identical counters: the checker itself is a
    // pure function of its inputs.
    let again = check(&initial(3), &cfg);
    assert_eq!(outcome.stats, again.stats);
}

/// Random walks with the full fault model (drops, duplicates, crashes,
/// recoveries) on a 4-member cluster: still no violations.
#[test]
#[cfg_attr(feature = "mc-mutations", ignore = "mutation inverts the invariants")]
fn faulty_walks_hold_invariants() {
    let cfg = CheckerConfig {
        mode: Mode::RandomWalk {
            walks: 120,
            depth: 160,
            seed: 7,
        },
        budget: FaultBudget {
            drops: 2,
            dups: 2,
            crashes: 2,
            ..FaultBudget::none()
        },
        max_pending: 24,
        settle_every: 16,
        ..CheckerConfig::default()
    };
    let outcome = check(&initial(4), &cfg);
    assert_golden(&outcome, [19_200, 18_717, 484, 120, 8]);
}

/// Random walks with a partition in the fault model: any member may be
/// severed from its peers (and healed, or left cut until settling heals
/// it) alongside drops, duplicates, and a crash. Split-brain safety
/// must hold throughout, and the post-heal settled state must converge.
#[test]
#[cfg_attr(feature = "mc-mutations", ignore = "mutation inverts the invariants")]
fn partitioned_walks_hold_invariants() {
    let cfg = CheckerConfig {
        mode: Mode::RandomWalk {
            walks: 100,
            depth: 200,
            seed: 11,
        },
        budget: FaultBudget {
            drops: 1,
            dups: 1,
            crashes: 1,
            partitions: 1,
            heals: 1,
        },
        max_pending: 24,
        settle_every: 8,
        ..CheckerConfig::default()
    };
    let outcome = check(&initial(3), &cfg);
    assert_golden(&outcome, [20_000, 16_284, 3_717, 100, 13]);
}

/// Exhaustive exploration from an *already partitioned* state: the
/// isolated member is the bootstrap leader, so every schedule runs the
/// lease machinery against reordered in-island traffic. Heal is in
/// budget; settling heals regardless.
#[test]
#[cfg_attr(feature = "mc-mutations", ignore = "mutation inverts the invariants")]
fn exhaustive_from_partitioned_leader_holds_invariants() {
    let cfg = CheckerConfig {
        mode: Mode::Exhaustive,
        max_depth: 7,
        max_states: 150_000,
        budget: FaultBudget {
            heals: 1,
            ..FaultBudget::none()
        },
        settle_every: 64,
        ..CheckerConfig::default()
    };
    let mut state = initial(3);
    state.apply(lazyctrl_mc::McEvent::Partition(0));
    let outcome = check(&state, &cfg);
    assert_golden(&outcome, [1_485, 274, 768, 90, 5]);
}

/// With the relay-dedup bypass compiled in, a duplicated relay bundle
/// slips through `note_seen` and gets re-forwarded — the checker must
/// find the schedule, and the counterexample must replay.
#[test]
#[cfg(feature = "mc-mutations")]
fn checker_catches_the_dedup_bypass() {
    let cfg = CheckerConfig {
        mode: Mode::Exhaustive,
        max_depth: 12,
        max_states: 2_000_000,
        budget: FaultBudget {
            drops: 0,
            dups: 1,
            crashes: 0,
            ..FaultBudget::none()
        },
        settle_every: 0, // safety hunt only
        ..CheckerConfig::default()
    };
    let state = initial(3);
    let outcome = check(&state, &cfg);
    let cx = outcome.violation.expect("the dedup bypass must be caught");
    assert!(
        cx.violation.invariant == "at-most-once-forward"
            || cx.violation.invariant == "no-double-apply",
        "unexpected invariant: {}",
        cx.violation
    );
    let replayed = cx.replay(&state).expect("counterexample must replay");
    assert_eq!(replayed.invariant, cx.violation.invariant);
}
