//! Registry-level scenario tests: every built-in scenario's `build`
//! validates, its `check` passes, and same-seed runs are bit-identical —
//! the contract `repro_scenario` and CI rely on. Cluster scenarios are
//! additionally pinned bit-identical under *every* dissemination
//! strategy, so the relay overlay cannot silently break determinism.

use lazyctrl_cluster::Fnv64;
use lazyctrl_core::scenarios::{run_built, run_scenario, ScenarioRegistry};
use lazyctrl_core::{ClusterReport, DisseminationStrategy, ExperimentReport};

/// Compares the cluster fingerprint checkpoints of two same-seed runs
/// *before* the full reports, so a determinism break is localized to the
/// first crash/recovery checkpoint where the protocol state diverged —
/// far more actionable than a whole-report diff.
fn assert_fingerprints_agree(name: &str, label: &str, a: &ExperimentReport, b: &ExperimentReport) {
    let (Some(ca), Some(cb)) = (&a.cluster, &b.cluster) else {
        return;
    };
    assert_eq!(
        ca.fingerprint_checkpoints.len(),
        cb.fingerprint_checkpoints.len(),
        "{name} [{label}]: runs took different numbers of crash/recovery checkpoints"
    );
    for (i, (fa, fb)) in ca
        .fingerprint_checkpoints
        .iter()
        .zip(&cb.fingerprint_checkpoints)
        .enumerate()
    {
        assert_eq!(
            fa,
            fb,
            "{name} [{label}]: cluster state diverged at checkpoint {i} \
             (of {}): {fa:#018x} vs {fb:#018x}",
            ca.fingerprint_checkpoints.len()
        );
    }
    assert_eq!(
        ca.state_fingerprint, cb.state_fingerprint,
        "{name} [{label}]: end-of-run cluster fingerprints diverged"
    );
}

/// Builds (without running) every scenario and validates the inputs.
#[test]
fn every_builtin_scenario_builds_valid_inputs() {
    let reg = ScenarioRegistry::builtin();
    assert!(reg.len() >= 6, "registry too small: {:?}", reg.names());
    for s in reg.iter() {
        let (trace, cfg, plan) = s.build(0xC1);
        trace.validate();
        plan.validate();
        cfg.with_plan(plan).validate();
    }
}

/// Runs one scenario twice at the same seed: the verdict must pass and
/// the reports must be bit-identical.
fn assert_passes_deterministically(name: &str) {
    let reg = ScenarioRegistry::builtin();
    let s = reg.get(name).unwrap_or_else(|| panic!("{name} registered"));
    let a = run_scenario(s, 0xC1);
    assert!(
        a.verdict.passed(),
        "{name} failed: {:?}",
        a.verdict.failures
    );
    let b = run_scenario(s, 0xC1);
    assert_fingerprints_agree(name, "same-seed", &a.report, &b.report);
    assert_eq!(a.report, b.report, "{name}: same-seed reports diverged");
    assert_eq!(a.verdict, b.verdict, "{name}: same-seed verdicts diverged");
}

#[test]
fn cold_cache_passes_deterministically() {
    assert_passes_deterministically("cold_cache");
}

#[test]
fn crash_under_load_passes_deterministically() {
    assert_passes_deterministically("crash_under_load");
}

#[test]
fn crash_recover_passes_deterministically() {
    assert_passes_deterministically("crash_recover");
}

#[test]
fn shard_rebalance_passes_deterministically() {
    assert_passes_deterministically("shard_rebalance");
}

#[test]
fn switch_failure_passes_deterministically() {
    assert_passes_deterministically("switch_failure");
}

#[test]
fn degraded_control_net_passes_deterministically() {
    assert_passes_deterministically("degraded_control_net");
}

#[test]
fn host_migration_storm_passes_deterministically() {
    assert_passes_deterministically("host_migration_storm");
}

#[test]
fn traffic_burst_passes_deterministically() {
    assert_passes_deterministically("traffic_burst");
}

#[test]
fn peer_sync_storm_passes_deterministically() {
    assert_passes_deterministically("peer_sync_storm");
}

#[test]
fn partition_split_passes_deterministically() {
    assert_passes_deterministically("partition_split");
}

#[test]
fn partition_ctrl_island_passes_deterministically() {
    assert_passes_deterministically("partition_ctrl_island");
}

#[test]
fn partition_switch_orphan_passes_deterministically() {
    assert_passes_deterministically("partition_switch_orphan");
}

#[test]
fn partition_flapping_passes_deterministically() {
    assert_passes_deterministically("partition_flapping");
}

#[test]
fn flow_setup_storm_passes_deterministically() {
    assert_passes_deterministically("flow_setup_storm");
}

#[test]
fn controller_incast_passes_deterministically() {
    assert_passes_deterministically("controller_incast");
}

#[test]
fn elephant_peer_sync_passes_deterministically() {
    assert_passes_deterministically("elephant_peer_sync");
}

#[test]
fn syn_a_cluster_passes_deterministically() {
    assert_passes_deterministically("syn_a_cluster");
}

/// The cluster scenarios must produce bit-identical reports at a fixed
/// seed under each dissemination strategy — crash/recovery interleaved
/// with relay circulation and anti-entropy included.
fn assert_deterministic_under_every_strategy(name: &str) {
    let reg = ScenarioRegistry::builtin();
    let s = reg.get(name).unwrap_or_else(|| panic!("{name} registered"));
    for strategy in [DisseminationStrategy::Flood, DisseminationStrategy::Ring] {
        let run_once = || {
            let (trace, cfg, plan) = s.build(0xC1);
            run_built(s, trace, cfg.with_dissemination(strategy), plan)
        };
        let a = run_once();
        let b = run_once();
        assert_fingerprints_agree(name, strategy.label(), &a.report, &b.report);
        assert_eq!(
            a.report,
            b.report,
            "{name}: same-seed reports diverged under {}",
            strategy.label()
        );
        assert_eq!(
            a.report.cluster.as_ref().map(|c| c.dissemination.as_str()),
            Some(strategy.label()),
            "{name}: report must carry the strategy label"
        );
    }
}

#[test]
fn crash_under_load_is_deterministic_under_every_strategy() {
    assert_deterministic_under_every_strategy("crash_under_load");
}

#[test]
fn peer_sync_storm_is_deterministic_under_every_strategy() {
    assert_deterministic_under_every_strategy("peer_sync_storm");
}

/// A different seed still passes (scenarios must not be tuned to one
/// lucky seed); checked on the cheapest scenario to bound runtime.
#[test]
fn seeds_are_not_cherry_picked() {
    let reg = ScenarioRegistry::builtin();
    let s = reg.get("cold_cache").expect("registered");
    for seed in [1u64, 42, 0xDEAD] {
        let run = run_scenario(s, seed);
        assert!(
            run.verdict.passed(),
            "cold_cache failed at seed {seed}: {:?}",
            run.verdict.failures
        );
    }
}

/// Runs one scenario on the sharded engine at 1, 4 and 8 workers: the
/// reports must be bit-identical, because the shard layout (and thus every
/// partition's event stream) is fixed by configuration — worker threads
/// only change which core drains which partition, never the results.
fn assert_identical_across_workers(name: &str) {
    let reg = ScenarioRegistry::builtin();
    let s = reg.get(name).unwrap_or_else(|| panic!("{name} registered"));
    let run_with = |n: usize| {
        let (trace, cfg, plan) = s.build(0xC1);
        run_built(s, trace, cfg.with_workers(n), plan)
    };
    let one = run_with(1);
    let four = run_with(4);
    let eight = run_with(8);
    assert_fingerprints_agree(name, "workers-1-vs-4", &one.report, &four.report);
    assert_fingerprints_agree(name, "workers-1-vs-8", &one.report, &eight.report);
    assert_eq!(
        one.report, four.report,
        "{name}: worker count 4 changed the report"
    );
    assert_eq!(
        one.report, eight.report,
        "{name}: worker count 8 changed the report"
    );
    assert_eq!(one.verdict, four.verdict);
    assert_eq!(one.verdict, eight.verdict);
}

#[test]
fn cold_cache_is_identical_across_workers() {
    assert_identical_across_workers("cold_cache");
}

#[test]
fn crash_under_load_is_identical_across_workers() {
    assert_identical_across_workers("crash_under_load");
}

#[test]
fn peer_sync_storm_is_identical_across_workers() {
    assert_identical_across_workers("peer_sync_storm");
}

/// Partition events mutate shared link state on every shard in lockstep
/// and re-homing decisions are hub-local hash-jittered (no RNG), so a
/// split fabric must not cost any worker-count determinism.
#[test]
fn partition_split_is_identical_across_workers() {
    assert_identical_across_workers("partition_split");
}

#[test]
fn partition_ctrl_island_is_identical_across_workers() {
    assert_identical_across_workers("partition_ctrl_island");
}

/// Per-link bandwidth watermarks are cloned into every shard but each
/// directed link's sender dispatches in exactly one partition, and the
/// ingress buckets live on the hub — so congestion scenarios must be
/// worker-count invariant like everything else.
#[test]
fn flow_setup_storm_is_identical_across_workers() {
    assert_identical_across_workers("flow_setup_storm");
}

#[test]
fn controller_incast_is_identical_across_workers() {
    assert_identical_across_workers("controller_incast");
}

#[test]
fn elephant_peer_sync_is_identical_across_workers() {
    assert_identical_across_workers("elephant_peer_sync");
}

// ---- Golden scenario table -------------------------------------------
//
// "Bit-identical by contract" as a test: the integer report fields that
// move on any behaviour change, for every registry scenario at seed 7.
// Integers only, so the table does not depend on the host's `libm`.
//
// Re-base rule: a PR that *means* to change behaviour replaces the rows
// below with the table this test prints on mismatch and lists old → new
// in CHANGES.md. A PR that claims "no behaviour change" must pass this
// test without touching the table.

/// One golden row: scenario name, `events_processed`,
/// `controller_messages`, `packet_ins`, `delivered_flows`, the end-of-run
/// `cluster.state_fingerprint`, and [`counter_hash`] of the cluster
/// report (both 0 for a run with no cluster).
type GoldenRow = (&'static str, u64, u64, u64, u64, u64, u64);

/// FNV-1a over every per-member `u64` counter vector of a cluster report,
/// in field order. The state fingerprint leaves observer counters out by
/// design; this column is what catches a counter wired to the wrong slot.
fn counter_hash(c: &ClusterReport) -> u64 {
    let mut h = Fnv64::new();
    for v in [
        &c.requests_per_controller,
        &c.peer_sync_messages,
        &c.peer_sync_bytes,
        &c.peer_sync_chunks,
        &c.anti_entropy_digests,
        &c.anti_entropy_catchups,
        &c.transfer_retransmits,
        &c.lookup_timeouts,
        &c.lease_step_downs,
        &c.setups_shed,
        &c.queue_highwater,
        &c.congestion_signals,
    ] {
        h.usize(v.len());
        for &x in v {
            h.u64(x);
        }
    }
    h.finish()
}

#[rustfmt::skip] // a table: one scenario per line
const GOLDEN_SEED_7: [GoldenRow; 17] = [
    ("cold_cache", 28883, 275, 15, 273, 0, 0),
    ("crash_under_load", 164512, 3119, 72, 32480, 0x1755f81c2602e564, 0x1457cab8c09c286e),
    ("crash_recover", 122774, 1967, 72, 19872, 0x32c3aba0bfcd95e0, 0x6b38281e7f654892),
    ("shard_rebalance", 116244, 944, 54, 16182, 0x34f9a36aec12343f, 0x14c9a63a305ce5f8),
    ("peer_sync_storm", 203524, 1656, 103, 16732, 0x811c314407e2c048, 0x9bab7de680ad47ea),
    ("switch_failure", 820984, 390920, 12, 9141, 0, 0),
    ("degraded_control_net", 46982, 779, 12, 13986, 0, 0),
    ("host_migration_storm", 54543, 796, 18, 17430, 0, 0),
    ("traffic_burst", 47082, 788, 21, 14010, 0, 0),
    ("partition_split", 219983, 3251, 72, 30226, 0xce8016e1ecf65ffb, 0x29c5549485342ad8),
    ("partition_ctrl_island", 222499, 3119, 72, 32480, 0xea380e650bbe8b42, 0xf09cce7ffab86058),
    ("partition_switch_orphan", 175645, 3185, 72, 32480, 0xff3a5d6e22a56519, 0xe8f5f78e2e6f697f),
    ("partition_flapping", 225570, 3119, 72, 32480, 0x15c06dcbeaef77fd, 0x7b3cbd18fc3197f2),
    ("flow_setup_storm", 144798, 1945, 569, 30972, 0xb39a12df3ecc31a5, 0xbda261a6300d10e0),
    ("controller_incast", 124119, 1824, 217, 20320, 0xa5d2d1ac13bb9a99, 0x4df4404d2b5231c9),
    ("elephant_peer_sync", 206765, 1870, 247, 17920, 0xf3bcf720d702820f, 0xdc3cd6f9cb12873b),
    ("syn_a_cluster", 864269, 7307, 2873, 8449, 0x37201add4a5168a9, 0xee98b7b311b7b95f),
];

#[test]
fn golden_scenario_table_at_seed_7() {
    let reg = ScenarioRegistry::builtin();
    let actual: Vec<GoldenRow> = reg
        .iter()
        .map(|s| {
            let r = run_scenario(s, 7).report;
            (
                s.name(),
                r.events_processed,
                r.controller_messages,
                r.packet_ins,
                r.delivered_flows,
                r.cluster.as_ref().map_or(0, |c| c.state_fingerprint),
                r.cluster.as_ref().map_or(0, counter_hash),
            )
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, ev, cm, pi, df, fp, ch)| {
            format!("    ({name:?}, {ev}, {cm}, {pi}, {df}, {fp:#x}, {ch:#x}),\n")
        })
        .collect();
    assert!(
        actual == GOLDEN_SEED_7,
        "scenario reports moved at seed 7; the table now reads:\n{table}"
    );
}

// ---- Flood copies across migrations -----------------------------------
//
// A flooded `PacketOut` copy that reaches no host is counted instead of
// scheduled (DESIGN §7.6), unless a host migration fires while it is in
// flight: the move can put the flood's target under a copy that was
// headed for a switch without it. This run floods for every fresh pair
// (plain OpenFlow with ARP) and moves every host 1.5 ms after each of the
// first 300 flow arrivals, while their floods are on the control links.
// The pin was recorded with every copy scheduled; counting the copies in
// flight across a migration moves it.

/// FNV-1a of the report's `Debug` form, as the benchmark fingerprints it.
fn report_fingerprint(report: &ExperimentReport) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(format!("{report:?}").as_bytes());
    h.finish()
}

#[test]
fn baseline_floods_across_host_migrations_match_the_eager_run() {
    use lazyctrl_core::{ControlMode, EventPlan, Experiment, InjectedEvent};
    use lazyctrl_sim::{SimDuration, SimTime};
    let reg = ScenarioRegistry::builtin();
    let (trace, mut cfg, _) = reg
        .get("host_migration_storm")
        .expect("registered")
        .build(7);
    cfg.mode = ControlMode::Baseline;
    cfg.emit_arp = true;
    let batch = trace.topology.num_hosts() as u32;
    let mut plan = EventPlan::new();
    for flow in trace.flows.iter().take(300) {
        let at = SimTime::from_nanos(flow.time_ns) + SimDuration::from_micros(1500);
        plan.schedule(at, InjectedEvent::MigrateHosts { batch });
    }
    let run = Experiment::new(trace, cfg.with_plan(plan)).run_detailed();
    let counted = run
        .counters
        .iter()
        .find(|(k, _)| k == "flood_copies_counted");
    assert!(counted.is_some_and(|&(_, n)| n > 0), "no copy was counted");
    let report = run.report;
    assert_eq!(
        (report.events_processed, report_fingerprint(&report)),
        (57679, 0x99e0_71dd_e783_160e),
        "{report:?}"
    );
}
