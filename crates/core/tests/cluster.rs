//! Integration tests for the `lazyctrl-cluster` control plane driven
//! end-to-end through the simulated data center.

use lazyctrl_core::scenarios::{controller_crash, shard_rebalance};
use lazyctrl_core::{ControlMode, DisseminationStrategy, EventPlan, Experiment, ExperimentConfig};
use lazyctrl_trace::realistic::{generate, RealTraceConfig};

fn small_cluster_cfg(controllers: usize, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(ControlMode::LazyStatic)
        .with_group_size_limit(8)
        .with_seed(seed)
        .with_cluster(controllers)
        .with_horizon_hours(2.0);
    cfg.sync_interval_ms = 10_000;
    cfg.keepalive_interval_ms = 30_000;
    cfg
}

fn small_trace(flows: usize, seed: u64) -> lazyctrl_trace::Trace {
    let mut tc = RealTraceConfig::small();
    tc.num_flows = flows;
    tc.seed = seed;
    generate(&tc)
}

#[test]
fn cluster_runs_and_shards_the_workload() {
    let trace = small_trace(6_000, 11);
    let report = Experiment::new(trace, small_cluster_cfg(2, 7)).run();
    let cluster = report.cluster.expect("cluster section");
    assert_eq!(cluster.controllers, 2);
    assert!(report.delivered_flows > 0, "no traffic delivered");
    // Both shards must actually handle work.
    assert!(
        cluster.requests_per_controller.iter().all(|&r| r > 0),
        "workload not sharded: {:?}",
        cluster.requests_per_controller
    );
    // Replication must have propagated host locations between shards.
    assert!(
        cluster.replica_sizes.iter().any(|&s| s > 0),
        "no C-LIB replication happened: {:?}",
        cluster.replica_sizes
    );
    assert!(cluster.ctrl_peer_messages > 0);
    assert!(cluster.confirmed_dead.is_empty());
}

#[test]
fn same_seed_runs_are_bit_identical() {
    let run = || {
        let trace = small_trace(4_000, 23);
        Experiment::new(trace, small_cluster_cfg(2, 41)).run()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same-seed cluster runs diverged");
}

#[test]
fn adding_controllers_drops_per_controller_rate() {
    let max_rps = |controllers: usize| {
        let trace = small_trace(6_000, 31);
        let report = Experiment::new(trace, small_cluster_cfg(controllers, 9)).run();
        report
            .cluster
            .expect("cluster section")
            .max_controller_rps()
    };
    let one = max_rps(1);
    let two = max_rps(2);
    let four = max_rps(4);
    assert!(one > 0.0);
    assert!(
        two < one && four < two,
        "per-controller rate must drop as the cluster grows: 1×={one:.2} 2×={two:.2} 4×={four:.2}"
    );
}

#[test]
fn controller_crash_recovers_inter_group_reachability() {
    let r = controller_crash(2, 5);
    let cluster = r.report.cluster.as_ref().expect("cluster section");
    assert_eq!(
        cluster.confirmed_dead,
        vec![1],
        "victim must be declared dead"
    );
    assert!(
        !cluster.takeovers.is_empty() && cluster.failover_transfers > 0,
        "takeover must have moved the dead member's groups"
    );
    assert!(r.affected_before > 0, "failed shard idle before the crash?");
    assert!(
        r.affected_after_takeover > 0,
        "failed shard unreachable after takeover: {r:?}"
    );
    assert!(
        r.survivor_during_outage > 0,
        "surviving shards must keep flowing through the outage"
    );
}

#[test]
fn crash_scenario_is_deterministic() {
    let a = controller_crash(2, 77);
    let b = controller_crash(2, 77);
    assert_eq!(a, b, "same-seed crash scenarios diverged");
}

#[test]
fn crashed_controller_can_recover() {
    let run = || {
        let trace = small_trace(5_000, 19);
        // Crash member 1 at 0.5 h; restart it at 1.0 h — long after the
        // takeover, so detection, takeover, and comeback all execute.
        let cfg = small_cluster_cfg(2, 29).with_plan(
            EventPlan::new()
                .crash_controller(0.5, 1)
                .recover_controller(1.0, 1),
        );
        Experiment::new(trace, cfg).run()
    };
    let report = run();
    let cluster = report.cluster.as_ref().expect("cluster section");
    assert!(
        cluster.failover_transfers > 0,
        "crash must have triggered a takeover"
    );
    // The restarted member heartbeats again, so by end of run nobody
    // believes it dead (its groups stay with the takeover owner until
    // rebalancing hands them back).
    assert!(
        cluster.confirmed_dead.is_empty(),
        "recovered member still believed dead: {:?}",
        cluster.confirmed_dead
    );
    let again = run();
    assert_eq!(report, again, "crash+recover runs diverged");
}

/// The dissemination acceptance contract: on the same workload, flood
/// pays ≈ n−1 peer-sync messages per delta chunk (O(n²) per flush round
/// across n members), while the ring amortizes bundled relays to a
/// per-chunk cost that stays flat in n (O(n) per round) — and still
/// converges end-to-end. Run at n = 8 with a flush cadence long enough
/// for bundling to aggregate, which is exactly how the `syn_a_cluster`
/// scenario operates.
#[test]
fn ring_cuts_peer_sync_traffic_to_linear() {
    let n = 8usize;
    let run = |strategy: DisseminationStrategy| {
        let trace = small_trace(20_000, 11);
        let mut cfg = small_cluster_cfg(n, 7)
            .with_group_size_limit(4)
            .with_dissemination(strategy)
            .with_cluster_flush_ms(20_000);
        cfg.record_flow_latencies = false;
        let report = Experiment::new(trace, cfg).run();
        report.cluster.expect("cluster section")
    };
    let flood = run(DisseminationStrategy::Flood);
    let ring = run(DisseminationStrategy::Ring);

    // Flood really is the quadratic baseline: every chunk to every peer.
    assert!(
        (flood.messages_per_chunk() - (n as f64 - 1.0)).abs() < 0.2,
        "flood must pay ~n-1 messages per chunk, got {:.2}",
        flood.messages_per_chunk()
    );
    // The ring still replicates into every member...
    assert!(
        ring.replica_sizes.iter().all(|&s| s > 0),
        "replication broke: {:?}",
        ring.replica_sizes
    );
    // ...at strictly sub-flood per-delta cost (the O(n) property; the gap
    // widens further with n — at n = 16 flood pays 15).
    assert!(
        ring.messages_per_chunk() < flood.messages_per_chunk() / 1.5,
        "{:.2} msgs/chunk should be well under flood's {:.2}",
        ring.messages_per_chunk(),
        flood.messages_per_chunk()
    );
    // And in absolute wire traffic too.
    assert!(
        ring.peer_sync_messages_total() < flood.peer_sync_messages_total(),
        "total {} should undercut flood's {}",
        ring.peer_sync_messages_total(),
        flood.peer_sync_messages_total()
    );
}

#[test]
fn skewed_load_triggers_rebalancing() {
    let r = shard_rebalance(13);
    assert!(
        r.rebalance_transfers > 0,
        "skewed load must trigger at least one ownership move: {:?}",
        r.requests_per_controller
    );
    assert!(
        r.requests_per_controller.iter().all(|&c| c > 0),
        "after rebalancing every member must carry load: {:?}",
        r.requests_per_controller
    );
}
