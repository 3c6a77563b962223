//! Cluster scaling experiment: the same workload under a `lazyctrl-cluster`
//! of 1, 2 and 4 controllers, plus the peer-sync dissemination strategies
//! head to head at the scale's largest cluster (16 controllers at
//! `LAZYCTRL_SCALE=paper`).
//!
//! The claims under test (the ROADMAP's control-plane-scaling step, built
//! on the devolved-controllers line of work the paper cites):
//!
//! 1. sharding the switch groups across N cooperating controllers divides
//!    the per-controller request rate, so the control plane's capacity
//!    grows with N;
//! 2. the inter-controller replication fabric scales *sub-quadratically*
//!    when deltas ride the ring relay overlay instead of a full flood —
//!    flood pays ≈ n−1 wire messages per delta chunk (O(n²) per flush
//!    round), the ring amortizes bundled relays towards O(1) per chunk
//!    (O(n) per round), which is what makes 16 controllers feasible.
//!
//! Also replays the registry's cluster scenarios (crash-under-load,
//! crash-recover, shard-rebalance, peer-sync-storm) through their own
//! verdicts, plus the detailed per-shard reachability analysis of a
//! crash. Use `repro_scenario` for the full scenario catalogue.
//!
//! ```sh
//! cargo run --release -p lazyctrl-bench --bin repro_cluster
//! LAZYCTRL_SCALE=paper cargo run --release -p lazyctrl-bench --bin repro_cluster
//! ```
//!
//! Exits non-zero if any scenario verdict fails (including the ring
//! failing to undercut flood).

use std::process::ExitCode;
use std::time::Instant;

use lazyctrl_bench::{real_trace, render_table, scale_from_env, syn_a_trace, Scale};
use lazyctrl_core::scenarios::controller_crash;
use lazyctrl_core::{
    run_scenario, ControlMode, DisseminationStrategy, Experiment, ExperimentConfig,
    ScenarioRegistry,
};

fn main() -> ExitCode {
    let scale = scale_from_env();
    println!(
        "lazyctrl-cluster — control-plane scaling (scale: {})\n",
        scale.label()
    );

    let trace = real_trace(scale);
    let group_limit = (trace.topology.num_switches / 8).max(4);

    let mut rows = Vec::new();
    for controllers in [1usize, 2, 4] {
        let mut cfg = ExperimentConfig::new(ControlMode::LazyStatic)
            .with_group_size_limit(group_limit)
            .with_seed(17)
            .with_cluster(controllers);
        cfg.sync_interval_ms = 10_000;
        let report = Experiment::new(trace.clone(), cfg).run();
        let cluster = report.cluster.as_ref().expect("cluster run");
        let total_rps: f64 = cluster.per_controller_rps.iter().sum();
        rows.push(vec![
            controllers.to_string(),
            format!("{:.2}", cluster.max_controller_rps()),
            format!("{total_rps:.2}"),
            format!("{:.3}", report.mean_latency_ms),
            cluster.ctrl_peer_messages.to_string(),
            cluster.rebalance_transfers.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "controllers",
                "max ctrl rps",
                "total rps",
                "latency (ms)",
                "peer msgs",
                "rebalances",
            ],
            &rows,
        )
    );
    println!("expected shape: max per-controller rate drops as controllers grow 1 → 2 → 4\n");

    // ---- Dissemination strategies at the big cluster ------------------
    // Paper scale runs the full 16-controller cluster the ROADMAP asks
    // for, with a group limit small enough that every member owns groups;
    // the shared frozen grouping keeps the 16 inner controllers at one
    // grouping's worth of memory, and a 20 s flush cadence lets the
    // ring bundles aggregate. Time-boxed via the run horizon.
    let (members, group_limit_big, flush_ms, horizon) = match scale {
        Scale::Quick => (4usize, group_limit.min(8), 10_000u32, 2.0f64),
        Scale::Paper | Scale::X10 => (16, (trace.topology.num_switches / 24).max(4), 20_000, 4.0),
    };
    println!("dissemination strategies at {members} controllers (horizon {horizon} h):");
    let mut rows = Vec::new();
    let mut flood_cost = f64::NAN;
    let mut overlay_beats_flood = true;
    for strategy in [DisseminationStrategy::Flood, DisseminationStrategy::Ring] {
        let mut cfg = ExperimentConfig::new(ControlMode::LazyStatic)
            .with_group_size_limit(group_limit_big)
            .with_seed(17)
            .with_cluster(members)
            .with_horizon_hours(horizon)
            .with_dissemination(strategy)
            .with_cluster_flush_ms(flush_ms);
        cfg.sync_interval_ms = 10_000;
        let report = Experiment::new(trace.clone(), cfg).run();
        let cluster = report.cluster.as_ref().expect("cluster run");
        let cost = cluster.messages_per_chunk();
        if strategy == DisseminationStrategy::Flood {
            flood_cost = cost;
        } else if cost >= flood_cost {
            overlay_beats_flood = false;
        }
        rows.push(vec![
            cluster.dissemination.clone(),
            cluster.peer_sync_messages_total().to_string(),
            cluster.peer_sync_chunks.iter().sum::<u64>().to_string(),
            format!("{cost:.2}"),
            cluster.peer_sync_bytes_total().to_string(),
            cluster
                .anti_entropy_catchups
                .iter()
                .sum::<u64>()
                .to_string(),
            report.delivered_flows.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "strategy",
                "sync msgs",
                "chunks",
                "msgs/chunk",
                "sync bytes",
                "catchups",
                "delivered",
            ],
            &rows,
        )
    );
    println!(
        "expected shape: flood pays ~{:.0} msgs/chunk (n-1); ring amortizes far below it\n",
        members as f64 - 1.0
    );

    // ---- Syn-A (×10 at paper scale) under the big cluster -------------
    // The ROADMAP's remaining scale milestone: the 2713-switch / 65090-host
    // synthetic topology, sharded across the full cluster. The hot-path
    // engine (timing-wheel scheduler, zero-copy frames, dense link state)
    // is what makes the whole 24 h trace complete inside the CI time box.
    let syn_a = syn_a_trace(scale);
    println!(
        "syn-a at {} controllers ({} switches, {} hosts, {} flows):",
        members,
        syn_a.topology.num_switches,
        syn_a.topology.num_hosts(),
        syn_a.num_flows()
    );
    let mut cfg = ExperimentConfig::new(ControlMode::LazyStatic)
        .with_group_size_limit(46)
        .with_seed(17)
        .with_cluster(members)
        .with_dissemination(DisseminationStrategy::Ring)
        .with_cluster_flush_ms(flush_ms);
    cfg.sync_interval_ms = 10_000;
    let t0 = Instant::now();
    let report = Experiment::new(syn_a, cfg).run();
    let cluster = report.cluster.as_ref().expect("cluster run");
    println!(
        "  completed in {:.1}s: {} events, {} flows, {} delivered, \
         max ctrl rps {:.2}, msgs/chunk {:.2}\n",
        t0.elapsed().as_secs_f64(),
        report.events_processed,
        report.flows_started,
        report.delivered_flows,
        cluster.max_controller_rps(),
        cluster.messages_per_chunk(),
    );
    let syn_a_ok = report.delivered_flows > 0 && report.events_processed > 0;

    println!("scenario: controller-crash-under-load (2 controllers, crash member 1)");
    let crash = controller_crash(2, 5);
    let cluster = crash.report.cluster.as_ref().expect("cluster run");
    println!("  confirmed dead:        {:?}", cluster.confirmed_dead);
    println!("  failover transfers:    {}", cluster.failover_transfers);
    println!(
        "  affected shard delivered: before={} outage={} after-takeover={}",
        crash.affected_before, crash.affected_during_outage, crash.affected_after_takeover
    );
    println!(
        "  survivor shards during outage: {}",
        crash.survivor_during_outage
    );
    println!(
        "  => inter-group reachability {} after takeover\n",
        if crash.affected_after_takeover > 0 {
            "RECOVERED"
        } else {
            "NOT recovered"
        }
    );

    // The registry's cluster scenarios, each judged by its own contract
    // (see `repro_scenario --list` for the full catalogue).
    let registry = ScenarioRegistry::builtin();
    // The detailed reachability analysis above counts as a check too, as
    // does the ring-beats-flood shape of the dissemination table.
    let mut failures = usize::from(crash.affected_after_takeover == 0)
        + usize::from(!overlay_beats_flood)
        + usize::from(!syn_a_ok);
    for name in [
        "crash_under_load",
        "crash_recover",
        "shard_rebalance",
        "peer_sync_storm",
    ] {
        let scenario = registry.get(name).expect("built-in scenario");
        let run = run_scenario(scenario, 13);
        println!("scenario: {name} — {}", scenario.summary());
        for note in &run.verdict.notes {
            println!("  {note}");
        }
        println!(
            "  verdict: {}",
            if run.verdict.passed() { "PASS" } else { "FAIL" }
        );
        for f in &run.verdict.failures {
            println!("    ✗ {f}");
        }
        if !run.verdict.passed() {
            failures += 1;
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
