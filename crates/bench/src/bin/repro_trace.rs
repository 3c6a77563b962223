//! Flight-recorder driver: run a scenario with full tracing, dump the
//! recorder (JSONL + chrome://tracing), print the engine's self-profile,
//! and reconstruct one flow's PacketIn → FlowMod → delivery causal chain.
//!
//! ```sh
//! # trace one scenario (dumps on failed verdict; --always to dump regardless)
//! cargo run --release -p lazyctrl-bench --bin repro_trace -- cold_cache
//! cargo run --release -p lazyctrl-bench --bin repro_trace -- cold_cache --always
//!
//! # CI smoke: traced scenario + telemetry round-trip + overhead gate
//! cargo run --release -p lazyctrl-bench --bin repro_trace -- --smoke
//! ```
//!
//! The `--smoke` mode is the CI `obs-smoke` contract: it runs `cold_cache`
//! fully traced, writes and re-parses `telemetry.json` against the schema,
//! asserts the traced report is bit-identical to the untraced one, and
//! fails if traced quick-scale `flow_setup_throughput` regresses more than
//! 10% vs the untraced run in the same process.

use std::process::ExitCode;
use std::time::Instant;

use lazyctrl_bench::{parse_seed, syn_a_trace, Scale};
use lazyctrl_core::scenarios::run_built_detailed;
use lazyctrl_core::telemetry::{telemetry_json, validate_telemetry};
use lazyctrl_core::{
    ControlMode, DetailedRun, Experiment, ExperimentConfig, ObsConfig, ScenarioRegistry,
    EVENT_KIND_NAMES,
};
use lazyctrl_obs::intern::{kind, subsys};
use lazyctrl_obs::{chrome_trace_json, json, jsonl_dump, trace_id_dst, TraceRecord};

const DEFAULT_SEED: u64 = 0xC1;

const USAGE: &str = "usage: repro_trace <scenario> [--seed N] [--always] [--out-dir DIR]\n       repro_trace --smoke";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut scenario_name: Option<String> = None;
    let mut seed = DEFAULT_SEED;
    let mut always = false;
    let mut smoke = false;
    let mut out_dir = String::from("target/obs");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => match args.next().as_deref().and_then(parse_seed) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs a number (decimal or 0x hex)");
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--always" => always = true,
            "--smoke" => smoke = true,
            "--out-dir" => match args.next() {
                Some(dir) => out_dir = dir,
                None => {
                    eprintln!("--out-dir needs a path");
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other if !other.starts_with('-') => scenario_name = Some(other.to_owned()),
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    if smoke {
        return run_smoke(&out_dir);
    }
    let Some(name) = scenario_name else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    run_traced_scenario(&name, seed, always, &out_dir)
}

fn obs_full(out_dir: &str) -> ObsConfig {
    ObsConfig::full()
        .with_ring_capacity(1 << 18)
        .with_dump_dir(out_dir)
}

fn run_traced_scenario(name: &str, seed: u64, always: bool, out_dir: &str) -> ExitCode {
    let registry = ScenarioRegistry::builtin();
    let Some(scenario) = registry.get(name) else {
        eprintln!("unknown scenario `{name}`; try repro_scenario --list");
        return ExitCode::from(2);
    };
    println!("=== repro_trace: {name} (seed {seed:#x}, full tracing) ===");
    let (trace, cfg, plan) = scenario.build(seed);
    let mut cfg = cfg.with_obs(obs_full(out_dir));
    cfg.record_flow_latencies = true;
    let (run, detailed) = run_built_detailed(scenario, trace, cfg, plan);

    print_summary(&detailed);
    print_profile(&detailed);
    print_sample_chain(&detailed);

    // `run_built_detailed` already dumped on a failed verdict; `--always`
    // forces the same dumps for a passing run.
    if always && run.verdict.passed() {
        dump_all(name, &detailed, out_dir);
    }
    if run.verdict.passed() {
        println!("verdict: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &run.verdict.failures {
            println!("verdict failure: {f}");
        }
        println!(
            "verdict: FAIL — flight recorder dumped to {out_dir}/{name}.trace.jsonl \
             (+ .chrome.json, .telemetry.json)"
        );
        ExitCode::FAILURE
    }
}

fn dump_all(name: &str, detailed: &DetailedRun, out_dir: &str) {
    let Some(obs) = &detailed.obs else { return };
    let dir = std::path::Path::new(out_dir);
    std::fs::create_dir_all(dir).expect("create dump dir");
    std::fs::write(
        dir.join(format!("{name}.trace.jsonl")),
        jsonl_dump(&obs.recorder),
    )
    .expect("write jsonl");
    std::fs::write(
        dir.join(format!("{name}.chrome.json")),
        chrome_trace_json(&obs.recorder, name),
    )
    .expect("write chrome trace");
    std::fs::write(
        dir.join(format!("{name}.telemetry.json")),
        telemetry_json(detailed).to_json_pretty(),
    )
    .expect("write telemetry");
    println!("dumped {out_dir}/{name}.trace.jsonl (+ .chrome.json, .telemetry.json)");
}

fn print_summary(detailed: &DetailedRun) {
    let r = &detailed.report;
    let obs = detailed.obs.as_ref().expect("tracing enabled");
    println!(
        "run: {} events, {} flows started, {} delivered, mean latency {:.3} ms",
        r.events_processed, r.flows_started, r.delivered_flows, r.mean_latency_ms
    );
    println!(
        "phases: build {:.3} s, run {:.3} s, report {:.3} s",
        detailed.phases.build_s, detailed.phases.run_s, detailed.phases.report_s
    );
    println!(
        "recorder: {} recorded, {} retained (capacity {}), {} overwritten",
        obs.stats.recorded, obs.stats.retained, obs.stats.capacity, obs.stats.dropped
    );
}

fn print_profile(detailed: &DetailedRun) {
    let obs = detailed.obs.as_ref().expect("tracing enabled");
    println!(
        "\nself-profile ({} sampled dispatches of {}):",
        obs.profile.samples(),
        obs.profile.total_events()
    );
    println!(
        "  {:<18} {:<11} {:>12} {:>9} {:>11} {:>11}",
        "event kind", "subsystem", "count", "sampled", "mean ns", "p99 ns"
    );
    for k in obs.profile.kind_profiles() {
        println!(
            "  {:<18} {:<11} {:>12} {:>9} {:>11} {:>11}",
            EVENT_KIND_NAMES[k.kind as usize],
            subsys::name(k.subsys),
            k.count,
            k.ns.len(),
            k.ns.mean().map_or("-".into(), |v| format!("{v:.0}")),
            k.ns.quantile(0.99)
                .map_or("-".into(), |v| format!("{v:.0}")),
        );
    }
    println!("  per-subsystem dispatch counts:");
    for (s, count, sampled_ns) in obs.profile.subsys_rollup() {
        println!(
            "    {:<11} {:>12} events, {:>12.0} sampled ns",
            subsys::name(s),
            count,
            sampled_ns
        );
    }
}

/// Reconstruct and print one flow's causal chain from the recorder: the
/// first delivered flow whose records survive in the ring with a complete
/// PacketIn → FlowMod → delivery sequence.
fn print_sample_chain(detailed: &DetailedRun) {
    let obs = detailed.obs.as_ref().expect("tracing enabled");
    let complete = |chain: &[TraceRecord]| -> bool {
        let has = |k: u16| chain.iter().any(|r| r.kind == k);
        has(kind::PACKET_IN_SENT) && has(kind::FLOW_MOD_RECV) && has(kind::FRAME_DELIVERED)
    };
    let found = detailed.flow_latencies.iter().find_map(|((s, d, _), _)| {
        let chain = obs.recorder.flow_chain(*s as u64, *d as u64);
        complete(&chain).then_some((*s, *d, chain))
    });
    let Some((src, dst, chain)) = found else {
        println!(
            "\nno complete PacketIn→FlowMod→delivery chain retained \
             (ring too small, or flows warm-path only)"
        );
        return;
    };
    println!(
        "\ncausal chain for flow {src} → {dst} ({} records):",
        chain.len()
    );
    for r in &chain {
        println!(
            "  t={:>12} ns  {:<18} [{}]  a={} b={} (dst host {})",
            r.t_ns,
            kind::name(r.kind),
            subsys::name(r.subsys),
            r.a,
            r.b,
            trace_id_dst(r.trace_id),
        );
    }
}

/// The CI `obs-smoke` contract (see `.github/workflows/ci.yml`).
fn run_smoke(out_dir: &str) -> ExitCode {
    let mut failures = 0;

    // 1. One scenario with full tracing on; recorder must capture records.
    println!("obs-smoke 1/3: traced cold_cache scenario");
    let registry = ScenarioRegistry::builtin();
    let scenario = registry.get("cold_cache").expect("built-in scenario");
    let (trace, cfg, plan) = scenario.build(DEFAULT_SEED);
    let (untraced_run, _) = run_built_detailed(scenario, trace, cfg, plan);
    let (trace, cfg, plan) = scenario.build(DEFAULT_SEED);
    let (traced_run, traced) =
        run_built_detailed(scenario, trace, cfg.with_obs(obs_full(out_dir)), plan);
    let obs = traced.obs.as_ref().expect("tracing enabled");
    println!(
        "  recorded {} records, {} retained; profiled {} of {} events",
        obs.stats.recorded,
        obs.stats.retained,
        obs.profile.samples(),
        obs.profile.total_events()
    );
    if obs.stats.recorded == 0 {
        println!("  FAIL: recorder captured nothing");
        failures += 1;
    }
    if untraced_run.report != traced_run.report {
        println!("  FAIL: traced report diverged from untraced report");
        failures += 1;
    } else {
        println!("  traced report bit-identical to untraced: ok");
    }

    // 2. telemetry.json schema round-trip.
    println!("obs-smoke 2/3: telemetry.json round-trip");
    let doc = telemetry_json(&traced);
    let dir = std::path::Path::new(out_dir);
    std::fs::create_dir_all(dir).expect("create out dir");
    let path = dir.join("telemetry.json");
    std::fs::write(&path, doc.to_json_pretty()).expect("write telemetry.json");
    let read_back = std::fs::read_to_string(&path).expect("read telemetry.json");
    match json::parse(&read_back) {
        Ok(parsed) => {
            if parsed != doc {
                println!("  FAIL: parsed document differs from written one");
                failures += 1;
            } else if let Err(e) = validate_telemetry(&parsed) {
                println!("  FAIL: schema validation: {e}");
                failures += 1;
            } else {
                println!("  wrote, re-parsed and validated {}: ok", path.display());
            }
        }
        Err(e) => {
            println!("  FAIL: telemetry.json does not parse: {e}");
            failures += 1;
        }
    }

    // 3. Tracing overhead on quick-scale flow_setup_throughput: traced
    //    must stay within 10% of untraced (same process, interleaved
    //    untraced-traced-untraced to average out machine drift), and the
    //    reports must be bit-identical.
    println!("obs-smoke 3/3: tracing overhead on flow_setup_throughput (quick)");
    let trace = syn_a_trace(Scale::Quick);
    let workload = |obs: Option<ObsConfig>| {
        let mut cfg = ExperimentConfig::new(ControlMode::LazyStatic)
            .with_group_size_limit(46)
            .with_seed(7);
        cfg.emit_arp = true;
        if let Some(o) = obs {
            cfg = cfg.with_obs(o);
        }
        let t0 = Instant::now();
        let detailed = Experiment::new(trace.clone(), cfg).run_detailed();
        (t0.elapsed().as_secs_f64(), detailed)
    };
    // Same config scenario tracing uses (large ring and all), so the gate
    // covers the real deployment. Best-of-2 on both sides, interleaved,
    // to absorb machine drift.
    let traced_cfg = || {
        let mut o = obs_full(out_dir);
        o.dump_on_failure = false;
        o
    };
    let (wall_plain_a, plain) = workload(None);
    let (wall_traced_a, traced) = workload(Some(traced_cfg()));
    let (wall_plain_b, _) = workload(None);
    let (wall_traced_b, _) = workload(Some(traced_cfg()));
    let wall_plain = wall_plain_a.min(wall_plain_b);
    let wall_traced = wall_traced_a.min(wall_traced_b);
    if plain.report != traced.report {
        println!("  FAIL: traced flow_setup_throughput report diverged");
        failures += 1;
    }
    let events = plain.report.events_processed as f64;
    let ratio = wall_traced / wall_plain;
    println!(
        "  untraced {:.3} s ({:.0} ev/s), traced {:.3} s ({:.0} ev/s): {:.1}% overhead",
        wall_plain,
        events / wall_plain,
        wall_traced,
        events / wall_traced,
        (ratio - 1.0) * 100.0
    );
    if ratio > 1.10 {
        println!(
            "  FAIL: tracing overhead {:.1}% exceeds 10%",
            (ratio - 1.0) * 100.0
        );
        failures += 1;
    }

    if failures > 0 {
        eprintln!("obs-smoke: {failures} check(s) failed");
        ExitCode::FAILURE
    } else {
        println!("obs-smoke: all checks passed");
        ExitCode::SUCCESS
    }
}
