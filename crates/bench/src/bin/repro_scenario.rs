//! Discover and replay the canned scenarios: every entry in the
//! [`ScenarioRegistry`], by name.
//!
//! ```sh
//! cargo run --release -p lazyctrl-bench --bin repro_scenario -- --list
//! cargo run --release -p lazyctrl-bench --bin repro_scenario -- crash_under_load
//! cargo run --release -p lazyctrl-bench --bin repro_scenario -- all --seed 7
//! ```
//!
//! Runs are deterministic: the same scenario at the same seed (and
//! `LAZYCTRL_SCALE`) reproduces the report bit-identically. Exits
//! non-zero if any executed scenario's verdict fails.
//!
//! Every run is fully traced (a 2¹⁸-record flight recorder plus the
//! sampling profiler), which by contract leaves the report bit-identical
//! to an untraced run. A failed verdict dumps the recorder to
//! `target/obs/<name>.trace.jsonl` (+ `.chrome.json`, `.telemetry.json`)
//! and prints the per-kind engine profile and one reconstructed
//! PacketIn → FlowMod → delivery chain.

use std::process::ExitCode;

use lazyctrl_core::{
    run_built_detailed, DetailedRun, ObsConfig, Scenario, ScenarioRegistry, ScenarioRun,
    EVENT_KIND_NAMES,
};
use lazyctrl_obs::intern::{kind, subsys};
use lazyctrl_obs::{dst_trace_id, trace_id_dst, TraceRecord};

const DEFAULT_SEED: u64 = 0xC1;

/// Parses a `--seed` value: decimal, or hexadecimal after `0x` (the form
/// the run prints seeds in, e.g. `seed 0xc1`). `None` on anything else.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn print_list(reg: &ScenarioRegistry) {
    println!("available scenarios ({}):\n", reg.len());
    let width = reg.names().iter().map(|n| n.len()).max().unwrap_or(0);
    for s in reg.iter() {
        println!("  {:<width$}  {}", s.name(), s.summary());
    }
    println!("\nrun one:   repro_scenario <name> [--seed N]");
    println!("run all:   repro_scenario all [--seed N]");
}

fn run_one(scenario: &dyn Scenario, seed: u64) -> ScenarioRun {
    println!("=== scenario: {} (seed {seed:#x}) ===", scenario.name());
    println!("    {}", scenario.summary());
    let (trace, cfg, plan) = scenario.build(seed);
    if plan.is_empty() {
        println!("    plan: (no injected events)");
    } else {
        println!("    plan:");
        for e in plan.events() {
            println!("      {e}");
        }
    }
    let cfg = cfg.with_obs(ObsConfig::full().with_ring_capacity(1 << 18));
    let (run, detailed) = run_built_detailed(scenario, trace, cfg, plan);
    let r = &run.report;
    println!(
        "    ran `{}` over trace `{}`: {} flows started, {} delivered, mean latency {:.3} ms",
        r.mode, r.trace, r.flows_started, r.delivered_flows, r.mean_latency_ms
    );
    if let Some(c) = &r.cluster {
        println!(
            "    cluster: {} controllers, requests {:?}, failover transfers {}, dead {:?}",
            c.controllers, c.requests_per_controller, c.failover_transfers, c.confirmed_dead
        );
    }
    for note in &run.verdict.notes {
        println!("    note: {note}");
    }
    if run.verdict.passed() {
        println!("    verdict: PASS\n");
    } else {
        println!("    verdict: FAIL");
        for f in &run.verdict.failures {
            println!("      ✗ {f}");
        }
        print_profile(&detailed);
        print_sample_chain(&detailed);
        println!();
    }
    run
}

/// The engine's self-profile: per event kind, then per subsystem. A
/// kind's `counted` events were settled without a dispatch; `est ms`
/// charges the sampled mean only to the dispatched rest.
fn print_profile(detailed: &DetailedRun) {
    let obs = detailed.obs.as_ref().expect("tracing enabled");
    println!(
        "    self-profile ({} sampled dispatches of {}):",
        obs.profile.samples(),
        obs.profile.total_events()
    );
    println!(
        "      {:<18} {:<11} {:>12} {:>12} {:>9} {:>11} {:>11} {:>9}",
        "event kind", "subsystem", "count", "counted", "sampled", "mean ns", "p99 ns", "est ms"
    );
    for k in obs.profile.kind_profiles() {
        println!(
            "      {:<18} {:<11} {:>12} {:>12} {:>9} {:>11} {:>11} {:>9.1}",
            EVENT_KIND_NAMES[k.kind as usize],
            subsys::name(k.subsys),
            k.count,
            k.counted,
            k.ns.len(),
            k.ns.mean().map_or("-".into(), |v| format!("{v:.0}")),
            k.ns.quantile(0.99)
                .map_or("-".into(), |v| format!("{v:.0}")),
            k.est_ns() / 1e6,
        );
    }
    for (s, count, sampled_ns) in obs.profile.subsys_rollup() {
        println!(
            "      {:<11} {:>12} events, {:>12.0} sampled ns",
            subsys::name(s),
            count,
            sampled_ns
        );
    }
}

/// PacketIns tried as chain starts before giving up, so a failed run
/// whose punts were never answered costs a bounded scan of the ring.
const CHAIN_CANDIDATES: usize = 1000;

/// Reconstructs and prints one causal chain from the recorder: the
/// oldest retained PacketIn whose flow also has a FlowMod install and a
/// delivery in the ring. FlowMods match on the destination only, so the
/// chain is the pair's records plus the destination's.
fn print_sample_chain(detailed: &DetailedRun) {
    let recorder = &detailed.obs.as_ref().expect("tracing enabled").recorder;
    let chain_of = |pair: u64| -> Vec<TraceRecord> {
        let dst_only = dst_trace_id(trace_id_dst(pair));
        recorder
            .iter()
            .filter(|r| r.trace_id == pair || r.trace_id == dst_only)
            .copied()
            .collect()
    };
    let complete = |chain: &[TraceRecord]| {
        let has = |k: u16| chain.iter().any(|r| r.kind == k);
        has(kind::PACKET_IN_SENT) && has(kind::FLOW_MOD_RECV) && has(kind::FRAME_DELIVERED)
    };
    let found = recorder
        .iter()
        // ARP broadcasts carry trace ID 0 and join no flow.
        .filter(|r| r.kind == kind::PACKET_IN_SENT && r.trace_id != 0)
        .take(CHAIN_CANDIDATES)
        .map(|r| chain_of(r.trace_id))
        .find(|chain| complete(chain));
    let Some(chain) = found else {
        println!("    no complete PacketIn → FlowMod → delivery chain retained");
        return;
    };
    println!(
        "    causal chain to host {} ({} records):",
        trace_id_dst(chain[0].trace_id),
        chain.len()
    );
    for r in &chain {
        println!(
            "      t={:>12} ns  {:<18} [{}]  a={} b={}",
            r.t_ns,
            kind::name(r.kind),
            subsys::name(r.subsys),
            r.a,
            r.b,
        );
    }
}

const USAGE: &str = "usage: repro_scenario [--list] [--seed N] <name>|all";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reg = ScenarioRegistry::builtin();

    let mut seed = DEFAULT_SEED;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" | "-l" => {
                print_list(&reg);
                return ExitCode::SUCCESS;
            }
            "--seed" => match it.next().and_then(|s| parse_seed(s)) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs a number (decimal or 0x hex)");
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            name => targets.push(name.to_string()),
        }
    }
    if targets.is_empty() {
        print_list(&reg);
        return ExitCode::SUCCESS;
    }

    let names: Vec<&'static str> = if targets.iter().any(|t| t == "all") {
        reg.names()
    } else {
        let mut names = Vec::new();
        for t in &targets {
            match reg.get(t) {
                Some(s) => names.push(s.name()),
                None => {
                    eprintln!("unknown scenario {t:?}; try --list");
                    return ExitCode::FAILURE;
                }
            }
        }
        names
    };

    let mut failures = 0usize;
    for name in &names {
        let scenario = reg.get(name).expect("validated above");
        if !run_one(scenario, seed).verdict.passed() {
            failures += 1;
        }
    }
    if names.len() > 1 {
        println!("{} scenario(s) run, {} failed", names.len(), failures);
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_seed_accepts_decimal_and_hex() {
        assert_eq!(parse_seed("7"), Some(7));
        assert_eq!(parse_seed("0xc1"), Some(0xc1));
        assert_eq!(parse_seed("0xC1"), Some(0xc1));
        assert_eq!(parse_seed(""), None);
        assert_eq!(parse_seed("0x"), None);
        assert_eq!(parse_seed("seven"), None);
        assert_eq!(parse_seed("0xzz"), None);
        assert_eq!(parse_seed("-1"), None);
    }
}
