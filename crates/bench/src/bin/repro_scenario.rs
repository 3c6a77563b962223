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

use std::process::ExitCode;

use lazyctrl_bench::parse_seed;
use lazyctrl_core::{run_built, Scenario, ScenarioRegistry, ScenarioRun};

const DEFAULT_SEED: u64 = 0xC1;

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
    let run = run_built(scenario, trace, cfg, plan);
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
        println!();
    }
    run
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
