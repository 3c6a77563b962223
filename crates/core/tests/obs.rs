//! Observability contract tests: the flight recorder and profiler are
//! strictly read-only — reports must be bit-identical with tracing on or
//! off — and a traced run must contain reconstructable per-flow causal
//! chains.

use lazyctrl_core::scenarios::{
    run_built, run_built_detailed, Scenario, ScenarioRegistry, ScenarioVerdict,
};
use lazyctrl_core::{
    ControlMode, EventPlan, Experiment, ExperimentConfig, ExperimentReport, ObsConfig,
    EVENT_KIND_NAMES,
};
use lazyctrl_obs::intern::kind;
use lazyctrl_trace::realistic::{generate, RealTraceConfig};
use lazyctrl_trace::Trace;

/// The regression matrix from the issue: `cold_cache`, `crash_under_load`
/// and `peer_sync_storm` reports must be bit-identical with the flight
/// recorder enabled vs disabled.
#[test]
fn reports_bit_identical_with_recorder_on_vs_off() {
    let reg = ScenarioRegistry::builtin();
    for name in ["cold_cache", "crash_under_load", "peer_sync_storm"] {
        let scenario = reg.get(name).expect(name);
        let seed = 7;
        let (trace, cfg, plan) = scenario.build(seed);
        let off = run_built(scenario, trace, cfg, plan);
        let (trace, cfg, plan) = scenario.build(seed);
        let on = run_built(scenario, trace, cfg.with_obs(ObsConfig::full()), plan);
        assert_eq!(
            off.report, on.report,
            "{name}: report diverged with tracing enabled"
        );
    }
}

/// The counters of the deliveries a run counts instead of scheduling
/// (DESIGN §7.6).
const COUNTED: [&str; 4] = [
    "keepalives_counted",
    "flood_copies_counted",
    "flood_tunnels_counted",
    "flow_mods_counted",
];

fn run(mode: ControlMode, obs: ObsConfig) -> lazyctrl_core::DetailedRun {
    run_with(mode, obs, |_| {})
}

/// [`run`] with `tune` applied to the configuration.
fn run_with(
    mode: ControlMode,
    obs: ObsConfig,
    tune: impl FnOnce(&mut ExperimentConfig),
) -> lazyctrl_core::DetailedRun {
    let mut tc = RealTraceConfig::small();
    tc.num_flows = 800;
    let trace = generate(&tc);
    let mut cfg = ExperimentConfig::new(mode)
        .with_group_size_limit(10)
        .with_obs(obs);
    cfg.record_flow_latencies = true;
    tune(&mut cfg);
    Experiment::new(trace, cfg).run_detailed()
}

fn traced_run(mode: ControlMode) -> lazyctrl_core::DetailedRun {
    run(mode, ObsConfig::full().with_ring_capacity(1 << 18))
}

/// The sum of the `COUNTED` counters of a run.
fn counted(run: &lazyctrl_core::DetailedRun) -> u64 {
    run.counters
        .iter()
        .filter(|(k, _)| COUNTED.contains(&k.as_str()))
        .map(|&(_, n)| n)
        .sum()
}

/// Acceptance check: from a traced run, `flow_chain` reconstructs a
/// complete PacketIn → FlowMod → delivery chain for at least one flow.
#[test]
fn flow_chain_reconstructs_packet_in_to_delivery() {
    // Baseline (reactive OpenFlow) punts every fresh pair to the
    // controller, so PacketIn → FlowMod → delivery is the common path.
    let run = traced_run(ControlMode::Baseline);
    let obs = run.obs.as_ref().expect("obs enabled");
    assert!(obs.stats.recorded > 0, "recorder captured nothing");

    let mut complete = 0u32;
    for ((src, dst, _emit), _ms) in &run.flow_latencies {
        let chain = obs.recorder.flow_chain(*src as u64, *dst as u64);
        let has = |k: u16| chain.iter().any(|r| r.kind == k);
        if !(has(kind::PACKET_IN_SENT)
            && has(kind::PACKET_IN_RECV)
            && has(kind::FLOW_MOD_SENT)
            && has(kind::FLOW_MOD_RECV)
            && has(kind::FRAME_DELIVERED))
        {
            continue;
        }
        // Causal ordering: FlowMod records join on destination, so the
        // chain may also contain installs triggered by *other* sources
        // talking to the same destination earlier. A complete causal
        // instance is: a PacketIn, followed by a FlowMod install at or
        // after it, followed by a delivery at or after that.
        let t_pi = chain
            .iter()
            .find(|r| r.kind == kind::PACKET_IN_SENT)
            .unwrap()
            .t_ns;
        let fm_after = chain
            .iter()
            .filter(|r| r.kind == kind::FLOW_MOD_RECV && r.t_ns >= t_pi)
            .map(|r| r.t_ns)
            .next();
        let Some(t_fm) = fm_after else { continue };
        if chain
            .iter()
            .any(|r| r.kind == kind::FRAME_DELIVERED && r.t_ns >= t_fm)
        {
            complete += 1;
        }
    }
    assert!(
        complete > 0,
        "no flow had a complete PacketIn→FlowMod→delivery chain ({} flows, {} records)",
        run.flow_latencies.len(),
        obs.stats.recorded
    );
}

/// The profiler's exact event counts must equal the kernel's event
/// count, and phase walls must be populated. Each run counts deliveries
/// instead of scheduling them (DESIGN §7.6) — plain OpenFlow its flood
/// copies and `FlowMod`s, the lazy mode its wheel keep-alives and
/// `FlowMod`s: its event total, pinned
/// from a run that scheduled every one, fails when counted deliveries go
/// missing from `events_processed`, and the equality with the profiler
/// when they go missing there.
#[test]
fn profile_counts_match_events_and_phases_are_positive() {
    for (mode, pinned_events, counter) in [
        (ControlMode::LazyDynamic, 1_615_984, "keepalives_counted"),
        (ControlMode::Baseline, 11_563, "flood_copies_counted"),
    ] {
        let run = traced_run(mode);
        let obs = run.obs.as_ref().expect("obs enabled");
        assert_eq!(
            obs.profile.total_events(),
            run.report.events_processed,
            "{mode:?}: profiler count diverged from the kernel's event count"
        );
        assert_eq!(run.report.events_processed, pinned_events, "{mode:?}");
        let counter_value = |name: &str| {
            run.counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, n)| n)
        };
        assert!(
            counter_value(counter).is_some_and(|n| n > 0),
            "{mode:?}: nothing counted under {counter}"
        );
        let profile_counted: u64 = obs.profile.kind_profiles().iter().map(|k| k.counted).sum();
        assert_eq!(
            profile_counted,
            counted(&run),
            "{mode:?}: the profile's counted events diverged from the world's"
        );
        assert!(
            obs.profile.samples() > 0,
            "{mode:?}: sampling profiler took no samples"
        );
        assert!(run.phases.run_s > 0.0);
        assert!(run.phases.total_s() >= run.phases.run_s);
    }
}

/// A traced run takes the path an untraced one takes: it counts the
/// same deliveries instead of scheduling them, installs counted
/// `FlowMod`s the same way (writing their receipt records as it does),
/// and so has the same event total. Its `msg_to_switch` count is pinned
/// from a run that scheduled every `FlowMod`.
#[test]
fn traced_dynamic_run_counts_what_the_untraced_run_counts() {
    let traced = traced_run(ControlMode::LazyDynamic);
    let untraced = run(ControlMode::LazyDynamic, ObsConfig::default());
    assert_eq!(traced.report, untraced.report);
    assert_eq!(traced.counters, untraced.counters);
    let profile = &traced.obs.as_ref().expect("obs enabled").profile;
    let kinds = profile.kind_profiles();
    let msg_to_switch = kinds
        .iter()
        .find(|k| EVENT_KIND_NAMES[k.kind as usize] == "msg_to_switch")
        .expect("a msg_to_switch row");
    assert_eq!(msg_to_switch.count, 1_530_636);
    assert_eq!(msg_to_switch.counted, counted(&untraced));
    let flow_mods = traced
        .counters
        .iter()
        .find(|(k, _)| k == "flow_mods_counted");
    assert!(flow_mods.is_some_and(|&(_, n)| n > 0), "no FlowMod counted");
}

/// A traced lazy run with ARP counts the flood tunnel copies that land
/// away from their frame's target (DESIGN §7.6) as the untraced run
/// does, with the same report and counters. Its `tunnel_arrive` count
/// and its event total are pinned from a run that scheduled every copy,
/// and the counted share of it is the untraced run's
/// `flood_tunnels_counted`.
#[test]
fn traced_static_run_counts_the_flood_tunnel_copies_the_untraced_run_counts() {
    let arp = |cfg: &mut ExperimentConfig| cfg.emit_arp = true;
    let traced = run_with(
        ControlMode::LazyStatic,
        ObsConfig::full().with_ring_capacity(1 << 18),
        arp,
    );
    let untraced = run_with(ControlMode::LazyStatic, ObsConfig::default(), arp);
    assert_eq!(traced.report, untraced.report);
    assert_eq!(traced.counters, untraced.counters);
    let counter = |name: &str| {
        untraced
            .counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |&(_, n)| n)
    };
    let copies = counter("flood_tunnels_counted");
    assert!(copies > 0, "no flood tunnel copy counted");
    let kinds = traced
        .obs
        .as_ref()
        .expect("obs enabled")
        .profile
        .kind_profiles();
    let tunnel_arrive = kinds
        .iter()
        .find(|k| EVENT_KIND_NAMES[k.kind as usize] == "tunnel_arrive")
        .expect("a tunnel_arrive row");
    assert_eq!(tunnel_arrive.count, 2_241);
    assert_eq!(tunnel_arrive.counted, copies);
    assert_eq!(untraced.report.events_processed, 270_100);
}

/// Test-only wrapper: a real scenario's build, a verdict that always
/// fails — the trigger for the automatic flight-recorder dump.
struct AlwaysFails<'a>(&'a dyn Scenario);

impl Scenario for AlwaysFails<'_> {
    fn name(&self) -> &'static str {
        "always_fails_obs"
    }
    fn summary(&self) -> &'static str {
        "test-only: forces a failed verdict to exercise dump-on-failure"
    }
    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        self.0.build(seed)
    }
    fn check(&self, _report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        v.require(false, "forced failure (dump-on-failure test)");
        v
    }
}

/// Acceptance check, end to end: a failed-verdict run emits a dump
/// from which a complete PacketIn → FlowMod → delivery chain is
/// reconstructable for at least one flow — here re-parsed from the
/// `.trace.jsonl` artifact itself, not from in-memory state.
#[test]
fn failed_verdict_dumps_recorder_and_chain_survives_round_trip() {
    let dir = lazyctrl_obs::DUMP_DIR;
    for suffix in ["trace.jsonl", "chrome.json", "telemetry.json"] {
        let _ = std::fs::remove_file(format!("{dir}/always_fails_obs.{suffix}"));
    }

    let reg = ScenarioRegistry::builtin();
    let scenario = AlwaysFails(reg.get("cold_cache").expect("built-in"));
    let (trace, cfg, plan) = scenario.build(7);
    let cfg = cfg.with_obs(ObsConfig::full().with_ring_capacity(1 << 18));
    let (run, _detailed) = run_built_detailed(&scenario, trace, cfg, plan);
    assert!(!run.verdict.passed(), "wrapper must fail its verdict");

    let jsonl = std::fs::read_to_string(format!("{dir}/always_fails_obs.trace.jsonl"))
        .expect("failed verdict must dump .trace.jsonl");
    for suffix in ["chrome.json", "telemetry.json"] {
        assert!(
            std::fs::metadata(format!("{dir}/always_fails_obs.{suffix}")).is_ok(),
            "failed verdict must dump .{suffix}"
        );
    }

    // Reconstruct a causal chain from the dumped records alone.
    let mut records = Vec::new();
    for line in jsonl.lines() {
        let v = lazyctrl_obs::json::parse(line).expect("dump line parses");
        let field = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
        let kind = v
            .get("kind")
            .and_then(|x| x.as_str())
            .expect("kind field")
            .to_owned();
        records.push((field("t_ns") as u64, field("trace_id") as u64, kind));
    }
    assert!(!records.is_empty(), "dump must contain records");

    let complete = records
        .iter()
        .filter(|(_, id, k)| *id != 0 && k == "packet_in_sent")
        .any(|&(t_pi, pair_id, _)| {
            let dst_id = pair_id & 0xffff_ffff;
            records
                .iter()
                .filter(|(t, id, k)| *id == dst_id && k == "flow_mod_recv" && *t >= t_pi)
                .any(|&(t_fm, _, _)| {
                    records
                        .iter()
                        .any(|(t, id, k)| *id == pair_id && k == "frame_delivered" && *t >= t_fm)
                })
        });
    assert!(
        complete,
        "no PacketIn→FlowMod→delivery chain reconstructable from the dump"
    );
}
