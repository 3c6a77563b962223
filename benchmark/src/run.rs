//! The measurement protocol for one workload in one process.
//!
//! Closed loop, one run at a time, one thread (the sharded differential
//! aside). With tracing off: generate inputs several times (timed) → one
//! warm-up run, whose report is the reference → timed runs for the asked
//! seconds, each report compared with the reference → peak RSS. A
//! host-time metric is the best of its sample (see `Outcome::sample`).
//! With tracing on: untraced and traced runs alternate (their ratio is the
//! tracing overhead), then a *check* run with the per-flow latency log
//! on, from which the simulated statistics are derived, then the layer
//! probes — every call into a layer under a span.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::layers::{
    bloom, cluster, controller, core, fabric::Fabric, host, mc, obs, partition, proto, sim, switch,
    trace,
};
use crate::metrics::Bag;
use crate::spans::Recorder;
use crate::stats::{summarize, Summary};
use crate::workloads::Workload;

/// Fewest timed runs a host-time metric is taken over.
const MIN_TIMED_RUNS: usize = 5;
/// Set-up is repeated at least this often, then until it has taken
/// `SETUP_BUDGET_S` or run `SETUP_MAX_REPS` times.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 1_000;
const SETUP_BUDGET_S: f64 = 0.25;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Where `<workload>.spans.json` goes.
    pub out_dir: PathBuf,
}

/// What a run measured and whether its outputs were right.
#[derive(Default)]
pub struct Outcome {
    pub bag: Bag,
    /// Checked runs (operations) attempted, and how many failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// FNV of the reference report (simulation workloads).
    pub report_fingerprint: Option<u64>,
    /// Host-time samples behind the metrics, for the printed quartiles.
    pub samples: Vec<(&'static str, Summary)>,
}

impl Outcome {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Keeps the summary of a host-time sample for printing and returns
    /// it. Metrics take the *best* of a sample — the fastest time, the
    /// highest rate: its runs are identical and deterministic, so
    /// whatever lies above the fastest is the host's doing. On a shared
    /// sandbox that is +10–50 % for seconds to minutes at a time, and the
    /// median of a ten-second sample moves with it where the minimum
    /// mostly does not.
    fn sample(&mut self, label: &'static str, values: &[f64]) -> Summary {
        let s = summarize(values);
        self.samples.push((label, s));
        s
    }
}

pub fn run(opts: &Options) -> Outcome {
    match (opts.workload, opts.traced) {
        (Workload::McExplore, false) => mc_end_to_end(opts),
        (Workload::McExplore, true) => mc_traced(opts),
        (_, false) => sim_end_to_end(opts),
        (_, true) => sim_traced(opts),
    }
}

/// Runs `setup` repeatedly, returning its last product and each
/// repetition's seconds.
fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let begun = Instant::now();
    let mut secs = Vec::new();
    loop {
        let t = Instant::now();
        let product = setup();
        secs.push(t.elapsed().as_secs_f64());
        let spent = begun.elapsed().as_secs_f64();
        if secs.len() >= SETUP_MIN_REPS && (spent >= SETUP_BUDGET_S || secs.len() >= SETUP_MAX_REPS)
        {
            return (product, secs);
        }
    }
}

fn keep_timing(begun: Instant, seconds: f64, done: usize) -> bool {
    done < MIN_TIMED_RUNS || begun.elapsed().as_secs_f64() < seconds
}

/// Every day's trace of a simulation workload (see `trace::day_seeds`).
fn generate_days(opts: &Options) -> Vec<trace::Trace> {
    trace::day_seeds(opts.workload, opts.seed)
        .into_iter()
        .map(|day_seed| trace::generate(opts.workload, day_seed))
        .collect()
}

fn configure_days(opts: &Options, traces: &[trace::Trace]) -> Vec<core::Config> {
    trace::day_seeds(opts.workload, opts.seed)
        .into_iter()
        .zip(traces)
        .map(|(day_seed, trace)| core::config(opts.workload, trace, day_seed))
        .collect()
}

fn sim_end_to_end(opts: &Options) -> Outcome {
    let mut o = Outcome::default();
    let mut rec = Recorder::new(false);
    let (traces, generate_s) = repeat_setup(|| generate_days(opts));
    let cfgs = configure_days(opts, &traces);

    let reference = core::run(&mut rec, &traces, &cfgs);
    o.attempted += 1;
    for broken in reference.broken_invariants() {
        o.fail(broken);
    }
    o.report_fingerprint = Some(reference.report_fingerprint());

    let (mut walls, mut builds, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let begun = Instant::now();
    while keep_timing(begun, opts.seconds, walls.len()) {
        let timed = core::run(&mut rec, &traces, &cfgs);
        o.attempted += 1;
        if !timed.same_report(&reference) {
            o.fail(format!(
                "timed run {} reported differently",
                walls.len() + 1
            ));
        }
        walls.push(timed.wall_s);
        builds.push(timed.build_s());
        rates.push(timed.flows() as f64 / timed.wall_s);
    }
    // Before anything else allocates: the peak is the timed runs' own.
    o.bag.set("peak_rss_mb", host::peak_rss_mb());
    let (wall, rate) = (o.sample("wall_s", &walls), o.sample("work_per_sec", &rates));
    let generate = o.sample("setup_s: generate", &generate_s);
    let build = o.sample("setup_s: build", &builds);
    o.bag.set("wall_s", wall.min);
    o.bag.set("work_per_sec", rate.max);
    o.bag.set("setup_s", generate.min + build.min);
    o
}

fn mc_end_to_end(opts: &Options) -> Outcome {
    let mut o = Outcome::default();
    let mut rec = Recorder::new(false);
    let (inputs, bootstrap_s) = repeat_setup(|| mc::Inputs::generate(opts.seed));

    let reference = inputs.run(&mut rec);
    o.attempted += 1;
    for counterexample in &reference.violations {
        o.fail(format!("invariant violation:\n{counterexample}"));
    }

    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let begun = Instant::now();
    while keep_timing(begun, opts.seconds, walls.len()) {
        let pass = inputs.run(&mut rec);
        o.attempted += 1;
        if !pass.same_exploration(&reference) {
            o.fail(format!(
                "timed pass {} explored differently",
                walls.len() + 1
            ));
        }
        walls.push(pass.wall_s);
        rates.push(pass.transitions() as f64 / pass.wall_s);
    }
    o.bag.set("peak_rss_mb", host::peak_rss_mb());
    let (wall, rate) = (o.sample("wall_s", &walls), o.sample("work_per_sec", &rates));
    o.bag.set("wall_s", wall.min);
    o.bag.set("work_per_sec", rate.max);
    // Bootstrapping the two initial states takes ~60 µs, and what this
    // host does to an allocation-heavy interval that short (±60 % between
    // its fast and slow minutes) no bound could absorb. The warm-up pass
    // is set-up too — nothing is measured until it has run — and a pass
    // costs what `wall_s` says.
    let bootstrap = o.sample("setup_s: bootstrap", &bootstrap_s);
    o.bag.set("setup_s", bootstrap.min + wall.min);
    o
}

fn mc_traced(opts: &Options) -> Outcome {
    let mut o = Outcome::default();
    let mut rec = Recorder::new(true);
    rec.span("workload", |rec| {
        let inputs = rec.span("mc.bootstrap", |_| mc::Inputs::generate(opts.seed));
        let reference = inputs.run(rec);
        let pass = inputs.run(rec);
        o.attempted += 2;
        for counterexample in &reference.violations {
            o.fail(format!("invariant violation:\n{counterexample}"));
        }
        if !pass.same_exploration(&reference) {
            o.fail("second pass explored differently".to_owned());
        }
        pass.layer_metrics(&mut o.bag);
        cluster::state_probes(rec, &inputs.three_member_state().plane, &mut o.bag);
        let kernel = rec.span("host.ref_kernel", |_| host::ref_kernel_s());
        o.bag.set("host.ref_kernel_s", kernel);
    });
    write_spans(&rec, opts, &mut o);
    o
}

fn sim_traced(opts: &Options) -> Outcome {
    let w = opts.workload;
    let mut o = Outcome::default();
    let mut rec = Recorder::new(true);
    rec.span("workload", |rec| {
        let t = Instant::now();
        let traces = rec.span("trace.generate", |_| generate_days(opts));
        o.bag.set("trace.generate_s", t.elapsed().as_secs_f64());
        let cfgs = configure_days(opts, &traces);
        let variant = |of: fn(&core::Config) -> core::Config| -> Vec<core::Config> {
            cfgs.iter().map(of).collect()
        };

        // Untraced and traced runs take turns, so drift in the host's
        // speed lands on both sides of the overhead ratio.
        let check = |o: &mut Outcome, what: &str, run: &core::Timed, reference: &core::Timed| {
            o.attempted += 1;
            if !run.same_report(reference) {
                o.fail(format!("{what} run reported differently"));
            }
        };
        let reference = core::run(rec, &traces, &cfgs);
        o.attempted += 1;
        for broken in reference.broken_invariants() {
            o.fail(broken);
        }
        o.report_fingerprint = Some(reference.report_fingerprint());
        // One to four pairs, until half the asked seconds are spent: the
        // other half goes to the check run and the probes.
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let begun = Instant::now();
        while traced.is_empty()
            || (traced.len() < 4 && begun.elapsed().as_secs_f64() < opts.seconds / 2.0)
        {
            let run = core::run(rec, &traces, &cfgs);
            check(&mut o, "untraced", &run, &reference);
            plain.push(run);
            let run = core::run(rec, &traces, &variant(core::with_obs));
            check(&mut o, "traced", &run, &reference);
            traced.push(run);
        }
        let fastest = |runs: &[core::Timed]| -> usize {
            let wall = |i: &usize| runs[*i].wall_s;
            (0..runs.len())
                .min_by(|a, b| wall(a).total_cmp(&wall(b)))
                .expect("at least one pair ran")
        };
        let (plain, traced) = (&plain[fastest(&plain)], &traced[fastest(&traced)]);
        let plain_wall = plain.wall_s;
        o.bag.set("obs.overhead_ratio", traced.wall_s / plain_wall);
        obs::profile_metrics(&traced.days, &mut o.bag);
        plain.phase_metrics(&mut o.bag);

        let checked = core::run(rec, &traces, &variant(core::with_latency_log));
        check(&mut o, "check", &checked, &reference);
        let baseline_rps =
            matches!(w, Workload::LazyFlowSetup | Workload::DynamicRegroup).then(|| {
                rec.span("core.baseline_reference", |rec| {
                    core::run(rec, &traces, &variant(core::as_baseline)).ctrl_rps()
                })
            });
        checked.simulated_metrics(core::control_link_ms(&cfgs[0]), baseline_rps, &mut o.bag);
        o.bag
            .set("sim.events_per_sec", checked.events() as f64 / plain_wall);
        if w == Workload::LazyFlowSetup {
            // Informational until a sharded workload exists: at this
            // window the sharded engine is a different simulation.
            for (workers, name) in [(1, "sim.shard_w1_ratio"), (2, "sim.shard_w2_ratio")] {
                let sharded = rec.span("core.sharded", |rec| {
                    let cfgs: Vec<_> = cfgs.iter().map(|c| core::sharded(c, workers)).collect();
                    core::run(rec, &traces, &cfgs)
                });
                o.bag.set(name, sharded.wall_s / plain_wall);
            }
        }
        // The probes' inputs come from the first day.
        let day_seed = trace::day_seeds(w, opts.seed)[0];
        layer_probes(rec, w, &traces[0], &cfgs[0], day_seed, &mut o.bag);
        let kernel = rec.span("host.ref_kernel", |_| host::ref_kernel_s());
        o.bag.set("host.ref_kernel_s", kernel);
    });
    write_spans(&rec, opts, &mut o);
    o
}

/// The per-layer probes of a simulation workload, each on inputs derived
/// from the workload's own trace and configuration.
fn layer_probes(
    rec: &mut Recorder,
    w: Workload,
    trace: &trace::Trace,
    cfg: &core::Config,
    seed: u64,
    bag: &mut Bag,
) {
    let (latency, bandwidth) = core::link_models(cfg);
    sim::probes(rec, trace, latency, bandwidth, seed, bag);

    let lazy = (w != Workload::OpenflowBaseline).then(|| {
        controller::lazy_config(core::group_limit(w), w == Workload::DynamicRegroup, seed)
    });
    let mut fabric = rec.span("fabric.build", |_| Fabric::build(trace, lazy.clone()));
    let packets = fabric.first_packets(trace);
    controller::probes(
        rec,
        &mut fabric,
        &packets,
        trace,
        w == Workload::DynamicRegroup,
        bag,
    );
    switch::probes(rec, &mut fabric, &packets, bag);

    // The codec mix: what reached the controller and the switches in
    // this fabric, plus — on the cluster workload — the plane's own peer
    // traffic.
    let mut mix: Vec<proto::Message> = Vec::new();
    mix.extend(packets.punts.iter().take(1_024).map(|(_, m)| m.clone()));
    mix.extend(
        fabric
            .controller_bound
            .iter()
            .take(1_024)
            .map(|(_, m)| m.clone()),
    );
    mix.extend(
        fabric
            .switch_bound
            .iter()
            .take(1_024)
            .map(|m| m.msg.clone()),
    );
    if let Some(lazy) = lazy {
        bloom::probes(rec, trace, bag);
        partition::probes(
            rec,
            trace,
            core::group_limit(w),
            seed,
            w == Workload::DynamicRegroup,
            bag,
        );
        if w == Workload::ClusterStorm {
            mix.extend(cluster::probes(
                rec,
                cluster::storm_config(lazy),
                partition::bootstrap_graph(trace),
                &fabric.controller_bound,
                &packets.punts,
                bag,
            ));
        }
    }
    proto::probes(rec, &mix, bag);
}

fn write_spans(rec: &Recorder, opts: &Options, o: &mut Outcome) {
    let path = spans_path(&opts.out_dir, opts.workload);
    let written = std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, rec.to_json().to_json_pretty()));
    if let Err(e) = written {
        o.fail(format!("cannot write {}: {e}", path.display()));
    }
}

pub fn spans_path(out_dir: &Path, workload: Workload) -> PathBuf {
    out_dir.join(format!("{}.spans.json", workload.name()))
}
