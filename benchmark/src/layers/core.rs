//! Layer `core`: the experiment driver. Builds the four simulation
//! workloads' configurations, runs them through `Experiment`, and reads
//! the report. Nothing else in the benchmark names a report field.

use std::time::Instant;

use lazyctrl::cluster::Fnv64;
use lazyctrl::core::{
    BandwidthModel, ChannelClass, ControlMode, DetailedRun, EventPlan, Experiment,
    ExperimentConfig, ExperimentReport, ObsConfig,
};
use lazyctrl::obs::PhaseTimings;
use lazyctrl::sim::LatencyModel;
use lazyctrl::trace::Trace;

use crate::metrics::Bag;
use crate::spans::Recorder;
use crate::stats::{ascending, exact_quantile};
use crate::workloads::Workload;

/// An experiment configuration, as the rest of the benchmark sees it.
pub type Config = ExperimentConfig;

/// The link-layer models a configuration runs under.
pub fn link_models(cfg: &Config) -> (&LatencyModel, &BandwidthModel) {
    (&cfg.latency, &cfg.bandwidth)
}

/// One-way latency of the configuration's control link, ms.
pub fn control_link_ms(cfg: &Config) -> f64 {
    cfg.latency.control.as_millis_f64()
}

/// Group size limit of the Syn-A workloads (the paper's 46) and of the
/// small real-trace surrogate.
pub fn group_limit(workload: Workload) -> usize {
    match workload {
        Workload::DynamicRegroup => 10,
        _ => 46,
    }
}

/// The configuration a simulation workload runs `trace` under.
///
/// # Panics
///
/// Panics for `mc_explore`, which runs no experiment.
pub fn config(workload: Workload, trace: &Trace, seed: u64) -> ExperimentConfig {
    let base = |mode| {
        ExperimentConfig::new(mode)
            .with_group_size_limit(group_limit(workload))
            .with_seed(seed)
    };
    match workload {
        Workload::LazyFlowSetup => with_arp(base(ControlMode::LazyStatic)),
        Workload::OpenflowBaseline => with_arp(base(ControlMode::Baseline)),
        Workload::ClusterStorm => {
            // Control and controller-peer links at 100 kB/s: low enough
            // that the storm queues on them, which is the point.
            let bandwidth = BandwidthModel::unmodeled()
                .with_capacity(ChannelClass::Control, 100_000)
                .with_capacity(ChannelClass::CtrlPeer, 100_000);
            let hosts = trace.topology.num_hosts() as u32;
            let plan = EventPlan::new()
                .crash_controller(8.0, 1)
                .recover_controller(10.0, 1)
                .migrate_hosts(12.0, hosts / 10)
                .traffic_burst(14.0, 4.0);
            with_arp(
                base(ControlMode::LazyStatic)
                    .with_cluster(4)
                    .with_bandwidth(bandwidth)
                    .with_ingress_slots(32)
                    .with_ingress_cost_ns(5_000_000)
                    .with_plan(plan),
            )
        }
        Workload::DynamicRegroup => base(ControlMode::LazyDynamic),
        Workload::McExplore => panic!("mc_explore runs no experiment"),
    }
}

fn with_arp(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.emit_arp = true;
    cfg
}

/// `cfg`'s trace under plain OpenFlow — the denominator of
/// `simulated.workload_reduction`.
pub fn as_baseline(cfg: &ExperimentConfig) -> ExperimentConfig {
    let mut base = ExperimentConfig::new(ControlMode::Baseline)
        .with_group_size_limit(cfg.group_size_limit)
        .with_seed(cfg.seed);
    base.emit_arp = cfg.emit_arp;
    base
}

/// `cfg` with the per-flow latency log on (the *check* run).
pub fn with_latency_log(cfg: &ExperimentConfig) -> ExperimentConfig {
    let mut cfg = cfg.clone();
    cfg.record_flow_latencies = true;
    cfg
}

/// `cfg` with the program's flight recorder and sampling profiler on
/// (the *traced* run).
pub fn with_obs(cfg: &ExperimentConfig) -> ExperimentConfig {
    cfg.clone().with_obs(ObsConfig::full())
}

/// `cfg` on the sharded engine with `workers` threads at the documented
/// 1 s throughput window.
pub fn sharded(cfg: &ExperimentConfig, workers: usize) -> ExperimentConfig {
    cfg.clone()
        .with_workers(workers)
        .with_shard_window_us(1_000_000)
}

/// One finished run — every day of the workload, back to back — and the
/// host time it took.
pub struct Timed {
    /// `Experiment::new` → report, summed over the days, seconds.
    pub wall_s: f64,
    pub days: Vec<DetailedRun>,
}

/// Runs each trace under its configuration once. The trace copy an
/// experiment consumes is made before its clock starts.
///
/// # Panics
///
/// Panics unless there is one configuration per trace.
pub fn run(rec: &mut Recorder, traces: &[Trace], cfgs: &[ExperimentConfig]) -> Timed {
    assert_eq!(traces.len(), cfgs.len(), "one configuration per day");
    let mut timed = Timed {
        wall_s: 0.0,
        days: Vec::with_capacity(traces.len()),
    };
    for (trace, cfg) in traces.iter().zip(cfgs) {
        let (trace, cfg) = (trace.clone(), cfg.clone());
        let t = Instant::now();
        let experiment = rec.span("core.experiment_new", |_| Experiment::new(trace, cfg));
        let day = rec.span("core.run", |_| experiment.run_detailed());
        timed.wall_s += t.elapsed().as_secs_f64();
        rec.split_last(&[
            ("core.build", day.phases.build_s),
            ("core.event_loop", day.phases.run_s),
            ("core.report", day.phases.report_s),
        ]);
        timed.days.push(day);
    }
    timed
}

impl Timed {
    fn reports(&self) -> impl Iterator<Item = &ExperimentReport> {
        self.days.iter().map(|d| &d.report)
    }

    pub fn same_report(&self, other: &Timed) -> bool {
        self.reports().eq(other.reports())
    }

    /// FNV-1a of the reports' `Debug` rendering: one number a
    /// simulator-only speed-up can compare to assert "every simulated
    /// statistic identical".
    pub fn report_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        for report in self.reports() {
            h.bytes(format!("{report:?}").as_bytes());
        }
        h.finish()
    }

    pub fn flows(&self) -> u64 {
        self.reports().map(|r| r.flows_started).sum()
    }

    pub fn events(&self) -> u64 {
        self.reports().map(|r| r.events_processed).sum()
    }

    fn phase(&self, of: impl Fn(&PhaseTimings) -> f64) -> f64 {
        self.days.iter().map(|d| of(&d.phases)).sum()
    }

    pub fn build_s(&self) -> f64 {
        self.phase(|p| p.build_s)
    }

    fn counter(&self, name: &str) -> u64 {
        self.days
            .iter()
            .flat_map(|d| &d.counters)
            .filter(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .sum()
    }

    /// Requests per simulated second at the hottest controller, averaged
    /// over the days.
    pub fn ctrl_rps(&self) -> f64 {
        let per_day = self.reports().map(|r| match &r.cluster {
            Some(c) => c.max_controller_rps(),
            None => r.mean_workload_rps(),
        });
        per_day.sum::<f64>() / self.days.len() as f64
    }

    /// What must hold of any run's reports. Returns one line per broken
    /// condition.
    pub fn broken_invariants(&self) -> Vec<String> {
        let mut broken = Vec::new();
        for r in self.reports() {
            if r.delivered_flows == 0 {
                broken.push("no first packet was delivered".to_owned());
            }
            if let Some(c) = &r.cluster {
                if c.double_leader_events > 0 {
                    broken.push(format!("{} double-leader events", c.double_leader_events));
                }
                if !c.confirmed_dead.is_empty() {
                    broken.push(format!(
                        "members {:?} still confirmed dead at end of run",
                        c.confirmed_dead
                    ));
                }
            }
        }
        broken
    }

    /// `core.*` phase walls of this run.
    pub fn phase_metrics(&self, bag: &mut Bag) {
        bag.set("core.build_s", self.build_s());
        bag.set("core.run_s", self.phase(|p| p.run_s));
        bag.set("core.report_s", self.phase(|p| p.report_s));
    }

    /// The simulated statistics and exact per-layer counts, from a check
    /// run (latency log on): counts summed and latencies pooled over the
    /// days. `baseline_rps` is the hottest-controller rate of the same
    /// traces under plain OpenFlow, where the workload reports a
    /// reduction. A first packet delivered in less than one control-link
    /// crossing (`control_link_ms`) cannot have waited for a controller:
    /// those are the fast path's.
    pub fn simulated_metrics(
        &self,
        control_link_ms: f64,
        baseline_rps: Option<f64>,
        bag: &mut Bag,
    ) {
        let total = |of: fn(&ExperimentReport) -> u64| self.reports().map(of).sum::<u64>() as f64;
        let frames = self.counter("frames_emitted").max(1) as f64;
        bag.set("simulated.ctrl_rps", self.ctrl_rps());
        if let Some(base) = baseline_rps {
            bag.set("simulated.workload_reduction", 1.0 - self.ctrl_rps() / base);
        }
        let log = ascending(
            self.days
                .iter()
                .flat_map(|d| &d.flow_latencies)
                .map(|&(_, ms)| ms),
        );
        assert!(!log.is_empty(), "check run recorded no flow latencies");
        bag.set(
            "simulated.first_pkt_latency_mean_ms",
            log.iter().sum::<f64>() / log.len() as f64,
        );
        bag.set(
            "simulated.first_pkt_latency_p50_ms",
            exact_quantile(&log, 0.5),
        );
        bag.set(
            "simulated.first_pkt_latency_p999_ms",
            exact_quantile(&log, 0.999),
        );
        bag.set(
            "simulated.undelivered_share",
            1.0 - total(|r| r.delivered_flows) / frames,
        );

        bag.set("sim.events", self.events() as f64);
        bag.set(
            "switch.fast_path_share",
            log.partition_point(|&ms| ms < control_link_ms) as f64 / log.len() as f64,
        );
        bag.set(
            "switch.max_gfib_bytes",
            self.reports().map(|r| r.max_gfib_bytes).max().unwrap_or(0) as f64,
        );
        bag.set("bloom.fp_reports", self.counter("fp_reports") as f64);
        bag.set("controller.messages", total(|r| r.controller_messages));
        bag.set("controller.packet_ins", total(|r| r.packet_ins));
        bag.set(
            "controller.regroup_updates",
            self.reports()
                .flat_map(|r| &r.updates_per_hour)
                .fold(0.0, |sum, p| sum + p.value),
        );
        bag.set(
            "partition.winter",
            self.reports()
                .filter_map(|r| r.final_winter)
                .fold(0.0, |sum, w| sum + w)
                / self.days.len() as f64,
        );
        // Only `cluster_storm` has a cluster, and it runs a single day.
        if let Some(c) = self.reports().find_map(|r| r.cluster.as_ref()) {
            let requests: u64 = c.requests_per_controller.iter().sum();
            let hottest = c.requests_per_controller.iter().copied().max().unwrap_or(0);
            bag.set("cluster.peer_messages", c.ctrl_peer_messages as f64);
            bag.set("cluster.heartbeats", self.counter("ctrl_heartbeats") as f64);
            bag.set("cluster.peer_sync_bytes", c.peer_sync_bytes_total() as f64);
            bag.set("cluster.setups_shed", c.setups_shed_total() as f64);
            bag.set(
                "cluster.queue_highwater",
                c.queue_highwater.iter().copied().max().unwrap_or(0) as f64,
            );
            bag.set(
                "cluster.congestion_signals",
                c.congestion_signals_total() as f64,
            );
            bag.set(
                "cluster.max_member_share",
                hottest as f64 / requests.max(1) as f64,
            );
        }
    }
}
