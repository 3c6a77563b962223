//! The experiment driver: trace in, report out.

use lazyctrl_cluster::MemberCounter;
use lazyctrl_obs::{EngineProfile, FlightRecorder, PhaseTimings, RecorderStats};
use lazyctrl_sim::{run, EventQueue, Scheduler, SimDuration, SimTime, TimeSeries};
use lazyctrl_trace::{FlowRecord, Trace};
use std::sync::Arc;
use std::time::Instant;

use crate::report::SeriesPoint;
use crate::world::{DataCenterWorld, Ev};
use crate::{ExperimentConfig, ExperimentReport};

/// One end-to-end run of a control plane over a trace.
#[derive(Debug)]
pub struct Experiment {
    trace: Trace,
    cfg: ExperimentConfig,
}

impl Experiment {
    /// Prepares an experiment.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration, an inconsistent trace, or a plan
    /// event referencing a switch/controller the run does not have —
    /// catching the mistake here beats an index panic (or a silent
    /// no-op fault) deep inside the run.
    pub fn new(trace: Trace, cfg: ExperimentConfig) -> Self {
        cfg.validate();
        trace.validate();
        let num_switches = trace.topology.num_switches;
        let controllers = cfg.cluster_controllers.unwrap_or(0);
        let horizon = run_horizon(&trace, &cfg);
        for e in cfg.plan.events() {
            assert!(
                e.at <= horizon,
                "plan event `{e}` is scheduled past the run horizon ({horizon}) and would \
                 silently never fire"
            );
            match e.event {
                lazyctrl_proto::InjectedEvent::CrashSwitch(s)
                | lazyctrl_proto::InjectedEvent::RecoverSwitch(s) => assert!(
                    s.index() < num_switches,
                    "plan event `{e}` references switch {s} but the trace has {num_switches}"
                ),
                lazyctrl_proto::InjectedEvent::CrashController(id)
                | lazyctrl_proto::InjectedEvent::RecoverController(id) => assert!(
                    (id as usize) < controllers,
                    "plan event `{e}` references controller {id} but the cluster has {controllers}"
                ),
                lazyctrl_proto::InjectedEvent::PartitionNetwork { ref groups } => {
                    for &node in groups.iter().flatten() {
                        let ok = (node as usize) < num_switches
                            || lazyctrl_cluster::ctrl_pseudo_switch(0).0 <= node
                                && ((node & !lazyctrl_cluster::ctrl_pseudo_switch(0).0) as usize)
                                    < controllers;
                        assert!(
                            ok,
                            "plan event `{e}` partitions node {node}, which is neither a \
                             switch (< {num_switches}) nor a controller pseudo-id \
                             (cluster has {controllers})"
                        );
                    }
                }
                _ => {}
            }
        }
        Experiment { trace, cfg }
    }

    /// Runs the simulation to completion and collects the report.
    pub fn run(self) -> ExperimentReport {
        self.run_detailed().report
    }

    /// Like [`Experiment::run`], but also returns the per-flow latency log
    /// (enable `record_flow_latencies` in the config to populate it).
    pub fn run_detailed(self) -> DetailedRun {
        let Experiment { trace, cfg } = self;
        // Three phase walls = four `Instant::now()` calls per run total;
        // nothing here is per-event, and nothing feeds the report.
        let t_build = Instant::now();
        let trace_name = trace.name.clone();
        let mode = cfg.mode;
        let horizon = run_horizon(&trace, &cfg);

        // The fault-injection plan rides the queue; plans are sorted, so
        // insertion order here equals plan order and same-timestamp events
        // keep their scheduled sequence. Flow arrivals never enter the
        // queue: the run loop streams them from the trace beside it.
        let mut queue: EventQueue<Ev> = EventQueue::new();
        for e in cfg.plan.events() {
            queue.schedule(e.at, Ev::Injected(e.event.clone()));
        }

        let mut world = DataCenterWorld::new(trace, cfg);
        world.bootstrap(&mut Scheduler::over(&mut queue));
        let flows = Arc::clone(&world.flows);
        let arrivals = flow_arrivals(&flows, horizon);

        let t_run = Instant::now();
        let build_s = (t_run - t_build).as_secs_f64();
        let (mut world, events_processed) = match world.cfg.workers {
            Some(workers) => {
                let r =
                    crate::shard::run_sharded_experiment(world, queue, arrivals, horizon, workers);
                (r.world, r.events_processed)
            }
            None => {
                run(&mut world, &mut queue, arrivals, horizon);
                // Deliveries counted instead of scheduled are events too,
                // and every switch hears those it has not yet (DESIGN
                // §7.6).
                world.hear_all_landed();
                let counted = world.counted_events();
                (world, queue.popped_total() + counted)
            }
        };
        let t_report = Instant::now();
        let run_s = (t_report - t_run).as_secs_f64();

        // ---- Collect ----
        let series = |name: &str, read: fn(&TimeSeries) -> Vec<(SimTime, f64)>| {
            let points = world.metrics.series(name).map(read).unwrap_or_default();
            let to_point = |(t, value): (SimTime, f64)| SeriesPoint {
                hour: t.as_secs_f64() / 3600.0,
                value,
            };
            points.into_iter().map(to_point).collect::<Vec<_>>()
        };
        let workload_rps = series("workload", TimeSeries::rates);
        let latency_ms = series("latency_ms", TimeSeries::means);
        let updates_per_hour = series("regroup_updates", TimeSeries::sums);
        let lat_hist = world.metrics.log2_histogram("latency_all_ms");
        let mean_latency_ms = lat_hist.and_then(|h| h.mean()).unwrap_or(0.0);
        let p99_latency_ms = lat_hist.and_then(|h| h.quantile(0.99)).unwrap_or(0.0);
        let p999_latency_ms = lat_hist.and_then(|h| h.quantile(0.999)).unwrap_or(0.0);
        let max_gfib_bytes = world
            .switches
            .iter()
            .flatten()
            .map(|s| s.gfib().storage_bytes() as u64)
            .max()
            .unwrap_or(0);
        let lazy = world.controller.lazy();
        let final_winter = lazy.and_then(|c| c.grouping().winter());
        let num_groups = lazy
            .and_then(|c| c.grouping().num_groups())
            .or_else(|| world.controller.cluster().map(|p| p.ownership().len()));
        let down_switches = lazy
            .map(|c| c.failover().down_switches())
            .unwrap_or_default()
            .iter()
            .map(|s| s.0)
            .collect();

        let cluster = world.controller.cluster().map(|plane| {
            let n = plane.num_controllers();
            let horizon_secs = (horizon.as_nanos() as f64 / 1e9).max(1.0);
            let per_member = |c| {
                (0..n as u32)
                    .map(|i| plane.counter(i, c))
                    .collect::<Vec<u64>>()
            };
            let requests = per_member(MemberCounter::RequestsHandled);
            let per_rps = requests.iter().map(|&r| r as f64 / horizon_secs).collect();
            let transfers = plane.transfers();
            crate::report::ClusterReport {
                controllers: n,
                dissemination: plane.config().dissemination.label().to_owned(),
                requests_per_controller: requests,
                per_controller_rps: per_rps,
                clib_sizes: (0..n as u32).map(|i| plane.clib_len(i)).collect(),
                replica_sizes: (0..n as u32).map(|i| plane.replica_len(i)).collect(),
                peer_sync_messages: per_member(MemberCounter::SyncMessages),
                peer_sync_bytes: per_member(MemberCounter::SyncBytes),
                peer_sync_chunks: per_member(MemberCounter::ChunksCreated),
                anti_entropy_digests: per_member(MemberCounter::DigestsSent),
                anti_entropy_catchups: per_member(MemberCounter::CatchupSyncs),
                rebalance_transfers: transfers
                    .iter()
                    .filter(|t| t.reason == lazyctrl_proto::TransferReason::Rebalance)
                    .count() as u64,
                failover_transfers: transfers
                    .iter()
                    .filter(|t| t.reason == lazyctrl_proto::TransferReason::Failover)
                    .count() as u64,
                takeovers: plane.takeovers().to_vec(),
                confirmed_dead: plane.confirmed_dead(),
                ctrl_peer_messages: world.metrics.counter("ctrl_peer_messages"),
                failover_groups: transfers
                    .iter()
                    .filter(|t| t.reason == lazyctrl_proto::TransferReason::Failover)
                    .map(|t| t.group.index())
                    .collect(),
                switch_groups: (0..world.topology.num_switches)
                    .map(|s| plane.group_of_switch(lazyctrl_net::SwitchId::new(s as u32)))
                    .collect(),
                transfer_retransmits: per_member(MemberCounter::TransferRetransmits),
                lookup_timeouts: per_member(MemberCounter::LookupTimeouts),
                lease_step_downs: per_member(MemberCounter::LeaseStepDowns),
                setups_shed: per_member(MemberCounter::SetupsShed),
                queue_highwater: per_member(MemberCounter::QueueHighwater),
                congestion_signals: per_member(MemberCounter::CongestionSignals),
                double_leader_events: plane.double_leader_events(),
                state_fingerprint: plane.state_fingerprint(),
                fingerprint_checkpoints: world.cluster_fingerprints.clone(),
            }
        });

        let report = ExperimentReport {
            mode: mode.label().to_owned(),
            trace: trace_name,
            workload_rps,
            latency_ms,
            updates_per_hour,
            controller_messages: world.metrics.counter("controller_messages"),
            packet_ins: world.metrics.counter("packet_ins"),
            flows_started: world.metrics.counter("flows_started"),
            delivered_flows: world.metrics.counter("delivered_flows"),
            events_processed,
            mean_latency_ms,
            p99_latency_ms,
            p999_latency_ms,
            final_winter,
            max_gfib_bytes,
            num_groups,
            down_switches,
            cluster,
        };
        let obs = world.obs.take().map(|o| {
            let o = *o;
            ObsSnapshot {
                stats: o.recorder.stats(),
                recorder: o.recorder,
                profile: o.profile,
            }
        });
        let report_s = t_report.elapsed().as_secs_f64();
        DetailedRun {
            report,
            flow_latencies: std::mem::take(&mut world.flow_latencies),
            counters: world
                .metrics
                .counters()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
            phases: PhaseTimings {
                build_s,
                run_s,
                report_s,
            },
            obs,
        }
    }
}

/// The observability state carried out of a finished run (present only
/// when the config's [`ObsConfig`](lazyctrl_obs::ObsConfig) was enabled).
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Flight-recorder occupancy statistics.
    pub stats: RecorderStats,
    /// The flight recorder itself (retained tail of the trace).
    pub recorder: FlightRecorder,
    /// The sampling dispatch profiler.
    pub profile: EngineProfile,
}

/// A report plus the raw per-flow latency log.
#[derive(Debug, Clone)]
pub struct DetailedRun {
    /// The aggregate report.
    pub report: ExperimentReport,
    /// `((src host, dst host, emit ns), latency ms)` per delivered flow.
    pub flow_latencies: Vec<((u32, u32, u64), f64)>,
    /// All metric counters at end of run, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Wall-clock build/run/report phase timings for this run.
    pub phases: PhaseTimings,
    /// Flight recorder + profiler state, when observability was enabled.
    pub obs: Option<ObsSnapshot>,
}

/// The virtual-time end of a run: the configured horizon, or the trace's
/// duration plus an hour of drain time.
pub(crate) fn run_horizon(trace: &Trace, cfg: &ExperimentConfig) -> SimTime {
    cfg.horizon_hours
        .map(SimTime::from_hours)
        .unwrap_or(SimTime::from_nanos(trace.duration_ns) + SimDuration::from_secs(3600))
}

/// The trace's flow arrivals up to `horizon`, in trace order (sorted by
/// time, which `Trace::validate` asserts) — the source the run loop merges
/// with the queue. The only place an `Ev::FlowArrival` is made.
pub(crate) fn flow_arrivals(
    flows: &[FlowRecord],
    horizon: SimTime,
) -> impl Iterator<Item = (SimTime, Ev)> + '_ {
    flows
        .iter()
        .enumerate()
        .map(|(i, f)| (SimTime::from_nanos(f.time_ns), Ev::FlowArrival(i)))
        .take_while(move |&(at, _)| at <= horizon)
}
