//! Experiment configuration.

use lazyctrl_cluster::DisseminationStrategy;
use lazyctrl_obs::ObsConfig;
use lazyctrl_proto::EventPlan;
use lazyctrl_sim::{BandwidthModel, LatencyModel};
use serde::{Deserialize, Serialize};

/// Which control plane runs the data center.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControlMode {
    /// Standard OpenFlow reactive control (Floodlight learning switch) —
    /// the paper's "normal mode" baseline.
    Baseline,
    /// LazyCtrl with the bootstrap grouping frozen for the whole run
    /// ("static" in Fig. 7).
    LazyStatic,
    /// LazyCtrl with incremental regrouping enabled ("dynamic").
    LazyDynamic,
}

impl ControlMode {
    /// True for the two LazyCtrl variants.
    pub fn is_lazy(self) -> bool {
        !matches!(self, ControlMode::Baseline)
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ControlMode::Baseline => "openflow",
            ControlMode::LazyStatic => "lazyctrl-static",
            ControlMode::LazyDynamic => "lazyctrl-dynamic",
        }
    }
}

/// Full configuration of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Control plane under test.
    pub mode: ControlMode,
    /// Switches per local control group.
    pub group_size_limit: usize,
    /// Peer-sync interval pushed to switches (ms). Large default keeps the
    /// 24 h runs fast; the sync traffic itself never touches the
    /// controller's PacketIn path.
    pub sync_interval_ms: u32,
    /// Wheel keep-alive interval (ms).
    pub keepalive_interval_ms: u32,
    /// Emit explicit ARP request/reply exchanges for fresh host pairs.
    /// Costs events; the cold-cache scenario turns it on.
    pub emit_arp: bool,
    /// Destination hosts send one response frame per fresh pair (drives
    /// reverse-path learning, as real hosts would).
    pub responses: bool,
    /// Latency model for all four channel classes.
    pub latency: LatencyModel,
    /// Per-class link bandwidth model. Unmodeled (the default) prices no
    /// serialization or queueing delay and adds no per-message work, so
    /// pre-existing reports stay bit-identical. Capping a class makes
    /// every message on it pay a closed-form fair-share delay computed
    /// from its wire size and the link's in-flight backlog — no RNG
    /// draws, so worker-count determinism holds by construction.
    pub bandwidth: BandwidthModel,
    /// Record every delivered flow's (src, dst, emit-time, latency) tuple.
    /// Memory-heavy; only the micro scenarios enable it.
    pub record_flow_latencies: bool,
    /// Stop the run after this many hours of virtual time (None = whole
    /// trace).
    pub horizon_hours: Option<f64>,
    /// Workload/latency series bucket width in hours (paper plots use 2 h).
    pub bucket_hours: f64,
    /// Deterministic seed.
    pub seed: u64,
    /// Run the control plane as a `lazyctrl-cluster` of this many
    /// controllers instead of a single controller. Requires a lazy mode.
    /// `None` keeps the classic single-controller paths untouched.
    pub cluster_controllers: Option<usize>,
    /// How cluster members disseminate C-LIB deltas to each other
    /// (cluster runs only): direct flood (the O(n²) baseline) or ring
    /// circulation — O(n) messages per flush round, the difference that
    /// makes paper-scale clusters feasible. See [`DisseminationStrategy`].
    pub cluster_dissemination: DisseminationStrategy,
    /// Replication flush cadence between cluster members (ms), `None`
    /// for the cluster default (1 s). Longer intervals aggregate more
    /// deltas per flush — what lets ring bundling amortize towards
    /// O(1) messages per delta — at the price of replica staleness (the
    /// synchronous lookup fallback covers the gap).
    pub cluster_flush_interval_ms: Option<u32>,
    /// Bounded prioritized ingress queues on cluster members: `Some(n)`
    /// gives each member an `n`-slot leaky bucket that sheds work by
    /// priority class under overload — flow setups first, lookups next,
    /// ownership/sync last; heartbeats and elections never — and emits
    /// ECN-style pressure notices toward the shedding switch. `None`
    /// (the default) keeps admission unbounded and reports bit-identical
    /// to earlier versions. Requires a cluster.
    pub cluster_ingress_slots: Option<usize>,
    /// Virtual per-message service cost (ns) charged to the ingress
    /// bucket; `None` uses the cluster default (20 µs).
    pub cluster_ingress_cost_ns: Option<u64>,
    /// Fault/workload events injected during the run (controller and
    /// switch crashes, link degradation, host migration, traffic bursts —
    /// see [`EventPlan`]). Empty by default: nothing is injected.
    pub plan: EventPlan,
    /// Observability layer (flight recorder + sampling profiler). Off by
    /// default; the layer is strictly read-only, so reports are
    /// bit-identical with it on or off (see `lazyctrl_obs`).
    pub obs: ObsConfig,
    /// Worker threads for the sharded simulation engine. `None` (the
    /// default) runs the original single-threaded engine; `Some(n)` — n
    /// included `Some(1)` — runs the conservative sharded engine with
    /// `n` workers. Sharded reports are bit-identical across worker
    /// counts (for a fixed window) but are a *different* deterministic
    /// run than the single-threaded engine: the world is split into
    /// partitions with independent RNG streams (see DESIGN.md §10).
    pub workers: Option<usize>,
    /// Synchronization window for the sharded engine, in microseconds.
    /// `None` (the default) uses the model's cross-partition lookahead
    /// floor, which keeps event timing exact; larger values trade
    /// cross-partition timing precision for fewer synchronization rounds
    /// (a throughput knob for perf runs).
    pub shard_window_us: Option<u64>,
}

impl ExperimentConfig {
    /// A paper-shaped default configuration for the given mode.
    pub fn new(mode: ControlMode) -> Self {
        ExperimentConfig {
            mode,
            group_size_limit: 46,
            sync_interval_ms: 300_000,
            keepalive_interval_ms: 60_000,
            emit_arp: false,
            responses: true,
            latency: LatencyModel::default(),
            bandwidth: BandwidthModel::unmodeled(),
            record_flow_latencies: false,
            horizon_hours: None,
            bucket_hours: 2.0,
            seed: 0xE1,
            cluster_controllers: None,
            cluster_dissemination: DisseminationStrategy::default(),
            cluster_flush_interval_ms: None,
            cluster_ingress_slots: None,
            cluster_ingress_cost_ns: None,
            plan: EventPlan::new(),
            obs: ObsConfig::default(),
            workers: None,
            shard_window_us: None,
        }
    }

    /// Attaches an observability configuration (tracing/profiling).
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the group size limit.
    pub fn with_group_size_limit(mut self, limit: usize) -> Self {
        self.group_size_limit = limit;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Restricts the run to the first `hours` of the trace.
    pub fn with_horizon_hours(mut self, hours: f64) -> Self {
        self.horizon_hours = Some(hours);
        self
    }

    /// Runs the control plane as a cluster of `n` controllers.
    pub fn with_cluster(mut self, n: usize) -> Self {
        self.cluster_controllers = Some(n);
        self
    }

    /// Replaces the fault-injection plan.
    pub fn with_plan(mut self, plan: EventPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Sets the cluster's peer-sync dissemination strategy.
    pub fn with_dissemination(mut self, strategy: DisseminationStrategy) -> Self {
        self.cluster_dissemination = strategy;
        self
    }

    /// Sets the cluster's replication flush cadence (ms).
    pub fn with_cluster_flush_ms(mut self, interval_ms: u32) -> Self {
        self.cluster_flush_interval_ms = Some(interval_ms);
        self
    }

    /// Replaces the link bandwidth model.
    pub fn with_bandwidth(mut self, bandwidth: BandwidthModel) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Bounds every cluster member's ingress queue at `slots` slots.
    pub fn with_ingress_slots(mut self, slots: usize) -> Self {
        self.cluster_ingress_slots = Some(slots);
        self
    }

    /// Sets the virtual per-message ingress service cost (ns).
    pub fn with_ingress_cost_ns(mut self, cost_ns: u64) -> Self {
        self.cluster_ingress_cost_ns = Some(cost_ns);
        self
    }

    /// Runs the sharded engine with `n` worker threads.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Sets the sharded engine's synchronization window (µs). Values
    /// above the lookahead floor relax cross-partition event timing.
    pub fn with_shard_window_us(mut self, us: u64) -> Self {
        self.shard_window_us = Some(us);
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical values (zero group size, non-positive bucket).
    pub fn validate(&self) {
        assert!(
            self.group_size_limit > 0,
            "group size limit must be positive"
        );
        assert!(self.bucket_hours > 0.0, "bucket width must be positive");
        assert!(self.sync_interval_ms > 0, "sync interval must be positive");
        assert!(
            self.keepalive_interval_ms > 0,
            "keepalive interval must be positive"
        );
        if let Some(n) = self.cluster_controllers {
            assert!(n > 0, "cluster needs at least one controller");
            assert!(
                self.mode.is_lazy(),
                "a controller cluster requires a lazy mode"
            );
        }
        if let Some(ms) = self.cluster_flush_interval_ms {
            assert!(ms > 0, "cluster flush interval must be positive");
        }
        if let Some(slots) = self.cluster_ingress_slots {
            assert!(slots > 0, "ingress queue needs at least one slot");
            assert!(
                self.cluster_controllers.is_some(),
                "bounded ingress queues require a cluster"
            );
        }
        if let Some(cost) = self.cluster_ingress_cost_ns {
            assert!(cost > 0, "ingress cost must be positive");
        }
        if let Some(w) = self.workers {
            assert!(w > 0, "workers must be positive");
        }
        assert!(
            self.workers.is_some() || self.shard_window_us.is_none(),
            "shard_window_us requires the sharded engine (set workers)"
        );
        self.plan.validate();
        if self.cluster_controllers.is_none() {
            assert!(
                !self.plan.requires_cluster(),
                "controller crash/recovery events require a cluster"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_kind() {
        assert_eq!(ControlMode::Baseline.label(), "openflow");
        assert!(!ControlMode::Baseline.is_lazy());
        assert!(ControlMode::LazyStatic.is_lazy());
        assert!(ControlMode::LazyDynamic.is_lazy());
    }

    #[test]
    fn builder_chain() {
        let cfg = ExperimentConfig::new(ControlMode::LazyDynamic)
            .with_group_size_limit(10)
            .with_seed(42)
            .with_horizon_hours(2.0);
        cfg.validate();
        assert_eq!(cfg.group_size_limit, 10);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.horizon_hours, Some(2.0));
    }

    #[test]
    #[should_panic(expected = "group size limit")]
    fn zero_group_size_rejected() {
        ExperimentConfig::new(ControlMode::Baseline)
            .with_group_size_limit(0)
            .validate();
    }

    #[test]
    #[should_panic(expected = "require a cluster")]
    fn controller_events_need_a_cluster() {
        ExperimentConfig::new(ControlMode::LazyStatic)
            .with_plan(EventPlan::new().crash_controller(1.0, 0))
            .validate();
    }

    #[test]
    fn switch_events_do_not_need_a_cluster() {
        ExperimentConfig::new(ControlMode::LazyStatic)
            .with_plan(EventPlan::new().crash_switch(1.0, lazyctrl_net::SwitchId::new(2)))
            .validate();
    }

    #[test]
    #[should_panic(expected = "require a cluster")]
    fn ingress_slots_need_a_cluster() {
        ExperimentConfig::new(ControlMode::LazyStatic)
            .with_ingress_slots(64)
            .validate();
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_ingress_slots_rejected() {
        ExperimentConfig::new(ControlMode::LazyStatic)
            .with_cluster(2)
            .with_ingress_slots(0)
            .validate();
    }

    #[test]
    fn bandwidth_and_ingress_thread_through() {
        use lazyctrl_sim::ChannelClass;
        let cfg = ExperimentConfig::new(ControlMode::LazyStatic)
            .with_cluster(2)
            .with_bandwidth(
                BandwidthModel::unmodeled().with_capacity(ChannelClass::Control, 10_000_000),
            )
            .with_ingress_slots(64)
            .with_ingress_cost_ns(50_000);
        cfg.validate();
        assert!(cfg.bandwidth.class_enabled(ChannelClass::Control));
        assert_eq!(cfg.cluster_ingress_slots, Some(64));
    }

    #[test]
    fn dissemination_defaults_to_flood_and_threads_through() {
        let cfg = ExperimentConfig::new(ControlMode::LazyStatic).with_cluster(2);
        assert_eq!(cfg.cluster_dissemination, DisseminationStrategy::Flood);
        let cfg = cfg.with_dissemination(DisseminationStrategy::Ring);
        cfg.validate();
        assert_eq!(cfg.cluster_dissemination, DisseminationStrategy::Ring);
    }
}
