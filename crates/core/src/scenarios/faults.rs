//! Fault- and churn-injection scenarios enabled by the `EventPlan`
//! vocabulary: switch failures, degraded control networks, host-migration
//! storms and traffic bursts — all on a single (devolved) controller.

use lazyctrl_net::SwitchId;
use lazyctrl_proto::EventPlan;
use lazyctrl_sim::ChannelClass;
use lazyctrl_trace::Trace;

use super::cluster::cluster_testbed;
use super::{testbed_clusters, Scenario, ScenarioVerdict};
use crate::{ControlMode, ExperimentConfig, ExperimentReport};

/// Single-controller config for the fault scenarios (same knobs as the
/// cluster testbed config, minus the cluster).
fn single_config(seed: u64, hours: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(ControlMode::LazyStatic)
        .with_group_size_limit(3)
        .with_seed(seed)
        .with_horizon_hours(hours);
    cfg.responses = false;
    cfg.bucket_hours = 0.25;
    cfg.sync_interval_ms = 5_000;
    cfg.keepalive_interval_ms = 10_000;
    cfg
}

/// Clusters for the single-controller fault testbeds (half the cluster
/// scenarios' size; these runs don't shard load).
fn fault_clusters() -> usize {
    (testbed_clusters() / 2).max(2)
}

fn delivered_ratio(report: &ExperimentReport) -> f64 {
    if report.flows_started == 0 {
        return 0.0;
    }
    report.delivered_flows as f64 / report.flows_started as f64
}

/// Two switches go dark mid-run; one reboots. The keep-alive wheel's ring
/// neighbours must report the silence, the controller's Table-I inference
/// must take exactly the still-dead switch out of its group, and the
/// §III-E.3 comeback must clear the rebooted one.
pub struct SwitchFailure;

/// The switch that stays dead.
const PERMANENT_VICTIM: u32 = 1;
/// The switch that reboots. Deliberately *ring-adjacent* to the permanent
/// victim (same 3-switch cluster/group): Table-I needs silence reports
/// from both ring directions, so confirming the permanent victim depends
/// on the rebooted neighbour's wheel reporting the stale keep-alive after
/// power-on — the hardest detection path.
const REBOOTING_VICTIM: u32 = 2;

impl Scenario for SwitchFailure {
    fn name(&self) -> &'static str {
        "switch_failure"
    }

    fn summary(&self) -> &'static str {
        "kill two switches, reboot one; wheel detection must flag exactly the still-dead one"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let hours = 1.5;
        let trace = cluster_testbed(fault_clusters(), hours);
        let cfg = single_config(seed, hours);
        let plan = EventPlan::new()
            .crash_switch(1.05, SwitchId::new(PERMANENT_VICTIM))
            .crash_switch(1.05, SwitchId::new(REBOOTING_VICTIM))
            .recover_switch(1.25, SwitchId::new(REBOOTING_VICTIM));
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        v.require(
            report.down_switches.contains(&PERMANENT_VICTIM),
            format!(
                "the dead switch must be inferred down, got {:?}",
                report.down_switches
            ),
        );
        v.require(
            !report.down_switches.contains(&REBOOTING_VICTIM),
            format!(
                "the rebooted switch must have come back, got {:?}",
                report.down_switches
            ),
        );
        // Two of six switches are dark for a third of the run, so a solid
        // chunk of ingress/egress is legitimately unreachable; the bound
        // asserts the *rest* of the fabric never stalls.
        v.require(
            delivered_ratio(report) > 0.55,
            format!(
                "the rest of the fabric must keep delivering: {}/{}",
                report.delivered_flows, report.flows_started
            ),
        );
        v.note(format!(
            "down at end of run: {:?}; delivered {}/{} flows",
            report.down_switches, report.delivered_flows, report.flows_started
        ));
        v
    }
}

/// The control network browns out: control/state latency ×20 plus 5%
/// control-message loss for a quarter hour. Devolved intra-group control
/// must keep the traffic flowing.
pub struct DegradedControlNet;

impl Scenario for DegradedControlNet {
    fn name(&self) -> &'static str {
        "degraded_control_net"
    }

    fn summary(&self) -> &'static str {
        "brown out the control network ×20 latency + 5% loss; devolved control must carry traffic"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let hours = 1.5;
        let trace = cluster_testbed(fault_clusters(), hours);
        let cfg = single_config(seed, hours);
        let plan = EventPlan::new()
            .degrade_links(1.05, ChannelClass::Control, 20.0)
            .degrade_links(1.05, ChannelClass::State, 20.0)
            .link_loss(1.05, ChannelClass::Control, 0.05)
            .degrade_links(1.3, ChannelClass::Control, 0.05)
            .degrade_links(1.3, ChannelClass::State, 0.05)
            .link_loss(1.3, ChannelClass::Control, 0.0);
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        v.require(
            delivered_ratio(report) > 0.9,
            format!(
                "≥90% of flows must survive the brownout: {}/{}",
                report.delivered_flows, report.flows_started
            ),
        );
        v.require(
            report.controller_messages > 0,
            "the controller must still see traffic",
        );
        v.note(format!(
            "delivered {}/{} flows at mean {:.3} ms through the brownout",
            report.delivered_flows, report.flows_started, report.mean_latency_ms
        ));
        v
    }
}

/// VM-migration churn: two batches of hosts move to other switches
/// mid-run, re-announce themselves, and keep communicating. Learning and
/// C-LIB state must converge on the new locations.
pub struct HostMigrationStorm;

impl Scenario for HostMigrationStorm {
    fn name(&self) -> &'static str {
        "host_migration_storm"
    }

    fn summary(&self) -> &'static str {
        "migrate two batches of hosts mid-run; learning must converge on the new locations"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let hours = 1.6;
        let trace = cluster_testbed(fault_clusters(), hours);
        let cfg = single_config(seed, hours);
        let plan = EventPlan::new().migrate_hosts(1.1, 6).migrate_hosts(1.3, 6);
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        v.require(
            delivered_ratio(report) > 0.85,
            format!(
                "≥85% of flows must survive the migration churn: {}/{}",
                report.delivered_flows, report.flows_started
            ),
        );
        v.require(
            report.down_switches.is_empty(),
            format!(
                "migration must not be mistaken for failure: {:?}",
                report.down_switches
            ),
        );
        v.note(format!(
            "delivered {}/{} flows across 12 migrations",
            report.delivered_flows, report.flows_started
        ));
        v
    }
}

/// A flash crowd: a burst of fresh-pair flows lands on top of the steady
/// trace. Every burst flow must be driven (counted as started) and the
/// fabric must absorb it.
pub struct TrafficBurstScenario;

/// Burst size as a multiple of the host count.
const BURST_SCALE: f64 = 2.0;

impl TrafficBurstScenario {
    fn hours() -> f64 {
        1.5
    }

    /// `(trace flows, burst flows)` — the exact arrival counts the run
    /// must produce. The testbed is built once per process and cached
    /// (keyed by the scale-dependent cluster count), so `check` does not
    /// regenerate tens of thousands of `FlowRecord`s per run.
    fn expected_flows() -> (u64, u64) {
        fn count(clusters: usize) -> (u64, u64) {
            let trace = cluster_testbed(clusters, TrafficBurstScenario::hours());
            let burst = (BURST_SCALE * trace.topology.num_hosts() as f64).ceil() as u64;
            (trace.num_flows() as u64, burst)
        }
        static CACHE: std::sync::OnceLock<(usize, (u64, u64))> = std::sync::OnceLock::new();
        let clusters = fault_clusters();
        let &(cached_clusters, counts) = CACHE.get_or_init(|| (clusters, count(clusters)));
        if cached_clusters == clusters {
            counts
        } else {
            count(clusters)
        }
    }
}

impl Scenario for TrafficBurstScenario {
    fn name(&self) -> &'static str {
        "traffic_burst"
    }

    fn summary(&self) -> &'static str {
        "inject a flash crowd of fresh-pair flows; the fabric must absorb every one"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let trace = cluster_testbed(fault_clusters(), Self::hours());
        let cfg = single_config(seed, Self::hours());
        let plan = EventPlan::new().traffic_burst(1.2, BURST_SCALE);
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        let (trace_flows, burst_flows) = Self::expected_flows();
        let expected = trace_flows + burst_flows;
        v.require(
            report.flows_started == expected,
            format!(
                "every trace + burst flow must start: {} vs expected {}",
                report.flows_started, expected
            ),
        );
        v.require(
            delivered_ratio(report) > 0.9,
            format!(
                "≥90% of flows must deliver through the burst: {}/{}",
                report.delivered_flows, report.flows_started
            ),
        );
        v.note(format!(
            "absorbed {} flows ({burst_flows} from the burst window)",
            report.flows_started
        ));
        v
    }
}
