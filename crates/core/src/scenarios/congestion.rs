//! Control-plane overload scenarios: flow-setup storms against bounded
//! ingress queues, bandwidth-saturated controller uplinks, and elephant
//! replication transfers contending with interactive control traffic.
//!
//! These are the workloads the degradation ladder exists for: shed the
//! *right* class (flow setups first, never heartbeats or elections),
//! signal the sources (ECN-style [`CongestionNotice`]), and keep the
//! cluster's liveness machinery — detection, leases, elections —
//! untouched while the data-plane tail degrades gracefully.
//!
//! [`CongestionNotice`]: lazyctrl_proto::CongestionNoticeMsg

use lazyctrl_proto::EventPlan;
use lazyctrl_sim::{BandwidthModel, ChannelClass};
use lazyctrl_trace::Trace;

use super::cluster::{cluster_config, cluster_testbed};
use super::{testbed_clusters, Scenario, ScenarioVerdict};
use crate::{ExperimentConfig, ExperimentReport};

/// Run length shared by the congestion scenarios (hours).
const HOURS: f64 = 1.5;

/// When the overload window opens (hours) — after bootstrap grouping and
/// an hour of steady state, so pre-storm behaviour is the baseline.
const STORM_AT: f64 = 1.1;

/// Ingress-queue depth for the storm scenario, in admission slots.
const STORM_SLOTS: usize = 4;

/// Virtual per-message admission cost for the storm scenario (200 ms ⇒ a
/// member drains 5 requests/sec; the storm offers several times that).
const STORM_COST_NS: u64 = 200_000_000;

/// Tail bound every congestion verdict enforces (ms). Generous — pacing
/// backs off to at most ~320 ms windows and saturated links drain within
/// the burst window — but finite: an unbounded tail means the ladder
/// failed and flow setups sat in a queue forever.
const TAIL_BOUND_MS: f64 = 60_000.0;

fn delivered_ratio(report: &ExperimentReport) -> f64 {
    if report.flows_started == 0 {
        return 0.0;
    }
    report.delivered_flows as f64 / report.flows_started as f64
}

/// Liveness checks common to all three scenarios: whatever the overload
/// does to flow setups, it must never reach the critical class. No member
/// may be falsely declared dead, no election may double-commit, and no
/// leader may lose its lease — the observable consequences heartbeat or
/// election shedding would have.
fn require_critical_class_untouched(v: &mut ScenarioVerdict, report: &ExperimentReport) {
    let Some(cluster) = report.cluster.as_ref() else {
        v.require(false, "congestion scenarios run on a cluster");
        return;
    };
    v.require(
        cluster.confirmed_dead.is_empty(),
        format!(
            "overload must not starve heartbeats into false death declarations: {:?}",
            cluster.confirmed_dead
        ),
    );
    v.require(
        cluster.double_leader_events == 0,
        format!(
            "overload must not corrupt elections: {} double-leader events",
            cluster.double_leader_events
        ),
    );
    v.require(
        cluster.lease_step_downs.iter().all(|&s| s == 0),
        format!(
            "overload must not cost any leader its lease: {:?}",
            cluster.lease_step_downs
        ),
    );
}

/// Flow-setup storm against bounded prioritized ingress queues: a flash
/// crowd of fresh pairs offers several times the members' drain rate, the
/// leaky-bucket admission sheds the excess `PacketIn`s, congestion
/// notices pace the switches' punts, and the critical class sails
/// through untouched.
pub struct FlowSetupStorm;

impl Scenario for FlowSetupStorm {
    fn name(&self) -> &'static str {
        "flow_setup_storm"
    }

    fn summary(&self) -> &'static str {
        "overload bounded ingress queues with a setup storm; shed setups, signal switches, never touch heartbeats"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let trace = cluster_testbed(testbed_clusters(), HOURS);
        let num_hosts = trace.topology.num_hosts() as u32;
        let cfg = cluster_config(2, seed, HOURS)
            .with_ingress_slots(STORM_SLOTS)
            .with_ingress_cost_ns(STORM_COST_NS);
        // Each wave first migrates half the hosts (invalidating learned
        // locations, so the burst's pairs punt again instead of hitting
        // warm tables), then floods ~300 × hosts arrivals over a minute —
        // an offered setup rate several multiples of the drain rate.
        let batch = (num_hosts / 2).max(2);
        let plan = EventPlan::new()
            .migrate_hosts(STORM_AT - 0.01, batch)
            .traffic_burst(STORM_AT, 300.0)
            .migrate_hosts(STORM_AT + 0.04, batch)
            .traffic_burst(STORM_AT + 0.05, 300.0);
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        require_critical_class_untouched(&mut v, report);
        let Some(cluster) = report.cluster.as_ref() else {
            return v;
        };
        v.require(
            cluster.setups_shed_total() > 0,
            "the storm must overflow the ingress queue and shed flow setups",
        );
        v.require(
            cluster.congestion_signals_total() > 0,
            "shedding must emit congestion notices back to the switches",
        );
        v.require(
            cluster.queue_highwater.iter().any(|&h| h > 0),
            format!(
                "the queue high-water mark must move: {:?}",
                cluster.queue_highwater
            ),
        );
        v.require(
            report.p999_latency_ms < TAIL_BOUND_MS,
            format!(
                "delivered setups must keep a bounded tail: p999 {:.1} ms",
                report.p999_latency_ms
            ),
        );
        v.require(report.delivered_flows > 0, "no traffic delivered");
        v.note(format!(
            "shed {} setups ({} notices, highwater {:?}); p99 {:.1} ms, p999 {:.1} ms",
            cluster.setups_shed_total(),
            cluster.congestion_signals_total(),
            cluster.queue_highwater,
            report.p99_latency_ms,
            report.p999_latency_ms,
        ));
        v
    }
}

/// Controller incast: the control-channel links carry a byte capacity and
/// a flash crowd serializes through them. With *unbounded* ingress queues
/// nothing may ever be shed — contention shows up purely as queueing
/// delay in the tail, and the cluster's liveness machinery rides it out.
pub struct ControllerIncast;

/// Control-class capacity (bytes/sec of virtual time) for the incast
/// scenario: low enough that a punt storm queues behind itself on each
/// uplink, high enough that keep-alives (a few hundred bytes every 10 s)
/// never back up across detection windows.
const INCAST_CONTROL_BPS: u64 = 20_000;

impl Scenario for ControllerIncast {
    fn name(&self) -> &'static str {
        "controller_incast"
    }

    fn summary(&self) -> &'static str {
        "saturate capacitated control links with a punt storm; latency tail grows, nothing is shed"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let trace = cluster_testbed(testbed_clusters(), HOURS);
        let bw =
            BandwidthModel::unmodeled().with_capacity(ChannelClass::Control, INCAST_CONTROL_BPS);
        let cfg = cluster_config(2, seed, HOURS).with_bandwidth(bw);
        let plan = EventPlan::new().traffic_burst(STORM_AT, 150.0);
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        require_critical_class_untouched(&mut v, report);
        let Some(cluster) = report.cluster.as_ref() else {
            return v;
        };
        // No bounded queue is configured, so the shed counters are a
        // structural invariant: bandwidth contention delays, never drops.
        v.require(
            cluster.setups_shed_total() == 0 && cluster.congestion_signals_total() == 0,
            format!(
                "unbounded queues must never shed: {} shed, {} signals",
                cluster.setups_shed_total(),
                cluster.congestion_signals_total()
            ),
        );
        v.require(
            delivered_ratio(report) > 0.7,
            format!(
                "most flows must survive the incast: {}/{}",
                report.delivered_flows, report.flows_started
            ),
        );
        v.require(
            report.p999_latency_ms < TAIL_BOUND_MS,
            format!(
                "the serialization tail must stay bounded: p999 {:.1} ms",
                report.p999_latency_ms
            ),
        );
        v.note(format!(
            "delivered {}/{} flows; mean {:.2} ms, p99 {:.1} ms, p999 {:.1} ms",
            report.delivered_flows,
            report.flows_started,
            report.mean_latency_ms,
            report.p99_latency_ms,
            report.p999_latency_ms,
        ));
        v
    }
}

/// Elephant replication transfers on capacitated controller-peer links:
/// migration waves generate large C-LIB deltas that serialize slowly
/// through the ctrl-peer channel, contending with the heartbeats and
/// elections that share it. Replication must still converge and the
/// liveness machinery must ride out the backlog.
pub struct ElephantPeerSync;

/// Ctrl-peer capacity (bytes/sec): elephant sync bundles take visible
/// wall-clock to serialize, but the backlog stays well under the 3 s
/// detection window so no heartbeat deadline is breached.
const ELEPHANT_CTRL_PEER_BPS: u64 = 50_000;

impl Scenario for ElephantPeerSync {
    fn name(&self) -> &'static str {
        "elephant_peer_sync"
    }

    fn summary(&self) -> &'static str {
        "squeeze elephant sync transfers through thin ctrl-peer links; replication converges, liveness holds"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let trace = cluster_testbed(testbed_clusters(), HOURS);
        let num_hosts = trace.topology.num_hosts() as u32;
        let bw = BandwidthModel::unmodeled()
            .with_capacity(ChannelClass::CtrlPeer, ELEPHANT_CTRL_PEER_BPS)
            .with_capacity(ChannelClass::Peer, ELEPHANT_CTRL_PEER_BPS);
        let cfg = cluster_config(4, seed, HOURS).with_bandwidth(bw);
        // Migration waves churn host locations — exactly the deltas peer
        // sync replicates — with a burst of fresh pairs in between to keep
        // interactive flow setups contending with the elephants.
        let batch = (num_hosts / 4).max(2);
        let plan = EventPlan::new()
            .migrate_hosts(STORM_AT, batch)
            .traffic_burst(STORM_AT + 0.05, 50.0)
            .migrate_hosts(STORM_AT + 0.1, batch)
            .migrate_hosts(STORM_AT + 0.2, batch);
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        require_critical_class_untouched(&mut v, report);
        let Some(cluster) = report.cluster.as_ref() else {
            return v;
        };
        v.require(
            cluster.peer_sync_bytes_total() > 0,
            "the migration waves must generate replication traffic",
        );
        v.require(
            cluster.replica_sizes.iter().all(|&s| s > 0),
            format!(
                "replication must converge through the thin links: {:?}",
                cluster.replica_sizes
            ),
        );
        v.require(
            delivered_ratio(report) > 0.8,
            format!(
                "flow setups must not starve behind the elephants: {}/{}",
                report.delivered_flows, report.flows_started
            ),
        );
        v.require(
            report.p999_latency_ms < TAIL_BOUND_MS,
            format!(
                "the interactive tail must stay bounded: p999 {:.1} ms",
                report.p999_latency_ms
            ),
        );
        v.note(format!(
            "replicated {} bytes over {} msgs; delivered {}/{}; p999 {:.1} ms",
            cluster.peer_sync_bytes_total(),
            cluster.peer_sync_messages_total(),
            report.delivered_flows,
            report.flows_started,
            report.p999_latency_ms,
        ));
        v
    }
}
