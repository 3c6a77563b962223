//! Cluster scenarios: the `lazyctrl-cluster` control plane under crash,
//! recovery, skewed-load churn and replication storms, plus the shared
//! cluster testbeds.

use lazyctrl_cluster::DisseminationStrategy;
use lazyctrl_net::{HostId, SwitchId, TenantId};
use lazyctrl_proto::EventPlan;
use lazyctrl_sim::SimTime;
use lazyctrl_trace::{FlowRecord, NominalParams, Topology, Trace};
use serde::{Deserialize, Serialize};

use super::{testbed_clusters, Scenario, ScenarioVerdict};
use crate::{ControlMode, Experiment, ExperimentConfig, ExperimentReport};

/// When the crash-under-load scenario kills its victim (hours).
const CRASH_AT_HOURS: f64 = 1.4;
/// Crash-under-load run length (hours).
const CRASH_RUN_HOURS: f64 = 2.0;

/// Builds the cluster testbed: `clusters` switch-clusters of 3 switches ×
/// 2 hosts, an hour-0 bootstrap window with strong intra-cluster affinity
/// (so SGI finds one group per cluster), then steady mixed traffic with a
/// continuous supply of *fresh* pairs (fresh pairs punt to the
/// controller, which is the load the cluster shards).
pub(super) fn cluster_testbed(clusters: usize, hours: f64) -> Trace {
    let switches_per_cluster = 3;
    let hosts_per_switch = 2;
    let num_switches = clusters * switches_per_cluster;
    let num_hosts = num_switches * hosts_per_switch;
    let host_switch: Vec<SwitchId> = (0..num_hosts)
        .map(|h| SwitchId::new((h / hosts_per_switch) as u32))
        .collect();
    let host_tenant: Vec<TenantId> = (0..num_hosts)
        .map(|h| TenantId::new(1 + (h / (hosts_per_switch * switches_per_cluster)) as u16 % 8))
        .collect();
    let topology = Topology {
        num_switches,
        host_switch,
        host_tenant,
    };
    let hosts_per_cluster = (hosts_per_switch * switches_per_cluster) as u32;

    let mut flows = Vec::new();
    // Hour 0: intra-cluster affinity for the bootstrap grouping.
    let mut t = 30_000_000_000u64;
    for round in 0..40u64 {
        for c in 0..clusters as u32 {
            let base = c * hosts_per_cluster;
            for i in 0..hosts_per_cluster {
                let a = base + i;
                let b = base + (i + 1 + (round as u32 % 3)) % hosts_per_cluster;
                if a == b {
                    continue;
                }
                flows.push(FlowRecord {
                    time_ns: t,
                    src: HostId::new(a),
                    dst: HostId::new(b),
                    bytes: 200,
                });
                t += 200_000_000;
            }
        }
    }
    // Steady phase: a deterministic mix of intra- and inter-cluster flows.
    // Pair indices advance every round, so fresh pairs (and hence
    // controller work) keep arriving for the whole run.
    let steady_start = SimTime::from_hours(1.0).as_nanos();
    let end_ns = SimTime::from_hours(hours).as_nanos();
    let mut t = steady_start;
    let mut round = 0u64;
    while t < end_ns {
        for c in 0..clusters as u64 {
            let base = (c as u32) * hosts_per_cluster;
            let peer_cluster = ((c + 1 + round / 7) % clusters as u64) as u32;
            let peer_base = peer_cluster * hosts_per_cluster;
            let a = base + ((round * 3 + c) % hosts_per_cluster as u64) as u32;
            let intra_b = base + ((round * 5 + c + 1) % hosts_per_cluster as u64) as u32;
            let inter_b = peer_base + ((round * 7 + c + 2) % hosts_per_cluster as u64) as u32;
            if a != intra_b {
                flows.push(FlowRecord {
                    time_ns: t,
                    src: HostId::new(a),
                    dst: HostId::new(intra_b),
                    bytes: 150,
                });
            }
            t += 100_000_000;
            if peer_cluster != base / hosts_per_cluster {
                flows.push(FlowRecord {
                    time_ns: t,
                    src: HostId::new(a),
                    dst: HostId::new(inter_b),
                    bytes: 150,
                });
            }
            t += 100_000_000;
        }
        round += 1;
    }
    // The last round may overshoot the horizon; keep the invariant
    // `time_ns <= duration_ns`.
    flows.retain(|f| f.time_ns <= end_ns);
    flows.sort_by_key(|f| f.time_ns);
    Trace {
        name: format!("cluster-testbed-{clusters}x{switches_per_cluster}"),
        topology,
        flows,
        duration_ns: end_ns,
        nominal: NominalParams::default(),
    }
}

/// The standard experiment config for cluster-testbed runs.
pub(super) fn cluster_config(controllers: usize, seed: u64, hours: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(ControlMode::LazyStatic)
        .with_group_size_limit(3)
        .with_seed(seed)
        .with_cluster(controllers)
        .with_horizon_hours(hours);
    cfg.record_flow_latencies = true;
    cfg.responses = false;
    cfg.bucket_hours = 0.25;
    cfg.sync_interval_ms = 5_000;
    cfg.keepalive_interval_ms = 10_000;
    cfg
}

/// Like [`cluster_testbed`], but every steady-phase flow *ingresses* in
/// the first half of the switch-clusters — with round-robin group
/// ownership this concentrates the whole control load on a subset of
/// members, the churn the rebalancer must fix.
pub(super) fn skewed_testbed(clusters: usize, hours: f64) -> Trace {
    let mut trace = cluster_testbed(clusters, hours);
    let hosts_per_cluster = 6u32;
    let half = (clusters as u32 / 2).max(1) * hosts_per_cluster;
    let steady_start = SimTime::from_hours(1.0).as_nanos();
    for f in &mut trace.flows {
        if f.time_ns >= steady_start {
            // Fold every source into the first half of the clusters,
            // keeping the destination (and hence inter-shard pressure).
            f.src = HostId::new(f.src.0 % half);
        }
    }
    trace.flows.retain(|f| f.src != f.dst);
    trace.name = format!("cluster-skewed-{clusters}");
    trace
}

/// Like [`skewed_testbed`], but the fold is *asymmetric*: ¾ of the steady
/// ingress lands in cluster 0 and ¼ in cluster 1. Whatever group indices
/// SGI hands the clusters and however round-robin ownership splits them,
/// one controller ends up with more than the skew threshold's share —
/// so the rebalance trigger is independent of the grouping seed.
pub(super) fn asymmetric_skewed_testbed(clusters: usize, hours: f64) -> Trace {
    let mut trace = cluster_testbed(clusters, hours);
    let hosts_per_cluster = 6u32;
    let steady_start = SimTime::from_hours(1.0).as_nanos();
    for f in &mut trace.flows {
        if f.time_ns >= steady_start {
            let fold_cluster = u32::from(f.src.0 % 4 == 3);
            f.src = HostId::new(fold_cluster * hosts_per_cluster + f.src.0 % hosts_per_cluster);
        }
    }
    trace.flows.retain(|f| f.src != f.dst);
    trace.name = format!("cluster-skewed-asym-{clusters}");
    trace
}

/// Results of the controller-crash-under-load scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterCrashReport {
    /// The full run report (cluster section populated).
    pub report: crate::ExperimentReport,
    /// Delivered flows that ingressed at the failed shard, emitted before
    /// the crash.
    pub affected_before: u64,
    /// ... emitted during the outage window (crash → takeover settled).
    pub affected_during_outage: u64,
    /// ... emitted after takeover settled. Must be positive for the
    /// scenario to count as recovered.
    pub affected_after_takeover: u64,
    /// Delivered flows ingressing at *surviving* shards during the outage
    /// window (devolved + sharded control keeps these flowing).
    pub survivor_during_outage: u64,
}

/// Crash-under-load with the full per-shard reachability analysis: a
/// cluster of `controllers` runs the testbed, one non-leader member is
/// killed mid-run, the leader's Table-I detector declares it dead, and
/// its groups fail over to the survivors (C-LIBs seeded from the
/// replicas). Reachability of the failed shard's traffic must return
/// after takeover.
///
/// The registry entry `CrashUnderLoad` runs the same plan with
/// report-level checks; this function additionally splits delivered flows
/// by shard and crash phase, which needs the per-flow latency log.
pub fn controller_crash(controllers: usize, seed: u64) -> ClusterCrashReport {
    assert!(
        controllers >= 2,
        "crash scenario needs at least two controllers"
    );
    // Detection worst case: miss_factor (3) × heartbeat (1 s) + one more
    // heartbeat tick + takeover propagation. 30 s is a generous settle.
    let settled_at = CRASH_AT_HOURS + 30.0 / 3600.0;
    let trace = cluster_testbed(4, CRASH_RUN_HOURS);
    let victim = (controllers - 1) as u32; // never the initial leader
    let cfg = cluster_config(controllers, seed, CRASH_RUN_HOURS)
        .with_plan(EventPlan::new().crash_controller(CRASH_AT_HOURS, victim));

    let topology = trace.topology.clone();
    let run = Experiment::new(trace, cfg).run_detailed();
    let cluster = run
        .report
        .cluster
        .clone()
        .expect("cluster run must produce a cluster report");

    // The failed shard = groups moved by failover takeover.
    let failed_groups: std::collections::HashSet<usize> =
        cluster.failover_groups.iter().copied().collect();
    let crash_ns = SimTime::from_hours(CRASH_AT_HOURS).as_nanos();
    let settled_ns = SimTime::from_hours(settled_at).as_nanos();
    let (mut before, mut outage, mut after, mut survivor_outage) = (0u64, 0u64, 0u64, 0u64);
    for ((src, _dst, emit_ns), _ms) in &run.flow_latencies {
        let ingress = topology.switch_of(HostId::new(*src));
        let group = cluster
            .switch_groups
            .get(ingress.index())
            .copied()
            .flatten();
        let affected = group.map(|g| failed_groups.contains(&g)).unwrap_or(false);
        if affected {
            if *emit_ns < crash_ns {
                before += 1;
            } else if *emit_ns < settled_ns {
                outage += 1;
            } else {
                after += 1;
            }
        } else if (crash_ns..settled_ns).contains(emit_ns) {
            survivor_outage += 1;
        }
    }
    ClusterCrashReport {
        report: run.report,
        affected_before: before,
        affected_during_outage: outage,
        affected_after_takeover: after,
        survivor_during_outage: survivor_outage,
    }
}

/// Results of the shard-rebalance-under-churn scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterRebalanceReport {
    /// The full run report (cluster section populated).
    pub(crate) report: crate::ExperimentReport,
    /// Requests handled per controller.
    pub requests_per_controller: Vec<u64>,
    /// Rebalancing transfers executed.
    pub rebalance_transfers: u64,
}

/// Shard-rebalance-under-churn: all steady-state traffic ingresses at the
/// shard of one controller; the leader's skew check must move group
/// ownership until the load spreads.
pub fn shard_rebalance(seed: u64) -> ClusterRebalanceReport {
    let hours = 1.5;
    let clusters = 4;
    let trace = skewed_testbed(clusters, hours);
    let cfg = cluster_config(2, seed, hours);
    let run = Experiment::new(trace, cfg).run_detailed();
    let cluster = run
        .report
        .cluster
        .clone()
        .expect("cluster run must produce a cluster report");
    ClusterRebalanceReport {
        requests_per_controller: cluster.requests_per_controller.clone(),
        rebalance_transfers: cluster.rebalance_transfers,
        report: run.report,
    }
}

/// Controller-crash-under-load as a registry entry: kill a non-leader
/// member of a two-controller cluster mid-run; the Table-I ring detector
/// must declare it dead and fail its groups over to the survivor.
pub(crate) struct CrashUnderLoad;

impl Scenario for CrashUnderLoad {
    fn name(&self) -> &'static str {
        "crash_under_load"
    }

    fn summary(&self) -> &'static str {
        "kill a cluster member under steady load; detection + failover takeover must follow"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let trace = cluster_testbed(testbed_clusters(), CRASH_RUN_HOURS);
        let cfg = cluster_config(2, seed, CRASH_RUN_HOURS);
        let plan = EventPlan::new().crash_controller(CRASH_AT_HOURS, 1);
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        let Some(cluster) = report.cluster.as_ref() else {
            v.require(false, "cluster run must produce a cluster report");
            return v;
        };
        v.require(
            cluster.confirmed_dead == vec![1],
            format!(
                "victim must be declared dead, got {:?}",
                cluster.confirmed_dead
            ),
        );
        v.require(
            !cluster.takeovers.is_empty() && cluster.failover_transfers > 0,
            "takeover must have moved the dead member's groups",
        );
        v.require(report.delivered_flows > 0, "no traffic delivered");
        v.note(format!(
            "failover moved {} groups in {} transfers; {} flows delivered",
            cluster.failover_groups.len(),
            cluster.failover_transfers,
            report.delivered_flows
        ));
        v
    }
}

/// Crash + recovery: the victim restarts long after the takeover, so
/// detection, takeover and comeback all execute in one run.
pub(crate) struct CrashRecover;

impl Scenario for CrashRecover {
    fn name(&self) -> &'static str {
        "crash_recover"
    }

    fn summary(&self) -> &'static str {
        "crash a cluster member, then restart it; nobody may still believe it dead at end of run"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let hours = 1.6;
        let trace = cluster_testbed(testbed_clusters(), hours);
        let cfg = cluster_config(2, seed, hours);
        // Crash member 1 at 1.1 h; restart it at 1.4 h — long after the
        // takeover, so detection, takeover, and comeback all execute.
        let plan = EventPlan::new()
            .crash_controller(1.1, 1)
            .recover_controller(1.4, 1);
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        let Some(cluster) = report.cluster.as_ref() else {
            v.require(false, "cluster run must produce a cluster report");
            return v;
        };
        v.require(
            cluster.failover_transfers > 0,
            "crash must have triggered a takeover",
        );
        // The restarted member heartbeats again, so by end of run nobody
        // believes it dead (its groups stay with the takeover owner until
        // rebalancing hands them back).
        v.require(
            cluster.confirmed_dead.is_empty(),
            format!(
                "recovered member still believed dead: {:?}",
                cluster.confirmed_dead
            ),
        );
        v.require(report.delivered_flows > 0, "no traffic delivered");
        v.note(format!(
            "takeover transfers: {}, rebalance transfers: {}",
            cluster.failover_transfers, cluster.rebalance_transfers
        ));
        v
    }
}

/// Peer-sync storm: heavy C-LIB churn (host-migration batches plus a
/// traffic burst) on a 4-controller cluster, replicated over a chosen
/// dissemination strategy. The scenario that exercises the relay overlay
/// (bundling, dedup, anti-entropy) under the workload it exists for, and
/// whose report carries the per-member peer-sync accounting the
/// O(n²)→O(n) comparison reads.
pub(crate) struct PeerSyncStorm {
    /// The dissemination strategy under test. The registry entry runs
    /// Ring (the overlay path); tests construct the other variants
    /// directly or override `ExperimentConfig::cluster_dissemination`.
    pub(crate) strategy: DisseminationStrategy,
}

impl Default for PeerSyncStorm {
    fn default() -> Self {
        PeerSyncStorm {
            strategy: DisseminationStrategy::Ring,
        }
    }
}

impl Scenario for PeerSyncStorm {
    fn name(&self) -> &'static str {
        "peer_sync_storm"
    }

    fn summary(&self) -> &'static str {
        "migration + burst churn floods the replication fabric; the overlay must converge at O(n) cost"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let hours = 1.5;
        let trace = cluster_testbed(testbed_clusters(), hours);
        let num_hosts = trace.topology.num_hosts() as u32;
        let cfg = cluster_config(4, seed, hours).with_dissemination(self.strategy);
        // Three migration waves (each wave withdraws and re-learns host
        // locations — exactly the deltas peer sync replicates) and one
        // synthetic burst of fresh pairs between them.
        let batch = (num_hosts / 4).max(2);
        let plan = EventPlan::new()
            .migrate_hosts(1.05, batch)
            .traffic_burst(1.15, 0.5)
            .migrate_hosts(1.25, batch)
            .migrate_hosts(1.35, batch);
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        let Some(cluster) = report.cluster.as_ref() else {
            v.require(false, "cluster run must produce a cluster report");
            return v;
        };
        v.require(
            cluster.dissemination == self.strategy.label(),
            format!(
                "report must carry the configured strategy, got {:?}",
                cluster.dissemination
            ),
        );
        v.require(report.delivered_flows > 0, "no traffic delivered");
        v.require(
            cluster.peer_sync_messages_total() > 0,
            "storm produced no peer-sync traffic at all",
        );
        v.require(
            cluster.replica_sizes.iter().all(|&s| s > 0),
            format!(
                "every member must hold replicated state after the storm: {:?}",
                cluster.replica_sizes
            ),
        );
        let n = cluster.controllers as f64;
        let cost = cluster.messages_per_chunk();
        // Flood pays n−1 messages per chunk; the overlays must amortize
        // strictly below that (the O(n) property, with slack for
        // anti-entropy catch-up traffic).
        if self.strategy != DisseminationStrategy::Flood {
            v.require(
                cost < n - 1.0,
                format!(
                    "overlay fan-out cost {cost:.2} should beat flood's {:.2}",
                    n - 1.0
                ),
            );
        }
        v.note(format!(
            "{}: {} msgs / {} chunks → {:.2} msgs per delta chunk ({} bytes total)",
            cluster.dissemination,
            cluster.peer_sync_messages_total(),
            cluster.peer_sync_chunks.iter().sum::<u64>(),
            cost,
            cluster.peer_sync_bytes_total(),
        ));
        v.note(format!(
            "anti-entropy: {} digests, {} catch-up syncs",
            cluster.anti_entropy_digests.iter().sum::<u64>(),
            cluster.anti_entropy_catchups.iter().sum::<u64>(),
        ));
        v
    }
}

/// Shard-rebalance-under-churn as a registry entry.
pub(crate) struct ShardRebalance;

impl Scenario for ShardRebalance {
    fn name(&self) -> &'static str {
        "shard_rebalance"
    }

    fn summary(&self) -> &'static str {
        "skew all ingress load onto one shard; the leader must move group ownership until it spreads"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let hours = 1.5;
        let trace = asymmetric_skewed_testbed(testbed_clusters(), hours);
        let cfg = cluster_config(2, seed, hours);
        (trace, cfg, EventPlan::new())
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        let Some(cluster) = report.cluster.as_ref() else {
            v.require(false, "cluster run must produce a cluster report");
            return v;
        };
        v.require(
            cluster.rebalance_transfers > 0,
            format!(
                "skewed load must trigger at least one ownership move: {:?}",
                cluster.requests_per_controller
            ),
        );
        v.require(
            cluster.requests_per_controller.iter().all(|&c| c > 0),
            format!(
                "after rebalancing every member must carry load: {:?}",
                cluster.requests_per_controller
            ),
        );
        v.note(format!(
            "{} rebalance transfers, requests/controller {:?}",
            cluster.rebalance_transfers, cluster.requests_per_controller
        ));
        v
    }
}
