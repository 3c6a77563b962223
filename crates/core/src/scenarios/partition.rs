//! Network-partition scenarios: the cluster under split fabrics.
//!
//! Four members of one family, each a different cut of the reachability
//! graph (see `InjectedEvent::PartitionNetwork` for the island
//! semantics — listed groups are mutually severed, unlisted nodes reach
//! everyone):
//!
//! * [`PartitionSplit`] — a clean split: a majority island (two members
//!   plus half the switches) and a minority island (one member plus the
//!   rest). Exercises the whole degradation ladder at once: majority
//!   takeover, minority read-only demotion, switch re-homing, and
//!   post-heal convergence.
//! * [`PartitionCtrlIsland`] — the *leader* is cut off from its peers on
//!   the controller ring only (switches still reach everyone). The
//!   leader-lease guard must demote it before its detector can confirm
//!   cross-partition "deaths", and the majority must elect a successor
//!   without ever producing two leaders in one term.
//! * [`PartitionSwitchOrphan`] — one switch-cluster loses every
//!   controller while the control plane itself stays whole. No failover
//!   may fire (no controller is unreachable from any *member*), and the
//!   orphans' traffic must resume after the heal.
//! * [`PartitionFlapping`] — the controller-island cut applied and
//!   healed repeatedly. The protocols must absorb the flapping without
//!   split-brain or a permanently-latched death.
//!
//! Every verdict leans on the plane's cross-member election-safety
//! monitor (`double_leader_events`) — the "no two leaders share a term"
//! acceptance condition — plus `confirmed_dead` emptiness at end of run
//! as the post-heal convergence bound (heartbeats clear a latched death
//! within one interval once reachability returns, well inside the
//! post-heal tail every plan leaves).

use lazyctrl_cluster::ctrl_pseudo_switch;
use lazyctrl_proto::EventPlan;
use lazyctrl_trace::Trace;

use super::cluster::{cluster_config, cluster_testbed};
use super::{testbed_clusters, Scenario, ScenarioVerdict};
use crate::{ExperimentConfig, ExperimentReport};

/// When the single-cut scenarios partition the fabric (hours).
const PARTITION_AT_HOURS: f64 = 1.2;
/// When the single-cut scenarios heal it (hours).
const HEAL_AT_HOURS: f64 = 1.45;
/// Single-cut run length (hours) — leaves a long post-heal tail so
/// convergence is judged settled, not in flight.
const RUN_HOURS: f64 = 2.0;

/// The controller-ring pseudo-node id of member `m` (the id partition
/// groups use to cut controllers).
fn ctrl(m: u32) -> u32 {
    ctrl_pseudo_switch(m).0
}

/// Switch ids of testbed switch-clusters `range` (3 switches each).
fn switches_of_clusters(range: std::ops::Range<usize>) -> Vec<u32> {
    (range.start * 3..range.end * 3).map(|s| s as u32).collect()
}

/// Shared verdict core: the safety invariants every partition scenario
/// must uphold regardless of which cut it applies.
fn require_partition_invariants(v: &mut ScenarioVerdict, report: &ExperimentReport) {
    let Some(cluster) = report.cluster.as_ref() else {
        v.require(false, "cluster run must produce a cluster report");
        return;
    };
    v.require(
        cluster.double_leader_events == 0,
        format!(
            "two members led the same term {} time(s) — split-brain",
            cluster.double_leader_events
        ),
    );
    v.require(
        cluster.confirmed_dead.is_empty(),
        format!(
            "members still believed dead after the heal: {:?}",
            cluster.confirmed_dead
        ),
    );
    v.require(report.delivered_flows > 0, "no traffic delivered");
}

/// Clean split: majority island {members 0,1 + first half of the
/// switches}, minority island {member 2 + the rest}.
pub(crate) struct PartitionSplit;

impl Scenario for PartitionSplit {
    fn name(&self) -> &'static str {
        "partition_split"
    }

    fn summary(&self) -> &'static str {
        "split fabric into majority/minority islands; takeover, re-homing and heal must all land"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let clusters = testbed_clusters();
        let trace = cluster_testbed(clusters, RUN_HOURS);
        let cfg = cluster_config(3, seed, RUN_HOURS);
        let half = clusters / 2;
        let mut majority = switches_of_clusters(0..half);
        majority.extend([ctrl(0), ctrl(1)]);
        let mut minority = switches_of_clusters(half..clusters);
        minority.push(ctrl(2));
        let plan = EventPlan::new()
            .partition_network(PARTITION_AT_HOURS, vec![majority, minority])
            .heal_partition(HEAL_AT_HOURS);
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        require_partition_invariants(&mut v, report);
        let Some(cluster) = report.cluster.as_ref() else {
            return v;
        };
        // The majority side must have confirmed the minority member dead
        // and moved its groups — partition tolerance is not "freeze until
        // heal". (It un-deads above once heartbeats resume.)
        v.require(
            cluster.failover_transfers > 0,
            "majority never took over the minority member's groups",
        );
        v.require(
            cluster.requests_per_controller.iter().all(|&r| r > 0),
            format!(
                "every member should have handled traffic: {:?}",
                cluster.requests_per_controller
            ),
        );
        v.note(format!(
            "failover transfers {}, retransmits {:?}, lease step-downs {:?}",
            cluster.failover_transfers, cluster.transfer_retransmits, cluster.lease_step_downs
        ));
        v
    }
}

/// The leader alone on one side of a controller-ring-only cut.
pub(crate) struct PartitionCtrlIsland;

impl Scenario for PartitionCtrlIsland {
    fn name(&self) -> &'static str {
        "partition_ctrl_island"
    }

    fn summary(&self) -> &'static str {
        "isolate the leader on the controller ring; the lease must demote it before any takeover"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let trace = cluster_testbed(testbed_clusters(), RUN_HOURS);
        let cfg = cluster_config(3, seed, RUN_HOURS);
        // Member 0 leads from bootstrap; cut it from its peers only —
        // switches stay connected to everyone (ctrl-to-ctrl cut).
        let plan = EventPlan::new()
            .partition_network(
                PARTITION_AT_HOURS,
                vec![vec![ctrl(0)], vec![ctrl(1), ctrl(2)]],
            )
            .heal_partition(HEAL_AT_HOURS);
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        require_partition_invariants(&mut v, report);
        let Some(cluster) = report.cluster.as_ref() else {
            return v;
        };
        v.require(
            cluster.lease_step_downs.first().copied().unwrap_or(0) > 0,
            format!(
                "the isolated leader never demoted itself: step-downs {:?}",
                cluster.lease_step_downs
            ),
        );
        v.note(format!(
            "lease step-downs {:?}, transfer retransmits {:?}, lookup timeouts {:?}",
            cluster.lease_step_downs, cluster.transfer_retransmits, cluster.lookup_timeouts
        ));
        v
    }
}

/// One switch-cluster cut from every controller; the control plane
/// itself stays whole.
pub(crate) struct PartitionSwitchOrphan;

impl Scenario for PartitionSwitchOrphan {
    fn name(&self) -> &'static str {
        "partition_switch_orphan"
    }

    fn summary(&self) -> &'static str {
        "orphan one switch-cluster from all controllers; no failover may fire, traffic resumes on heal"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let trace = cluster_testbed(testbed_clusters(), RUN_HOURS);
        let cfg = cluster_config(2, seed, RUN_HOURS);
        let orphans = switches_of_clusters(0..1);
        let plan = EventPlan::new()
            .partition_network(PARTITION_AT_HOURS, vec![orphans, vec![ctrl(0), ctrl(1)]])
            .heal_partition(HEAL_AT_HOURS);
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        require_partition_invariants(&mut v, report);
        let Some(cluster) = report.cluster.as_ref() else {
            return v;
        };
        // The members never lost each other: a switch-side cut must not
        // look like a member failure to the cluster layer.
        v.require(
            cluster.failover_transfers == 0 && cluster.takeovers.is_empty(),
            format!(
                "switch orphaning must not trigger member failover ({} transfers, {:?})",
                cluster.failover_transfers, cluster.takeovers
            ),
        );
        v.require(
            cluster.lease_step_downs.iter().all(|&s| s == 0),
            format!(
                "no member lost its lease — the ring was whole: {:?}",
                cluster.lease_step_downs
            ),
        );
        v.note(format!(
            "requests/controller {:?}",
            cluster.requests_per_controller
        ));
        v
    }
}

/// The controller-island cut applied and healed in rapid cycles.
pub(crate) struct PartitionFlapping;

impl Scenario for PartitionFlapping {
    fn name(&self) -> &'static str {
        "partition_flapping"
    }

    fn summary(&self) -> &'static str {
        "flap a controller-ring cut on and off; no split-brain, no latched death may survive"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let trace = cluster_testbed(testbed_clusters(), RUN_HOURS);
        let cfg = cluster_config(3, seed, RUN_HOURS);
        // Four 90 s flap cycles (45 s cut, 45 s healed), long enough per
        // phase for detection and lease machinery to engage each time.
        let mut plan = EventPlan::new();
        for cycle in 0..4u32 {
            let at = 1.1 + f64::from(cycle) * 0.025;
            plan = plan
                .partition_network(at, vec![vec![ctrl(0)], vec![ctrl(1), ctrl(2)]])
                .heal_partition(at + 0.0125);
        }
        (trace, cfg, plan)
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        require_partition_invariants(&mut v, report);
        let Some(cluster) = report.cluster.as_ref() else {
            return v;
        };
        v.note(format!(
            "lease step-downs {:?} across 4 flap cycles; retransmits {:?}",
            cluster.lease_step_downs, cluster.transfer_retransmits
        ));
        v
    }
}
