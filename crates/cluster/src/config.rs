//! Cluster configuration.

use lazyctrl_controller::LazyConfig;
use serde::{Deserialize, Serialize};

use crate::plane::{ELECTION_TIMEOUT_MS, LEADER_LEASE_MS};
use crate::DisseminationStrategy;

/// Configuration of a controller cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of controllers in the cluster.
    pub num_controllers: usize,
    /// How C-LIB deltas reach the other members (flood or ring — see
    /// [`DisseminationStrategy`]).
    pub dissemination: DisseminationStrategy,
    /// Per-member inner controller configuration. `dynamic_updates` is
    /// forced off: in a cluster, load is balanced by moving *group
    /// ownership* between controllers, not by regrouping switches — this
    /// keeps every member's grouping state identical, which is what makes
    /// group ownership a well-defined unit of transfer.
    pub lazy: LazyConfig,
    /// How often each member flushes its C-LIB deltas to its peers (ms).
    pub replica_flush_interval_ms: u32,
    /// Controller-ring heartbeat interval (ms).
    pub heartbeat_interval_ms: u32,
    /// A ring neighbour is reported missing after this many silent
    /// heartbeat intervals.
    pub heartbeat_miss_factor: u32,
    /// How often each member sends an anti-entropy digest to one rotating
    /// peer (ms). The catch-up path for members that missed relayed deltas
    /// (crashed mid-circulation, recovered after takeover, late-joining).
    pub anti_entropy_interval_ms: u32,
    /// Flush rounds of its own deltas each member retains for exact
    /// anti-entropy replay. A peer further behind than this receives a
    /// full-shard snapshot instead.
    pub delta_log_flushes: usize,
    /// Bounded-ingress queue depth per member, in slots. `0` (the
    /// default) disables the bound entirely: every switch message is
    /// admitted and no overload state is tracked, preserving bit-exact
    /// reports for pre-existing scenarios. When positive, each admitted
    /// message charges [`ingress_cost_ns`](Self::ingress_cost_ns) to a
    /// leaky bucket that drains in real (virtual) time; work is shed by
    /// priority class once the bucket crosses its class threshold —
    /// flow setups first (at `slots`), lookups next (at `1.5 × slots`),
    /// ownership/sync after (at `2 × slots`). Heartbeats, elections and
    /// liveness reports are never shed.
    pub ingress_queue_slots: usize,
    /// Virtual service time charged per admitted switch message (ns)
    /// when the ingress queue is bounded. `slots × cost` is the bucket
    /// capacity in nanoseconds — the backlog a member tolerates before
    /// shedding its lowest class.
    pub ingress_cost_ns: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_controllers: 2,
            dissemination: DisseminationStrategy::default(),
            lazy: LazyConfig::default(),
            replica_flush_interval_ms: 1_000,
            heartbeat_interval_ms: 1_000,
            heartbeat_miss_factor: 3,
            anti_entropy_interval_ms: 5_000,
            delta_log_flushes: 64,
            ingress_queue_slots: 0,
            ingress_cost_ns: 20_000,
        }
    }
}

impl ClusterConfig {
    /// A cluster of `n` controllers with otherwise default parameters.
    pub fn with_controllers(n: usize) -> Self {
        ClusterConfig {
            num_controllers: n,
            ..ClusterConfig::default()
        }
    }

    /// The heartbeat interval in nanoseconds.
    pub fn heartbeat_interval_ns(&self) -> u64 {
        u64::from(self.heartbeat_interval_ms) * 1_000_000
    }

    /// How long (ns) a ring neighbour may stay silent before it is
    /// reported missing: `heartbeat_miss_factor` heartbeat intervals.
    /// Switch-side re-homing waits the same deadline.
    pub fn failure_deadline_ns(&self) -> u64 {
        u64::from(self.heartbeat_miss_factor) * self.heartbeat_interval_ns()
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical values.
    pub fn validate(&self) {
        assert!(
            self.num_controllers > 0,
            "cluster needs at least one controller"
        );
        assert!(
            self.replica_flush_interval_ms > 0,
            "flush interval must be positive"
        );
        assert!(
            self.heartbeat_interval_ms > 0,
            "heartbeat interval must be positive"
        );
        assert!(
            self.heartbeat_miss_factor > 0,
            "miss factor must be positive"
        );
        assert!(
            self.anti_entropy_interval_ms > 0,
            "anti-entropy interval must be positive"
        );
        assert!(
            self.delta_log_flushes > 0,
            "delta log must retain at least one flush"
        );
        assert!(
            ELECTION_TIMEOUT_MS > self.heartbeat_interval_ms,
            "election timeout must exceed the heartbeat interval"
        );
        assert!(
            LEADER_LEASE_MS > self.heartbeat_interval_ms,
            "leader lease must exceed the heartbeat interval"
        );
        if self.ingress_queue_slots > 0 {
            assert!(
                self.ingress_cost_ns > 0,
                "ingress cost must be positive when the ingress queue is bounded"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        ClusterConfig::default().validate();
        ClusterConfig::with_controllers(4).validate();
        assert_eq!(
            ClusterConfig::default().dissemination,
            DisseminationStrategy::Flood,
            "flood stays the default for drop-in compatibility"
        );
    }

    #[test]
    fn all_strategies_validate() {
        for strategy in [DisseminationStrategy::Flood, DisseminationStrategy::Ring] {
            let c = ClusterConfig {
                dissemination: strategy,
                ..ClusterConfig::default()
            };
            c.validate();
        }
    }

    #[test]
    #[should_panic(expected = "anti-entropy interval")]
    fn zero_anti_entropy_rejected() {
        let c = ClusterConfig {
            anti_entropy_interval_ms: 0,
            ..ClusterConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one controller")]
    fn zero_controllers_rejected() {
        ClusterConfig::with_controllers(0).validate();
    }

    #[test]
    #[should_panic(expected = "leader lease")]
    fn short_leader_lease_rejected() {
        let c = ClusterConfig {
            heartbeat_interval_ms: LEADER_LEASE_MS,
            ..ClusterConfig::default()
        };
        c.validate();
    }

    #[test]
    fn unbounded_ingress_skips_ingress_checks() {
        // slots == 0 disables the queue; the cost may then be zero
        // without tripping validation.
        let c = ClusterConfig {
            ingress_queue_slots: 0,
            ingress_cost_ns: 0,
            ..ClusterConfig::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "ingress cost")]
    fn zero_ingress_cost_rejected_when_bounded() {
        let c = ClusterConfig {
            ingress_queue_slots: 64,
            ingress_cost_ns: 0,
            ..ClusterConfig::default()
        };
        c.validate();
    }
}
