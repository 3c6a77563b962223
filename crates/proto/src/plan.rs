//! The fault-injection plan: an ordered schedule of events an experiment
//! injects into the simulated data center.
//!
//! The paper's evaluation (§V) is a family of *scenarios* — cold caches,
//! controller failures, regrouping under churn. Instead of growing one
//! config hook per scenario, experiments carry an [`EventPlan`]: a list of
//! [`ScheduledEvent`]s ([`InjectedEvent`] + virtual time) that the driver
//! feeds through its ordinary event queue. The vocabulary covers the
//! control plane (controller crash/recovery), the data plane (switch
//! crash/recovery, per-class link degradation and loss) and the workload
//! (host migration batches, traffic bursts), and composes freely: any
//! subset of events can ride in one plan.
//!
//! Plans are built in code (the builder methods on [`EventPlan`]) and
//! printed with `Display`; a run replays its plan bit-identically because
//! the plan is part of its configuration.

use std::fmt;

use lazyctrl_net::SwitchId;
use lazyctrl_sim::{ChannelClass, SimTime};
use serde::{Deserialize, Serialize};

/// Upper bound on partition islands per event.
pub const MAX_PARTITION_GROUPS: usize = 16;

/// One fault or workload perturbation the driver can inject mid-run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InjectedEvent {
    /// Kill cluster member `id` (cluster runs only): it stops processing
    /// and emitting, its heartbeats cease, and the Table-I detector on the
    /// controller ring eventually declares it dead.
    CrashController(u32),
    /// Restart a previously crashed cluster member (cluster runs only).
    RecoverController(u32),
    /// Power off an edge switch: every link to and from it goes dark. Ring
    /// neighbours notice the silent keep-alives and report it (§III-E).
    CrashSwitch(SwitchId),
    /// Power the switch back on (its links come back; state machines keep
    /// whatever tables they held, as a warm reboot would).
    RecoverSwitch(SwitchId),
    /// Multiply the one-way latency of every link of one channel class by
    /// `factor` (congestion, a degraded management network). Factors
    /// compose; degrading by `f` then `1/f` restores the original.
    LinkDegrade {
        /// The affected channel class.
        class: ChannelClass,
        /// Latency multiplier (> 0; < 1 speeds the class up).
        factor: f64,
    },
    /// Drop each message on links of one channel class independently with
    /// probability `loss` (0 clears a previous override).
    LinkLoss {
        /// The affected channel class.
        class: ChannelClass,
        /// Per-message drop probability in `[0, 1]`.
        loss: f64,
    },
    /// Live-migrate a batch of hosts to different edge switches (VM
    /// migration churn): each moved host re-announces itself from its new
    /// location, and its future flows ingress there.
    MigrateHosts {
        /// How many hosts move.
        batch: u32,
    },
    /// Inject a burst of fresh-pair flows on top of the trace, sized
    /// relative to the host population (`scale` × hosts flow arrivals
    /// spread over a short window).
    TrafficBurst {
        /// Burst size as a multiple of the host count (> 0).
        scale: f64,
    },
    /// Partition the network: nodes listed in *different* groups can no
    /// longer exchange messages (in either direction, on any channel
    /// class); nodes inside the same group, and nodes listed in no group
    /// at all, stay mutually reachable. Group members are simulation node
    /// ids — switch ids, or controller pseudo-switch ids for cluster
    /// members — so one event can sever controller↔controller,
    /// controller↔switch, or both, along different boundaries.
    ///
    /// Injecting a new partition replaces any partition already in force
    /// (the network re-splits; it does not accumulate cuts).
    PartitionNetwork {
        /// The isolated islands, each a list of node ids.
        groups: Vec<Vec<u32>>,
    },
    /// Heal the active network partition: full reachability returns
    /// (modulo crashed nodes and per-class loss, which are orthogonal).
    HealPartition,
}

impl InjectedEvent {
    /// True for events that only make sense on a multi-controller run.
    pub fn requires_cluster(&self) -> bool {
        matches!(
            self,
            InjectedEvent::CrashController(_) | InjectedEvent::RecoverController(_)
        )
    }

    /// Validates event parameters.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or out-of-range parameters.
    pub fn validate(&self) {
        match *self {
            InjectedEvent::PartitionNetwork { ref groups } => {
                assert!(
                    !groups.is_empty() && groups.len() <= MAX_PARTITION_GROUPS,
                    "partition must list 1..={MAX_PARTITION_GROUPS} groups, got {}",
                    groups.len()
                );
                let mut seen = std::collections::BTreeSet::new();
                for g in groups {
                    assert!(!g.is_empty(), "partition group must not be empty");
                    for &node in g {
                        assert!(
                            seen.insert(node),
                            "node {node} appears in more than one partition group"
                        );
                    }
                }
            }
            InjectedEvent::LinkDegrade { factor, .. } => {
                assert!(
                    factor.is_finite() && factor > 0.0,
                    "link degrade factor {factor} must be finite and positive"
                );
            }
            InjectedEvent::LinkLoss { loss, .. } => {
                assert!(
                    loss.is_finite() && (0.0..=1.0).contains(&loss),
                    "link loss {loss} out of [0,1]"
                );
            }
            InjectedEvent::MigrateHosts { batch } => {
                assert!(batch > 0, "migration batch must be positive");
            }
            InjectedEvent::TrafficBurst { scale } => {
                assert!(
                    scale.is_finite() && scale > 0.0,
                    "burst scale {scale} must be finite and positive"
                );
            }
            InjectedEvent::CrashController(_)
            | InjectedEvent::RecoverController(_)
            | InjectedEvent::CrashSwitch(_)
            | InjectedEvent::RecoverSwitch(_)
            | InjectedEvent::HealPartition => {}
        }
    }
}

impl fmt::Display for InjectedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            InjectedEvent::CrashController(id) => write!(f, "crash controller {id}"),
            InjectedEvent::RecoverController(id) => write!(f, "recover controller {id}"),
            InjectedEvent::CrashSwitch(s) => write!(f, "crash switch {s}"),
            InjectedEvent::RecoverSwitch(s) => write!(f, "recover switch {s}"),
            InjectedEvent::LinkDegrade { class, factor } => {
                write!(f, "degrade {class:?} links ×{factor}")
            }
            InjectedEvent::LinkLoss { class, loss } => {
                write!(f, "set {class:?} link loss to {loss}")
            }
            InjectedEvent::MigrateHosts { batch } => write!(f, "migrate {batch} hosts"),
            InjectedEvent::TrafficBurst { scale } => write!(f, "traffic burst ×{scale} hosts"),
            InjectedEvent::PartitionNetwork { ref groups } => {
                write!(f, "partition network into {} island(s):", groups.len())?;
                for g in groups {
                    write!(f, " [{} node(s)]", g.len())?;
                }
                Ok(())
            }
            InjectedEvent::HealPartition => write!(f, "heal network partition"),
        }
    }
}

/// One event with its injection time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledEvent {
    /// Virtual time of injection.
    pub at: SimTime,
    /// What happens.
    pub event: InjectedEvent,
}

impl fmt::Display for ScheduledEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}h  {}", self.at.as_hours_f64(), self.event)
    }
}

/// An ordered schedule of [`ScheduledEvent`]s.
///
/// Events are kept sorted by injection time; events at equal times keep
/// their insertion order (the same tie-break rule as the simulation's
/// event queue, so a plan replays deterministically).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EventPlan {
    events: Vec<ScheduledEvent>,
}

impl EventPlan {
    /// An empty plan (the default: nothing is injected).
    pub fn new() -> Self {
        EventPlan::default()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The schedule, sorted by time.
    pub fn events(&self) -> &[ScheduledEvent] {
        &self.events
    }

    /// Schedules `event` at `at`, keeping the plan sorted (stable: equal
    /// times preserve insertion order).
    pub fn schedule(&mut self, at: SimTime, event: InjectedEvent) {
        let idx = self.events.partition_point(|e| e.at <= at);
        self.events.insert(idx, ScheduledEvent { at, event });
    }

    /// Builder form of [`EventPlan::schedule`] taking hours of virtual
    /// time (the unit scenarios are written in).
    pub fn at_hours(mut self, hours: f64, event: InjectedEvent) -> Self {
        self.schedule(SimTime::from_hours(hours), event);
        self
    }

    /// Schedules a controller crash at `hours`.
    pub fn crash_controller(self, hours: f64, id: u32) -> Self {
        self.at_hours(hours, InjectedEvent::CrashController(id))
    }

    /// Schedules a controller restart at `hours`.
    pub fn recover_controller(self, hours: f64, id: u32) -> Self {
        self.at_hours(hours, InjectedEvent::RecoverController(id))
    }

    /// Schedules a switch crash at `hours`.
    pub fn crash_switch(self, hours: f64, switch: SwitchId) -> Self {
        self.at_hours(hours, InjectedEvent::CrashSwitch(switch))
    }

    /// Schedules a switch restart at `hours`.
    pub fn recover_switch(self, hours: f64, switch: SwitchId) -> Self {
        self.at_hours(hours, InjectedEvent::RecoverSwitch(switch))
    }

    /// Schedules a latency degradation of one channel class at `hours`.
    pub fn degrade_links(self, hours: f64, class: ChannelClass, factor: f64) -> Self {
        self.at_hours(hours, InjectedEvent::LinkDegrade { class, factor })
    }

    /// Schedules a loss-probability override for one channel class at
    /// `hours`.
    pub fn link_loss(self, hours: f64, class: ChannelClass, loss: f64) -> Self {
        self.at_hours(hours, InjectedEvent::LinkLoss { class, loss })
    }

    /// Schedules a host-migration batch at `hours`.
    pub fn migrate_hosts(self, hours: f64, batch: u32) -> Self {
        self.at_hours(hours, InjectedEvent::MigrateHosts { batch })
    }

    /// Schedules a traffic burst at `hours`.
    pub fn traffic_burst(self, hours: f64, scale: f64) -> Self {
        self.at_hours(hours, InjectedEvent::TrafficBurst { scale })
    }

    /// Schedules a network partition into the given islands at `hours`
    /// (see [`InjectedEvent::PartitionNetwork`] for the semantics).
    pub fn partition_network(self, hours: f64, groups: Vec<Vec<u32>>) -> Self {
        self.at_hours(hours, InjectedEvent::PartitionNetwork { groups })
    }

    /// Schedules the heal of the active partition at `hours`.
    pub fn heal_partition(self, hours: f64) -> Self {
        self.at_hours(hours, InjectedEvent::HealPartition)
    }

    /// True if any scheduled event requires a controller cluster.
    pub fn requires_cluster(&self) -> bool {
        self.events.iter().any(|e| e.event.requires_cluster())
    }

    /// Validates every event's parameters.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range event parameters.
    pub fn validate(&self) {
        for e in &self.events {
            e.event.validate();
        }
        debug_assert!(
            self.events.windows(2).all(|w| w[0].at <= w[1].at),
            "plan must stay sorted by construction"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_stays_sorted_with_stable_ties() {
        let plan = EventPlan::new()
            .crash_controller(1.4, 1)
            .migrate_hosts(0.5, 8)
            .recover_controller(1.4, 1)
            .traffic_burst(2.0, 3.0);
        let times: Vec<f64> = plan.events().iter().map(|e| e.at.as_hours_f64()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "{times:?}");
        // The two t=1.4h events keep insertion order: crash before recover.
        assert_eq!(
            plan.events()[1].event,
            InjectedEvent::CrashController(1),
            "{:?}",
            plan.events()
        );
        assert_eq!(plan.events()[2].event, InjectedEvent::RecoverController(1));
    }

    #[test]
    fn requires_cluster_only_for_controller_events() {
        assert!(EventPlan::new().crash_controller(1.0, 0).requires_cluster());
        assert!(!EventPlan::new()
            .crash_switch(1.0, SwitchId::new(3))
            .migrate_hosts(2.0, 4)
            .requires_cluster());
        assert!(EventPlan::new().is_empty());
        assert!(!EventPlan::new().requires_cluster());
    }

    #[test]
    fn partition_validates_and_displays() {
        let plan = EventPlan::new()
            .partition_network(0.5, vec![vec![7], vec![8, 9]])
            .heal_partition(0.9);
        plan.validate();
        assert!(!plan.requires_cluster());
        let shown = plan.events()[0].to_string();
        assert!(
            shown.contains("partition network into 2 island(s)"),
            "{shown}"
        );
    }

    #[test]
    #[should_panic(expected = "more than one partition group")]
    fn validate_rejects_overlapping_partition_groups() {
        EventPlan::new()
            .partition_network(0.5, vec![vec![1, 2], vec![2, 3]])
            .validate();
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn validate_rejects_empty_partition_group() {
        EventPlan::new()
            .partition_network(0.5, vec![vec![1], vec![]])
            .validate();
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn validate_rejects_bad_loss() {
        EventPlan::new()
            .link_loss(0.1, ChannelClass::Data, 1.5)
            .validate();
    }

    #[test]
    #[should_panic(expected = "must be finite and positive")]
    fn validate_rejects_bad_factor() {
        EventPlan::new()
            .degrade_links(0.1, ChannelClass::Data, 0.0)
            .validate();
    }

    #[test]
    fn display_is_informative() {
        let plan = EventPlan::new().crash_controller(1.4, 1);
        let s = plan.events()[0].to_string();
        assert!(
            s.contains("1.400") && s.contains("crash controller 1"),
            "{s}"
        );
    }
}
