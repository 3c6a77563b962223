//! Controller-side failure inference and recovery (§III-E, Table I).
//!
//! Switches report keep-alive losses ([`WheelReportMsg`]); within an
//! observation window the controller matches the loss pattern against
//! Table I:
//!
//! | observed losses for Sn                  | inference        |
//! |-----------------------------------------|------------------|
//! | controller→Sn only                      | control link     |
//! | Sn→Sn−1 only (downstream reporter)      | peer link (up)   |
//! | Sn→Sn+1 only (upstream reporter)        | peer link (down) |
//! | both ring directions (+ controller)     | switch Sn dead   |
//!
//! and emits the §III-E.2/E.3 recovery actions.

use std::collections::BTreeMap;

use lazyctrl_net::SwitchId;
use lazyctrl_proto::{WheelLoss, WheelReportMsg};
use serde::{Deserialize, Serialize};

/// What the controller concluded failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureKind {
    /// The control link between the controller and the switch.
    ControlLink(SwitchId),
    /// The peer link towards the switch's upstream ring neighbour.
    PeerLinkUp(SwitchId),
    /// The peer link towards the switch's downstream ring neighbour.
    PeerLinkDown(SwitchId),
    /// The switch itself.
    Switch(SwitchId),
}

/// Recovery steps per §III-E.2 and §III-E.3.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum RecoveryAction {
    /// Ask the upstream neighbour to relay control traffic for a switch
    /// whose control link is down.
    RelayControlVia {
        /// The cut-off switch.
        switch: SwitchId,
        /// Its upstream neighbour, now acting as relay.
        via: SwitchId,
    },
    /// Re-select the designated switch (peer-link failure touching it, or
    /// designated switch death).
    ReselectDesignated {
        /// Group whose designated switch must change.
        group: usize,
        /// The switch stepping down.
        old: SwitchId,
    },
    /// Route data traffic around a failed path.
    DetourRoute {
        /// Affected switch.
        switch: SwitchId,
    },
    /// Announce a temporary outage group-wide, reboot, and poll for
    /// comeback.
    RebootSwitch {
        /// The dead switch.
        switch: SwitchId,
    },
}

/// Aggregates wheel reports within a time window and infers failures.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FailureDetector {
    /// (missing switch) → loss kinds observed, with observation time.
    observations: BTreeMap<SwitchId, BTreeMap<WheelLoss, u64>>,
    /// Window for correlating observations (ns).
    window_ns: u64,
    /// Switches currently believed dead (awaiting comeback).
    down: BTreeMap<SwitchId, u64>,
}

impl FailureDetector {
    /// Creates a detector with a 5-second correlation window.
    pub fn new() -> Self {
        Self::with_window(5_000_000_000)
    }

    /// Creates a detector with an explicit correlation window.
    ///
    /// Losses are only observable at the wheel's detection-deadline
    /// granularity (keep-alive interval × miss threshold), and a
    /// still-silent source is re-reported once per deadline — so a window
    /// of at least two deadlines guarantees that a genuinely dead switch's
    /// two ring directions eventually land in one window, whatever the
    /// reporters' phase offsets (e.g. one of them rebooted mid-outage).
    pub(crate) fn with_window(window_ns: u64) -> Self {
        FailureDetector {
            observations: BTreeMap::new(),
            window_ns,
            down: BTreeMap::new(),
        }
    }

    /// Absorbs one wheel report; returns an inference if the accumulated
    /// pattern is now unambiguous.
    ///
    /// Single-direction losses are reported immediately (rows 1–3 of
    /// Table I); the switch-dead row fires as soon as both ring directions
    /// have been observed within the window.
    pub fn observe(&mut self, now_ns: u64, report: &WheelReportMsg) -> Option<FailureKind> {
        // Already confirmed dead: the wheel re-raises losses once per
        // deadline while the source stays silent, and re-inferring from
        // those (a lone direction would even hit the wrong Table-I row)
        // would re-fire recovery for the whole outage. Comeback clears
        // the entry via `mark_recovered`, re-arming detection.
        if self.down.contains_key(&report.missing) {
            return None;
        }
        let entry = self.observations.entry(report.missing).or_default();
        entry.insert(report.loss, now_ns);
        entry.retain(|_, &mut t| now_ns.saturating_sub(t) <= self.window_ns);

        let has = |l: WheelLoss| entry.contains_key(&l);
        let both_ring = has(WheelLoss::Upstream) && has(WheelLoss::Downstream);
        if both_ring {
            self.observations.remove(&report.missing);
            self.down.insert(report.missing, now_ns);
            return Some(FailureKind::Switch(report.missing));
        }
        // Single observations map to link failures; give the companion
        // observation one report's grace only for the ring directions
        // (they arrive from different reporters). Controller-loss alone is
        // decisive.
        match report.loss {
            WheelLoss::Controller => Some(FailureKind::ControlLink(report.missing)),
            WheelLoss::Upstream => Some(FailureKind::PeerLinkUp(report.missing)),
            WheelLoss::Downstream => Some(FailureKind::PeerLinkDown(report.missing)),
        }
    }

    /// Marks a switch as recovered; returns true if it was down.
    pub fn mark_recovered(&mut self, switch: SwitchId) -> bool {
        self.observations.remove(&switch);
        self.down.remove(&switch).is_some()
    }

    /// Switches currently believed dead.
    pub fn down_switches(&self) -> Vec<SwitchId> {
        self.down.keys().copied().collect()
    }

    /// Deterministic snapshot of the correlation window: every
    /// (missing switch, loss kind, observation time) triple currently
    /// retained. Exposed so state-hashing layers can fold the detector's
    /// pending evidence into a fingerprint.
    pub fn observation_state(&self) -> Vec<(SwitchId, WheelLoss, u64)> {
        self.observations
            .iter()
            .flat_map(|(sw, losses)| losses.iter().map(|(l, t)| (*sw, *l, *t)))
            .collect()
    }

    /// Deterministic snapshot of the believed-down set with the time each
    /// entry latched. Companion to [`observation_state`](Self::observation_state)
    /// for state hashing.
    pub fn down_state(&self) -> Vec<(SwitchId, u64)> {
        self.down.iter().map(|(sw, t)| (*sw, *t)).collect()
    }

    /// The §III-E recovery plan for an inferred failure.
    ///
    /// `ring_prev` is the failed switch's upstream neighbour;
    /// `is_designated` and `group` describe its role.
    pub(crate) fn plan_recovery(
        kind: FailureKind,
        ring_prev: SwitchId,
        is_designated: bool,
        group: usize,
    ) -> Vec<RecoveryAction> {
        match kind {
            FailureKind::ControlLink(s) => vec![RecoveryAction::RelayControlVia {
                switch: s,
                via: ring_prev,
            }],
            FailureKind::PeerLinkUp(s) | FailureKind::PeerLinkDown(s) => {
                let mut plan = vec![RecoveryAction::DetourRoute { switch: s }];
                if is_designated {
                    plan.push(RecoveryAction::ReselectDesignated { group, old: s });
                }
                plan
            }
            FailureKind::Switch(s) => {
                let mut plan = vec![RecoveryAction::RebootSwitch { switch: s }];
                if is_designated {
                    plan.push(RecoveryAction::ReselectDesignated { group, old: s });
                }
                plan
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(missing: u32, loss: WheelLoss, reporter: u32) -> WheelReportMsg {
        WheelReportMsg {
            reporter: SwitchId::new(reporter),
            missing: SwitchId::new(missing),
            loss,
        }
    }

    #[test]
    fn control_link_row() {
        let mut d = FailureDetector::new();
        let k = d.observe(0, &report(5, WheelLoss::Controller, 5));
        assert_eq!(k, Some(FailureKind::ControlLink(SwitchId::new(5))));
    }

    #[test]
    fn peer_link_rows() {
        let mut d = FailureDetector::new();
        assert_eq!(
            d.observe(0, &report(5, WheelLoss::Upstream, 6)),
            Some(FailureKind::PeerLinkUp(SwitchId::new(5)))
        );
        let mut d = FailureDetector::new();
        assert_eq!(
            d.observe(0, &report(5, WheelLoss::Downstream, 4)),
            Some(FailureKind::PeerLinkDown(SwitchId::new(5)))
        );
    }

    #[test]
    fn dead_switch_row_needs_both_ring_directions() {
        let mut d = FailureDetector::new();
        let first = d.observe(0, &report(5, WheelLoss::Upstream, 6));
        assert_eq!(first, Some(FailureKind::PeerLinkUp(SwitchId::new(5))));
        let second = d.observe(1_000_000_000, &report(5, WheelLoss::Downstream, 4));
        assert_eq!(second, Some(FailureKind::Switch(SwitchId::new(5))));
        assert_eq!(d.down_switches(), vec![SwitchId::new(5)]);
    }

    #[test]
    fn stale_observations_age_out() {
        let mut d = FailureDetector::new();
        let _ = d.observe(0, &report(5, WheelLoss::Upstream, 6));
        // 10 s later (beyond the 5 s window) the companion arrives: the old
        // observation no longer corroborates a switch death.
        let k = d.observe(10_000_000_000, &report(5, WheelLoss::Downstream, 4));
        assert_eq!(k, Some(FailureKind::PeerLinkDown(SwitchId::new(5))));
        assert!(d.down_switches().is_empty());
    }

    #[test]
    fn recovery_clears_down_state() {
        let mut d = FailureDetector::new();
        let _ = d.observe(0, &report(5, WheelLoss::Upstream, 6));
        let _ = d.observe(1, &report(5, WheelLoss::Downstream, 4));
        assert!(d.mark_recovered(SwitchId::new(5)));
        assert!(!d.mark_recovered(SwitchId::new(5)));
        assert!(d.down_switches().is_empty());
    }

    #[test]
    fn recovery_plans_match_the_paper() {
        let plan = FailureDetector::plan_recovery(
            FailureKind::ControlLink(SwitchId::new(5)),
            SwitchId::new(4),
            false,
            0,
        );
        assert_eq!(
            plan,
            vec![RecoveryAction::RelayControlVia {
                switch: SwitchId::new(5),
                via: SwitchId::new(4)
            }]
        );

        let plan = FailureDetector::plan_recovery(
            FailureKind::PeerLinkUp(SwitchId::new(5)),
            SwitchId::new(4),
            true,
            3,
        );
        assert!(plan.contains(&RecoveryAction::DetourRoute {
            switch: SwitchId::new(5)
        }));
        assert!(plan.contains(&RecoveryAction::ReselectDesignated {
            group: 3,
            old: SwitchId::new(5)
        }));

        let plan = FailureDetector::plan_recovery(
            FailureKind::Switch(SwitchId::new(5)),
            SwitchId::new(4),
            false,
            0,
        );
        assert_eq!(
            plan,
            vec![RecoveryAction::RebootSwitch {
                switch: SwitchId::new(5)
            }]
        );
    }
}
