//! The designated switch role (§III-B.2): aggregate group-wide state from
//! members and report it to the controller asynchronously over the state
//! link; relay dissemination messages to the group over peer links.

use std::collections::BTreeMap;

use lazyctrl_net::{GroupId, SwitchId};
use lazyctrl_proto::{GfibUpdateMsg, StateReportMsg, SwitchStats};
use serde::{Deserialize, Serialize};

/// State held while a switch serves as its group's designated switch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DesignatedRole {
    group: GroupId,
    members: Vec<SwitchId>,
    me: SwitchId,
    /// Latest per-member intensity samples, keyed by (src, dst).
    intensity: BTreeMap<(SwitchId, SwitchId), f64>,
    /// Latest per-member counters.
    stats: BTreeMap<SwitchId, SwitchStats>,
}

impl DesignatedRole {
    /// Assumes the role for `group` with the given membership.
    pub(crate) fn new(group: GroupId, me: SwitchId, members: Vec<SwitchId>) -> Self {
        DesignatedRole {
            group,
            members,
            me,
            intensity: BTreeMap::new(),
            stats: BTreeMap::new(),
        }
    }

    /// Absorbs a member's windowed report (or the designated switch's own).
    pub(crate) fn absorb_report(&mut self, report: &StateReportMsg) {
        for &(a, b, w) in &report.intensity {
            self.intensity.insert((a, b), w);
        }
        for &(s, st) in &report.stats {
            self.stats.insert(s, st);
        }
    }

    /// Fan-out targets for relaying a message from `origin` to the rest of
    /// the group ("multiple unicast messages" in lieu of multicast,
    /// §III-B.3).
    pub(crate) fn relay_targets(&self, origin: SwitchId) -> Vec<SwitchId> {
        self.members
            .iter()
            .copied()
            .filter(|&s| s != origin && s != self.me)
            .collect()
    }

    /// Builds the aggregated report for the controller and clears the
    /// accumulation (state link, asynchronous).
    pub(crate) fn make_controller_report(&mut self, epoch: u32) -> StateReportMsg {
        let intensity: Vec<(SwitchId, SwitchId, f64)> = self
            .intensity
            .iter()
            .map(|(&(a, b), &w)| (a, b, w))
            .collect();
        let stats: Vec<(SwitchId, SwitchStats)> =
            self.stats.iter().map(|(&s, &st)| (s, st)).collect();
        self.intensity.clear();
        self.stats.clear();
        StateReportMsg {
            group: self.group,
            epoch,
            intensity,
            stats,
        }
    }

    /// True when nothing has been absorbed since the last controller
    /// report.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.intensity.is_empty() && self.stats.is_empty()
    }
}

/// Validates that a relayed G-FIB update targets this group's epoch
/// space.
pub(crate) fn gfib_is_relevant(msg: &GfibUpdateMsg, current_epoch: u32) -> bool {
    msg.epoch <= current_epoch
}

#[cfg(test)]
mod tests {
    use super::*;

    fn role() -> DesignatedRole {
        DesignatedRole::new(
            GroupId::new(2),
            SwitchId::new(10),
            vec![SwitchId::new(10), SwitchId::new(11), SwitchId::new(12)],
        )
    }

    fn member_report(src: u32, dst: u32, fps: f64) -> StateReportMsg {
        StateReportMsg {
            group: GroupId::new(2),
            epoch: 1,
            intensity: vec![(SwitchId::new(src), SwitchId::new(dst), fps)],
            stats: vec![(
                SwitchId::new(src),
                SwitchStats {
                    new_flows_per_sec: fps,
                    local_hits: 1,
                    group_hits: 2,
                    controller_punts: 0,
                },
            )],
        }
    }

    #[test]
    fn aggregates_member_reports() {
        let mut r = role();
        r.absorb_report(&member_report(11, 12, 4.0));
        r.absorb_report(&member_report(12, 11, 6.0));
        assert!(!r.is_quiescent());
        let agg = r.make_controller_report(3);
        assert_eq!(agg.group, GroupId::new(2));
        assert_eq!(agg.epoch, 3);
        assert_eq!(agg.intensity.len(), 2);
        assert_eq!(agg.stats.len(), 2);
        assert!(r.is_quiescent(), "aggregation must reset");
    }

    #[test]
    fn newer_samples_replace_older() {
        let mut r = role();
        r.absorb_report(&member_report(11, 12, 4.0));
        r.absorb_report(&member_report(11, 12, 9.0));
        let agg = r.make_controller_report(1);
        assert_eq!(
            agg.intensity,
            vec![(SwitchId::new(11), SwitchId::new(12), 9.0)]
        );
    }

    #[test]
    fn relay_excludes_origin_and_self() {
        let r = role();
        assert_eq!(r.relay_targets(SwitchId::new(11)), vec![SwitchId::new(12)]);
        assert_eq!(
            r.relay_targets(SwitchId::new(99)),
            vec![SwitchId::new(11), SwitchId::new(12)]
        );
    }

    #[test]
    fn relevance_checks() {
        let g = GfibUpdateMsg {
            origin: SwitchId::new(1),
            epoch: 5,
            num_hashes: 4,
            m_bits: 64,
            entries: 0,
            bits: vec![0; 8],
        };
        assert!(gfib_is_relevant(&g, 5));
        assert!(!gfib_is_relevant(&g, 4));
    }
}
