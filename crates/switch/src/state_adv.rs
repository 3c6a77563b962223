//! The state advertisement module (§IV-A): collects local host information
//! and traffic statistics for dissemination inside the group and reporting
//! up the state link.

use std::collections::BTreeMap;

use lazyctrl_net::{GroupId, SwitchId};
use lazyctrl_proto::{StateReportMsg, SwitchStats};
use serde::{Deserialize, Serialize};

/// Accumulates one switch's traffic observations between sync rounds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct StateAdvertiser {
    origin: SwitchId,
    /// New flows observed towards each destination edge switch in the
    /// current window (the raw material of the intensity matrix).
    new_flows: BTreeMap<SwitchId, u64>,
    local_hits: u64,
    group_hits: u64,
    controller_punts: u64,
    window_start_ns: u64,
}

impl StateAdvertiser {
    /// Creates an empty accumulator for `origin`.
    pub(crate) fn new(origin: SwitchId) -> Self {
        StateAdvertiser {
            origin,
            new_flows: BTreeMap::new(),
            local_hits: 0,
            group_hits: 0,
            controller_punts: 0,
            window_start_ns: 0,
        }
    }

    /// Records a fresh flow headed to a (resolved) destination switch.
    pub(crate) fn record_flow_to(&mut self, dst: SwitchId) {
        *self.new_flows.entry(dst).or_insert(0) += 1;
    }

    /// Records an L-FIB hit (packet stayed local).
    pub(crate) fn record_local_hit(&mut self) {
        self.local_hits += 1;
    }

    /// Records a G-FIB hit (packet tunnelled inside the group).
    pub(crate) fn record_group_hit(&mut self) {
        self.group_hits += 1;
    }

    /// Records a punt to the controller.
    pub(crate) fn record_punt(&mut self) {
        self.controller_punts += 1;
    }

    /// Current counters (without resetting).
    pub(crate) fn stats(&self, window_end_ns: u64) -> SwitchStats {
        let secs = (window_end_ns.saturating_sub(self.window_start_ns)) as f64 / 1e9;
        let flows: u64 = self.new_flows.values().sum();
        SwitchStats {
            new_flows_per_sec: if secs > 0.0 { flows as f64 / secs } else { 0.0 },
            local_hits: self.local_hits,
            group_hits: self.group_hits,
            controller_punts: self.controller_punts,
        }
    }

    /// Produces this switch's per-window report (sent to the designated
    /// switch over the peer link) and resets the window.
    pub(crate) fn take_report(
        &mut self,
        group: GroupId,
        epoch: u32,
        now_ns: u64,
    ) -> StateReportMsg {
        let secs = ((now_ns.saturating_sub(self.window_start_ns)) as f64 / 1e9).max(1e-9);
        let intensity: Vec<(SwitchId, SwitchId, f64)> = self
            .new_flows
            .iter()
            .map(|(&dst, &n)| (self.origin, dst, n as f64 / secs))
            .collect();
        let stats = vec![(self.origin, self.stats(now_ns))];
        self.new_flows.clear();
        self.local_hits = 0;
        self.group_hits = 0;
        self.controller_punts = 0;
        self.window_start_ns = now_ns;
        StateReportMsg {
            group,
            epoch,
            intensity,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_reports() {
        let mut adv = StateAdvertiser::new(SwitchId::new(3));
        for _ in 0..10 {
            adv.record_flow_to(SwitchId::new(7));
        }
        adv.record_flow_to(SwitchId::new(8));
        adv.record_local_hit();
        adv.record_group_hit();
        adv.record_group_hit();
        adv.record_punt();

        let report = adv.take_report(GroupId::new(1), 2, 2_000_000_000); // 2 s window
        assert_eq!(report.group, GroupId::new(1));
        assert_eq!(report.epoch, 2);
        assert_eq!(report.intensity.len(), 2);
        let to7 = report
            .intensity
            .iter()
            .find(|(_, d, _)| *d == SwitchId::new(7))
            .unwrap();
        assert!((to7.2 - 5.0).abs() < 1e-9, "10 flows / 2 s = 5 fps");
        let (_, stats) = report.stats[0];
        assert!((stats.new_flows_per_sec - 5.5).abs() < 1e-9);
        assert_eq!(stats.local_hits, 1);
        assert_eq!(stats.group_hits, 2);
        assert_eq!(stats.controller_punts, 1);
    }

    #[test]
    fn report_resets_window() {
        let mut adv = StateAdvertiser::new(SwitchId::new(1));
        adv.record_flow_to(SwitchId::new(2));
        let _ = adv.take_report(GroupId::new(0), 1, 1_000_000_000);
        let second = adv.take_report(GroupId::new(0), 1, 2_000_000_000);
        assert!(second.intensity.is_empty());
        assert_eq!(second.stats[0].1.local_hits, 0);
    }

    #[test]
    fn zero_window_is_safe() {
        let mut adv = StateAdvertiser::new(SwitchId::new(1));
        adv.record_flow_to(SwitchId::new(2));
        let r = adv.take_report(GroupId::new(0), 1, 0);
        assert!(r.intensity[0].2.is_finite());
    }
}
