//! The failure-detection wheel participant (§III-E.1).
//!
//! At setup the controller orders the group's switches into a logical ring
//! ("wheel") with itself at the hub. Keep-alives flow from each switch to
//! both ring neighbours and from the controller to every switch; the
//! pattern of *missing* keep-alives identifies the failure (Table I):
//!
//! | failure          | Sn→Sn−1 lost | Sn→Sn+1 lost | Controller→Sn lost |
//! |------------------|--------------|--------------|--------------------|
//! | control link     |              |              | ✓                  |
//! | peer link (up)   | ✓            |              |                    |
//! | peer link (down) |              | ✓            |                    |
//! | switch Sn        | ✓            | ✓            | ✓                  |
//!
//! This module implements the switch-side participant: emit keep-alives,
//! track silence, and report losses. The controller-side inference lives
//! in `lazyctrl-controller`.

use lazyctrl_net::SwitchId;
use lazyctrl_proto::{KeepAliveMsg, WheelLoss, WheelReportMsg};
use serde::{Deserialize, Serialize};

/// What the participant wants sent on a tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WheelAction {
    /// Send a keep-alive to a ring neighbour over the peer link.
    SendKeepAlive {
        /// The neighbour to probe.
        to: SwitchId,
        /// The message body.
        msg: KeepAliveMsg,
    },
    /// Report a loss observation to the controller over the control link.
    Report(WheelReportMsg),
    /// The controller's keep-alives stopped: the control link (or the
    /// controller) is unreachable, so route the report via the upstream
    /// ring neighbour (§III-E.2).
    ReportViaPeer {
        /// The relay neighbour.
        via: SwitchId,
        /// The report to relay.
        msg: WheelReportMsg,
    },
}

/// The switch-side wheel participant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WheelPosition {
    me: SwitchId,
    prev: SwitchId,
    next: SwitchId,
    interval_ns: u64,
    /// Miss this many intervals before declaring a loss.
    miss_threshold: u32,
    seq: u64,
    last_from_prev_ns: u64,
    last_from_next_ns: u64,
    last_from_controller_ns: u64,
    /// When each loss was last reported (`None` = source healthy).
    /// Repeats are suppressed for one detection deadline, then the loss
    /// is re-raised: a still-silent source keeps being reported, so the
    /// controller's correlation window can match reports from both ring
    /// directions even when the reporters went silent (or rebooted) at
    /// different times.
    reported_prev_at_ns: Option<u64>,
    reported_next_at_ns: Option<u64>,
    reported_controller_at_ns: Option<u64>,
}

impl WheelPosition {
    /// Joins the wheel between `prev` and `next` with the given keep-alive
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero.
    pub fn new(
        me: SwitchId,
        prev: SwitchId,
        next: SwitchId,
        interval_ns: u64,
        now_ns: u64,
    ) -> Self {
        assert!(interval_ns > 0, "keep-alive interval must be positive");
        WheelPosition {
            me,
            prev,
            next,
            interval_ns,
            miss_threshold: lazyctrl_proto::WHEEL_MISS_THRESHOLD,
            seq: 0,
            last_from_prev_ns: now_ns,
            last_from_next_ns: now_ns,
            last_from_controller_ns: now_ns,
            reported_prev_at_ns: None,
            reported_next_at_ns: None,
            reported_controller_at_ns: None,
        }
    }

    /// Records a keep-alive heard from a ring neighbour.
    pub fn on_peer_keepalive(&mut self, from: SwitchId, now_ns: u64) {
        if from == self.prev {
            self.last_from_prev_ns = now_ns;
            self.reported_prev_at_ns = None;
        }
        if from == self.next {
            self.last_from_next_ns = now_ns;
            self.reported_next_at_ns = None;
        }
    }

    /// Records a keep-alive heard from the controller.
    pub fn on_controller_keepalive(&mut self, now_ns: u64) {
        self.last_from_controller_ns = now_ns;
        self.reported_controller_at_ns = None;
    }

    /// One keep-alive tick: emit probes to both neighbours and report any
    /// sources that have gone silent past the miss threshold. Actions are
    /// handed to the visitor in emission order — the tick fires once per
    /// interval on *every* switch, so this path must not allocate.
    pub(crate) fn tick_each(&mut self, now_ns: u64, mut f: impl FnMut(WheelAction)) {
        self.seq += 1;
        f(WheelAction::SendKeepAlive {
            to: self.prev,
            msg: KeepAliveMsg {
                from: self.me,
                seq: self.seq,
            },
        });
        f(WheelAction::SendKeepAlive {
            to: self.next,
            msg: KeepAliveMsg {
                from: self.me,
                seq: self.seq,
            },
        });
        let deadline = self.interval_ns.saturating_mul(self.miss_threshold as u64);
        let due = |last_heard: u64, reported_at: Option<u64>| {
            now_ns.saturating_sub(last_heard) > deadline
                && reported_at.is_none_or(|r| now_ns.saturating_sub(r) > deadline)
        };
        if due(self.last_from_prev_ns, self.reported_prev_at_ns) {
            self.reported_prev_at_ns = Some(now_ns);
            f(WheelAction::Report(WheelReportMsg {
                reporter: self.me,
                missing: self.prev,
                loss: WheelLoss::Upstream,
            }));
        }
        if due(self.last_from_next_ns, self.reported_next_at_ns) {
            self.reported_next_at_ns = Some(now_ns);
            f(WheelAction::Report(WheelReportMsg {
                reporter: self.me,
                missing: self.next,
                loss: WheelLoss::Downstream,
            }));
        }
        if due(self.last_from_controller_ns, self.reported_controller_at_ns) {
            self.reported_controller_at_ns = Some(now_ns);
            // Control link presumed dead: relay via the upstream neighbour.
            f(WheelAction::ReportViaPeer {
                via: self.prev,
                msg: WheelReportMsg {
                    reporter: self.me,
                    missing: self.me,
                    loss: WheelLoss::Controller,
                },
            });
        }
    }

    /// `WheelPosition::tick_each`, collected (test/inspection
    /// convenience).
    pub fn tick(&mut self, now_ns: u64) -> Vec<WheelAction> {
        let mut out = Vec::new();
        self.tick_each(now_ns, |a| out.push(a));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IVL: u64 = 1_000_000_000; // 1 s

    fn wheel() -> WheelPosition {
        WheelPosition::new(SwitchId::new(5), SwitchId::new(4), SwitchId::new(6), IVL, 0)
    }

    fn keepalives(actions: &[WheelAction]) -> Vec<SwitchId> {
        actions
            .iter()
            .filter_map(|a| match a {
                WheelAction::SendKeepAlive { to, .. } => Some(*to),
                _ => None,
            })
            .collect()
    }

    fn reports(actions: &[WheelAction]) -> Vec<(SwitchId, WheelLoss)> {
        actions
            .iter()
            .filter_map(|a| match a {
                WheelAction::Report(m) => Some((m.missing, m.loss)),
                WheelAction::ReportViaPeer { msg, .. } => Some((msg.missing, msg.loss)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn healthy_ticks_probe_both_neighbours() {
        let mut w = wheel();
        for i in 1..=3u64 {
            let now = i * IVL;
            w.on_peer_keepalive(SwitchId::new(4), now);
            w.on_peer_keepalive(SwitchId::new(6), now);
            w.on_controller_keepalive(now);
            let actions = w.tick(now);
            assert_eq!(
                keepalives(&actions),
                vec![SwitchId::new(4), SwitchId::new(6)]
            );
            assert!(reports(&actions).is_empty(), "no losses when healthy");
        }
    }

    #[test]
    fn silent_upstream_is_reported_once_per_deadline() {
        let mut w = wheel();
        // Only downstream and controller stay alive.
        let mut reported = Vec::new();
        for i in 1..=6u64 {
            let now = i * IVL;
            w.on_peer_keepalive(SwitchId::new(6), now);
            w.on_controller_keepalive(now);
            reported.extend(reports(&w.tick(now)));
        }
        // One report within the first deadline window (no per-tick spam).
        assert_eq!(reported, vec![(SwitchId::new(4), WheelLoss::Upstream)]);
    }

    #[test]
    fn still_silent_source_is_re_reported_each_deadline() {
        let mut w = wheel();
        let mut reported = Vec::new();
        for i in 1..=16u64 {
            let now = i * IVL;
            w.on_peer_keepalive(SwitchId::new(6), now);
            w.on_controller_keepalive(now);
            reported.extend(reports(&w.tick(now)));
        }
        // 16 s of silence at a 3 s deadline: the loss is re-raised every
        // deadline (t=4, 8, 12, 16), so a controller whose correlation
        // window missed the first report still converges.
        assert_eq!(
            reported,
            vec![(SwitchId::new(4), WheelLoss::Upstream); 4],
            "{reported:?}"
        );
        // Recovery clears the cadence: next silence starts a fresh cycle.
        w.on_peer_keepalive(SwitchId::new(4), 17 * IVL);
        assert!(reports(&w.tick(18 * IVL)).is_empty());
    }

    #[test]
    fn controller_silence_relays_via_prev() {
        let mut w = wheel();
        let mut via = None;
        for i in 1..=6u64 {
            let now = i * IVL;
            w.on_peer_keepalive(SwitchId::new(4), now);
            w.on_peer_keepalive(SwitchId::new(6), now);
            for a in w.tick(now) {
                if let WheelAction::ReportViaPeer { via: v, msg } = a {
                    via = Some((v, msg));
                }
            }
        }
        let (v, msg) = via.expect("controller silence must be reported");
        assert_eq!(v, SwitchId::new(4), "relayed via upstream neighbour");
        assert_eq!(msg.loss, WheelLoss::Controller);
        assert_eq!(
            msg.missing,
            SwitchId::new(5),
            "the switch itself is cut off"
        );
    }

    #[test]
    fn recovery_rearms_reporting() {
        let mut w = wheel();
        let mut all = Vec::new();
        for i in 1..=5u64 {
            let now = i * IVL;
            w.on_peer_keepalive(SwitchId::new(6), now);
            w.on_controller_keepalive(now);
            all.extend(reports(&w.tick(now)));
        }
        assert_eq!(all.len(), 1, "one report while down");
        // Upstream comes back, then dies again: a fresh report fires.
        w.on_peer_keepalive(SwitchId::new(4), 6 * IVL);
        for i in 7..=12u64 {
            let now = i * IVL;
            w.on_peer_keepalive(SwitchId::new(6), now);
            w.on_controller_keepalive(now);
            all.extend(reports(&w.tick(now)));
        }
        assert_eq!(all.len(), 2, "recovery must rearm the detector");
    }

    #[test]
    fn dead_switch_pattern_from_both_sides() {
        // Neighbours of a dead switch each observe a loss; together with
        // the controller's own probe loss this is Table I's last row.
        let mut left =
            WheelPosition::new(SwitchId::new(4), SwitchId::new(3), SwitchId::new(5), IVL, 0);
        let mut right =
            WheelPosition::new(SwitchId::new(6), SwitchId::new(5), SwitchId::new(7), IVL, 0);
        let mut seen = Vec::new();
        for i in 1..=5u64 {
            let now = i * IVL;
            for w in [&mut left, &mut right] {
                w.on_controller_keepalive(now);
            }
            left.on_peer_keepalive(SwitchId::new(3), now);
            right.on_peer_keepalive(SwitchId::new(7), now);
            seen.extend(reports(&left.tick(now)));
            seen.extend(reports(&right.tick(now)));
        }
        assert!(seen.contains(&(SwitchId::new(5), WheelLoss::Downstream)));
        assert!(seen.contains(&(SwitchId::new(5), WheelLoss::Upstream)));
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut w = wheel();
        let a1 = w.tick(IVL);
        let a2 = w.tick(2 * IVL);
        let seq = |a: &[WheelAction]| match &a[0] {
            WheelAction::SendKeepAlive { msg, .. } => msg.seq,
            _ => panic!("expected keepalive"),
        };
        assert_eq!(seq(&a1) + 1, seq(&a2));
    }
}
