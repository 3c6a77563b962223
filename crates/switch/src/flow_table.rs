//! The OpenFlow-style flow table (exact-priority match, timeouts, stats).
//!
//! Match order is **priority descending, then install order**, and an
//! `Add` never replaces: a rule identical to an installed one is kept as
//! a younger duplicate (DESIGN §7.4). The rules sit in one `Vec` in match
//! order, so an `Add` is an ordered insert — a push, for the lowest
//! priority in the table — and a `lookup` is a scan from the top. The
//! table also keeps a lower bound on its earliest timeout, so a sweep
//! that cannot evict anything returns without reading a rule.

use std::sync::Arc;

use lazyctrl_net::{EtherType, MacAddr, PortNo, TenantId};
use lazyctrl_proto::{Action, FlowMatch, FlowModCommand, FlowModMsg};
use serde::{Deserialize, Serialize};

const NS_PER_S: u64 = 1_000_000_000;

/// One installed rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowRule {
    /// What the rule matches.
    pub flow_match: FlowMatch,
    /// Priority; higher wins, ties broken by older-first.
    pub priority: u16,
    /// Actions applied on match: the installing `FlowMod`'s own list,
    /// shared, not copied.
    pub actions: Arc<[Action]>,
    /// Seconds of idleness before eviction (0 = never).
    pub idle_timeout: u16,
    /// Seconds of lifetime before eviction (0 = never).
    pub hard_timeout: u16,
    /// Controller cookie.
    pub cookie: u64,
    /// Install time (ns).
    pub installed_at_ns: u64,
    /// Last match time (ns).
    pub last_used_ns: u64,
    /// Number of packets matched.
    pub packets: u64,
}

impl FlowRule {
    /// The last instant the rule survives a sweep: it is evicted once
    /// `now > deadline` (`u64::MAX` when it has no timeout).
    fn deadline_ns(&self) -> u64 {
        let after = |since_ns: u64, timeout_s: u16| match timeout_s {
            0 => u64::MAX,
            s => since_ns.saturating_add(s as u64 * NS_PER_S),
        };
        after(self.last_used_ns, self.idle_timeout)
            .min(after(self.installed_at_ns, self.hard_timeout))
    }
}

/// The fields of a packet a rule can match on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketFields {
    /// Ingress port.
    pub in_port: Option<PortNo>,
    /// Source MAC.
    pub dl_src: Option<MacAddr>,
    /// Destination MAC.
    pub dl_dst: Option<MacAddr>,
    /// Tenant VLAN.
    pub dl_vlan: Option<TenantId>,
    /// EtherType.
    pub dl_type: Option<EtherType>,
}

/// An OpenFlow-style flow table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowTable {
    /// Rules in match order.
    rules: Vec<FlowRule>,
    /// No rule can time out at or before this instant. A lower bound, not
    /// the exact minimum: a `lookup` that refreshes a rule only raises the
    /// true value.
    no_expiry_before_ns: u64,
}

impl Default for FlowTable {
    fn default() -> Self {
        FlowTable {
            rules: Vec::new(),
            no_expiry_before_ns: u64::MAX,
        }
    }
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Applies a `FlowMod` from the controller.
    ///
    /// Returns the number of rules affected (inserted, modified or
    /// removed).
    pub fn apply(&mut self, msg: &FlowModMsg, now_ns: u64) -> usize {
        match msg.command {
            FlowModCommand::Add => {
                let rule = FlowRule {
                    flow_match: msg.flow_match,
                    priority: msg.priority,
                    actions: Arc::clone(&msg.actions),
                    idle_timeout: msg.idle_timeout,
                    hard_timeout: msg.hard_timeout,
                    cookie: msg.cookie,
                    installed_at_ns: now_ns,
                    last_used_ns: now_ns,
                    packets: 0,
                };
                self.no_expiry_before_ns = self.no_expiry_before_ns.min(rule.deadline_ns());
                // Behind every rule of the same or a higher priority: the
                // newest rule of a level matches last within it. Searched
                // from the back, where a rule of the table's lowest
                // priority lands at once; any other search is no longer
                // than the shift its insert costs anyway.
                let at = self
                    .rules
                    .iter()
                    .rposition(|r| r.priority >= rule.priority)
                    .map_or(0, |behind| behind + 1);
                self.rules.insert(at, rule);
                1
            }
            FlowModCommand::Modify => {
                let mut n = 0;
                for r in &mut self.rules {
                    if r.flow_match == msg.flow_match {
                        r.actions = Arc::clone(&msg.actions);
                        r.cookie = msg.cookie;
                        n += 1;
                    }
                }
                n
            }
            FlowModCommand::Delete => self.evict(|r| r.flow_match == msg.flow_match),
        }
    }

    /// Removes the rules `dead` selects; returns how many.
    fn evict(&mut self, mut dead: impl FnMut(&FlowRule) -> bool) -> usize {
        let before = self.rules.len();
        self.rules.retain(|r| !dead(r));
        before - self.rules.len()
    }

    /// Finds the highest-priority matching rule, bumping its stats.
    pub fn lookup(&mut self, fields: &PacketFields, now_ns: u64) -> Option<&FlowRule> {
        let rule = self.rules.iter_mut().find(|r| {
            r.flow_match.matches(
                fields.in_port,
                fields.dl_src,
                fields.dl_dst,
                fields.dl_vlan,
                fields.dl_type,
            )
        })?;
        rule.last_used_ns = now_ns;
        rule.packets += 1;
        // Only a clock that ran backwards can pull a deadline below the bound.
        self.no_expiry_before_ns = self.no_expiry_before_ns.min(rule.deadline_ns());
        Some(rule)
    }

    /// Evicts rules past their idle or hard timeout; returns how many.
    ///
    /// A sweep before the earliest possible deadline returns at once.
    pub fn expire(&mut self, now_ns: u64) -> usize {
        if now_ns <= self.no_expiry_before_ns {
            return 0;
        }
        let mut earliest = u64::MAX;
        let removed = self.evict(|r| {
            let deadline = r.deadline_ns();
            if now_ns <= deadline {
                earliest = earliest.min(deadline);
            }
            now_ns > deadline
        });
        self.no_expiry_before_ns = earliest;
        removed
    }

    /// Iterates over installed rules in match order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowRule> {
        self.rules.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_mod(cmd: FlowModCommand, dst: u64, priority: u16, port: u16) -> FlowModMsg {
        FlowModMsg {
            command: cmd,
            flow_match: FlowMatch::to_dst(MacAddr::for_host(dst)),
            priority,
            idle_timeout: 0,
            hard_timeout: 0,
            cookie: 0,
            actions: vec![Action::Output(PortNo::new(port))].into(),
        }
    }

    fn fields_to(dst: u64) -> PacketFields {
        PacketFields {
            dl_dst: Some(MacAddr::for_host(dst)),
            ..PacketFields::default()
        }
    }

    /// Layout tripwire: a switch holds one `FlowRule` per installed rule
    /// (millions per `dynamic_regroup` run), so its inline size is the
    /// per-rule memory cost. The action list is not on top of it: a rule
    /// shares the list of the `FlowMod` that installed it, and a fan-out
    /// builds one list for all its `FlowMod`s.
    #[test]
    fn flow_rule_stays_compact() {
        use std::mem::size_of;
        assert!(
            size_of::<FlowRule>() <= 80,
            "FlowRule grew to {} bytes",
            size_of::<FlowRule>()
        );
    }

    #[test]
    fn add_and_lookup() {
        let mut t = FlowTable::new();
        assert_eq!(t.apply(&flow_mod(FlowModCommand::Add, 1, 10, 3), 0), 1);
        let rule = t.lookup(&fields_to(1), 5).expect("match");
        assert_eq!(*rule.actions, [Action::Output(PortNo::new(3))]);
        assert_eq!(rule.packets, 1);
        assert_eq!(rule.last_used_ns, 5);
        assert!(t.lookup(&fields_to(2), 5).is_none());
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new();
        t.apply(&flow_mod(FlowModCommand::Add, 1, 1, 7), 0);
        t.apply(&flow_mod(FlowModCommand::Add, 1, 100, 9), 0);
        let rule = t.lookup(&fields_to(1), 0).unwrap();
        assert_eq!(*rule.actions, [Action::Output(PortNo::new(9))]);
    }

    #[test]
    fn duplicate_add_keeps_the_older_rule_in_front() {
        let mut t = FlowTable::new();
        t.apply(&flow_mod(FlowModCommand::Add, 1, 10, 3), 0);
        t.apply(&flow_mod(FlowModCommand::Add, 1, 10, 4), 1);
        assert_eq!(t.len(), 2);
        let rule = t.lookup(&fields_to(1), 2).unwrap();
        assert_eq!(*rule.actions, [Action::Output(PortNo::new(3))]);
    }

    #[test]
    fn modify_rewrites_actions() {
        let mut t = FlowTable::new();
        t.apply(&flow_mod(FlowModCommand::Add, 1, 10, 3), 0);
        let n = t.apply(&flow_mod(FlowModCommand::Modify, 1, 10, 42), 1);
        assert_eq!(n, 1);
        let rule = t.lookup(&fields_to(1), 2).unwrap();
        assert_eq!(*rule.actions, [Action::Output(PortNo::new(42))]);
    }

    #[test]
    fn delete_removes_matching() {
        let mut t = FlowTable::new();
        t.apply(&flow_mod(FlowModCommand::Add, 1, 10, 3), 0);
        t.apply(&flow_mod(FlowModCommand::Add, 2, 10, 4), 0);
        assert_eq!(t.apply(&flow_mod(FlowModCommand::Delete, 1, 0, 0), 1), 1);
        assert_eq!(t.len(), 1);
        assert!(t.lookup(&fields_to(1), 2).is_none());
        assert!(t.lookup(&fields_to(2), 2).is_some());
    }

    #[test]
    fn idle_timeout_expires() {
        let mut t = FlowTable::new();
        let mut m = flow_mod(FlowModCommand::Add, 1, 10, 3);
        m.idle_timeout = 2; // seconds
        t.apply(&m, 0);
        // Touch at t=1s; expire check at 2.5s (idle 1.5s) → survives.
        t.lookup(&fields_to(1), 1_000_000_000);
        assert_eq!(t.expire(2_500_000_000), 0);
        // At 3.5s idle is 2.5s > 2s → evicted.
        assert_eq!(t.expire(3_500_000_000), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn hard_timeout_expires_despite_use() {
        let mut t = FlowTable::new();
        let mut m = flow_mod(FlowModCommand::Add, 1, 10, 3);
        m.hard_timeout = 1;
        t.apply(&m, 0);
        t.lookup(&fields_to(1), 900_000_000);
        assert_eq!(t.expire(1_100_000_000), 1);
    }

    #[test]
    fn wildcard_rule_matches_everything() {
        let mut t = FlowTable::new();
        let m = FlowModMsg {
            command: FlowModCommand::Add,
            flow_match: FlowMatch::default(),
            priority: 0,
            idle_timeout: 0,
            hard_timeout: 0,
            cookie: 9,
            actions: vec![Action::Drop].into(),
        };
        t.apply(&m, 0);
        assert!(t.lookup(&fields_to(123), 0).is_some());
        assert!(t.lookup(&PacketFields::default(), 0).is_some());
    }

    #[test]
    fn wildcard_and_exact_rules_interleave_in_match_order() {
        let any = |priority, cookie| FlowModMsg {
            command: FlowModCommand::Add,
            flow_match: FlowMatch::default(),
            priority,
            idle_timeout: 0,
            hard_timeout: 0,
            cookie,
            actions: vec![Action::Drop].into(),
        };
        let mut t = FlowTable::new();
        t.apply(&any(10, 1), 0);
        t.apply(&flow_mod(FlowModCommand::Add, 1, 10, 3), 0);
        // Same priority: the older wildcard rule wins.
        assert_eq!(t.lookup(&fields_to(1), 0).unwrap().cookie, 1);
        t.apply(&flow_mod(FlowModCommand::Add, 1, 11, 4), 0);
        assert_eq!(t.lookup(&fields_to(1), 0).unwrap().priority, 11);
        t.apply(&any(12, 2), 0);
        assert_eq!(t.lookup(&fields_to(1), 0).unwrap().cookie, 2);
        let order: Vec<u16> = t.iter().map(|r| r.priority).collect();
        assert_eq!(order, vec![12, 11, 10, 10]);
    }

    #[test]
    fn a_sweep_that_evicts_nothing_still_finds_the_refreshed_deadline() {
        let mut t = FlowTable::new();
        let mut m = flow_mod(FlowModCommand::Add, 1, 10, 3);
        m.idle_timeout = 2;
        t.apply(&m, 0);
        t.lookup(&fields_to(1), 1_900_000_000);
        // Past the deadline recorded at install, before the refreshed one.
        assert_eq!(t.expire(2_100_000_000), 0);
        assert_eq!(t.expire(3_900_000_000), 0);
        assert_eq!(t.expire(3_900_000_001), 1);
    }

    /// Size tripwire: 50 000 Adds, then lookups across the table. With a
    /// re-sort per Add this is minutes; there is deliberately no timing
    /// assert.
    #[test]
    fn fifty_thousand_rules_add_then_lookup() {
        const N: u64 = 50_000;
        let mut t = FlowTable::new();
        for dst in 0..N {
            t.apply(
                &flow_mod(FlowModCommand::Add, dst, 10, (dst % 48) as u16),
                dst,
            );
        }
        assert_eq!(t.len(), N as usize);
        for dst in (0..N).step_by(499).chain([N - 1]) {
            let rule = t.lookup(&fields_to(dst), N).expect("installed");
            assert_eq!(
                *rule.actions,
                [Action::Output(PortNo::new((dst % 48) as u16))]
            );
        }
        assert!(t.lookup(&fields_to(N), N).is_none());
    }
}
