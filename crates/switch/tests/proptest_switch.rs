//! Property tests for the switch substrates: flow-table semantics (also
//! differentially, against the push-and-sort table it replaced) and the
//! Fig. 5 forwarding routine's exhaustiveness.

use lazyctrl_net::{EtherType, EthernetFrame, MacAddr, Packet, PortNo, SwitchId, TenantId};
use lazyctrl_proto::{Action, FlowMatch, FlowModCommand, FlowModMsg};
use lazyctrl_switch::forwarding::{forward_packet, ForwardingDecision};
use lazyctrl_switch::{build_gfib_update, FlowRule, FlowTable, Gfib, Lfib, PacketFields};
use proptest::prelude::*;

/// The flow table as it stood before ordered insert and deadline-gated
/// sweeps: push and stable re-sort on every `Add`, test every rule on
/// every sweep. The real table
/// must agree with it step by step.
#[derive(Default)]
struct PushAndSortTable {
    rules: Vec<FlowRule>,
}

impl PushAndSortTable {
    fn apply(&mut self, msg: &FlowModMsg, now_ns: u64) -> usize {
        match msg.command {
            FlowModCommand::Add => {
                self.rules.push(FlowRule {
                    flow_match: msg.flow_match,
                    priority: msg.priority,
                    actions: msg.actions.clone(),
                    idle_timeout: msg.idle_timeout,
                    hard_timeout: msg.hard_timeout,
                    cookie: msg.cookie,
                    installed_at_ns: now_ns,
                    last_used_ns: now_ns,
                    packets: 0,
                });
                self.rules.sort_by_key(|r| std::cmp::Reverse(r.priority));
                1
            }
            FlowModCommand::Modify => {
                let mut n = 0;
                for r in &mut self.rules {
                    if r.flow_match == msg.flow_match {
                        r.actions = msg.actions.clone();
                        r.cookie = msg.cookie;
                        n += 1;
                    }
                }
                n
            }
            FlowModCommand::Delete => {
                let before = self.rules.len();
                self.rules.retain(|r| r.flow_match != msg.flow_match);
                before - self.rules.len()
            }
        }
    }

    fn lookup(&mut self, f: &PacketFields, now_ns: u64) -> Option<&FlowRule> {
        let r = self.rules.iter_mut().find(|r| {
            r.flow_match
                .matches(f.in_port, f.dl_src, f.dl_dst, f.dl_vlan, f.dl_type)
        })?;
        r.last_used_ns = now_ns;
        r.packets += 1;
        Some(r)
    }

    fn expire(&mut self, now_ns: u64) -> usize {
        let before = self.rules.len();
        self.rules.retain(|r| {
            let idle_dead = r.idle_timeout > 0
                && now_ns.saturating_sub(r.last_used_ns) > r.idle_timeout as u64 * 1_000_000_000;
            let hard_dead = r.hard_timeout > 0
                && now_ns.saturating_sub(r.installed_at_ns) > r.hard_timeout as u64 * 1_000_000_000;
            !(idle_dead || hard_dead)
        });
        before - self.rules.len()
    }
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    (0u64..64).prop_map(MacAddr::for_host)
}

fn arb_flow_mod() -> impl Strategy<Value = FlowModMsg> {
    (
        prop_oneof![
            Just(FlowModCommand::Add),
            Just(FlowModCommand::Modify),
            Just(FlowModCommand::Delete)
        ],
        arb_mac(),
        0u16..200,
        0u16..4,
        prop_oneof![
            Just(vec![Action::Drop]),
            Just(vec![Action::Output(PortNo::new(1))]),
            (0u32..8).prop_map(|s| vec![Action::Encap {
                remote: SwitchId::new(s).underlay_ip(),
                key: 1,
            }]),
        ],
    )
        .prop_map(|(command, dst, priority, idle, actions)| FlowModMsg {
            command,
            flow_match: FlowMatch::to_dst(dst),
            priority,
            idle_timeout: idle,
            hard_timeout: 0,
            cookie: 0,
            actions: actions.into(),
        })
}

/// Few addresses, so rules collide, duplicate and shadow each other.
fn arb_colliding_mac() -> impl Strategy<Value = MacAddr> {
    (0u64..5).prop_map(MacAddr::for_host)
}

fn arb_ethertype() -> impl Strategy<Value = EtherType> {
    prop_oneof![Just(EtherType::IPV4), Just(EtherType::ARP)]
}

/// Mostly the controller's `dl_dst`-only shape; also rules that name more
/// than the destination (and so can miss on a packet to it) and rules
/// that wildcard it.
fn arb_match() -> impl Strategy<Value = FlowMatch> {
    prop_oneof![
        arb_colliding_mac().prop_map(FlowMatch::to_dst),
        arb_colliding_mac().prop_map(FlowMatch::to_dst),
        (arb_colliding_mac(), arb_colliding_mac()).prop_map(|(s, d)| FlowMatch::for_pair(s, d)),
        (arb_colliding_mac(), arb_ethertype()).prop_map(|(d, t)| FlowMatch {
            dl_type: Some(t),
            ..FlowMatch::to_dst(d)
        }),
        Just(FlowMatch::default()),
        arb_ethertype().prop_map(|t| FlowMatch {
            dl_type: Some(t),
            ..FlowMatch::default()
        }),
        (1u16..3).prop_map(|p| FlowMatch {
            in_port: Some(PortNo::new(p)),
            ..FlowMatch::default()
        }),
    ]
}

/// Adds outnumber the rest; mostly three priority levels, so most rules tie
/// with installed ones, now and then any priority; short timeouts.
fn arb_colliding_flow_mod() -> impl Strategy<Value = FlowModMsg> {
    (
        prop_oneof![
            Just(FlowModCommand::Add),
            Just(FlowModCommand::Add),
            Just(FlowModCommand::Add),
            Just(FlowModCommand::Add),
            Just(FlowModCommand::Modify),
            Just(FlowModCommand::Delete),
        ],
        arb_match(),
        prop_oneof![Just(5u16), Just(10), Just(10), Just(20), 0u16..200],
        0u16..3,
        0u16..4,
        0u64..1_000,
        prop_oneof![
            Just(vec![Action::Drop]),
            (1u16..40).prop_map(|p| vec![Action::Output(PortNo::new(p))]),
            (0u32..8).prop_map(|s| vec![Action::Encap {
                remote: SwitchId::new(s).underlay_ip(),
                key: 1,
            }]),
        ],
    )
        .prop_map(
            |(command, flow_match, priority, idle_timeout, hard_timeout, cookie, actions)| {
                FlowModMsg {
                    command,
                    flow_match,
                    priority,
                    idle_timeout,
                    hard_timeout,
                    cookie,
                    actions: actions.into(),
                }
            },
        )
}

fn arb_fields() -> impl Strategy<Value = PacketFields> {
    (
        proptest::option::of(1u16..3),
        proptest::option::of(arb_colliding_mac()),
        proptest::option::of(arb_colliding_mac()),
        proptest::option::of(arb_ethertype()),
    )
        .prop_map(|(in_port, dl_src, dl_dst, dl_type)| PacketFields {
            in_port: in_port.map(PortNo::new),
            dl_src,
            dl_dst,
            dl_vlan: None,
            dl_type,
        })
}

/// One step of a flow table's life.
#[derive(Debug, Clone)]
enum TableOp {
    Mod(FlowModMsg),
    /// A lookup stamped this many ns before "now" (usually 0).
    Lookup(PacketFields, u64),
    Sweep,
    Wait(u64),
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    let late_ns = || prop_oneof![Just(0u64), Just(0), Just(0), 0u64..2_500_000_000];
    prop_oneof![
        arb_colliding_flow_mod().prop_map(TableOp::Mod),
        arb_colliding_flow_mod().prop_map(TableOp::Mod),
        (arb_fields(), late_ns()).prop_map(|(f, late)| TableOp::Lookup(f, late)),
        (arb_fields(), late_ns()).prop_map(|(f, late)| TableOp::Lookup(f, late)),
        Just(TableOp::Sweep),
        (0u64..1_500_000_000).prop_map(TableOp::Wait),
    ]
}

proptest! {
    /// The flow table never returns a rule that doesn't match, always
    /// returns the highest-priority matching rule, and its size accounting
    /// stays consistent under arbitrary FlowMod sequences.
    #[test]
    fn flow_table_respects_priority_and_matching(
        mods in proptest::collection::vec(arb_flow_mod(), 1..40),
        probe in arb_mac(),
    ) {
        let mut table = FlowTable::new();
        for (i, m) in mods.iter().enumerate() {
            table.apply(m, i as u64);
        }
        let fields = PacketFields {
            dl_dst: Some(probe),
            ..PacketFields::default()
        };
        let best_priority = table
            .iter()
            .filter(|r| r.flow_match.matches(None, None, Some(probe), None, None))
            .map(|r| r.priority)
            .max();
        let hit = table.lookup(&fields, 1_000);
        match (hit, best_priority) {
            (Some(rule), Some(p)) => {
                prop_assert!(rule.flow_match.matches(None, None, Some(probe), None, None));
                prop_assert_eq!(rule.priority, p, "must return the top-priority match");
            }
            (None, None) => {}
            (got, want) => {
                prop_assert!(false, "lookup {:?} vs expected priority {:?}", got.map(|r| r.priority), want);
            }
        }
    }

    /// The table and the push-and-sort reference stay indistinguishable
    /// over any interleaving of FlowMods, lookups, sweeps and waits: same
    /// affected counts, same matched rule with the same stats, same number
    /// evicted, and afterwards the same rules in the same match order —
    /// so also the same evicted set.
    #[test]
    fn flow_table_agrees_with_push_and_sort_reference(
        ops in proptest::collection::vec(arb_table_op(), 1..120),
    ) {
        let mut table = FlowTable::new();
        let mut reference = PushAndSortTable::default();
        let mut now_ns = 0u64;
        for op in &ops {
            match op {
                TableOp::Mod(m) => {
                    prop_assert_eq!(table.apply(m, now_ns), reference.apply(m, now_ns));
                }
                TableOp::Lookup(fields, late_ns) => {
                    let at = now_ns.saturating_sub(*late_ns);
                    prop_assert_eq!(table.lookup(fields, at), reference.lookup(fields, at));
                }
                TableOp::Sweep => {
                    prop_assert_eq!(table.expire(now_ns), reference.expire(now_ns));
                }
                TableOp::Wait(ns) => now_ns += ns,
            }
            prop_assert_eq!(table.len(), reference.rules.len());
            prop_assert!(table.iter().eq(reference.rules.iter()), "after {op:?}");
        }
    }

    /// Fig. 5 totality: the routine returns a decision for every packet,
    /// and plain-packet decisions never claim a local port the L-FIB does
    /// not hold.
    #[test]
    fn forwarding_is_total_and_consistent(
        local_hosts in proptest::collection::btree_set(0u64..32, 0..8),
        group_hosts in proptest::collection::btree_set(32u64..64, 0..8),
        dst in 0u64..96,
    ) {
        let mut lfib = Lfib::new();
        for &h in &local_hosts {
            lfib.learn(MacAddr::for_host(h), TenantId::new(1), PortNo::new(h as u16 + 1), 0);
        }
        let mut gfib = Gfib::new();
        if !group_hosts.is_empty() {
            let macs: Vec<MacAddr> = group_hosts.iter().map(|&h| MacAddr::for_host(h)).collect();
            gfib.apply_update(&build_gfib_update(SwitchId::new(7), 1, macs));
        }
        let mut table = FlowTable::new();
        let frame = EthernetFrame::new(
            MacAddr::for_host(999),
            MacAddr::for_host(dst),
            EtherType::IPV4,
            vec![],
        );
        let mut actions_scratch = Vec::new();
        let mut targets_scratch = Vec::new();
        let decision = forward_packet(
            &Packet::Plain(frame),
            PortNo::new(1),
            &mut table,
            &lfib,
            &gfib,
            0,
            &mut actions_scratch,
            &mut targets_scratch,
        );
        match decision {
            ForwardingDecision::DeliverLocal(port) => {
                prop_assert!(local_hosts.contains(&dst), "claimed local for non-local {dst}");
                prop_assert_eq!(port, PortNo::new(dst as u16 + 1));
            }
            ForwardingDecision::EncapTo => {
                prop_assert!(!targets_scratch.is_empty());
                // No false negatives: a real group host must be found.
            }
            ForwardingDecision::PuntToController => {
                // A genuine group host must never be punted (bloom filters
                // have no false negatives).
                prop_assert!(
                    !group_hosts.contains(&dst),
                    "group host {dst} punted despite filter"
                );
                prop_assert!(!local_hosts.contains(&dst));
            }
            other => prop_assert!(false, "unexpected decision {other:?}"),
        }
    }
}
