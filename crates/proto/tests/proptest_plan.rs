//! Property tests for the fault-injection plan: arbitrary well-formed
//! plans validate and stay sorted by injection time.

use lazyctrl_net::SwitchId;
use lazyctrl_proto::{EventPlan, InjectedEvent};
use lazyctrl_sim::{ChannelClass, SimTime};
use proptest::prelude::*;

fn arb_class() -> impl Strategy<Value = ChannelClass> {
    prop_oneof![
        Just(ChannelClass::Data),
        Just(ChannelClass::Control),
        Just(ChannelClass::State),
        Just(ChannelClass::Peer),
        Just(ChannelClass::CtrlPeer),
    ]
}

fn arb_event() -> impl Strategy<Value = InjectedEvent> {
    prop_oneof![
        any::<u32>().prop_map(InjectedEvent::CrashController),
        any::<u32>().prop_map(InjectedEvent::RecoverController),
        any::<u32>().prop_map(|s| InjectedEvent::CrashSwitch(SwitchId::new(s))),
        any::<u32>().prop_map(|s| InjectedEvent::RecoverSwitch(SwitchId::new(s))),
        (arb_class(), 1u32..10_000).prop_map(|(class, f)| InjectedEvent::LinkDegrade {
            class,
            factor: f as f64 / 100.0,
        }),
        (arb_class(), 0u32..=1000).prop_map(|(class, p)| InjectedEvent::LinkLoss {
            class,
            loss: p as f64 / 1000.0,
        }),
        (1u32..100_000).prop_map(|batch| InjectedEvent::MigrateHosts { batch }),
        (1u32..10_000).prop_map(|s| InjectedEvent::TrafficBurst {
            scale: s as f64 / 100.0,
        }),
        arb_partition_groups().prop_map(|groups| InjectedEvent::PartitionNetwork { groups }),
        Just(InjectedEvent::HealPartition),
    ]
}

/// Disjoint, non-empty partition islands over arbitrary node ids
/// (including controller-pseudo-range ids) — the shape `validate`
/// accepts.
fn arb_partition_groups() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (
        proptest::collection::btree_set(any::<u32>(), 1..12),
        1usize..5,
    )
        .prop_map(|(nodes, want)| {
            let nodes: Vec<u32> = nodes.into_iter().collect();
            let count = want.min(nodes.len());
            let mut groups = vec![Vec::new(); count];
            for (i, node) in nodes.into_iter().enumerate() {
                groups[i % count].push(node);
            }
            groups
        })
}

fn arb_plan() -> impl Strategy<Value = EventPlan> {
    proptest::collection::vec((any::<u32>(), arb_event()), 0..16).prop_map(|events| {
        let mut plan = EventPlan::new();
        for (at_ms, event) in events {
            plan.schedule(SimTime::from_millis(at_ms as u64), event);
        }
        plan
    })
}

proptest! {
    #[test]
    fn plans_stay_sorted(plan in arb_plan()) {
        plan.validate();
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.as_nanos()).collect();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "{:?}", times);
    }
}
