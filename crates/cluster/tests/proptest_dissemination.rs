//! Property tests for the dissemination invariants: for random cluster
//! sizes, strategies, crash/recover schedules and delta loads —
//!
//! * every live member converges to the same replicated C-LIB view,
//! * no delta chunk is applied twice off the relay overlay,
//! * ring message cost stays O(n) per flush round.

mod common;

use common::{test_config, MiniNet};
use lazyctrl_cluster::{DisseminationStrategy, MemberCounter, StepModel};
use lazyctrl_net::{MacAddr, PortNo, SwitchId, TenantId};
use lazyctrl_proto::HostEntry;
use proptest::prelude::*;

const SEC: u64 = 1_000_000_000;
/// Load ticks driven per case.
const TICKS: u64 = 6;
/// Drain ticks after the load stops (a full ring circumference at the
/// largest cluster size, plus slack).
const DRAIN: u64 = 8;

fn entry_for(origin: u32, tick: u64) -> HostEntry {
    HostEntry {
        mac: MacAddr::for_host(10_000 * origin as u64 + tick),
        switch: SwitchId::new(origin * 3),
        port: PortNo::new(1),
        tenant: TenantId::new(1),
    }
}

fn arb_strategy() -> impl Strategy<Value = DisseminationStrategy> {
    prop_oneof![
        Just(DisseminationStrategy::Flood),
        Just(DisseminationStrategy::Ring),
    ]
}

/// A randomized cluster run: `n` members under `strategy`, every member
/// learning one host per tick, with `crashed` members dark between ticks
/// 1 and 4 (recovered afterwards, anti-entropy healing the holes).
fn run_case(n: u32, strategy: DisseminationStrategy, crashed: Vec<u32>, withdraw: bool) -> MiniNet {
    let mut cfg = test_config(n as usize);
    cfg.dissemination = strategy;
    // Crash-free cases must converge from the overlay alone; crashy ones
    // get anti-entropy at a 3 s cadence.
    cfg.anti_entropy_interval_ms = if crashed.is_empty() { 600_000 } else { 3_000 };
    let mut net = MiniNet::new(n as usize, cfg);
    net.run_for(SEC);
    for tick in 0..TICKS {
        if tick == 1 {
            for &c in &crashed {
                net.plane.step_crash(c);
            }
        }
        if tick == 4 {
            for &c in &crashed {
                net.recover(c);
            }
        }
        for origin in 0..n {
            if crashed.contains(&origin) && (1..4).contains(&tick) {
                continue; // a dark member learns nothing
            }
            net.plane
                .enqueue_delta(origin, vec![entry_for(origin, tick)], vec![]);
        }
        net.run_for(SEC);
    }
    if withdraw {
        // Withdraw the very first host — convergence must cover removals.
        net.plane
            .enqueue_delta(0, vec![], vec![(MacAddr::for_host(0), SwitchId::new(0))]);
    }
    net.run_for(DRAIN * SEC);
    if !crashed.is_empty() {
        // Let the anti-entropy rotation visit enough peers to heal every
        // hole the outage punched.
        net.run_for(12 * (n as u64) * SEC);
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every live member ends with the same view of every foreign host,
    /// under every strategy, crash schedules included.
    #[test]
    fn live_members_converge(
        n in 2u32..=6,
        strategy in arb_strategy(),
        crash_mask in proptest::collection::btree_set(0u32..6, 0..=2),
        withdraw in any::<bool>(),
    ) {
        let crashed: Vec<u32> = crash_mask.into_iter().filter(|&c| c < n).collect();
        // Keep a quorum alive so a leader always exists during the outage.
        prop_assume!((crashed.len() as u32) < n);
        let net = run_case(n, strategy, crashed.clone(), withdraw);
        for member in 0..n {
            for origin in 0..n {
                if member == origin {
                    continue;
                }
                for tick in 0..TICKS {
                    if crashed.contains(&origin) && (1..4).contains(&tick) {
                        continue; // the origin was dark: nothing to learn
                    }
                    let host = 10_000 * origin as u64 + tick;
                    let view = net.plane.view_of(member, MacAddr::for_host(host));
                    if withdraw && host == 0 {
                        prop_assert!(
                            view.is_none(),
                            "{}: member {member} kept withdrawn host of origin {origin}",
                            strategy.label(),
                        );
                    } else {
                        prop_assert_eq!(
                            view,
                            Some(entry_for(origin, tick)),
                            "{}: member {} lost origin {}'s tick-{} host",
                            strategy.label(), member, origin, tick,
                        );
                    }
                }
            }
        }
    }

    /// The relay overlay never applies the same chunk twice: per member,
    /// relay applies are bounded by the foreign chunks in existence.
    #[test]
    fn no_relay_chunk_applies_twice(
        n in 2u32..=6,
        strategy in arb_strategy(),
        crash_mask in proptest::collection::btree_set(0u32..6, 0..=2),
    ) {
        let crashed: Vec<u32> = crash_mask.into_iter().filter(|&c| c < n).collect();
        prop_assume!((crashed.len() as u32) < n);
        let net = run_case(n, strategy, crashed, false);
        let chunks: Vec<u64> = (0..n)
            .map(|i| net.plane.counter(i, MemberCounter::ChunksCreated))
            .collect();
        let total: u64 = chunks.iter().sum();
        for member in 0..n {
            let applied = net.plane.counter(member, MemberCounter::RelayApplies);
            let foreign = total - chunks[member as usize];
            prop_assert!(
                applied <= foreign,
                "{}: member {} applied {} relayed chunks, only {} foreign exist",
                strategy.label(), member, applied, foreign,
            );
        }
    }

    /// The ring costs O(n) messages per flush round (flood pays O(n²)):
    /// across the whole crash-free run, total sync messages stay within
    /// 2n per round, regardless of how many deltas each round carried.
    #[test]
    fn overlay_message_cost_is_linear(n in 2u32..=6) {
        let net = run_case(n, DisseminationStrategy::Ring, vec![], false);
        let msgs: u64 = (0..n)
            .map(|i| net.plane.counter(i, MemberCounter::SyncMessages))
            .sum();
        let rounds = TICKS + DRAIN + 1;
        prop_assert!(
            msgs <= 2 * rounds * n as u64,
            "{} sync messages over {} rounds exceeds the 2n/round O(n) bound",
            msgs, rounds,
        );
    }
}
