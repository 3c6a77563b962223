//! Integration tests for the cluster control plane driven directly
//! through `plane.rs`: ownership transfer, replica convergence under each
//! dissemination strategy, heartbeat failover, and anti-entropy catch-up.

mod common;

use common::{test_config, MiniNet};
use lazyctrl_cluster::{ClusterConfig, DisseminationStrategy, MemberCounter};
use lazyctrl_net::{MacAddr, PortNo, SwitchId, TenantId};
use lazyctrl_proto::{HostEntry, LazyMsg, LfibEntry, LfibSyncMsg, Message, TransferReason};

fn entry(host: u64, switch: u32) -> HostEntry {
    HostEntry {
        mac: MacAddr::for_host(host),
        switch: SwitchId::new(switch),
        port: PortNo::new(1),
        tenant: TenantId::new(1),
    }
}

const SEC: u64 = 1_000_000_000;

fn config_with(strategy: DisseminationStrategy, n: usize) -> ClusterConfig {
    let mut cfg = test_config(n);
    cfg.dissemination = strategy;
    cfg
}

/// Every strategy must replicate every member's deltas to every other
/// member; under sustained load the ring must do it with strictly fewer
/// wire messages per chunk than flood's n−1.
#[test]
fn replicas_converge_under_every_strategy() {
    let n = 4u32;
    let mut costs = std::collections::BTreeMap::new();
    for strategy in [DisseminationStrategy::Flood, DisseminationStrategy::Ring] {
        let mut cfg = config_with(strategy, n as usize);
        // No anti-entropy: convergence must come from the overlay itself.
        cfg.anti_entropy_interval_ms = 600_000;
        let mut net = MiniNet::new(n as usize, cfg);
        // Sustained churn: every member learns a fresh host every flush
        // tick for 10 ticks.
        for tick in 0..10u64 {
            for origin in 0..n {
                net.plane.enqueue_delta(
                    origin,
                    vec![entry(1_000 * origin as u64 + tick, origin * 3)],
                    vec![],
                );
            }
            net.run_for(SEC);
        }
        // Drain the overlay (ring needs a circumference of ticks).
        net.run_for(8 * SEC);

        for member in 0..n {
            for origin in 0..n {
                if member == origin {
                    continue;
                }
                for tick in 0..10u64 {
                    let mac = MacAddr::for_host(1_000 * origin as u64 + tick);
                    assert_eq!(
                        net.plane.view_of(member, mac),
                        Some(entry(1_000 * origin as u64 + tick, origin * 3)),
                        "{}: member {member} missing host {tick} of origin {origin}",
                        strategy.label(),
                    );
                }
            }
        }
        let total = |c| (0..n).map(|i| net.plane.counter(i, c)).sum::<u64>();
        let chunks = total(MemberCounter::ChunksCreated);
        let msgs = total(MemberCounter::SyncMessages);
        assert!(chunks >= 10 * n as u64, "every member must have flushed");
        costs.insert(strategy.label(), msgs as f64 / chunks as f64);
    }
    let flood = costs["flood"];
    assert!(
        (flood - (n as f64 - 1.0)).abs() < 0.01,
        "flood must pay n-1 messages per chunk, got {flood:.2}"
    );
    let ring = costs["ring"];
    assert!(
        ring < flood / 1.5,
        "ring cost {ring:.2} must amortize well below flood's {flood:.2}"
    );
}

/// A relayed chunk is never applied twice: per-member applies never
/// exceed the chunks the other members created.
#[test]
#[cfg_attr(
    feature = "mc-mutations",
    ignore = "the mutation deliberately breaks relay dedup"
)]
fn no_chunk_is_applied_twice() {
    let n = 5u32;
    let mut net = MiniNet::new(
        n as usize,
        config_with(DisseminationStrategy::Ring, n as usize),
    );
    for tick in 0..6u64 {
        for origin in 0..n {
            net.plane
                .enqueue_delta(origin, vec![entry(100 * origin as u64 + tick, 0)], vec![]);
        }
        net.run_for(SEC);
    }
    net.run_for(10 * SEC);
    let chunks: Vec<u64> = (0..n)
        .map(|i| net.plane.counter(i, MemberCounter::ChunksCreated))
        .collect();
    let total: u64 = chunks.iter().sum();
    for member in 0..n {
        let foreign = total - chunks[member as usize];
        let applied = net.plane.counter(member, MemberCounter::RelayApplies)
            + net.plane.counter(member, MemberCounter::DirectApplies);
        assert!(
            applied <= foreign,
            "member {member} applied {applied} chunks but only {foreign} foreign exist",
        );
    }
}

/// Heartbeat failover end-to-end on the plane: a crashed member is
/// confirmed dead by the Table-I ring inference, its groups move to
/// survivors, and a recovery un-confirms it.
#[test]
fn heartbeat_failover_and_comeback() {
    let mut net = MiniNet::new(4, config_with(DisseminationStrategy::Ring, 3));
    net.run_for(2 * SEC);
    let victim = 1u32;
    let owned_before = net.plane.ownership().groups_of(victim).len();
    assert!(owned_before > 0, "victim must own groups to lose");

    net.plane.crash(victim);
    // Detection: miss_factor (3) × heartbeat (1 s), plus report gossip
    // and takeover propagation.
    net.run_for(8 * SEC);
    assert_eq!(net.plane.confirmed_dead(), vec![victim]);
    assert!(
        net.plane.ownership().groups_of(victim).is_empty(),
        "takeover must strip the dead member's groups"
    );
    assert_eq!(net.plane.takeovers().len(), 1);
    assert_eq!(net.plane.takeovers()[0], (victim, owned_before));
    assert!(net
        .plane
        .transfers()
        .iter()
        .any(|t| t.reason == TransferReason::Failover));

    // Comeback: fresh heartbeats un-confirm the member.
    net.recover(victim);
    net.run_for(4 * SEC);
    assert!(
        net.plane.confirmed_dead().is_empty(),
        "recovered member still believed dead"
    );
}

/// Ownership transfer under skewed load, driven through the switch-facing
/// path: all switch traffic lands on one member's shard until the
/// leader's skew check moves a group across, after which the receiving
/// member's C-LIB is seeded from its replica.
#[test]
fn skewed_load_moves_group_ownership() {
    let mut net = MiniNet::new(4, config_with(DisseminationStrategy::Flood, 2));
    net.run_for(SEC);
    // Find the switches whose groups member 1 owns.
    let hot_switches: Vec<SwitchId> = (0..12u32)
        .map(SwitchId::new)
        .filter(|&s| net.plane.owner_of_switch(s) == Some(1))
        .collect();
    assert!(
        net.plane.ownership().groups_of(1).len() >= 2,
        "round-robin must give member 1 at least two groups"
    );

    // Hammer member 1's shard with L-FIB syncs (each also teaches the
    // C-LIB a host location, which replication then spreads).
    let mut host = 0u64;
    for round in 0..30u64 {
        for &s in &hot_switches {
            host += 1;
            let sync = LfibSyncMsg {
                origin: s,
                epoch: 0,
                entries: vec![LfibEntry {
                    mac: MacAddr::for_host(host),
                    tenant: TenantId::new(1),
                    port: PortNo::new(2),
                }],
                removed: vec![],
            };
            net.send_switch(s, &Message::lazy(round as u32, LazyMsg::lfib_sync(sync)));
        }
        net.run_for(SEC / 2);
    }
    // Past the 10 s rebalance check with plenty of window samples.
    net.run_for(15 * SEC);

    let rebalances: Vec<_> = net
        .plane
        .transfers()
        .iter()
        .filter(|t| t.reason == TransferReason::Rebalance)
        .collect();
    assert!(
        !rebalances.is_empty(),
        "skewed switch load must trigger an ownership transfer"
    );
    assert_eq!(rebalances[0].from, 1, "the hot member sheds a group");
    assert_eq!(rebalances[0].to, 0, "the cool member receives it");
    assert!(
        net.plane.ownership().groups_of(0).len() > 2,
        "ownership map must reflect the move"
    );
}

/// A member that sleeps through relayed deltas reconverges through the
/// anti-entropy digest exchange — under ring, deltas flushed while it was
/// dark never reach it on the overlay at all.
#[test]
fn anti_entropy_catches_up_a_recovered_member() {
    let n = 4u32;
    let mut cfg = config_with(DisseminationStrategy::Ring, n as usize);
    cfg.anti_entropy_interval_ms = 3_000;
    let mut net = MiniNet::new(n as usize, cfg);
    net.run_for(SEC);

    let sleeper = 2u32;
    net.plane.crash(sleeper);
    // While the sleeper is dark, the others learn and replicate hosts —
    // including a withdrawal, which only an exact catch-up can replay.
    for tick in 0..8u64 {
        for origin in [0u32, 1, 3] {
            net.plane.enqueue_delta(
                origin,
                vec![entry(500 + 10 * origin as u64 + tick, 0)],
                vec![],
            );
        }
        net.run_for(SEC);
    }
    net.plane
        .enqueue_delta(0, vec![], vec![(MacAddr::for_host(500), SwitchId::new(0))]);
    net.run_for(10 * SEC);

    net.recover(sleeper);
    // A few anti-entropy rounds: the sleeper digests rotating peers and
    // gets pushed everything it missed, withdrawals included.
    net.run_for(30 * SEC);

    for origin in [0u32, 1, 3] {
        for tick in 0..8u64 {
            let host = 500 + 10 * origin as u64 + tick;
            if host == 500 {
                continue; // withdrawn below
            }
            assert!(
                net.plane
                    .view_of(sleeper, MacAddr::for_host(host))
                    .is_some(),
                "sleeper missing host {host} learned during its outage"
            );
        }
    }
    assert_eq!(
        net.plane.view_of(sleeper, MacAddr::for_host(500)),
        None,
        "the withdrawal must reach the sleeper too (tombstone replay)"
    );
    let served: u64 = (0..n)
        .map(|i| net.plane.counter(i, MemberCounter::CatchupSyncs))
        .sum();
    assert!(served > 0, "catch-up must actually have been served");
}

/// The anti-entropy snapshot fallback: when a member falls further
/// behind than the origin's delta log reaches, the origin serves its
/// full shard — including remembered withdrawals, which an additive
/// snapshot would silently drop, leaving the recovered member with a
/// stale entry it would then re-export forever.
#[test]
fn snapshot_fallback_serves_entries_and_withdrawals() {
    let n = 3u32;
    let mut cfg = config_with(DisseminationStrategy::Ring, n as usize);
    cfg.anti_entropy_interval_ms = 3_000;
    cfg.delta_log_flushes = 1; // force the snapshot path for any real lag
    let mut net = MiniNet::new(n as usize, cfg);
    net.run_for(SEC);

    // Origin 0 learns hosts through its own switches (so its C-LIB — the
    // snapshot source — holds them), one per flush tick.
    let origin_switch = (0..9u32)
        .map(SwitchId::new)
        .find(|&s| net.plane.owner_of_switch(s) == Some(0))
        .expect("member 0 owns switches");
    let sleeper = 2u32;
    // Host 700 is learned and fully replicated (sleeper included) first…
    let learn = |mac: u64, xid: u32| {
        Message::lazy(
            xid,
            LazyMsg::lfib_sync(LfibSyncMsg {
                origin: origin_switch,
                epoch: 0,
                entries: vec![LfibEntry {
                    mac: MacAddr::for_host(mac),
                    tenant: TenantId::new(1),
                    port: PortNo::new(2),
                }],
                removed: vec![],
            }),
        )
    };
    net.send_switch(origin_switch, &learn(700, 0));
    net.run_for(6 * SEC);
    assert!(
        net.plane.view_of(sleeper, MacAddr::for_host(700)).is_some(),
        "host 700 must be replicated to the sleeper before the outage"
    );
    // …then the sleeper goes dark and misses both the later learns and
    // the withdrawal of 700.
    net.plane.crash(sleeper);
    for tick in 1..6u64 {
        net.send_switch(origin_switch, &learn(700 + tick, tick as u32));
        net.run_for(SEC);
    }
    // Withdraw host 700 — the snapshot must carry this removal.
    let withdrawal = LfibSyncMsg {
        origin: origin_switch,
        epoch: 0,
        entries: vec![],
        removed: vec![MacAddr::for_host(700)],
    };
    net.send_switch(
        origin_switch,
        &Message::lazy(99, LazyMsg::lfib_sync(withdrawal)),
    );
    net.run_for(10 * SEC);

    net.recover(sleeper);
    net.run_for(30 * SEC);

    for tick in 1..6u64 {
        assert!(
            net.plane
                .view_of(sleeper, MacAddr::for_host(700 + tick))
                .is_some(),
            "sleeper missing host {tick} from the snapshot"
        );
    }
    assert_eq!(
        net.plane.view_of(sleeper, MacAddr::for_host(700)),
        None,
        "the snapshot must replay the withdrawal (own tombstones)"
    );
}

/// A recovered member's very first flush — fired while the cluster still
/// believes it dead (its comeback heartbeat has not landed yet) — must
/// still enter the ring, not vanish into a degenerate route.
#[test]
fn recovered_member_first_flush_enters_the_ring() {
    let n = 4u32;
    let mut cfg = config_with(DisseminationStrategy::Ring, n as usize);
    cfg.anti_entropy_interval_ms = 600_000; // no repair: the ring must carry it
    let mut net = MiniNet::new(n as usize, cfg);
    net.run_for(SEC);

    let victim = 2u32;
    net.plane.crash(victim);
    net.run_for(10 * SEC);
    assert_eq!(net.plane.confirmed_dead(), vec![victim]);

    // Recover and immediately learn a host: the first ReplicaFlush fires
    // at the same deadline as the first comeback heartbeat, while the
    // member is still in confirmed_dead.
    net.recover(victim);
    net.plane
        .enqueue_delta(victim, vec![entry(4242, 6)], vec![]);
    // A few flush ticks: enough for one ring circulation, nowhere near
    // the (disabled) anti-entropy cadence.
    net.run_for(8 * SEC);

    for member in 0..n {
        if member == victim {
            continue;
        }
        assert_eq!(
            net.plane.view_of(member, MacAddr::for_host(4242)),
            Some(entry(4242, 6)),
            "member {member} never received the recovered member's flush"
        );
    }
}

/// Confirming a member dead heals the ring around it: circulation keeps
/// reaching every survivor.
#[test]
fn overlay_heals_around_a_confirmed_dead_member() {
    let n = 4u32;
    let mut cfg = config_with(DisseminationStrategy::Ring, n as usize);
    cfg.anti_entropy_interval_ms = 600_000; // overlay only
    let mut net = MiniNet::new(n as usize, cfg);
    net.run_for(SEC);
    // Crash member 0 and wait for confirmation so the ring closes
    // around it.
    net.plane.crash(0);
    net.run_for(10 * SEC);
    assert_eq!(net.plane.confirmed_dead(), vec![0]);

    for tick in 0..6u64 {
        for origin in 1..n {
            net.plane.enqueue_delta(
                origin,
                vec![entry(900 + 10 * origin as u64 + tick, 3)],
                vec![],
            );
        }
        net.run_for(SEC);
    }
    net.run_for(8 * SEC);
    for member in 1..n {
        for origin in 1..n {
            if member == origin {
                continue;
            }
            for tick in 0..6u64 {
                let mac = MacAddr::for_host(900 + 10 * origin as u64 + tick);
                assert!(
                    net.plane.view_of(member, mac).is_some(),
                    "survivor {member} missing origin {origin}'s host {tick} after heal",
                );
            }
        }
    }
}
