//! Adversarial-schedule regression tests for the cluster protocols.
//!
//! Each test hand-replays a schedule shape the bounded model checker
//! (`lazyctrl-mc`) explores mechanically — a duplicated relay bundle, a
//! dropped ownership handoff, a duplicated handoff announcement, a leader
//! crash mid-term — and pins the invariant the protocol must uphold under
//! it. When the checker finds a new counterexample, it gets distilled
//! into a test here so the fix stays fixed.

mod common;

use common::{test_config, MiniNet};
use lazyctrl_cluster::{
    ClusterConfig, DisseminationStrategy, ElectionRole, MemberCounter, StepModel,
};
use lazyctrl_net::{MacAddr, PortNo, SwitchId, TenantId};
use lazyctrl_proto::{
    ClusterMsg, LazyMsg, LfibEntry, LfibSyncMsg, Message, MessageBody, OwnershipTransferMsg,
};
use std::collections::BTreeMap;

const SEC: u64 = 1_000_000_000;

fn ring_config(n: usize) -> ClusterConfig {
    let mut cfg = test_config(n);
    cfg.dissemination = DisseminationStrategy::Ring;
    cfg
}

fn transfer_of(msg: &Message) -> OwnershipTransferMsg {
    match &msg.body {
        MessageBody::Cluster(ClusterMsg::OwnershipTransfer(t)) => *t,
        other => panic!("expected an ownership transfer, got {other:?}"),
    }
}

/// Raises member `id`'s measured load by driving L-FIB syncs through one
/// of its switches (so takeover targeting prefers the other survivors).
fn load_member(net: &mut MiniNet, id: u32, rounds: u64) {
    let s = (0..64u32)
        .map(SwitchId::new)
        .find(|&s| net.plane.owner_of_switch(s) == Some(id))
        .expect("member owns at least one switch");
    for round in 0..rounds {
        let sync = LfibSyncMsg {
            origin: s,
            epoch: 0,
            entries: vec![LfibEntry {
                mac: MacAddr::for_host(9_000 + round),
                tenant: TenantId::new(1),
                port: PortNo::new(2),
            }],
            removed: vec![],
        };
        net.send_switch(s, &Message::lazy(round as u32, LazyMsg::lfib_sync(sync)));
        net.run_for(SEC / 10);
    }
}

/// Counterexample shape: the network duplicates a relay bundle in flight.
/// The receiver must apply and re-fan the bundled chunks exactly once —
/// the second copy must change nothing (checker invariants 1 and 3).
#[test]
#[cfg_attr(feature = "mc-mutations", ignore = "mutation inverts this invariant")]
fn duplicated_relay_bundle_is_idempotent() {
    let n = 4;
    let mut cfg = ring_config(n);
    cfg.anti_entropy_interval_ms = 600_000; // overlay only: no repair noise
    let mut net = MiniNet::new(n, cfg);
    net.plane.enqueue_delta(
        0,
        vec![lazyctrl_proto::HostEntry {
            mac: MacAddr::for_host(4242),
            switch: SwitchId::new(0),
            port: PortNo::new(1),
            tenant: TenantId::new(1),
        }],
        vec![],
    );
    // Past the first flush tick: member 0's relay bundle to its ring
    // successor is now in flight.
    net.run_until(SEC);
    let (from, to, msg) = net
        .steal("sync_relay")
        .expect("flush put a bundle in flight");
    assert_eq!((from, to), (0, 1), "ring successor of 0");

    net.deliver(from, to, &msg);
    let applies_once = net.plane.counter(to, MemberCounter::RelayApplies);
    let fp_once = net.plane.state_fingerprint();
    assert!(applies_once > 0, "first copy must apply");

    // The duplicate: bit-identical bundle on the same link.
    net.deliver(from, to, &msg);
    assert_eq!(
        net.plane.counter(to, MemberCounter::RelayApplies),
        applies_once,
        "duplicate bundle was applied twice"
    );
    assert_eq!(
        net.plane.state_fingerprint(),
        fp_once,
        "duplicate delivery mutated protocol state"
    );

    // Let the ring finish the lap: every member must hold the host, and
    // no member may have applied the chunk more than once (the duplicate
    // must not have entered anyone's relay queue for a second lap).
    net.run_for(8 * SEC);
    for member in 1..n as u32 {
        assert_eq!(
            net.plane.view_of(member, MacAddr::for_host(4242)),
            Some(lazyctrl_proto::HostEntry {
                mac: MacAddr::for_host(4242),
                switch: SwitchId::new(0),
                port: PortNo::new(1),
                tenant: TenantId::new(1),
            }),
            "member {member} must converge on the single chunk"
        );
        assert!(
            net.plane.counter(member, MemberCounter::RelayApplies) <= 1,
            "member {member} applied the one chunk more than once"
        );
    }
}

/// Ground truth for the checker's self-test: with the `mc-mutations`
/// dedup-bypass compiled in, the same duplicated bundle IS applied and
/// re-fanned twice — the bug the model checker must catch.
#[test]
#[cfg(feature = "mc-mutations")]
fn mutated_relay_double_applies() {
    let n = 4;
    let mut cfg = ring_config(n);
    cfg.anti_entropy_interval_ms = 600_000;
    let mut net = MiniNet::new(n, cfg);
    net.plane.enqueue_delta(
        0,
        vec![lazyctrl_proto::HostEntry {
            mac: MacAddr::for_host(4242),
            switch: SwitchId::new(0),
            port: PortNo::new(1),
            tenant: TenantId::new(1),
        }],
        vec![],
    );
    net.run_until(SEC);
    let (from, to, msg) = net
        .steal("sync_relay")
        .expect("flush put a bundle in flight");
    net.deliver(from, to, &msg);
    let applies_once = net.plane.counter(to, MemberCounter::RelayApplies);
    net.deliver(from, to, &msg);
    assert!(
        net.plane.counter(to, MemberCounter::RelayApplies) > applies_once,
        "mutation should bypass relay dedup — did the gate move?"
    );
}

/// Counterexample shape: the leader's takeover handoff announcement is
/// lost in flight. The leader must retransmit on its heartbeat cadence
/// until the new owner acks, so the group is never silently unowned
/// (checker invariant 4).
#[test]
fn dropped_handoff_announcement_is_retransmitted() {
    let n = 3;
    let mut net = MiniNet::new(4, ring_config(n));
    net.run_for(2 * SEC);
    // Load member 0 (the leader) so the takeover targets member 1.
    load_member(&mut net, 0, 10);

    net.plane.step_crash(2);
    // Step until the takeover's handoff announcement is in flight.
    // Step at half the link latency so the announcement is observable
    // while in flight (it spends exactly one 1 ms hop in the queue).
    let deadline = net.now() + 20 * SEC;
    while net.queued("ownership_transfer") == 0 {
        assert!(net.now() < deadline, "takeover never initiated");
        net.run_for(500_000);
    }
    let (_, to, msg) = net.steal("ownership_transfer").expect("just observed one");
    let t = transfer_of(&msg);
    assert_eq!(
        t.to, to,
        "the stolen copy is the one bound for the new owner"
    );
    assert_ne!(t.to, 0, "takeover must hand off to the unloaded survivor");
    assert!(
        net.plane.unacked_transfer_epochs(0).contains(&t.epoch),
        "leader must track the handoff until acked"
    );
    let delivered_before = net.count("ownership_transfer");

    // The announcement is gone; heartbeat ticks must re-announce.
    net.run_for(5 * SEC);
    assert!(
        net.count("ownership_transfer") > delivered_before,
        "no retransmission after the drop"
    );
    assert!(
        net.plane.delivered_transfer_epochs(t.to).contains(&t.epoch),
        "new owner never heard about its group"
    );
    assert!(
        net.plane.unacked_transfer_epochs(0).is_empty(),
        "ack must stop the retransmissions"
    );
    assert!(
        net.plane
            .ownership()
            .groups_of(t.to)
            .contains(&t.group.index()),
        "group must end owned by the handoff target"
    );
}

/// Counterexample shape: the handoff announcement is duplicated (e.g. a
/// retransmission races the original's ack). The new owner re-acks — the
/// previous ack may be the lost copy — but must not re-seed, and its
/// protocol state must not change (checker invariant 4).
#[test]
fn duplicated_handoff_announcement_applies_once() {
    let n = 3;
    let mut net = MiniNet::new(4, ring_config(n));
    net.run_for(2 * SEC);
    load_member(&mut net, 0, 10);

    net.plane.step_crash(2);
    // Step at half the link latency so the announcement is observable
    // while in flight (it spends exactly one 1 ms hop in the queue).
    let deadline = net.now() + 20 * SEC;
    while net.queued("ownership_transfer") == 0 {
        assert!(net.now() < deadline, "takeover never initiated");
        net.run_for(500_000);
    }
    let (from, to, msg) = net.steal("ownership_transfer").expect("just observed one");
    let t = transfer_of(&msg);

    net.deliver(from, to, &msg);
    let fp_once = net.plane.state_fingerprint();
    let acks_once = net.queued("transfer_ack");
    assert_eq!(net.plane.delivered_transfer_epochs(to), vec![t.epoch]);
    assert!(acks_once > 0, "first announcement must be acked");

    net.deliver(from, to, &msg);
    assert_eq!(
        net.queued("transfer_ack"),
        acks_once + 1,
        "duplicate must be re-acked (the first ack may be the lost copy)"
    );
    assert_eq!(
        net.plane.delivered_transfer_epochs(to),
        vec![t.epoch],
        "duplicate announcement recorded twice"
    );
    assert_eq!(
        net.plane.state_fingerprint(),
        fp_once,
        "duplicate announcement mutated protocol state"
    );
}

/// Counterexample shape: the bootstrap leader crashes mid-term. At every
/// observation point there is at most one functioning leader per term
/// (checker invariant 5), a higher-term leader emerges, and the old
/// leader rejoins as a follower without splitting the cluster.
#[test]
fn leader_crash_elects_exactly_one_successor() {
    let n = 3;
    let mut net = MiniNet::new(4, ring_config(n));
    net.run_for(2 * SEC);
    assert_eq!(
        net.plane.leader(),
        Some(0),
        "bootstrap consensus: member 0 leads"
    );
    assert_eq!(net.plane.election_term(0), 1);

    net.plane.step_crash(0);
    // Sample the whole election window densely, maintaining the ghost
    // ledger the checker keeps: term -> the one leader seen in it.
    let mut leaders_by_term: BTreeMap<u64, u32> = BTreeMap::new();
    for _ in 0..100 {
        net.run_for(SEC / 5);
        for id in 0..n as u32 {
            if net.plane.is_crashed(id) || net.plane.election_role(id) != ElectionRole::Leader {
                continue;
            }
            let term = net.plane.election_term(id);
            let prev = *leaders_by_term.entry(term).or_insert(id);
            assert_eq!(prev, id, "two leaders in term {term}: {prev} and {id}");
        }
    }
    let new_leader = net.plane.leader().expect("a successor must be elected");
    assert_ne!(new_leader, 0);
    assert!(
        net.plane.election_term(new_leader) >= 2,
        "successor must lead a later term"
    );
    assert_eq!(net.plane.confirmed_dead(), vec![0]);
    assert!(
        net.plane.ownership().groups_of(0).is_empty(),
        "the dead leader's groups must be taken over"
    );

    // The deposed leader comes back: it must rejoin as a follower of the
    // new term, not resurrect its old one.
    net.recover(0);
    net.run_for(5 * SEC);
    assert_eq!(
        net.plane.leader(),
        Some(new_leader),
        "comeback must not depose"
    );
    assert_eq!(net.plane.election_role(0), ElectionRole::Follower);
    assert!(
        net.plane.election_term(0) >= net.plane.election_term(new_leader),
        "rejoined member must adopt the current term"
    );
    assert!(net.plane.confirmed_dead().is_empty());
}
