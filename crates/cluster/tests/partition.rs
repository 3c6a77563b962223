//! Partition-tolerance integration tests: the degradation ladder under
//! a severed controller fabric, driven through the MiniNet harness's
//! delivery-time partition gate.
//!
//! * the isolated leader demotes itself (lease step-down) before the
//!   majority's failure detector could ever see a second leader in the
//!   same term,
//! * the majority island keeps exactly one leader per term throughout,
//! * and a healed cluster converges — replica heads agree, every group
//!   is owned by a functioning member, and nobody stays "dead".

mod common;

use std::collections::BTreeMap;

use common::{test_config, MiniNet};
use lazyctrl_cluster::{ElectionRole, MemberCounter, LEADER_LEASE_MS};
use lazyctrl_net::{MacAddr, PortNo, SwitchId, TenantId};
use lazyctrl_proto::HostEntry;
use proptest::prelude::*;

const SEC: u64 = 1_000_000_000;
const MS: u64 = 1_000_000;

fn entry_for(origin: u32, tick: u64) -> HostEntry {
    HostEntry {
        mac: MacAddr::for_host(10_000 * u64::from(origin) + tick),
        switch: SwitchId::new(origin * 3),
        port: PortNo::new(1),
        tenant: TenantId::new(1),
    }
}

/// Isolates member `m` from every peer of an `n`-member cluster.
fn isolate(net: &mut MiniNet, m: u32, n: u32) {
    let rest: Vec<u32> = (0..n).filter(|&x| x != m).collect();
    net.set_partition(&[vec![m], rest]);
}

/// Runs `net` to `until_ns` in `slice_ns` steps, recording every
/// `(term, leader)` sighting into `ghost` and failing on the first term
/// led by two different members — the cross-time half of the
/// single-leader-per-term invariant the end-state alone cannot see.
fn run_watching_leadership(
    net: &mut MiniNet,
    until_ns: u64,
    slice_ns: u64,
    ghost: &mut BTreeMap<u64, u32>,
) {
    while net.now() < until_ns {
        let next = (net.now() + slice_ns).min(until_ns);
        net.run_until(next);
        for id in 0..net.plane.num_controllers() as u32 {
            if net.plane.is_crashed(id) || net.plane.election_role(id) != ElectionRole::Leader {
                continue;
            }
            let term = net.plane.election_term(id);
            let prev = *ghost.entry(term).or_insert(id);
            assert_eq!(
                prev, id,
                "split brain: term {term} led by both member {prev} and member {id}"
            );
        }
    }
}

/// The isolated leader must step down inside the lease window — well
/// before the majority's detection deadline lets it confirm deaths or
/// move ownership — and the majority must elect a successor in a
/// strictly newer term.
#[test]
fn minority_leader_steps_down_within_lease_window() {
    let lease_ns = u64::from(LEADER_LEASE_MS) * MS;
    let mut net = MiniNet::new(3, test_config(3));
    net.run_until(SEC);
    assert_eq!(net.plane.leader(), Some(0), "member 0 leads from bootstrap");
    let term_before = net.plane.election_term(0);

    isolate(&mut net, 0, 3);
    let cut_at = net.now();

    // One lease window plus a heartbeat of slack: the lease check runs
    // on the leader's own heartbeat tick.
    net.run_until(cut_at + lease_ns + 1_500 * MS);
    assert_ne!(
        net.plane.election_role(0),
        ElectionRole::Leader,
        "isolated leader still leading past its lease"
    );
    assert_eq!(
        net.plane.counter(0, MemberCounter::LeaseStepDowns),
        1,
        "exactly one step-down"
    );

    // Give the majority its detection deadline plus an election round.
    net.run_until(cut_at + 10 * SEC);
    let leader = net.plane.leader().expect("majority must elect a leader");
    assert!(
        leader == 1 || leader == 2,
        "leader {leader} not in majority"
    );
    assert!(
        net.plane.election_term(leader) > term_before,
        "successor must lead a newer term"
    );
    assert!(net.partition_drops > 0, "the cut never severed anything");

    // The majority legitimately confirmed the isolated member dead (that
    // is what authorizes takeover); the heal must un-latch it within a
    // heartbeat round.
    net.heal_partition();
    net.run_for(5 * SEC);
    assert!(
        net.plane.confirmed_dead().is_empty(),
        "heal must clear the latched death: {:?}",
        net.plane.confirmed_dead()
    );
}

/// Leadership ghost across the whole cut-and-heal cycle: no term is
/// ever led by two members, and the healed cluster ends with one
/// functioning leader and nobody believed dead.
#[test]
fn majority_keeps_one_leader_per_term_across_cut_and_heal() {
    let mut net = MiniNet::new(3, test_config(3));
    let mut ghost = BTreeMap::new();
    net.run_until(SEC);

    isolate(&mut net, 0, 3);
    run_watching_leadership(&mut net, 15 * SEC, 200 * MS, &mut ghost);

    net.heal_partition();
    run_watching_leadership(&mut net, 30 * SEC, 200 * MS, &mut ghost);

    let leader = net
        .plane
        .leader()
        .expect("healed cluster must have a leader");
    assert!(!net.plane.is_crashed(leader));
    assert!(
        net.plane.confirmed_dead().is_empty(),
        "heal must clear latched deaths: {:?}",
        net.plane.confirmed_dead()
    );
}

/// Replication across a cut: deltas seeded on both sides of the
/// partition while it stands must reach every member after the heal
/// (anti-entropy closing the holes), and ownership must end with
/// functioning owners only.
#[test]
fn healed_cluster_converges_replicas_and_ownership() {
    let mut net = MiniNet::new(3, test_config(3));
    net.run_until(SEC);

    isolate(&mut net, 0, 3);
    // Both islands keep learning hosts during the cut.
    for tick in 0..6u64 {
        for origin in 0..3u32 {
            net.plane
                .enqueue_delta(origin, vec![entry_for(origin, tick)], vec![]);
        }
        net.run_for(SEC);
    }

    net.heal_partition();
    // A couple of anti-entropy rounds (3 s cadence) close the gap.
    net.run_for(20 * SEC);

    let heads: Vec<Vec<(u32, u64)>> = (0..3).map(|m| net.plane.replica_heads(m)).collect();
    for origin in 0..3u32 {
        let head_of = |m: usize| -> u64 {
            heads[m]
                .iter()
                .find(|&&(o, _)| o == origin)
                .map(|&(_, s)| s)
                .unwrap_or(0)
        };
        let observers: Vec<usize> = (0..3).filter(|&m| m != origin as usize).collect();
        let best = observers.iter().map(|&m| head_of(m)).max().unwrap();
        assert!(best > 0, "origin {origin} replicated nothing");
        for &m in &observers {
            assert_eq!(
                head_of(m),
                best,
                "member {m} behind on origin {origin} after heal"
            );
        }
    }

    for g in 0..net.plane.ownership().len() {
        let owner = net.plane.ownership().owner_of(g).expect("group has owner");
        assert!(
            !net.plane.is_crashed(owner),
            "group {g} owned by a crashed member"
        );
    }
    assert!(net.plane.confirmed_dead().is_empty());
}

/// One randomized cut in a schedule: which member gets isolated, for
/// how long, and how long the fabric stays whole afterwards.
#[derive(Debug, Clone, Copy)]
struct Cut {
    member: u32,
    cut_ms: u64,
    whole_ms: u64,
}

fn arb_cut(n: u32) -> impl Strategy<Value = Cut> {
    (0..n, 500u64..6_000, 500u64..4_000).prop_map(|(member, cut_ms, whole_ms)| Cut {
        member,
        cut_ms,
        whole_ms,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random isolate-one partition schedules — cuts of random victim,
    /// duration, and spacing, with replication load seeded throughout —
    /// must never produce two leaders in one term, and must always end
    /// (after a final heal and settling run) with a functioning leader,
    /// live ownership, and no latched deaths.
    #[test]
    fn random_partition_schedules_never_split_brain(
        n in 3u32..=5,
        cuts in prop::collection::vec(arb_cut(5), 1..4),
    ) {
        let mut net = MiniNet::new(n as usize, test_config(n as usize));
        let mut ghost = BTreeMap::new();
        net.run_until(SEC);

        for (i, cut) in cuts.iter().enumerate() {
            let victim = cut.member % n;
            net.plane.enqueue_delta(victim, vec![entry_for(victim, i as u64)], vec![]);
            isolate(&mut net, victim, n);
            let until = net.now() + cut.cut_ms * MS;
            run_watching_leadership(&mut net, until, 250 * MS, &mut ghost);
            net.heal_partition();
            let until = net.now() + cut.whole_ms * MS;
            run_watching_leadership(&mut net, until, 250 * MS, &mut ghost);
        }

        // Final settle: long enough for detection, an election round,
        // and anti-entropy to all complete from any mid-cycle state.
        let until = net.now() + 20 * SEC;
        run_watching_leadership(&mut net, until, 250 * MS, &mut ghost);

        let leader = net.plane.leader();
        prop_assert!(leader.is_some(), "no leader after settling");
        prop_assert!(!net.plane.is_crashed(leader.unwrap()));
        prop_assert!(
            net.plane.confirmed_dead().is_empty(),
            "latched deaths after settling: {:?}",
            net.plane.confirmed_dead()
        );
        for g in 0..net.plane.ownership().len() {
            let owner = net.plane.ownership().owner_of(g);
            prop_assert!(owner.is_some(), "group {} lost its owner", g);
        }
    }
}
