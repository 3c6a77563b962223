//! Property tests for the plane's member gate: cached per-member
//! sub-fingerprints and copy-on-write members must be invisible.
//!
//! A random `StepModel` schedule — controller-peer deliveries and
//! duplicates in any order, timer firings, crashes, recoveries, seam
//! deltas — drives two planes side by side: one that is cloned after
//! every step with the clone kept alive (so every write it makes lands on
//! a shared member), and one that is never cloned (so none does). After
//! each step:
//!
//! * both produce the same outputs and the same fingerprint;
//! * that fingerprint equals a from-scratch recompute — a fresh plane
//!   that replayed the same steps and has never cached anything;
//! * the clone taken before the step still has the fingerprint and the
//!   member counters it was taken with, and so does the original after a
//!   clone of it has been written to on every member.

mod common;

use common::{clustered_graph, test_config};
use lazyctrl_cluster::{
    ClusterConfig, ClusterControlPlane, ClusterOutput, ClusterTimer, DisseminationStrategy,
    MemberCounter, StepModel,
};
use lazyctrl_net::{MacAddr, PortNo, SwitchId, TenantId};
use lazyctrl_proto::{HostEntry, Message, OutputSink};
use proptest::prelude::*;

/// One fully resolved input to the plane.
#[derive(Debug, Clone)]
enum Step {
    Ctrl {
        now: u64,
        from: u32,
        to: u32,
        msg: Message,
    },
    Timer {
        now: u64,
        timer: ClusterTimer,
    },
    Crash(u32),
    Recover(u32),
    Learn(u32, HostEntry),
    Withdraw(u32, MacAddr, SwitchId),
}

fn apply(plane: &mut ClusterControlPlane, step: &Step) -> Vec<ClusterOutput> {
    let mut out = OutputSink::new();
    match step {
        Step::Ctrl { now, from, to, msg } => plane.step_ctrl(*now, *from, *to, msg, &mut out),
        Step::Timer { now, timer } => plane.step_timer(*now, *timer, &mut out),
        Step::Crash(id) => plane.step_crash(*id),
        Step::Recover(id) => plane.step_recover(*id, &mut out),
        Step::Learn(id, entry) => plane.enqueue_delta(*id, vec![*entry], vec![]),
        Step::Withdraw(id, mac, sw) => plane.enqueue_delta(*id, vec![], vec![(*mac, *sw)]),
    }
    out.take_buf()
}

/// A bootstrapped plane over one 3-switch clique per member, and what
/// bootstrapping it emitted.
fn bootstrapped(cfg: &ClusterConfig) -> (ClusterControlPlane, Vec<ClusterOutput>) {
    let groups = cfg.num_controllers;
    let mut plane = ClusterControlPlane::new(groups * 3, cfg.clone());
    let mut out = OutputSink::new();
    plane.bootstrap(0, clustered_graph(groups, 3), &mut out);
    (plane, out.take_buf())
}

/// The network around the planes: what is in flight, what is armed, and
/// the clock — the part of a schedule the outputs decide.
#[derive(Default)]
struct Fabric {
    now: u64,
    in_flight: Vec<(u32, u32, Message)>,
    timers: Vec<(u64, ClusterTimer)>,
}

impl Fabric {
    fn absorb(&mut self, outs: &[ClusterOutput]) {
        for out in outs {
            match out {
                ClusterOutput::ToCtrl { from, to, msg } => {
                    self.in_flight.push((*from, *to, msg.clone()));
                }
                ClusterOutput::SetTimer(timer, delay) => {
                    self.timers.push((self.now + delay, *timer));
                }
                ClusterOutput::ToSwitch { .. } => {}
            }
        }
    }

    /// Turns one random `(kind, pick)` choice into the step it means in
    /// the current state. Every choice means something: one that is not
    /// possible right now fires the earliest timer instead.
    fn resolve(&mut self, plane: &ClusterControlPlane, kind: u8, pick: u16) -> Step {
        let members = plane.num_controllers() as u32;
        let member = pick as u32 % members;
        let host = |n: u16| HostEntry {
            mac: MacAddr::for_host(1_000 + n as u64 % 8),
            switch: SwitchId::new(member * 3),
            port: PortNo::new(1 + n / 8 % 2),
            tenant: TenantId::new(1),
        };
        match kind {
            0..=4 if !self.in_flight.is_empty() => {
                let (from, to, msg) = self.in_flight.remove(pick as usize % self.in_flight.len());
                let now = self.now;
                Step::Ctrl { now, from, to, msg }
            }
            5 if !self.in_flight.is_empty() => {
                let (from, to, msg) = self.in_flight[pick as usize % self.in_flight.len()].clone();
                let now = self.now;
                Step::Ctrl { now, from, to, msg }
            }
            6 if !plane.is_crashed(member)
                && (0..members).filter(|&m| !plane.is_crashed(m)).count() > 1 =>
            {
                Step::Crash(member)
            }
            7 if plane.is_crashed(member) => Step::Recover(member),
            8 | 9 => Step::Learn(member, host(pick)),
            10 => {
                let gone = host(pick);
                Step::Withdraw(member, gone.mac, gone.switch)
            }
            _ => {
                let i = (0..self.timers.len())
                    .min_by_key(|&i| (self.timers[i].0, i))
                    .expect("every member keeps timers armed");
                let (due, timer) = self.timers.remove(i);
                self.now = self.now.max(due);
                let now = self.now;
                Step::Timer { now, timer }
            }
        }
    }
}

/// The per-member counters a report reads, protocol state or not.
type Counters = Vec<(bool, u64, Vec<u64>, usize, usize, u64, Vec<(u32, u64)>)>;

fn counters(plane: &ClusterControlPlane) -> Counters {
    (0..plane.num_controllers() as u32)
        .map(|m| {
            (
                plane.is_crashed(m),
                plane.sync_seq(m),
                MemberCounter::ALL.map(|c| plane.counter(m, c)).to_vec(),
                plane.clib_len(m),
                plane.replica_len(m),
                plane.election_term(m),
                plane.replica_heads(m),
            )
        })
        .collect()
}

/// Writes to every member of `plane`: a crash-or-recover flips protocol
/// state, a learn fills the outbox and the C-LIB.
fn scribble(plane: &mut ClusterControlPlane) {
    for m in 0..plane.num_controllers() as u32 {
        if plane.is_crashed(m) {
            plane.step_recover(m, &mut OutputSink::new());
        } else {
            plane.step_crash(m);
        }
        let entry = HostEntry {
            mac: MacAddr::for_host(9_000 + m as u64),
            switch: SwitchId::new(m * 3),
            port: PortNo::new(7),
            tenant: TenantId::new(1),
        };
        plane.enqueue_delta(m, vec![entry], vec![]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_and_shared_members_are_invisible(
        members in 2u32..=5,
        strategy in prop_oneof![
            Just(DisseminationStrategy::Flood),
            Just(DisseminationStrategy::Ring),
        ],
        choices in proptest::collection::vec((0u8..16, any::<u16>()), 1..48),
    ) {
        let mut cfg = test_config(members as usize);
        cfg.dissemination = strategy;
        let (mut cloned, boot) = bootstrapped(&cfg);
        let (mut lone, _) = bootstrapped(&cfg);
        let mut fabric = Fabric::default();
        fabric.absorb(&boot);

        let mut steps: Vec<Step> = Vec::new();
        // The clone of `cloned` taken after the previous step, with the
        // fingerprint and counters it had then.
        let mut held = (cloned.clone(), cloned.fingerprint(), counters(&cloned));
        for (kind, pick) in choices {
            let step = fabric.resolve(&lone, kind, pick);
            let outs = apply(&mut lone, &step);
            prop_assert_eq!(&apply(&mut cloned, &step), &outs, "outputs differ at {:?}", step);
            fabric.absorb(&outs);
            steps.push(step);

            let fp = lone.fingerprint();
            prop_assert_eq!(cloned.fingerprint(), fp, "shared members changed the hash");

            let (mut fresh, _) = bootstrapped(&cfg);
            for step in &steps {
                apply(&mut fresh, step);
            }
            prop_assert_eq!(fresh.fingerprint(), fp, "cached hash differs from a recompute");

            // The step wrote to `cloned` while `held` shared its members.
            prop_assert_eq!(held.0.fingerprint(), held.1, "a step leaked into an older clone");
            prop_assert_eq!(&counters(&held.0), &held.2);

            held = (cloned.clone(), fp, counters(&cloned));
            let mut scratch = cloned.clone();
            scribble(&mut scratch);
            prop_assert_ne!(scratch.fingerprint(), fp, "the scribble changed nothing");
            prop_assert_eq!(cloned.fingerprint(), fp, "a clone's writes leaked into the original");
            prop_assert_eq!(&counters(&cloned), &held.2);
            prop_assert_eq!(counters(&lone), counters(&cloned));
        }
    }
}
