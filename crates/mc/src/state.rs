//! The checker's world state: a cluster plane plus its network.
//!
//! The plane itself is pure; everything nondeterministic about a real
//! deployment — which in-flight message arrives next, whether it arrives
//! at all, when a timer interleaves — lives here, reified as explicit
//! state the checker can clone and branch on.

use lazyctrl_cluster::{
    hash_wire_ignoring_xid, ClusterConfig, ClusterControlPlane, ClusterOutput, ClusterTimer, Fnv64,
    StepModel,
};
use lazyctrl_net::{MacAddr, PortNo, SwitchId, TenantId};
use lazyctrl_partition::WeightedGraph;
use lazyctrl_proto::{HostEntry, Message, OutputSink};

use crate::checker::splitmix64;
use crate::event::McEvent;

/// A controller-peer message in flight, with the hash that identifies
/// it to the checker.
///
/// The fields are private and there is no mutable access: the hash is
/// computed once, when the message enters the in-flight set, and can
/// only stay true if link and message never change afterwards. The same
/// discipline keeps [`McState`]'s multiset sums true one level up.
#[derive(Debug, Clone)]
pub struct PendingMsg {
    from: u32,
    to: u32,
    msg: Message,
    wire_hash: u64,
}

impl PendingMsg {
    /// A message from `from` to `to`, hashed over its link and its wire
    /// bytes with the xid blinded.
    pub fn new(from: u32, to: u32, msg: Message) -> PendingMsg {
        let mut h = Fnv64::new();
        h.u32(from).u32(to);
        hash_wire_ignoring_xid(&mut h, &msg.encode());
        PendingMsg {
            from,
            to,
            msg,
            wire_hash: h.finish(),
        }
    }

    /// Link-level sender.
    pub fn from(&self) -> u32 {
        self.from
    }

    /// Destination member.
    pub fn to(&self) -> u32 {
        self.to
    }

    /// The message.
    pub fn msg(&self) -> &Message {
        &self.msg
    }

    /// Hash of `(from, to, wire bytes with the xid zeroed)`: two
    /// in-flight messages that are bit-identical on the same link share
    /// it, and delivering either leads to the same successor state.
    pub fn wire_hash(&self) -> u64 {
        self.wire_hash
    }
}

/// The splitmix64 output function: spreads a hash over all 64 bits, so
/// that sums of mixed hashes behave like sums of random words.
fn mix(x: u64) -> u64 {
    let mut s = x;
    splitmix64(&mut s)
}

/// What one element adds to its multiset's sum.
trait Element {
    fn element_hash(&self) -> u64;
}

impl Element for PendingMsg {
    fn element_hash(&self) -> u64 {
        mix(self.wire_hash)
    }
}

impl Element for (u64, ClusterTimer) {
    /// `(due, node, kind tag, gen)`, each folded in through the mixer.
    fn element_hash(&self) -> u64 {
        let (due, t) = *self;
        let who = (u64::from(t.node) << 32) | u64::from(t.gen);
        mix(mix(mix(due) ^ who) ^ u64::from(t.kind.tag()))
    }
}

/// A multiset kept in arrival order (what events index), with the
/// wrapping sum of its elements' hashes: an order-free hash of the
/// multiset, updated by the only ways in and out, so it costs O(1) to
/// read. A sum, not a xor, so that an element present twice counts twice.
#[derive(Clone)]
struct Bag<T> {
    items: Vec<T>,
    sum: u64,
}

impl<T> Default for Bag<T> {
    fn default() -> Self {
        Bag {
            items: Vec::new(),
            sum: 0,
        }
    }
}

impl<T: Element> Bag<T> {
    fn push(&mut self, x: T) {
        self.sum = self.sum.wrapping_add(x.element_hash());
        self.items.push(x);
    }

    fn remove(&mut self, i: usize) -> T {
        let x = self.items.remove(i);
        self.sum = self.sum.wrapping_sub(x.element_hash());
        x
    }

    fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let sum = &mut self.sum;
        self.items.retain(|x| {
            let kept = keep(x);
            if !kept {
                *sum = sum.wrapping_sub(x.element_hash());
            }
            kept
        });
    }

    /// The sum recomputed over every element, for the debug check.
    fn recomputed(&self) -> u64 {
        self.items
            .iter()
            .fold(0, |s, x| s.wrapping_add(x.element_hash()))
    }
}

/// One state in the exploration: the plane, the in-flight messages, the
/// armed timers, and the logical clock.
///
/// The clock only advances when a timer fires (to its due time), so
/// message deliveries branch freely *between* timer ticks — the network
/// can reorder anything that is concurrently in flight, which is exactly
/// the asynchrony assumption of the protocols under test.
///
/// The in-flight and armed sets are private, behind [`McState::pending`]
/// and [`McState::timers`]: each carries a hash sum that every change
/// must update, and only the state's own transitions change them.
#[derive(Clone)]
pub struct McState {
    /// The cluster plane (all members).
    pub plane: ClusterControlPlane,
    pending: Bag<PendingMsg>,
    timers: Bag<(u64, ClusterTimer)>,
    /// The logical clock (ns).
    pub now_ns: u64,
    /// Active network partition: `Some(m)` means member `m` is severed
    /// from every peer (see [`McEvent::Partition`]). Messages across the
    /// cut are discarded at emission, mirroring the simulator's
    /// link-state gate.
    pub partition: Option<u32>,
}

impl std::fmt::Debug for McState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The plane is a deliberately opaque state machine; identify the
        // state by its canonical hash instead of dumping internals.
        f.debug_struct("McState")
            .field("fingerprint", &format_args!("{:#018x}", self.fingerprint()))
            .field("pending", &self.pending.items.len())
            .field("timers", &self.timers.items.len())
            .field("now_ns", &self.now_ns)
            .finish()
    }
}

impl McState {
    /// Builds and bootstraps a cluster of `cfg.num_controllers` members
    /// over `groups` disjoint 3-switch cliques (the same topology the
    /// plane integration tests use), absorbing the bootstrap outputs.
    pub fn bootstrap(groups: usize, cfg: ClusterConfig) -> McState {
        let mut g = WeightedGraph::new(groups * 3);
        for c in 0..groups {
            let base = c * 3;
            for i in 0..3 {
                for j in (i + 1)..3 {
                    g.add_edge(base + i, base + j, 10.0);
                }
            }
        }
        let mut plane = ClusterControlPlane::new(groups * 3, cfg);
        let mut sink = OutputSink::new();
        plane.bootstrap(0, g, &mut sink);
        let mut state = McState {
            plane,
            pending: Bag::default(),
            timers: Bag::default(),
            now_ns: 0,
            partition: None,
        };
        state.absorb(&sink.take_buf());
        state
    }

    /// Seeds replication work: member `origin` learns one host, to be
    /// flushed onto the dissemination overlay at its next flush tick.
    pub fn seed_host(&mut self, origin: u32, host: u64) {
        self.plane.enqueue_delta(
            origin,
            vec![HostEntry {
                mac: MacAddr::for_host(host),
                switch: SwitchId::new(0),
                port: PortNo::new(1),
                tenant: TenantId::new(1),
            }],
            vec![],
        );
    }

    /// Controller-peer messages in flight, in emission order — what
    /// [`McEvent::Deliver`], [`McEvent::Drop`] and [`McEvent::Duplicate`]
    /// index.
    pub fn pending(&self) -> &[PendingMsg] {
        &self.pending.items
    }

    /// Armed timers, `(absolute due ns, timer)`, in arm order.
    pub fn timers(&self) -> &[(u64, ClusterTimer)] {
        &self.timers.items
    }

    /// Recomputes both multiset sums over every element and compares them with
    /// the ones kept incrementally. Debug builds run it after every
    /// [`McState::apply`]; tests call it directly.
    #[doc(hidden)]
    pub fn check_multisets(&self) -> Result<(), String> {
        let sums = [
            ("in-flight", self.pending.sum, self.pending.recomputed()),
            ("armed-timer", self.timers.sum, self.timers.recomputed()),
        ];
        for (name, kept, fresh) in sums {
            if kept != fresh {
                return Err(format!(
                    "{name} sum is {kept:#018x}, a recompute gives {fresh:#018x}"
                ));
            }
        }
        Ok(())
    }

    /// True if an active partition severs the `a`↔`b` pair.
    fn severed(&self, a: u32, b: u32) -> bool {
        match self.partition {
            Some(p) => (a == p) != (b == p),
            None => false,
        }
    }

    /// Files a step's outputs: peer messages into the in-flight set,
    /// timers into the armed set. Switch-bound messages are discarded —
    /// the checker models the controller fabric, not the data plane.
    /// Messages across an active partition cut are discarded too: the
    /// pending set only ever holds deliverable traffic, so the event
    /// enumeration needs no reachability filter.
    fn absorb(&mut self, outs: &[ClusterOutput]) {
        for out in outs {
            match out {
                ClusterOutput::ToCtrl { from, to, msg } => {
                    if !self.severed(*from, *to) {
                        self.pending.push(PendingMsg::new(*from, *to, msg.clone()));
                    }
                }
                ClusterOutput::SetTimer(timer, delay_ns) => {
                    self.timers.push((self.now_ns + delay_ns, *timer));
                }
                ClusterOutput::ToSwitch { .. } => {}
            }
        }
    }

    /// Deterministic pre-roll: fires every timer due by `t_ns` without
    /// delivering any of the messages they emit. Exploration then starts
    /// from a frontier with real traffic in flight — the first heartbeat
    /// and flush round — instead of spending its depth budget replaying
    /// the forced quiet prefix where nothing can interleave. Keep `t_ns`
    /// well inside the failure-detection window: the pre-roll withholds
    /// heartbeats too.
    pub fn advance_to(&mut self, t_ns: u64) {
        while let Some(i) = self.min_timer() {
            if self.timers.items[i].0 > t_ns {
                break;
            }
            self.apply(McEvent::FireTimer);
        }
        self.now_ns = self.now_ns.max(t_ns);
    }

    /// Index of the earliest-due armed timer (ties broken by node id,
    /// then arm order) — the only timer [`McEvent::FireTimer`] fires,
    /// which is what keeps the logical clock deterministic per schedule.
    pub fn min_timer(&self) -> Option<usize> {
        let timers = &self.timers.items;
        (0..timers.len()).min_by_key(|&i| (timers[i].0, timers[i].1.node, i))
    }

    /// Applies one event, returning the outputs the step produced (the
    /// checker feeds them to the ghost ledgers). Panics on an event that
    /// is not enabled in this state — callers must choose from the
    /// checker's enabled-event enumeration.
    pub fn apply(&mut self, ev: McEvent) -> Vec<ClusterOutput> {
        let mut sink = OutputSink::new();
        match ev {
            McEvent::Deliver(i) => {
                let m = self.pending.remove(i);
                self.plane
                    .step_ctrl(self.now_ns, m.from, m.to, &m.msg, &mut sink);
            }
            McEvent::Drop(i) => {
                self.pending.remove(i);
            }
            McEvent::Duplicate(i) => {
                let m = &self.pending.items[i];
                self.plane
                    .step_ctrl(self.now_ns, m.from, m.to, &m.msg, &mut sink);
            }
            McEvent::FireTimer => {
                let i = self.min_timer().expect("FireTimer enabled without timers");
                let (due, timer) = self.timers.remove(i);
                self.now_ns = self.now_ns.max(due);
                self.plane.step_timer(self.now_ns, timer, &mut sink);
            }
            McEvent::Crash(id) => {
                self.plane.step_crash(id);
                // The member's armed timers are now stale-generation
                // no-ops; pruning them is behavior-preserving and keeps
                // them from bloating the state space.
                self.timers.retain(|(_, t)| t.node != id);
            }
            McEvent::Recover(id) => {
                self.plane.step_recover(id, &mut sink);
            }
            McEvent::Partition(id) => {
                self.partition = Some(id);
                // The cut destroys in-flight traffic across it (the
                // adversary already had its chance to deliver first —
                // DFS explores those orders as separate schedules).
                self.pending.retain(|p| (p.from == id) == (p.to == id));
            }
            McEvent::Heal => {
                self.partition = None;
            }
        }
        let outs = sink.take_buf();
        self.absorb(&outs);
        debug_assert_eq!(self.check_multisets(), Ok(()), "after {ev:?}");
        outs
    }

    /// Canonical fingerprint of this state: the plane's protocol-state
    /// hash, the clock, the partition, and the in-flight and armed-timer
    /// multisets. Two schedules reaching the same fingerprint are
    /// indistinguishable to every future step, so the checker explores
    /// from one of them only. It costs the same whatever is in flight:
    /// the plane re-hashes only the members written since it was last
    /// asked (see [`ClusterControlPlane::state_fingerprint`]), and each
    /// multiset enters as its size and its kept sum — delivery order is
    /// the checker's choice, not part of the state's identity, and a sum
    /// is blind to order. The words are folded together through the same
    /// mixer as the sums' elements.
    pub fn fingerprint(&self) -> u64 {
        let partition = self.partition.map_or(0, |p| 1 + u64::from(p));
        [
            self.now_ns,
            partition,
            self.pending.items.len() as u64,
            self.pending.sum,
            self.timers.items.len() as u64,
            self.timers.sum,
        ]
        .into_iter()
        .fold(self.plane.fingerprint(), |h, word| mix(h ^ word))
    }

    /// Number of functioning (non-crashed) members.
    pub fn functioning(&self) -> Vec<u32> {
        (0..self.plane.num_controllers() as u32)
            .filter(|&id| !self.plane.is_crashed(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Layout tripwire: the checker clones every in-flight `PendingMsg`
    /// with each state it branches, so its inline size is a per-message,
    /// per-state memory constant.
    #[test]
    fn pending_msg_stays_compact() {
        use std::mem::size_of;
        assert!(
            size_of::<PendingMsg>() <= 72,
            "PendingMsg grew to {} bytes",
            size_of::<PendingMsg>()
        );
    }
}
