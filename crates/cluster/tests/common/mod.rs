//! A minimal deterministic driver for [`ClusterControlPlane`] integration
//! tests: a (time, sequence)-ordered event queue with fixed 1 ms
//! controller-peer latency, timers honoured exactly, and switch-bound
//! traffic dropped (these tests exercise the controller-to-controller
//! fabric, not the data plane).

// Each test binary compiles this module separately and uses a different
// subset of the harness.
#![allow(dead_code)]

use std::collections::BTreeMap;

use lazyctrl_cluster::{ClusterConfig, ClusterControlPlane, ClusterOutput, ClusterTimer};
use lazyctrl_net::SwitchId;
use lazyctrl_partition::WeightedGraph;
use lazyctrl_proto::{ClusterMsg, Message, MessageBody, OutputSink};

/// Fixed controller-peer delivery latency (ns).
const CTRL_LATENCY_NS: u64 = 1_000_000;

enum Ev {
    Ctrl { from: u32, to: u32, msg: Message },
    Timer(ClusterTimer),
}

/// The mini network around one cluster plane.
pub(crate) struct MiniNet {
    pub plane: ClusterControlPlane,
    queue: BTreeMap<(u64, u64), Ev>,
    seq: u64,
    now: u64,
    /// Messages delivered on the ctrl-peer fabric, by kind.
    pub delivered: BTreeMap<&'static str, u64>,
    /// Active partition: listed islands are mutually severed, members
    /// not listed anywhere keep full reachability (the simulator's
    /// `LinkState` rule). Empty means the fabric is whole.
    partition: Vec<Vec<u32>>,
    /// Ctrl-peer messages destroyed by the partition gate.
    pub partition_drops: u64,
}

/// A weighted graph of `groups` disjoint cliques of `size` switches —
/// SGI reliably groups each clique into one LCG.
pub(crate) fn clustered_graph(groups: usize, size: usize) -> WeightedGraph {
    let mut g = WeightedGraph::new(groups * size);
    for c in 0..groups {
        let base = c * size;
        for i in 0..size {
            for j in (i + 1)..size {
                g.add_edge(base + i, base + j, 10.0);
            }
        }
    }
    g
}

/// A cluster config sized for these tests: `n` members over 3-switch
/// groups, 1 s flush/heartbeat ticks, large delta log (exact anti-entropy
/// replay throughout).
pub(crate) fn test_config(n: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::with_controllers(n);
    cfg.lazy.group_size_limit = 3;
    cfg.replica_flush_interval_ms = 1_000;
    cfg.heartbeat_interval_ms = 1_000;
    cfg.heartbeat_miss_factor = 3;
    cfg.anti_entropy_interval_ms = 3_000;
    cfg.delta_log_flushes = 10_000;
    cfg
}

impl MiniNet {
    /// Builds and bootstraps a plane over `groups` cliques of 3 switches.
    pub(crate) fn new(groups: usize, cfg: ClusterConfig) -> Self {
        let num_switches = groups * 3;
        let mut plane = ClusterControlPlane::new(num_switches, cfg);
        let mut sink = OutputSink::new();
        plane.bootstrap(0, clustered_graph(groups, 3), &mut sink);
        let mut net = MiniNet {
            plane,
            queue: BTreeMap::new(),
            seq: 0,
            now: 0,
            delivered: BTreeMap::new(),
            partition: Vec::new(),
            partition_drops: 0,
        };
        net.dispatch(sink.take_buf());
        net
    }

    /// Current virtual time (ns).
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Severs the fabric into `groups` islands: ctrl-peer messages
    /// between members of *different* listed islands are destroyed at
    /// delivery time (in-flight traffic included). Replaces any
    /// previous partition.
    pub(crate) fn set_partition(&mut self, groups: &[Vec<u32>]) {
        self.partition = groups.to_vec();
    }

    /// Restores full reachability.
    pub(crate) fn heal_partition(&mut self) {
        self.partition.clear();
    }

    /// True if an active partition severs the `a`↔`b` member pair.
    fn severed(&self, a: u32, b: u32) -> bool {
        let island = |m: u32| self.partition.iter().position(|g| g.contains(&m));
        match (island(a), island(b)) {
            (Some(x), Some(y)) => x != y,
            _ => false,
        }
    }

    fn push(&mut self, at: u64, ev: Ev) {
        self.seq += 1;
        self.queue.insert((at, self.seq), ev);
    }

    /// Queues the plane's outputs (ctrl-peer sends with fixed latency,
    /// timers at their delay; switch-bound messages dropped).
    pub(crate) fn dispatch(&mut self, outs: Vec<ClusterOutput>) {
        for out in outs {
            match out {
                ClusterOutput::ToCtrl { from, to, msg } => {
                    self.push(self.now + CTRL_LATENCY_NS, Ev::Ctrl { from, to, msg });
                }
                ClusterOutput::SetTimer(timer, delay_ns) => {
                    self.push(self.now + delay_ns, Ev::Timer(timer));
                }
                ClusterOutput::ToSwitch { .. } => {}
            }
        }
    }

    /// Runs the network until virtual time `t_ns`.
    pub(crate) fn run_until(&mut self, t_ns: u64) {
        while let Some((&(at, key), _)) = self.queue.iter().next() {
            if at > t_ns {
                break;
            }
            let ev = self.queue.remove(&(at, key)).expect("just peeked");
            self.now = at;
            let mut sink = OutputSink::new();
            match ev {
                Ev::Ctrl { from, to, msg } => {
                    if self.severed(from, to) {
                        self.partition_drops += 1;
                        continue;
                    }
                    *self.delivered.entry(kind_of(&msg)).or_insert(0) += 1;
                    self.plane
                        .handle_ctrl_message(self.now, from, to, &msg, &mut sink);
                }
                Ev::Timer(timer) => self.plane.handle_timer(self.now, timer, &mut sink),
            }
            self.dispatch(sink.take_buf());
        }
        self.now = t_ns;
    }

    /// Runs `dur_ns` more virtual time.
    pub(crate) fn run_for(&mut self, dur_ns: u64) {
        self.run_until(self.now + dur_ns);
    }

    /// Delivers one switch-originated message to the plane at `now`.
    pub(crate) fn send_switch(&mut self, from: SwitchId, msg: &Message) {
        let mut sink = OutputSink::new();
        self.plane
            .handle_switch_message(self.now, from, msg, &mut sink);
        self.dispatch(sink.take_buf());
    }

    /// Recovers a crashed member and dispatches its fresh timer arms.
    pub(crate) fn recover(&mut self, id: u32) {
        let mut sink = OutputSink::new();
        self.plane.recover(id, &mut sink);
        self.dispatch(sink.take_buf());
    }

    /// Count of delivered ctrl-peer messages of one kind.
    pub(crate) fn count(&self, kind: &str) -> u64 {
        self.delivered.get(kind).copied().unwrap_or(0)
    }

    // ---- Adversarial schedule controls ---------------------------------
    //
    // The mc_regressions tests replay counterexample-shaped schedules by
    // hand: pull a specific in-flight message out of the queue, then drop
    // it, reorder it, or deliver it twice.

    /// Removes and returns the earliest in-flight ctrl-peer message of
    /// `kind` (an adversarial drop; re-inject it with [`MiniNet::deliver`]
    /// to model reordering or duplication instead).
    pub(crate) fn steal(&mut self, kind: &str) -> Option<(u32, u32, Message)> {
        let key = self.queue.iter().find_map(|(&k, ev)| match ev {
            Ev::Ctrl { msg, .. } if kind_of(msg) == kind => Some(k),
            _ => None,
        })?;
        match self.queue.remove(&key) {
            Some(Ev::Ctrl { from, to, msg }) => Some((from, to, msg)),
            _ => unreachable!("key was just found"),
        }
    }

    /// Count of ctrl-peer messages of `kind` currently in flight.
    pub(crate) fn queued(&self, kind: &str) -> usize {
        self.queue
            .values()
            .filter(|ev| matches!(ev, Ev::Ctrl { msg, .. } if kind_of(msg) == kind))
            .count()
    }

    /// Delivers a ctrl-peer message to the plane immediately (bypassing
    /// the queue — used to replay stolen messages, duplicates included).
    pub(crate) fn deliver(&mut self, from: u32, to: u32, msg: &Message) {
        *self.delivered.entry(kind_of(msg)).or_insert(0) += 1;
        let mut sink = OutputSink::new();
        self.plane
            .handle_ctrl_message(self.now, from, to, msg, &mut sink);
        self.dispatch(sink.take_buf());
    }
}

fn kind_of(msg: &Message) -> &'static str {
    match &msg.body {
        MessageBody::Cluster(c) => match c {
            ClusterMsg::PeerSync(_) => "peer_sync",
            ClusterMsg::SyncRelay(_) => "sync_relay",
            ClusterMsg::SyncDigest(_) => "sync_digest",
            ClusterMsg::Heartbeat(_) => "heartbeat",
            ClusterMsg::OwnershipTransfer(_) => "ownership_transfer",
            ClusterMsg::TransferAck(_) => "transfer_ack",
            ClusterMsg::LookupRequest(_) => "lookup_request",
            ClusterMsg::LookupReply(_) => "lookup_reply",
            ClusterMsg::VoteRequest(_) => "vote_request",
            ClusterMsg::VoteReply(_) => "vote_reply",
            ClusterMsg::LeaderClaim(_) => "leader_claim",
        },
        MessageBody::Lazy(_) => "lazy",
        MessageBody::Of(_) => "of",
    }
}
