//! The cluster control plane: N cooperating `LazyController`s behind one
//! message-passing surface.
//!
//! # Architecture
//!
//! Every cluster member runs a full [`LazyController`] configured
//! identically (same switch id space, same seed, dynamic regrouping off).
//! Member 0 computes the switch grouping at bootstrap and every other
//! member starts as a clone of its controller, so all members — and the
//! plane, which routes switches by it — share one immutable
//! [`GroupView`]. The [`OwnershipMap`] then shards those groups across
//! members: a member only receives (and answers) control traffic from
//! switches in groups it owns, so its workload, C-LIB shard and failure
//! detector all naturally cover just its shard.
//!
//! Three cluster mechanisms tie the shards together:
//!
//! * **C-LIB replication** — each member batches the host locations it
//!   learns and publishes them on a timer ([`PeerSyncMsg`]); *how* the
//!   deltas reach the other members is the configured
//!   [`DisseminationStrategy`] (direct flood or ring circulation), backed
//!   by a periodic anti-entropy digest exchange so members that missed
//!   relayed deltas reconverge. Inter-shard flow setups then resolve
//!   against the local replica, with a synchronous [`LookupRequestMsg`] as
//!   the miss fallback.
//! * **Load rebalancing** — members piggyback their measured request rate
//!   on heartbeats; when the leader (lowest live id) sees the max/min load
//!   ratio exceed the skew threshold, it moves a group from the hottest
//!   to the coolest member ([`OwnershipTransferMsg`]).
//! * **Failover** — members heartbeat on a logical ring and report silent
//!   neighbours using the *same Table-I inference machinery* switches use
//!   on their wheel ([`FailureDetector`] over [`WheelReportMsg`], with
//!   controllers mapped to pseudo switch ids): a member is declared dead
//!   only when both ring directions go silent within the window, at which
//!   point the leader transfers its groups to survivors, each seeding its
//!   C-LIB from the replica.
//!
//! # Simulation shortcuts (documented, deliberate)
//!
//! * Control-link re-homing is instantaneous: the driver routes a switch's
//!   messages via the plane's authoritative ownership map, which updates
//!   when a transfer is initiated. Real switches would reconnect after a
//!   short gap; the *replication* convergence is what is modelled
//!   asynchronously.
//! * The leader reads peers' workload meters directly when rebalancing.
//!   The same numbers travel in heartbeats ([`CtrlHeartbeatMsg::load_rps`]);
//!   reading the meter avoids acting on a stale copy in the simulation.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use lazyctrl_controller::{
    ControllerOutput, ControllerTimer, FailureDetector, FailureKind, GroupView, LazyController,
    REGROUP_CHECK_INTERVAL_MS,
};
use lazyctrl_net::{EthernetFrame, MacAddr, SwitchId, TenantId};
use lazyctrl_partition::WeightedGraph;
use lazyctrl_proto::{
    ClusterMsg, CongestionNoticeMsg, CtrlHeartbeatMsg, HostEntry, LazyMsg, LeaderClaimMsg,
    LfibEntry, LfibSyncMsg, LookupReplyMsg, LookupRequestMsg, Message, MessageBody, MsgPriority,
    OfMessage, OutputSink, OwnershipTransferMsg, PacketInMsg, PeerSyncMsg, SyncDigestMsg,
    SyncRelayMsg, TransferAckMsg, TransferReason, VoteReplyMsg, VoteRequestMsg, WheelLoss,
    WheelReportMsg,
};

use crate::dissemination::ring_neighbours;
use crate::election::{ElectionRole, ElectionState};
use crate::fingerprint::{hash_wire_ignoring_xid, Fnv64};
use crate::{ClusterConfig, DisseminationStrategy, OwnershipMap, ReplicaStore};

/// Controllers are mapped into the switch-id space for the reused Table-I
/// failure detector; this tag keeps them clear of any real switch.
const CTRL_PSEUDO_BASE: u32 = 0xC000_0000;

/// The pseudo switch id representing controller `id` on the controller
/// ring (for [`FailureDetector`] reuse).
pub fn ctrl_pseudo_switch(id: u32) -> SwitchId {
    SwitchId::new(CTRL_PSEUDO_BASE | id)
}

/// Timers the cluster asks its driver to arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTimer {
    /// The member the timer belongs to.
    pub node: u32,
    /// What fires.
    pub kind: ClusterTimerKind,
    /// The member's timer generation when armed. A crash bumps the
    /// generation, so timer chains armed before the crash are recognized
    /// as stale when they fire — without this, a crash+recover within one
    /// timer interval would leave the member running duplicate chains.
    pub gen: u32,
}

/// The kinds of cluster timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterTimerKind {
    /// A timer of the member's inner `LazyController`.
    Inner(ControllerTimer),
    /// Flush pending C-LIB deltas onto the dissemination overlay.
    ReplicaFlush,
    /// Send ring heartbeats and check for silent neighbours.
    Heartbeat,
    /// Leader-side load-skew evaluation.
    RebalanceCheck,
    /// Send an anti-entropy digest to one rotating peer.
    AntiEntropy,
    /// Stand for election if no live leader has been heard within the
    /// election timeout (interval is staggered per member).
    Election,
}

impl ClusterTimerKind {
    /// A stable one-byte identity of the kind, distinct per variant
    /// (inner timers included) — what the model checker hashes armed
    /// timers by. The match is exhaustive on purpose: a new kind
    /// does not compile until it has a tag of its own.
    pub fn tag(self) -> u8 {
        match self {
            ClusterTimerKind::Inner(ControllerTimer::KeepAlive) => 0,
            ClusterTimerKind::Inner(ControllerTimer::RegroupCheck) => 1,
            ClusterTimerKind::ReplicaFlush => 2,
            ClusterTimerKind::Heartbeat => 3,
            ClusterTimerKind::RebalanceCheck => 4,
            ClusterTimerKind::AntiEntropy => 5,
            ClusterTimerKind::Election => 6,
        }
    }
}

/// Effects the cluster wants performed by its driver.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterOutput {
    /// Send to a switch on its control link.
    ToSwitch {
        /// Sending member.
        from: u32,
        /// Receiving switch.
        to: SwitchId,
        /// The message.
        msg: Message,
    },
    /// Send to a peer controller on the controller-peer link.
    ToCtrl {
        /// Sending member.
        from: u32,
        /// Receiving member.
        to: u32,
        /// The message.
        msg: Message,
    },
    /// Arm a timer after the given delay (ns).
    SetTimer(ClusterTimer, u64),
}

/// The two message families a controller-peer link can carry, borrowed
/// out of an incoming [`Message`] (see
/// [`ClusterControlPlane::handle_ctrl_message`]).
enum CtrlBody<'a> {
    /// An ordinary cluster message.
    Cluster(&'a ClusterMsg),
    /// A Table-I wheel report gossiped on the controller ring.
    Wheel(WheelReportMsg),
}

/// A host lookup awaiting peer replies.
#[derive(Debug, Default, Clone)]
struct PendingLookup {
    /// Peers whose replies are still outstanding. Tracked by id (not a
    /// bare count) so a peer dying mid-lookup can be swept out at
    /// takeover instead of wedging the lookup forever.
    waiting_on: BTreeSet<u32>,
    /// Switch messages queued until the lookup resolves: `(from, msg)`.
    queued: Vec<(SwitchId, Message)>,
    /// Virtual time after which the current round counts as timed out. A
    /// partitioned peer never replies, so without this deadline a lookup
    /// (and every flow setup queued on it) would wedge until takeover.
    deadline_ns: u64,
    /// Expired rounds so far; bounded by [`LOOKUP_MAX_RETRIES`].
    retries: u32,
}

/// A leader-announced ownership transfer awaiting its target's ack, with
/// capped-exponential retransmit pacing — a long partition must not
/// flood the heal with one retransmit per heartbeat tick.
#[derive(Debug, Clone, Copy)]
struct UnackedTransfer {
    msg: OwnershipTransferMsg,
    /// Retransmissions so far (0 = only the original announcement).
    attempts: u32,
    /// Virtual time at which the next retransmit is due.
    next_retry_ns: u64,
}

/// A per-member observer counter: what a member did, never what it is.
/// The state fingerprint leaves them all out; reports and the model
/// checker read them through [`ClusterControlPlane::counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberCounter {
    /// Switch-originated messages handled (the sharded workload quantity
    /// behind `ClusterReport::requests_per_controller`).
    RequestsHandled,
    /// Peer-sync wire messages sent on the dissemination overlay (direct
    /// flood syncs + relay bundles). Anti-entropy digests and catch-up
    /// syncs are repair traffic, counted separately.
    SyncMessages,
    /// Estimated wire bytes of those messages.
    SyncBytes,
    /// Delta chunks this member originated.
    ChunksCreated,
    /// Foreign chunks applied off the relay overlay.
    RelayApplies,
    /// Foreign chunks applied from direct syncs (flood or catch-up).
    DirectApplies,
    /// Already-seen chunks dropped by the relay dedup.
    DuplicateDrops,
    /// Relay-buffer overflows (oldest chunk dropped; anti-entropy heals).
    RelayOverflows,
    /// Anti-entropy digests sent.
    DigestsSent,
    /// Catch-up syncs served to digesting peers.
    CatchupSyncs,
    /// Ownership-transfer retransmissions sent.
    TransferRetransmits,
    /// Peer-lookup rounds that expired at their deadline.
    LookupTimeouts,
    /// Times this member stepped down to read-only on lease loss.
    LeaseStepDowns,
    /// Flow setups the bounded ingress queue shed (always zero when the
    /// queue is unbounded, the default).
    SetupsShed,
    /// Peak ingress-queue depth observed, in slots.
    QueueHighwater,
    /// ECN-style congestion notices emitted toward switches.
    CongestionSignals,
}

impl MemberCounter {
    /// Every counter, in table order.
    pub const ALL: [MemberCounter; 16] = [
        MemberCounter::RequestsHandled,
        MemberCounter::SyncMessages,
        MemberCounter::SyncBytes,
        MemberCounter::ChunksCreated,
        MemberCounter::RelayApplies,
        MemberCounter::DirectApplies,
        MemberCounter::DuplicateDrops,
        MemberCounter::RelayOverflows,
        MemberCounter::DigestsSent,
        MemberCounter::CatchupSyncs,
        MemberCounter::TransferRetransmits,
        MemberCounter::LookupTimeouts,
        MemberCounter::LeaseStepDowns,
        MemberCounter::SetupsShed,
        MemberCounter::QueueHighwater,
        MemberCounter::CongestionSignals,
    ];

    /// Number of counters (the width of a member's counter table).
    pub(crate) const COUNT: usize = MemberCounter::ALL.len();
}

/// One cluster member.
#[derive(Clone)]
struct ClusterNode {
    id: u32,
    /// Ground truth: a crashed member drops everything (scenario hook).
    crashed: bool,
    ctrl: LazyController,
    replica: ReplicaStore,
    /// C-LIB deltas accumulated since the last flush.
    outbox_entries: BTreeMap<MacAddr, HostEntry>,
    /// Withdrawals pending flush, with the withdrawing switch (receivers
    /// need it for the stale-withdrawal guard).
    outbox_removed: BTreeMap<MacAddr, SwitchId>,
    /// Withdrawals this member has ever flushed (bounded, oldest
    /// evicted; values carry `(switch, insertion stamp)`). The snapshot
    /// fallback of anti-entropy includes them, so a peer too far behind
    /// for log replay still hears about removals — an additive-only
    /// snapshot would let its stale entries survive (and re-export)
    /// forever, since the summary advances its head past the
    /// withdrawal's sequence.
    own_tombstones: BTreeMap<MacAddr, (SwitchId, u64)>,
    /// Monotonic stamp for `own_tombstones` eviction order.
    tomb_stamp: u64,
    sync_seq: u64,
    /// Foreign chunks queued for forwarding to the ring successor at the
    /// next flush tick. Bounded by
    /// [`RELAY_BUFFER_CHUNKS`]; overflow drops the oldest and counts it.
    relay_outbox: VecDeque<PeerSyncMsg>,
    /// Relay dedup: per-origin `(seq, chunk)` pairs already absorbed, with
    /// a pruned window (see [`DEDUP_WINDOW_SEQS`]).
    seen_chunks: BTreeMap<u32, BTreeSet<(u64, u32)>>,
    /// This member's own recent flushes, retained for exact anti-entropy
    /// replay. Bounded by `delta_log_flushes` distinct sequence numbers.
    delta_log: VecDeque<PeerSyncMsg>,
    /// Rotation counter for anti-entropy digest targets.
    ae_round: u64,
    /// Observer counters, indexed by [`MemberCounter`].
    counters: [u64; MemberCounter::COUNT],
    hb_seq: u64,
    /// Last virtual time a heartbeat arrived from each peer.
    last_hb_from: BTreeMap<u32, u64>,
    /// Latest load each peer reported in a heartbeat.
    peer_loads: BTreeMap<u32, f64>,
    /// Table-I inference over the controller ring.
    detector: FailureDetector,
    /// Term-based election bookkeeping (see [`crate::election`]).
    election: ElectionState,
    /// Leader-side: transfers announced but not yet acknowledged by their
    /// target, keyed by epoch. Retransmitted to the target on heartbeat
    /// ticks with capped exponential backoff while this member leads —
    /// the in-flight-loss window's repair path. Entries whose target is
    /// later confirmed dead are dropped at takeover (its groups move
    /// again anyway).
    unacked_transfers: BTreeMap<u32, UnackedTransfer>,
    /// Receiver-side: transfer epochs already delivered to this member as
    /// target. Duplicate announcements (retransmits) re-ack without
    /// re-seeding.
    delivered_transfers: BTreeSet<u32>,
    pending_lookups: BTreeMap<MacAddr, PendingLookup>,
    /// Partition degradation: set when this member, as leader, lost its
    /// majority lease. A read-only member keeps serving cached lookups
    /// from its C-LIB and replica but mints no transfers, confirms no
    /// deaths, starts no candidacies, and fans out no new peer lookups —
    /// until majority contact (or an accepted leader claim) clears it.
    read_only: bool,
    xid: u32,
    /// Bumped on crash; stale timer chains are dropped (see
    /// [`ClusterTimer::gen`]).
    timer_gen: u32,
    /// Bounded-ingress leaky bucket: virtual backlog (ns) still queued
    /// at this member. Behavior state — whether the *next* message is
    /// shed depends on it — so it is fingerprinted. Stays zero when the
    /// queue is unbounded (`ingress_queue_slots == 0`).
    ingress_queued_ns: u64,
    /// Virtual time the bucket last drained (behavior state).
    ingress_last_ns: u64,
    /// Virtual time of the last `CongestionNotice` sent (behavior
    /// state: it gates whether the next shed emits a signal).
    last_congestion_notice_ns: u64,
}

/// How many recent flush sequences the relay dedup remembers per origin.
/// Older `(seq, chunk)` keys are pruned; a chunk that somehow resurfaces
/// from further back re-applies harmlessly (replica application is
/// idempotent) — the window only has to cover chunks still in flight.
const DEDUP_WINDOW_SEQS: u64 = 64;

// ---- Protocol constants ----------------------------------------------
//
// The timing and sizing the cluster protocols run at. A value becomes a
// `ClusterConfig` field only once two callers need different ones.

/// How often the leader evaluates load skew (ms).
const REBALANCE_CHECK_INTERVAL_MS: u32 = 10_000;

/// Rebalancing triggers when `max_load / min_load` across members
/// exceeds this ratio (and the loaded member owns more than one group).
const SKEW_THRESHOLD: f64 = 2.0;

/// The hottest member must have handled at least this many messages in
/// the rebalance window for a move to trigger — an activity floor that
/// stops ownership thrash when the whole cluster is near idle and the
/// load ratio is just noise.
const REBALANCE_MIN_WINDOW_MSGS: u64 = 20;

/// Entries per peer-sync chunk (bounds the largest single wire message;
/// ~64 KiB at 2000 × 14 B).
const SYNC_CHUNK_ENTRIES: usize = 2_000;

/// Maximum foreign delta chunks a member buffers for relay between flush
/// ticks. Overflow drops the oldest (counted; anti-entropy repairs the
/// hole) — the bound that keeps per-member memory flat when a slow
/// member lags a chatty overlay.
const RELAY_BUFFER_CHUNKS: usize = 1_024;

/// A member stands for election after this long (ms) without hearing a
/// live leader's heartbeat. Must comfortably exceed the heartbeat
/// interval plus peer-link latency, or followers will trigger spurious
/// elections against a healthy leader (`ClusterConfig::validate` checks
/// the first half).
pub(crate) const ELECTION_TIMEOUT_MS: u32 = 3_000;

/// Per-member stagger added to the election timer (ms × member id), so
/// that concurrent timeouts don't produce perpetual split votes.
const ELECTION_STAGGER_MS: u32 = 150;

/// Leader lease window (ms): a leader that has not heard heartbeats from
/// a strict majority of the *static* cluster within this window steps
/// down to read-only — it keeps serving cached lookups but stops
/// confirming deaths and minting ownership transfers. This is the
/// split-brain guard for network partitions: on the minority side the
/// detector sees exactly the cross-cut silence a real crash would
/// produce, and without the lease it would "take over" groups it can no
/// longer speak for. Must exceed the heartbeat interval
/// (`ClusterConfig::validate` checks it) and should stay below the
/// failure-confirmation deadline (`heartbeat_miss_factor ×
/// heartbeat_interval_ms`) so the step-down lands before any
/// cross-partition death is confirmed.
pub const LEADER_LEASE_MS: u32 = 2_500;

/// Deadline (ms) for a synchronous peer lookup round. An expired lookup
/// retries against the next outstanding replica with exponential backoff
/// instead of hanging on a dead or partitioned peer forever.
const LOOKUP_TIMEOUT_MS: u64 = 2_000;

/// Retry rounds a pending lookup gets after its first deadline expires.
/// Once spent, the queued switch messages replay through the inner
/// controller's scoped-ARP relay fallback.
const LOOKUP_MAX_RETRIES: u32 = 2;

/// Cap, in heartbeat intervals, on the exponential backoff between
/// retransmissions of an unacked ownership transfer. Keeps a long
/// partition from flooding the heal with a retransmit per tick while
/// still bounding the repair latency.
const TRANSFER_RETRANSMIT_BACKOFF_CAP: u64 = 8;

/// Minimum gap (ms) between ECN-style [`CongestionNoticeMsg`] pressure
/// signals a member sends back to a switch whose flow setup it shed.
/// Rate-limits the signalling so a storm of shed setups does not itself
/// become a reverse-path storm.
const CONGESTION_NOTICE_INTERVAL_MS: u64 = 100;

impl ClusterNode {
    fn next_xid(&mut self) -> u32 {
        self.xid = self.xid.wrapping_add(1);
        self.xid
    }

    /// Sends `body` to peer `to` under this member's next xid — the one
    /// place a [`ClusterOutput::ToCtrl`] is built.
    fn send_peer(
        &mut self,
        to: u32,
        body: impl Into<MessageBody>,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        let xid = self.next_xid();
        out.push(ClusterOutput::ToCtrl {
            from: self.id,
            to,
            msg: Message {
                xid,
                body: body.into(),
            },
        });
    }

    /// Sends one dissemination-overlay message (a flood sync or a relay
    /// bundle of `bytes` estimated wire bytes) and counts it.
    fn send_overlay(
        &mut self,
        to: u32,
        bytes: usize,
        msg: ClusterMsg,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        self.count(MemberCounter::SyncMessages, 1);
        self.count(MemberCounter::SyncBytes, bytes as u64);
        self.send_peer(to, msg, out);
    }

    fn count(&mut self, c: MemberCounter, by: u64) {
        self.counters[c as usize] += by;
    }

    /// Records a chunk key in the dedup window. Returns false when it was
    /// already present (a duplicate).
    fn note_seen(&mut self, sync: &PeerSyncMsg) -> bool {
        let set = self.seen_chunks.entry(sync.origin).or_default();
        let fresh = set.insert((sync.seq, sync.chunk));
        if fresh {
            // The set is ordered by `seq` first, so everything below the
            // window sits at its front.
            let floor = sync.seq.saturating_sub(DEDUP_WINDOW_SEQS);
            while set.first().is_some_and(|&(s, _)| s < floor) {
                set.pop_first();
            }
        }
        fresh
    }

    /// Queues a foreign chunk for forwarding at the next flush tick,
    /// enforcing the relay-buffer bound.
    fn queue_relay(&mut self, sync: PeerSyncMsg) {
        self.relay_outbox.push_back(sync);
        while self.relay_outbox.len() > RELAY_BUFFER_CHUNKS {
            self.relay_outbox.pop_front();
            self.count(MemberCounter::RelayOverflows, 1);
        }
    }

    /// Appends own flush chunks to the bounded replay log.
    fn log_own_chunks(&mut self, chunks: &[PeerSyncMsg], keep_flushes: usize) {
        self.delta_log.extend(chunks.iter().cloned());
        let min_seq = self.sync_seq.saturating_sub(keep_flushes as u64);
        while let Some(front) = self.delta_log.front() {
            if front.seq <= min_seq {
                self.delta_log.pop_front();
            } else {
                break;
            }
        }
    }

    /// Canonical 64-bit hash of this member's protocol-visible state —
    /// its share of [`ClusterControlPlane::state_fingerprint`].
    ///
    /// Covered: crash and read-only flags, timer generation, election
    /// state, C-LIB shard, replica store (hosts, tombstones, progress),
    /// flush outboxes and tombstone memory, relay outbox and dedup
    /// window, delta log, anti-entropy rotation, heartbeat observation
    /// times and peer loads, failure-detector evidence, pending lookups,
    /// transfer ack ledgers, ingress-bucket state.
    ///
    /// Deliberately excluded: transaction-id counters and heartbeat
    /// sequence numbers (identity, not state — receivers never branch on
    /// them), the [`MemberCounter`] table (observers, not behavior), and the
    /// inner controller's switch-facing machinery beyond the C-LIB (the
    /// checker drives no switch traffic, and for simulation reports the
    /// full-report comparison is the backstop).
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.u32(self.id)
            .u8(self.crashed as u8)
            .u8(self.read_only as u8)
            .u32(self.timer_gen);
        let e = &self.election;
        h.u64(e.term).u8(match e.role {
            ElectionRole::Follower => 0,
            ElectionRole::Candidate => 1,
            ElectionRole::Leader => 2,
        });
        h.opt_u32(e.voted_for).opt_u32(e.known_leader);
        h.usize(e.votes.len());
        for v in &e.votes {
            h.u32(*v);
        }
        h.u64(e.last_leader_hb_ns);
        h.usize(self.ctrl.clib().len());
        for (mac, loc) in self.ctrl.clib().iter() {
            h.bytes(&mac.octets());
            h.u32(loc.switch.0).u16(loc.port.as_u16());
            h.u16(loc.tenant.as_u16());
        }
        self.replica.fingerprint_into(&mut h);
        h.usize(self.outbox_entries.len());
        for (mac, entry) in &self.outbox_entries {
            h.bytes(&mac.octets());
            h.u32(entry.switch.0).u16(entry.port.as_u16());
            h.u16(entry.tenant.as_u16());
        }
        for (mac, sw) in &self.outbox_removed {
            h.bytes(&mac.octets()).u32(sw.0);
        }
        for (mac, (sw, stamp)) in &self.own_tombstones {
            h.bytes(&mac.octets()).u32(sw.0).u64(*stamp);
        }
        h.u64(self.tomb_stamp).u64(self.sync_seq).u64(self.ae_round);
        h.usize(self.relay_outbox.len());
        for sync in &self.relay_outbox {
            hash_peer_sync(&mut h, sync);
        }
        for (origin, keys) in &self.seen_chunks {
            h.u32(*origin).usize(keys.len());
            for (seq, chunk) in keys {
                h.u64(*seq).u32(*chunk);
            }
        }
        h.usize(self.delta_log.len());
        for sync in &self.delta_log {
            hash_peer_sync(&mut h, sync);
        }
        for (peer, t) in &self.last_hb_from {
            h.u32(*peer).u64(*t);
        }
        for (peer, load) in &self.peer_loads {
            h.u32(*peer).u64(load.to_bits());
        }
        for (sw, loss, t) in self.detector.observation_state() {
            h.u32(sw.0)
                .u8(match loss {
                    WheelLoss::Upstream => 0,
                    WheelLoss::Downstream => 1,
                    WheelLoss::Controller => 2,
                })
                .u64(t);
        }
        for (sw, t) in self.detector.down_state() {
            h.u32(sw.0).u64(t);
        }
        h.usize(self.pending_lookups.len());
        for (mac, pending) in &self.pending_lookups {
            h.bytes(&mac.octets()).usize(pending.waiting_on.len());
            h.u64(pending.deadline_ns).u32(pending.retries);
            for w in &pending.waiting_on {
                h.u32(*w);
            }
            for (from, msg) in &pending.queued {
                h.u32(from.0);
                hash_wire_ignoring_xid(&mut h, &msg.encode());
            }
        }
        h.usize(self.unacked_transfers.len());
        for (epoch, u) in &self.unacked_transfers {
            h.u32(*epoch).u64(u.msg.term).usize(u.msg.group.index());
            h.u32(u.msg.from).u32(u.msg.to);
            h.u32(u.attempts).u64(u.next_retry_ns);
        }
        for epoch in &self.delivered_transfers {
            h.u32(*epoch);
        }
        // Ingress-bucket behavior state: whether the next message is
        // shed (and whether a shed signals) depends on these three.
        // The shed/highwater/signal *counters* are observers and stay
        // excluded, like every other counter.
        h.u64(self.ingress_queued_ns)
            .u64(self.ingress_last_ns)
            .u64(self.last_congestion_notice_ns);
        h.finish()
    }
}

/// One member's slot in the plane, and the single gate to its state.
///
/// Reads go through `Deref`. The only way to a `&mut ClusterNode` is
/// [`Member::write`], which does the two things every write owes:
///
/// * **copy-on-write** — members sit behind an `Arc`, so cloning a plane
///   copies pointers, and the first write after a clone deep-copies the
///   one member written (a uniqueness check when nothing shares it);
/// * **invalidation** — the member's cached sub-fingerprint is dropped,
///   to be recomputed at the next [`ClusterControlPlane::state_fingerprint`].
///
/// The cache is sound only while a `&ClusterNode` cannot write: nothing
/// reachable from a node may use interior mutability.
/// `scripts/purity_lint.sh` rejects it anywhere in this crate, this
/// cache cell excepted, and debug builds re-derive every cached value
/// (see `state_fingerprint`).
#[derive(Clone)]
struct Member {
    node: Arc<ClusterNode>,
    fingerprint: OnceLock<u64>, // purity_lint: the one allowed cell
}

impl Member {
    fn new(node: ClusterNode) -> Self {
        Member {
            node: Arc::new(node),
            fingerprint: OnceLock::new(),
        }
    }

    /// The gate. Take it once per handler and keep the reference: each
    /// call pays the uniqueness check and costs the cached hash, whether
    /// or not anything is then written.
    fn write(&mut self) -> &mut ClusterNode {
        self.fingerprint.take();
        Arc::make_mut(&mut self.node)
    }

    /// [`ClusterNode::fingerprint`], computed at most once per write.
    fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.node.fingerprint())
    }
}

impl Deref for Member {
    type Target = ClusterNode;

    fn deref(&self) -> &ClusterNode {
        &self.node
    }
}

/// The sharded multi-controller control plane.
///
/// Cloning snapshots the full protocol state — what the model checker
/// branches on. Members are shared with the original until one side
/// writes them (see `Member`); the plane-level fields are copied, and the
/// output scratch copies empty (it is drained within every step).
#[derive(Clone)]
pub struct ClusterControlPlane {
    cfg: ClusterConfig,
    /// The members, copy-on-write and sub-fingerprinted (see [`Member`]).
    nodes: Vec<Member>,
    ownership: OwnershipMap,
    /// The grouping every member reads, shared with them; `None` until
    /// bootstrap (dynamic regrouping is off in cluster mode).
    grouping: Option<Arc<GroupView>>,
    /// Members every functioning node currently believes dead.
    confirmed_dead: BTreeSet<u32>,
    /// Per-group message counts since the last rebalance check.
    group_window: BTreeMap<usize, u64>,
    /// Every ownership transfer initiated, in order.
    transfers: Vec<OwnershipTransferMsg>,
    /// Election-safety monitor: first leader observed per term. The plane
    /// holds every member, so this is cross-member ground truth; a second,
    /// different leader in an already-claimed term bumps
    /// [`double_leader_events`](Self::double_leader_events). Observer
    /// only — excluded from the state fingerprint like the counters.
    term_leaders: BTreeMap<u64, u32>,
    /// Times two distinct members led the same term (must stay zero; the
    /// partition scenarios assert it).
    double_leader_events: u64,
    /// Takeovers executed: `(dead member, groups moved)`.
    takeovers: Vec<(u32, usize)>,
    /// Reusable scratch for inner-controller outputs awaiting conversion
    /// to [`ClusterOutput`]s — one allocation for the plane's lifetime
    /// instead of one per handled message.
    ctrl_scratch: OutputSink<ControllerOutput>,
    /// Debug-build purity guard: the last `now_ns` any step function was
    /// driven with. The plane is a pure state machine — it never consults
    /// a clock itself — so its drivers (simulator, model checker) must
    /// feed it a non-decreasing clock; `note_step` asserts it.
    #[cfg(debug_assertions)]
    last_step_ns: u64,
}

impl ClusterControlPlane {
    /// Creates a cluster over switches `0..num_switches`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration.
    pub fn new(num_switches: usize, cfg: ClusterConfig) -> Self {
        cfg.validate();
        let ids: Vec<SwitchId> = (0..num_switches as u32).map(SwitchId::new).collect();
        let nodes = (0..cfg.num_controllers as u32)
            .map(|id| {
                let mut lazy_cfg = cfg.lazy.clone();
                // Ownership moves balance load in a cluster; regrouping
                // would make members' groupings diverge (see ClusterConfig).
                lazy_cfg.dynamic_updates = false;
                Member::new(ClusterNode {
                    id,
                    crashed: false,
                    ctrl: LazyController::new(ids.clone(), lazy_cfg),
                    replica: ReplicaStore::new(),
                    outbox_entries: BTreeMap::new(),
                    outbox_removed: BTreeMap::new(),
                    own_tombstones: BTreeMap::new(),
                    tomb_stamp: 0,
                    sync_seq: 0,
                    relay_outbox: VecDeque::new(),
                    seen_chunks: BTreeMap::new(),
                    delta_log: VecDeque::new(),
                    ae_round: 0,
                    counters: [0; MemberCounter::COUNT],
                    hb_seq: 0,
                    last_hb_from: BTreeMap::new(),
                    peer_loads: BTreeMap::new(),
                    detector: FailureDetector::new(),
                    election: ElectionState::bootstrap_consensus(id, 0),
                    unacked_transfers: BTreeMap::new(),
                    delivered_transfers: BTreeSet::new(),
                    pending_lookups: BTreeMap::new(),
                    read_only: false,
                    xid: 0,
                    timer_gen: 0,
                    ingress_queued_ns: 0,
                    ingress_last_ns: 0,
                    last_congestion_notice_ns: 0,
                })
            })
            .collect();
        ClusterControlPlane {
            cfg,
            nodes,
            ownership: OwnershipMap::new(),
            grouping: None,
            confirmed_dead: BTreeSet::new(),
            group_window: BTreeMap::new(),
            transfers: Vec::new(),
            // Bootstrap is a synchronous consensus on (term 1, member 0).
            term_leaders: BTreeMap::from([(1, 0)]),
            double_leader_events: 0,
            takeovers: Vec::new(),
            ctrl_scratch: OutputSink::new(),
            #[cfg(debug_assertions)]
            last_step_ns: 0,
        }
    }

    /// Debug-build purity guard (see the `last_step_ns` field): asserts
    /// the driver's clock never runs backwards across step calls.
    #[inline]
    fn note_step(&mut self, now_ns: u64) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                now_ns >= self.last_step_ns,
                "cluster plane driven backwards in time: {now_ns} < {}",
                self.last_step_ns
            );
            self.last_step_ns = now_ns;
        }
        #[cfg(not(debug_assertions))]
        let _ = now_ns;
    }

    // ---- Introspection -------------------------------------------------

    /// The configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of members (dead or alive).
    pub fn num_controllers(&self) -> usize {
        self.nodes.len()
    }

    /// The ownership map (authoritative routing view).
    pub fn ownership(&self) -> &OwnershipMap {
        &self.ownership
    }

    /// The group a switch belongs to.
    pub fn group_of_switch(&self, s: SwitchId) -> Option<usize> {
        self.grouping.as_ref()?.group_of(s)
    }

    /// The member a switch's control link currently terminates on.
    pub fn owner_of_switch(&self, s: SwitchId) -> Option<u32> {
        self.group_of_switch(s)
            .and_then(|g| self.ownership.owner_of(g))
    }

    /// True when the member has crashed (ground truth).
    pub fn is_crashed(&self, id: u32) -> bool {
        self.nodes[id as usize].crashed
    }

    /// Members currently believed dead by the cluster.
    pub fn confirmed_dead(&self) -> Vec<u32> {
        self.confirmed_dead.iter().copied().collect()
    }

    /// One of a member's observer counters.
    pub fn counter(&self, id: u32, c: MemberCounter) -> u64 {
        self.nodes[id as usize].counters[c as usize]
    }

    /// A member's measured request rate (its meter window).
    pub(crate) fn load_of(&self, id: u32, now_ns: u64) -> f64 {
        self.nodes[id as usize].ctrl.meter().rate_rps(now_ns)
    }

    /// A member's current service time (M/M/1 model, its own load).
    pub fn service_time_ns(&self, id: u32, now_ns: u64) -> u64 {
        self.nodes[id as usize].ctrl.meter().service_time_ns(now_ns)
    }

    /// Size of a member's authoritative C-LIB shard.
    pub fn clib_len(&self, id: u32) -> usize {
        self.nodes[id as usize].ctrl.clib().len()
    }

    /// Size of a member's replica store.
    pub fn replica_len(&self, id: u32) -> usize {
        self.nodes[id as usize].replica.len()
    }

    /// A member's replication flush sequence (how many delta flushes it
    /// has originated).
    pub fn sync_seq(&self, id: u32) -> u64 {
        self.nodes[id as usize].sync_seq
    }

    /// A canonical 64-bit fingerprint of the plane's protocol-visible
    /// state — the model checker's dedup key and the determinism tests'
    /// cross-run checkpoint.
    ///
    /// Hierarchical: the plane-level fields (ownership map and epoch,
    /// confirmed-dead set, rebalance window) are hashed here, followed by
    /// one 64-bit sub-fingerprint per member, in member order. A member's
    /// sub-fingerprint (what it covers and leaves out is listed on
    /// `ClusterNode::fingerprint`) is cached in its `Member` slot and
    /// dropped by `Member::write`, so after a step this costs the shared
    /// fields plus a re-hash of the members that step wrote — not of the
    /// whole cluster.
    ///
    /// Debug builds re-derive every member's sub-fingerprint from scratch
    /// and compare it with the cache, which turns every debug test that
    /// fingerprints a plane into a differential test of the gate.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.u32(self.ownership.epoch());
        for (g, owner) in self.ownership.iter() {
            h.usize(g).u32(owner);
        }
        h.usize(self.confirmed_dead.len());
        for d in &self.confirmed_dead {
            h.u32(*d);
        }
        for (g, c) in &self.group_window {
            h.usize(*g).u64(*c);
        }
        for member in &self.nodes {
            debug_assert_eq!(
                member.fingerprint(),
                member.node.fingerprint(),
                "member {} was written without passing Member::write",
                member.id
            );
            h.u64(member.fingerprint());
        }
        h.finish()
    }

    /// Test/bench harness seam: queues a replication delta into a
    /// member's outbox exactly as organic C-LIB learning would, without
    /// driving a full switch conversation. The member's own C-LIB is
    /// taught too (through its ordinary message interface, like
    /// `seed_clib`), so the anti-entropy snapshot
    /// fallback — which rebuilds from the C-LIB — stays faithful for
    /// seam-injected state. The delta leaves at the member's next
    /// `ReplicaFlush` tick via the configured dissemination strategy.
    pub fn enqueue_delta(
        &mut self,
        id: u32,
        entries: Vec<HostEntry>,
        removed: Vec<(MacAddr, SwitchId)>,
    ) {
        let mut by_switch: BTreeMap<SwitchId, LfibSyncMsg> = BTreeMap::new();
        let node = self.nodes[id as usize].write();
        for e in entries {
            node.outbox_entries.insert(e.mac, e);
            node.outbox_removed.remove(&e.mac);
            by_switch
                .entry(e.switch)
                .or_insert_with(|| empty_sync(e.switch))
                .entries
                .push(LfibEntry {
                    mac: e.mac,
                    tenant: e.tenant,
                    port: e.port,
                });
        }
        for (mac, sw) in removed {
            node.outbox_entries.remove(&mac);
            node.outbox_removed.insert(mac, sw);
            by_switch
                .entry(sw)
                .or_insert_with(|| empty_sync(sw))
                .removed
                .push(mac);
        }
        let mut discard = OutputSink::new();
        // The seam has no clock. The member's workload meter wants
        // non-decreasing request times, so the arrival is stamped with
        // the newest one it has seen (0 on a fresh member).
        let now_ns = node.ctrl.meter().newest_ns();
        for (switch, sync) in by_switch {
            // Outputs (if any) are deliberately dropped: the seam models
            // state arrival, not a live switch conversation.
            node.ctrl.handle_message(
                now_ns,
                switch,
                &Message::lazy(0, LazyMsg::lfib_sync(sync)),
                &mut discard,
            );
            discard.clear();
        }
    }

    /// A member's merged view of a host location: its authoritative C-LIB
    /// shard first, then the replica (what convergence tests compare).
    pub fn view_of(&self, id: u32, mac: MacAddr) -> Option<HostEntry> {
        let node = &self.nodes[id as usize];
        node.ctrl
            .clib()
            .locate(mac)
            .map(|loc| HostEntry {
                mac,
                switch: loc.switch,
                port: loc.port,
                tenant: loc.tenant,
            })
            .or_else(|| node.replica.lookup(mac))
    }

    /// All ownership transfers initiated so far, in order.
    pub fn transfers(&self) -> &[OwnershipTransferMsg] {
        &self.transfers
    }

    /// Takeovers executed: `(dead member, groups moved)`.
    pub fn takeovers(&self) -> &[(u32, usize)] {
        &self.takeovers
    }

    /// Members that are functioning and not believed dead, ascending.
    fn live_members(&self) -> Vec<u32> {
        self.nodes
            .iter()
            .filter(|n| !n.crashed && !self.confirmed_dead.contains(&n.id))
            .map(|n| n.id)
            .collect()
    }

    /// Members not *confirmed* dead, ascending — the dissemination
    /// overlay's membership basis. Crashed-but-undetected members still
    /// occupy their overlay slot (their traffic simply vanishes until the
    /// heartbeat protocol confirms them dead and the overlay heals), the
    /// same rule the heartbeat ring uses.
    fn believed_alive(&self) -> impl Iterator<Item = u32> + '_ {
        self.nodes
            .iter()
            .map(|n| n.id)
            .filter(|id| !self.confirmed_dead.contains(id))
    }

    /// The believed-alive members other than `id`: who `id` heartbeats,
    /// canvasses and digests.
    fn peers_of(&self, id: u32) -> Vec<u32> {
        self.believed_alive().filter(|&p| p != id).collect()
    }

    /// The current leader: the functioning member holding the
    /// highest-term `Leader` election role, if any. (Ground-truth
    /// introspection for reports and tests — the protocol itself acts on
    /// each member's *own* role, never on this global view.)
    pub fn leader(&self) -> Option<u32> {
        self.nodes
            .iter()
            .filter(|n| {
                !n.crashed
                    && !self.confirmed_dead.contains(&n.id)
                    && n.election.role == ElectionRole::Leader
            })
            .max_by_key(|n| n.election.term)
            .map(|n| n.id)
    }

    /// A member's current election term.
    pub fn election_term(&self, id: u32) -> u64 {
        self.nodes[id as usize].election.term
    }

    /// A member's current election role.
    pub fn election_role(&self, id: u32) -> ElectionRole {
        self.nodes[id as usize].election.role
    }

    /// A member's replica per-origin contiguous heads (ascending by
    /// origin) — what the convergence invariant compares.
    pub fn replica_heads(&self, id: u32) -> Vec<(u32, u64)> {
        self.nodes[id as usize].replica.heads()
    }

    /// Epochs of transfers a member (as leader) has announced but not yet
    /// seen acknowledged by their target.
    pub fn unacked_transfer_epochs(&self, id: u32) -> Vec<u32> {
        self.nodes[id as usize]
            .unacked_transfers
            .keys()
            .copied()
            .collect()
    }

    /// Epochs of transfers a member has received as target.
    pub fn delivered_transfer_epochs(&self, id: u32) -> Vec<u32> {
        self.nodes[id as usize]
            .delivered_transfers
            .iter()
            .copied()
            .collect()
    }

    /// Election-safety monitor: times two distinct members led the same
    /// term. Cross-member ground truth (the plane holds every member);
    /// any nonzero value is a split-brain.
    pub fn double_leader_events(&self) -> u64 {
        self.double_leader_events
    }

    /// Whether `id` has heard heartbeats from a strict majority of the
    /// *static* cluster (itself included) within the leader-lease
    /// window — the evidence a leader needs to keep minting transfers
    /// and confirming deaths. Static size, not live membership: letting
    /// confirmed-dead members shrink the denominator is exactly how a
    /// minority island talks itself into a quorum.
    fn holds_lease(&self, id: u32, now_ns: u64) -> bool {
        // A two-member cluster has no minority/majority distinction: a
        // strict majority is both members, so demanding peer heartbeats
        // would turn any single peer crash into a permanent failover
        // deadlock. Election safety is unaffected — winning a vote still
        // needs both members — so the lease degenerates to always-held.
        if self.nodes.len() <= 2 {
            return true;
        }
        let lease_ns = LEADER_LEASE_MS as u64 * 1_000_000;
        let recent = self.nodes[id as usize]
            .last_hb_from
            .iter()
            .filter(|&(&p, &t)| p != id && now_ns.saturating_sub(t) <= lease_ns)
            .count();
        (recent + 1) * 2 > self.nodes.len()
    }

    /// Minority-side degradation: relinquish leadership (same term) and
    /// enter read-only mode. Cached lookups keep being served; transfers,
    /// death confirmations, candidacies and new lookup fan-outs stop
    /// until majority contact resumes.
    fn step_down_read_only(&mut self, id: u32) {
        let node = self.nodes[id as usize].write();
        if node.election.role == ElectionRole::Leader {
            node.election.relinquish_leadership();
        }
        if !node.read_only {
            node.read_only = true;
            node.count(MemberCounter::LeaseStepDowns, 1);
        }
    }

    // ---- Scenario hooks ------------------------------------------------

    /// Crashes a member: it silently drops every message and timer from
    /// now on, like a killed process. Detection and takeover follow from
    /// the heartbeat protocol. Experiments drive this through a
    /// `CrashController` event on their `EventPlan` (`lazyctrl-core`)
    /// rather than calling it directly. Bumping the timer generation
    /// invalidates every timer chain armed before the crash, so a later
    /// [`recover`] can re-arm without creating duplicates.
    ///
    /// [`recover`]: ClusterControlPlane::recover
    pub(crate) fn crash(&mut self, id: u32) {
        let node = self.nodes[id as usize].write();
        node.crashed = true;
        node.timer_gen = node.timer_gen.wrapping_add(1);
    }

    /// Restarts a crashed member (its state — C-LIB shard, replica —
    /// survives as-is, like a process restart from a checkpoint). Driven
    /// by a `RecoverController` plan event in experiments. Peers un-mark
    /// it as it heartbeats again; pushes fresh timer arms (the pre-crash
    /// chains were invalidated by the generation bump).
    pub(crate) fn recover(&mut self, id: u32, out: &mut OutputSink<ClusterOutput>) {
        if !self.nodes[id as usize].crashed {
            return;
        }
        let node = self.nodes[id as usize].write();
        node.crashed = false;
        // A restarted member must not resume a stale leadership claim: it
        // demotes to follower and re-earns the role through an election if
        // no live leader is heard within the timeout. Any pre-crash
        // read-only degradation is moot for a follower.
        node.election.step_down_after_restart();
        node.read_only = false;
        let gen = node.timer_gen;
        for (kind, interval_ms) in [
            (
                ClusterTimerKind::Inner(ControllerTimer::KeepAlive),
                self.cfg.lazy.keepalive_interval_ms,
            ),
            (
                ClusterTimerKind::Inner(ControllerTimer::RegroupCheck),
                REGROUP_CHECK_INTERVAL_MS,
            ),
        ] {
            out.push(ClusterOutput::SetTimer(
                ClusterTimer {
                    node: id,
                    kind,
                    gen,
                },
                interval_ms as u64 * 1_000_000,
            ));
        }
        self.cluster_timer_arms(id, gen, out);
    }

    /// The standard cluster-level timer set every functioning member
    /// runs: the one list `bootstrap` and `recover` both arm, so adding
    /// a timer kind cannot silently miss one of the two paths.
    fn cluster_timer_arms(&self, id: u32, gen: u32, out: &mut OutputSink<ClusterOutput>) {
        out.extend(
            [
                (
                    ClusterTimerKind::ReplicaFlush,
                    self.cfg.replica_flush_interval_ms,
                ),
                (ClusterTimerKind::Heartbeat, self.cfg.heartbeat_interval_ms),
                (
                    ClusterTimerKind::RebalanceCheck,
                    REBALANCE_CHECK_INTERVAL_MS,
                ),
                (
                    ClusterTimerKind::AntiEntropy,
                    self.cfg.anti_entropy_interval_ms,
                ),
                (ClusterTimerKind::Election, self.election_interval_ms(id)),
            ]
            .into_iter()
            .map(|(kind, interval_ms)| {
                ClusterOutput::SetTimer(
                    ClusterTimer {
                        node: id,
                        kind,
                        gen,
                    },
                    interval_ms as u64 * 1_000_000,
                )
            }),
        );
    }

    /// A member's election-timer interval: the timeout plus the
    /// id-proportional stagger that keeps concurrent timeouts from
    /// splitting votes forever.
    fn election_interval_ms(&self, id: u32) -> u32 {
        ELECTION_TIMEOUT_MS + id * ELECTION_STAGGER_MS
    }

    // ---- Bootstrap -----------------------------------------------------

    /// Bootstraps the cluster: member 0 computes the grouping (one SGI
    /// run) and every other member starts as a clone of its controller,
    /// so all members and the plane share one grouping view. Shards the
    /// groups round-robin and emits the initial `GroupAssign`s (member 0's,
    /// filtered per member by ownership: each switch hears exactly one,
    /// its owner's) plus all timers.
    pub fn bootstrap(
        &mut self,
        now_ns: u64,
        graph: WeightedGraph,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        assert!(self.grouping.is_none(), "cluster already bootstrapped");
        let mut sink = OutputSink::new();
        let first = self.nodes[0].write();
        first.ctrl.bootstrap(now_ns, graph, &mut sink);
        let ctrl = first.ctrl.clone();
        for member in self.nodes.iter_mut().skip(1) {
            member.write().ctrl = ctrl.clone();
        }
        let grouping = ctrl.grouping();
        self.grouping = grouping.view().cloned();
        let num_groups = grouping.num_groups().unwrap_or(0);
        let members: Vec<u32> = self.nodes.iter().map(|n| n.id).collect();
        self.ownership.assign_round_robin(num_groups, &members);
        // Peers start "heard from" at bootstrap so silence is measured
        // from t=0, not from negative infinity. The election likewise
        // starts from agreed consensus (term 1, member 0 leads) — sound
        // because bootstrap is a synchronous, fault-free step.
        for member in &mut self.nodes {
            let node = member.write();
            for &o in members.iter().filter(|&&m| m != node.id) {
                node.last_hb_from.insert(o, now_ns);
            }
            node.election = ElectionState::bootstrap_consensus(node.id, now_ns);
        }

        // Conversion waits for the ownership assignment above.
        let outs = sink.take_buf();
        for &id in &members {
            self.convert_outputs(id, &mut outs.clone(), true, out);
        }
        let arms: Vec<(u32, u32)> = self.nodes.iter().map(|n| (n.id, n.timer_gen)).collect();
        for (id, gen) in arms {
            self.cluster_timer_arms(id, gen, out);
        }
    }

    // ---- Switch-facing path --------------------------------------------

    /// Handles a message arriving from a switch. The driver routes it here
    /// after consulting [`Self::owner_of_switch`]; messages to a crashed
    /// member vanish (that is the outage the failover scenario measures).
    pub(crate) fn handle_switch_message(
        &mut self,
        now_ns: u64,
        from: SwitchId,
        msg: &Message,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        let Some(owner) = self.owner_of_switch(from) else {
            self.note_step(now_ns);
            return;
        };
        self.handle_switch_message_at(now_ns, owner, from, msg, out);
    }

    /// Bounded-ingress admission: drains the member's leaky bucket to
    /// `now_ns`, then either admits the message (charging its virtual
    /// service cost) or sheds it by priority class. Critical traffic —
    /// keepalives, liveness reports, anything election-bearing — is
    /// always admitted; flow setups shed first (at `slots`), lookups
    /// next (`1.5 × slots`), ownership/sync last (`2 × slots`).
    /// Shedding a flow setup emits a rate-limited ECN-style
    /// [`CongestionNoticeMsg`] back to the offending switch so it paces
    /// its PacketIn-driven setups. The whole path is closed-form in
    /// virtual time — no RNG draws — so replicated-RNG lockstep and
    /// bit-exact worker-count determinism hold by construction.
    ///
    /// Returns true when the message was admitted. A no-op returning
    /// true when the queue is unbounded (`ingress_queue_slots == 0`,
    /// the default), which keeps pre-existing reports bit-identical.
    fn admit_ingress(
        &mut self,
        now_ns: u64,
        owner: u32,
        from: SwitchId,
        msg: &Message,
        out: &mut OutputSink<ClusterOutput>,
    ) -> bool {
        let slots = self.cfg.ingress_queue_slots as u64;
        if slots == 0 {
            return true;
        }
        let cost = self.cfg.ingress_cost_ns;
        let node = self.nodes[owner as usize].write();
        let elapsed = now_ns.saturating_sub(node.ingress_last_ns);
        node.ingress_queued_ns = node.ingress_queued_ns.saturating_sub(elapsed);
        node.ingress_last_ns = now_ns;
        let prio = msg.priority();
        // Per-class high-water marks: the lower the class, the earlier it
        // sheds as backlog builds — the degradation ladder.
        let cap_ns = match prio {
            MsgPriority::Critical => u64::MAX,
            MsgPriority::OwnershipSync => slots.saturating_mul(2).saturating_mul(cost),
            MsgPriority::Lookup => slots.saturating_mul(3).saturating_mul(cost) / 2,
            MsgPriority::FlowSetup => slots.saturating_mul(cost),
        };
        if prio != MsgPriority::Critical && node.ingress_queued_ns.saturating_add(cost) > cap_ns {
            if prio == MsgPriority::FlowSetup {
                node.count(MemberCounter::SetupsShed, 1);
                let gap_ns = CONGESTION_NOTICE_INTERVAL_MS * 1_000_000;
                if node.last_congestion_notice_ns == 0
                    || now_ns.saturating_sub(node.last_congestion_notice_ns) >= gap_ns
                {
                    node.last_congestion_notice_ns = now_ns;
                    node.count(MemberCounter::CongestionSignals, 1);
                    // Pressure level: how many times over the flow-setup
                    // mark the backlog sits — the switch applies that many
                    // extra backoff doublings (capped on its side).
                    let level = (node.ingress_queued_ns / cap_ns.max(1)).clamp(1, 6) as u8;
                    let xid = node.next_xid();
                    out.push(ClusterOutput::ToSwitch {
                        from: owner,
                        to: from,
                        msg: Message::lazy(
                            xid,
                            LazyMsg::CongestionNotice(CongestionNoticeMsg { from: owner, level }),
                        ),
                    });
                }
            }
            return false;
        }
        node.ingress_queued_ns = node.ingress_queued_ns.saturating_add(cost);
        let highwater = &mut node.counters[MemberCounter::QueueHighwater as usize];
        *highwater = (*highwater).max(node.ingress_queued_ns / cost);
        true
    }

    /// Handles a switch message at an explicit member, bypassing the
    /// ownership route. This is the re-homing entry point: a driver whose
    /// network model says the owner is unreachable from the switch can,
    /// after its detection deadline, steer the traffic to a stand-in
    /// member. The stand-in serves from its replica and caches exactly as
    /// an owner would — ownership itself does not move, so when the
    /// partition heals the switch simply routes home again.
    pub fn handle_switch_message_at(
        &mut self,
        now_ns: u64,
        owner: u32,
        from: SwitchId,
        msg: &Message,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        self.note_step(now_ns);
        if self.nodes[owner as usize].crashed {
            return;
        }
        if !self.admit_ingress(now_ns, owner, from, msg, out) {
            return;
        }
        if let Some(g) = self.group_of_switch(from) {
            *self.group_window.entry(g).or_insert(0) += 1;
        }
        self.nodes[owner as usize]
            .write()
            .count(MemberCounter::RequestsHandled, 1);

        // Inter-shard pre-resolution: a PacketIn towards a host this shard
        // does not know is first tried against the replica, then against a
        // synchronous peer lookup.
        if let Some(dst) = unresolved_unicast_dst(&self.nodes[owner as usize].ctrl, msg) {
            let replicated = self.nodes[owner as usize].replica.lookup(dst);
            if let Some(entry) = replicated {
                self.seed_clib(owner, now_ns, &[entry], out);
                self.process_at(owner, now_ns, from, msg, out);
                return;
            }
            let peers: Vec<u32> = self
                .live_members()
                .into_iter()
                .filter(|&p| p != owner)
                .collect();
            // A read-only (minority-partitioned) member serves from its
            // caches only: a lookup fan-out would just wedge on peers it
            // cannot reach, so the queued message goes straight to the
            // inner controller's scoped-ARP relay fallback instead.
            if !peers.is_empty() && !self.nodes[owner as usize].read_only {
                let lookup_timeout_ns = LOOKUP_TIMEOUT_MS * 1_000_000;
                let node = self.nodes[owner as usize].write();
                let pending = node.pending_lookups.entry(dst).or_default();
                pending.queued.push((from, msg.clone()));
                if !pending.waiting_on.is_empty() {
                    // A lookup is already in flight; ride it.
                    return;
                }
                pending.waiting_on = peers.iter().copied().collect();
                pending.deadline_ns = now_ns + lookup_timeout_ns;
                pending.retries = 0;
                for p in peers {
                    let req = LookupRequestMsg {
                        from: owner,
                        mac: dst,
                    };
                    node.send_peer(p, ClusterMsg::LookupRequest(req), out);
                }
                return;
            }
        }
        self.process_at(owner, now_ns, from, msg, out);
    }

    /// Runs a switch message through a member's inner controller, captures
    /// replication deltas, and converts the outputs.
    fn process_at(
        &mut self,
        id: u32,
        now_ns: u64,
        from: SwitchId,
        msg: &Message,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        let node = self.nodes[id as usize].write();
        // Mirror the controller's C-LIB learning into the replication
        // outbox (same sources: PacketIn source learning, L-FIB syncs).
        match &msg.body {
            MessageBody::Of(OfMessage::PacketIn(pi)) => {
                if let Ok(frame) = EthernetFrame::decode(&pi.data) {
                    if frame.src.is_unicast() {
                        let tenant = frame.vlan.map(|t| t.vid()).unwrap_or(TenantId::NONE);
                        let entry = HostEntry {
                            mac: frame.src,
                            switch: from,
                            port: pi.in_port,
                            tenant,
                        };
                        node.outbox_entries.insert(frame.src, entry);
                        node.outbox_removed.remove(&frame.src);
                    }
                }
            }
            MessageBody::Lazy(LazyMsg::LfibSync(sync)) => {
                for e in &sync.entries {
                    let entry = HostEntry {
                        mac: e.mac,
                        switch: sync.origin,
                        port: e.port,
                        tenant: e.tenant,
                    };
                    node.outbox_entries.insert(e.mac, entry);
                    node.outbox_removed.remove(&e.mac);
                }
                for mac in &sync.removed {
                    node.outbox_entries.remove(mac);
                    node.outbox_removed.insert(*mac, sync.origin);
                }
            }
            _ => {}
        }
        node.ctrl
            .handle_message(now_ns, from, msg, &mut self.ctrl_scratch);
        self.convert_scratch(id, false, out);
    }

    // ---- Controller-to-controller path ---------------------------------

    /// Handles a message arriving on the controller-peer link. (`from` is
    /// the link-level sender; the protocol carries origins in the message
    /// bodies, which is what the handlers trust — except transfer acks,
    /// which go back to whoever delivered the announcement.)
    pub(crate) fn handle_ctrl_message(
        &mut self,
        now_ns: u64,
        from: u32,
        to: u32,
        msg: &Message,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        self.note_step(now_ns);
        if self.nodes[to as usize].crashed {
            return;
        }
        let body = match (msg.as_cluster(), msg.as_lazy()) {
            (Some(cluster), _) => CtrlBody::Cluster(cluster),
            // Table-I reuse: controller-ring loss observations travel as
            // the same WheelReport message switches use.
            (_, Some(LazyMsg::WheelReport(report))) => CtrlBody::Wheel(*report),
            _ => return,
        };
        match body {
            CtrlBody::Wheel(report) => self.observe_ctrl_loss(to, now_ns, report, out),
            CtrlBody::Cluster(ClusterMsg::PeerSync(sync)) => {
                // Direct sync: flood delivery or anti-entropy catch-up.
                // Applied unconditionally (replica application is
                // idempotent) — the dedup window only guards the relay
                // overlay against re-circulation.
                if sync.origin != to {
                    let node = self.nodes[to as usize].write();
                    // Always apply (idempotent, and a catch-up sync's
                    // payload is a superset of the original chunk under
                    // the same key) — the dedup window only decides how
                    // the application is *counted*.
                    let fresh = node.note_seen(sync);
                    node.replica.apply(sync);
                    if fresh {
                        node.count(MemberCounter::DirectApplies, 1);
                    } else {
                        node.count(MemberCounter::DuplicateDrops, 1);
                    }
                }
            }
            CtrlBody::Cluster(ClusterMsg::SyncRelay(bundle)) => self.absorb_relay(to, bundle),
            CtrlBody::Cluster(ClusterMsg::SyncDigest(digest)) => self.serve_digest(to, digest, out),
            CtrlBody::Cluster(ClusterMsg::Heartbeat(hb)) => {
                // A heartbeat from a confirmed-dead member means it came
                // back; later rebalance checks may hand it groups again.
                self.confirmed_dead.remove(&hb.from);
                let node = self.nodes[to as usize].write();
                node.last_hb_from.insert(hb.from, now_ns);
                node.peer_loads.insert(hb.from, hb.load_rps);
                node.detector.mark_recovered(ctrl_pseudo_switch(hb.from));
                node.election.observe_term(hb.term);
                if hb.leader {
                    // Only a *leader's* heartbeat suppresses candidacy —
                    // follower chatter proves nothing about leadership.
                    if node.election.accept_leader(hb.term, hb.from, now_ns) {
                        // Following a live leader ends read-only
                        // degradation: the cluster is functioning again.
                        node.read_only = false;
                    }
                }
                if self.nodes[to as usize].read_only && self.holds_lease(to, now_ns) {
                    // The partition healed from this side's perspective:
                    // a majority is heartbeating again.
                    self.nodes[to as usize].write().read_only = false;
                }
            }
            CtrlBody::Cluster(ClusterMsg::OwnershipTransfer(t)) => {
                // The plane's authoritative map was updated at initiation;
                // the new owner seeds its C-LIB shard when it *hears* about
                // the transfer, which is the asynchronous part.
                if t.to == to {
                    let node = self.nodes[to as usize].write();
                    let first = node.delivered_transfers.insert(t.epoch);
                    // Always ack — even a duplicate announcement, since
                    // the *previous ack* may be what was lost. The ack
                    // goes to the link-level sender (the announcing
                    // leader, original or retransmitting).
                    let ack = TransferAckMsg {
                        from: to,
                        epoch: t.epoch,
                        group: t.group,
                    };
                    node.send_peer(from, ClusterMsg::TransferAck(ack), out);
                    if first {
                        self.seed_group(to, now_ns, t.group.index(), out);
                    }
                }
            }
            CtrlBody::Cluster(ClusterMsg::TransferAck(ack)) => {
                let member = &mut self.nodes[to as usize];
                if member
                    .unacked_transfers
                    .get(&ack.epoch)
                    .is_some_and(|u| u.msg.to == ack.from)
                {
                    member.write().unacked_transfers.remove(&ack.epoch);
                }
            }
            CtrlBody::Cluster(ClusterMsg::VoteRequest(req)) => {
                let node = self.nodes[to as usize].write();
                let granted = node.election.grant_vote(req.term, req.candidate);
                let reply = VoteReplyMsg {
                    term: node.election.term,
                    from: to,
                    granted,
                };
                node.send_peer(req.candidate, ClusterMsg::VoteReply(reply), out);
            }
            CtrlBody::Cluster(ClusterMsg::VoteReply(reply)) => {
                let cluster_size = self.nodes.len();
                let node = self.nodes[to as usize].write();
                if node.election.observe_term(reply.term) {
                    // A peer is already in a newer term; this candidacy is
                    // over (observe_term stepped us down).
                    return;
                }
                if reply.granted
                    && reply.term == node.election.term
                    && node.election.role == ElectionRole::Candidate
                {
                    node.election.record_grant(reply.from);
                    if node.election.has_majority(cluster_size) {
                        self.win_election(to, now_ns, out);
                    }
                }
            }
            CtrlBody::Cluster(ClusterMsg::LeaderClaim(claim)) => {
                let node = self.nodes[to as usize].write();
                if node
                    .election
                    .accept_leader(claim.term, claim.leader, now_ns)
                {
                    node.read_only = false;
                }
            }
            CtrlBody::Cluster(ClusterMsg::LookupRequest(req)) => {
                let node = self.nodes[to as usize].write();
                let location = node
                    .ctrl
                    .clib()
                    .locate(req.mac)
                    .map(|loc| HostEntry {
                        mac: req.mac,
                        switch: loc.switch,
                        port: loc.port,
                        tenant: loc.tenant,
                    })
                    .or_else(|| node.replica.lookup(req.mac));
                let reply = LookupReplyMsg {
                    from: to,
                    mac: req.mac,
                    location,
                };
                node.send_peer(req.from, ClusterMsg::LookupReply(reply), out);
            }
            CtrlBody::Cluster(ClusterMsg::LookupReply(reply)) => {
                self.resolve_lookup(to, now_ns, reply, out);
            }
        }
    }

    /// Applies a lookup reply: on a hit, seed the shard's C-LIB and replay
    /// the queued switch messages; when every peer came back empty, replay
    /// anyway so the inner controller runs its scoped-ARP relay fallback.
    fn resolve_lookup(
        &mut self,
        id: u32,
        now_ns: u64,
        reply: &LookupReplyMsg,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        let node = self.nodes[id as usize].write();
        let Some(pending) = node.pending_lookups.get_mut(&reply.mac) else {
            return;
        };
        pending.waiting_on.remove(&reply.from);
        let resolved = reply.location.is_some();
        if !resolved && !pending.waiting_on.is_empty() {
            return;
        }
        let queued = std::mem::take(&mut pending.queued);
        node.pending_lookups.remove(&reply.mac);
        if let Some(entry) = reply.location {
            self.seed_clib(id, now_ns, &[entry], out);
        }
        for (from, msg) in queued {
            self.process_at(id, now_ns, from, &msg, out);
        }
    }

    /// Deadline sweep for pending peer lookups (runs on the heartbeat
    /// tick): an expired round counts as a timeout and retries against
    /// the next-best outstanding replica with exponential backoff; once
    /// the retry budget is spent the lookup is abandoned and its queued
    /// switch messages replay through the inner controller's scoped-ARP
    /// relay fallback — a dead or partitioned peer must not strand a
    /// flow setup forever.
    fn expire_lookups(&mut self, id: u32, now_ns: u64, out: &mut OutputSink<ClusterOutput>) {
        if self.nodes[id as usize].pending_lookups.is_empty() {
            return;
        }
        let timeout_ns = LOOKUP_TIMEOUT_MS * 1_000_000;
        let expired: Vec<MacAddr> = self.nodes[id as usize]
            .pending_lookups
            .iter()
            .filter(|(_, p)| !p.waiting_on.is_empty() && now_ns >= p.deadline_ns)
            .map(|(&mac, _)| mac)
            .collect();
        for mac in expired {
            let node = self.nodes[id as usize].write();
            node.count(MemberCounter::LookupTimeouts, 1);
            let pending = node.pending_lookups.get_mut(&mac).expect("just listed");
            if pending.retries >= LOOKUP_MAX_RETRIES {
                let queued = std::mem::take(&mut pending.queued);
                node.pending_lookups.remove(&mac);
                for (from, msg) in queued {
                    self.process_at(id, now_ns, from, &msg, out);
                }
                continue;
            }
            pending.retries += 1;
            let retries = pending.retries;
            // Next-best replica: the lowest-id peer still outstanding
            // (the ones that answered are gone from the set already).
            let target = *pending.waiting_on.iter().next().expect("set is non-empty");
            pending.deadline_ns = now_ns + timeout_ns * (1u64 << retries.min(16));
            let req = LookupRequestMsg { from: id, mac };
            node.send_peer(target, ClusterMsg::LookupRequest(req), out);
        }
    }

    /// Feeds one controller-ring loss observation into a member's Table-I
    /// detector; a both-directions inference triggers takeover if this
    /// member is the leader.
    fn observe_ctrl_loss(
        &mut self,
        at: u32,
        now_ns: u64,
        report: WheelReportMsg,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        let inferred = self.nodes[at as usize]
            .write()
            .detector
            .observe(now_ns, &report);
        let Some(FailureKind::Switch(pseudo)) = inferred else {
            // Single-direction losses on the controller ring are link
            // noise; only a both-directions silence is a dead controller.
            return;
        };
        let dead = pseudo.0 & !CTRL_PSEUDO_BASE;
        if self.confirmed_dead.contains(&dead) {
            return;
        }
        // Only a member that *believes itself* leader acts — a distributed
        // decision, unlike the old lowest-live-id rule which two members
        // could transiently disagree on. A node elected *after* its
        // detector latched the death handles it via the takeover sweep in
        // `win_election` (the detector infers each death exactly once).
        if self.nodes[at as usize].election.role != ElectionRole::Leader {
            return;
        }
        // Partition guard: a leader without a live majority lease must
        // not confirm deaths — on the minority side of a partition its
        // detector sees exactly the cross-cut silence a real crash would
        // produce, and a takeover here is how split-brain ownership is
        // minted. Degrade to read-only instead; the majority side (which
        // still holds quorum) runs the takeover. The death stays latched
        // in this member's detector, so if it is ever legitimately
        // re-elected, the `win_election` sweep revisits it.
        if !self.holds_lease(at, now_ns) {
            self.step_down_read_only(at);
            return;
        }
        self.take_over(at, now_ns, dead, out);
    }

    /// Leader-side takeover: move every group of `dead` to the surviving
    /// members (least-loaded first), announce the transfers, and seed the
    /// leader's own shard where it is the new owner.
    fn take_over(
        &mut self,
        leader: u32,
        now_ns: u64,
        dead: u32,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        self.confirmed_dead.insert(dead);
        // Transfers still awaiting the dead member's ack are moot: its
        // groups are about to move again, to live targets.
        self.nodes[leader as usize]
            .write()
            .unacked_transfers
            .retain(|_, u| u.msg.to != dead);
        let groups = self.ownership.groups_of(dead);
        // live_members() excludes `dead` now that it is confirmed dead.
        let mut survivors: Vec<u32> = self.live_members();
        if survivors.is_empty() {
            return;
        }
        // Lookups waiting on the dead member would wedge forever: sweep it
        // from every pending set, and replay lookups that just lost their
        // final outstanding reply (the inner controller's relay fallback
        // takes over).
        let mut replays: Vec<(u32, SwitchId, Message)> = Vec::new();
        for member in &mut self.nodes {
            if member.crashed || member.pending_lookups.is_empty() {
                continue;
            }
            let nid = member.id;
            member.write().pending_lookups.retain(|_, pending| {
                pending.waiting_on.remove(&dead);
                if pending.waiting_on.is_empty() {
                    for (from, msg) in pending.queued.drain(..) {
                        replays.push((nid, from, msg));
                    }
                    false
                } else {
                    true
                }
            });
        }
        for (nid, from, msg) in replays {
            self.process_at(nid, now_ns, from, &msg, out);
        }
        // Least-loaded first so the takeover itself rebalances.
        survivors.sort_by(|&a, &b| {
            self.load_of(a, now_ns)
                .partial_cmp(&self.load_of(b, now_ns))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for (i, &g) in groups.iter().enumerate() {
            let target = survivors[i % survivors.len()];
            self.transfer_group(
                leader,
                now_ns,
                g,
                target,
                TransferReason::Failover,
                &survivors,
                out,
            );
        }
        self.takeovers.push((dead, groups.len()));
    }

    /// The leader's half of an ownership transfer: moves `group` to
    /// `target` in the authoritative map, tracks the move until the
    /// target acks (heartbeat ticks retransmit it with capped exponential
    /// backoff), announces it to every member of `peers` but the leader,
    /// and seeds the leader's own shard when it is the target.
    #[allow(clippy::too_many_arguments)]
    fn transfer_group(
        &mut self,
        leader: u32,
        now_ns: u64,
        group: usize,
        target: u32,
        reason: TransferReason,
        peers: &[u32],
        out: &mut OutputSink<ClusterOutput>,
    ) {
        let term = self.nodes[leader as usize].election.term;
        let t = self.ownership.transfer(group, target, reason, term);
        self.transfers.push(t);
        let next_retry_ns = now_ns + self.cfg.heartbeat_interval_ns();
        let node = self.nodes[leader as usize].write();
        if target != leader {
            let unacked = UnackedTransfer {
                msg: t,
                attempts: 0,
                next_retry_ns,
            };
            node.unacked_transfers.insert(t.epoch, unacked);
        }
        for &peer in peers.iter().filter(|&&p| p != leader) {
            node.send_peer(peer, ClusterMsg::OwnershipTransfer(t), out);
        }
        if target == leader {
            self.seed_group(leader, now_ns, group, out);
        }
    }

    // ---- Timers --------------------------------------------------------

    /// Handles a cluster timer.
    pub(crate) fn handle_timer(
        &mut self,
        now_ns: u64,
        timer: ClusterTimer,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        self.note_step(now_ns);
        let id = timer.node;
        if self.nodes[id as usize].crashed {
            // A crashed member's timers die with it; `recover` re-arms.
            return;
        }
        if timer.gen != self.nodes[id as usize].timer_gen {
            // A chain armed before a crash; `recover` started fresh ones.
            return;
        }
        match timer.kind {
            ClusterTimerKind::Inner(t) => {
                self.nodes[id as usize]
                    .write()
                    .ctrl
                    .on_timer(now_ns, t, &mut self.ctrl_scratch);
                self.convert_scratch(id, true, out);
            }
            ClusterTimerKind::ReplicaFlush => self.flush_replicas(id, timer, out),
            ClusterTimerKind::Heartbeat => self.heartbeat(id, now_ns, timer, out),
            ClusterTimerKind::RebalanceCheck => self.rebalance_check(id, now_ns, timer, out),
            ClusterTimerKind::AntiEntropy => self.anti_entropy(id, timer, out),
            ClusterTimerKind::Election => self.election_timer(id, now_ns, timer, out),
        }
    }

    /// Election timeout: if no live leader has been heard within the
    /// timeout, open a new term and solicit votes. The timer runs
    /// perpetually on every member (like the other cluster timers) and
    /// no-ops while leadership is healthy.
    fn election_timer(
        &mut self,
        id: u32,
        now_ns: u64,
        timer: ClusterTimer,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        out.push(self.rearm(timer, self.election_interval_ms(id)));
        let timeout_ns = ELECTION_TIMEOUT_MS as u64 * 1_000_000;
        let cluster_size = self.nodes.len();
        let member = &mut self.nodes[id as usize];
        if member.election.role == ElectionRole::Leader {
            return;
        }
        if member.read_only {
            // A read-only ex-leader knows it cannot reach a majority;
            // spinning terms from the minority island would only disrupt
            // the healed cluster later. Quorum contact clears the flag.
            return;
        }
        if now_ns.saturating_sub(member.election.last_leader_hb_ns) < timeout_ns {
            return;
        }
        let node = member.write();
        node.election.start_candidacy(id);
        let term = node.election.term;
        if node.election.has_majority(cluster_size) {
            // Single-member cluster: own vote is a majority.
            self.win_election(id, now_ns, out);
            return;
        }
        let peers = self.peers_of(id);
        let node = self.nodes[id as usize].write();
        for peer in peers {
            let req = VoteRequestMsg {
                term,
                candidate: id,
            };
            node.send_peer(peer, ClusterMsg::VoteRequest(req), out);
        }
    }

    /// A candidate reached majority: assume leadership, announce the
    /// claim, then sweep the detector for deaths this member latched
    /// *before* becoming leader. The detector infers each death exactly
    /// once ([`FailureDetector::observe`] latches), so without the sweep
    /// a death inferred while this member was a follower would never be
    /// taken over by anyone.
    fn win_election(&mut self, id: u32, now_ns: u64, out: &mut OutputSink<ClusterOutput>) {
        let term = {
            let node = self.nodes[id as usize].write();
            node.election.become_leader(id);
            node.election.last_leader_hb_ns = now_ns;
            // A fresh majority of votes is quorum evidence in itself.
            node.read_only = false;
            node.election.term
        };
        // Election-safety monitor: a term may crown at most one leader.
        match self.term_leaders.get(&term) {
            Some(&prev) if prev != id => self.double_leader_events += 1,
            Some(_) => {}
            None => {
                self.term_leaders.insert(term, id);
            }
        }
        let peers = self.peers_of(id);
        let node = self.nodes[id as usize].write();
        for peer in peers {
            let claim = LeaderClaimMsg { term, leader: id };
            node.send_peer(peer, ClusterMsg::LeaderClaim(claim), out);
        }
        let latched: Vec<u32> = self.nodes[id as usize]
            .detector
            .down_switches()
            .into_iter()
            .filter(|p| p.0 & CTRL_PSEUDO_BASE == CTRL_PSEUDO_BASE)
            .map(|p| p.0 & !CTRL_PSEUDO_BASE)
            .filter(|d| *d != id && !self.confirmed_dead.contains(d))
            .collect();
        for dead in latched {
            self.take_over(id, now_ns, dead, out);
        }
    }

    fn rearm(&self, timer: ClusterTimer, interval_ms: u32) -> ClusterOutput {
        ClusterOutput::SetTimer(timer, interval_ms as u64 * 1_000_000)
    }

    /// Drains the member's C-LIB delta outbox (plus any foreign chunks
    /// queued for relay) onto the dissemination overlay: per-peer
    /// `PeerSync`s under flood, one `SyncRelay` bundle to the ring
    /// successor under ring — the bundling that turns a flush round from
    /// O(n²) messages into O(n).
    fn flush_replicas(
        &mut self,
        id: u32,
        timer: ClusterTimer,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        let mut alive: Vec<u32> = self.believed_alive().collect();
        // A recovered member may flush before its comeback heartbeat
        // un-confirms it cluster-wide. It must still occupy its own
        // overlay slot, or it has no ring successor and the flush
        // (outbox already drained, sequence already bumped) is
        // silently lost until anti-entropy happens to repair it.
        if let Err(i) = alive.binary_search(&id) {
            alive.insert(i, id);
        }
        let member = &mut self.nodes[id as usize];
        let mut own_chunks: Vec<PeerSyncMsg> = Vec::new();
        if alive.len() > 1
            && (!member.outbox_entries.is_empty() || !member.outbox_removed.is_empty())
        {
            let node = member.write();
            node.sync_seq += 1;
            let entries: Vec<HostEntry> = std::mem::take(&mut node.outbox_entries)
                .into_values()
                .collect();
            let removed: Vec<(MacAddr, SwitchId)> = std::mem::take(&mut node.outbox_removed)
                .into_iter()
                .collect();
            // Remember flushed withdrawals (bounded, oldest evicted) for
            // the snapshot fallback; a fresh learn supersedes the
            // tombstone.
            for e in &entries {
                node.own_tombstones.remove(&e.mac);
            }
            for (mac, sw) in &removed {
                node.tomb_stamp += 1;
                node.own_tombstones.insert(*mac, (*sw, node.tomb_stamp));
            }
            crate::replica::evict_oldest(
                &mut node.own_tombstones,
                crate::replica::TOMBSTONE_CAP,
                |&(_, stamp)| stamp,
            );
            // Bounded chunks (~64 KiB at 2000 × 14 B) keep the
            // largest wire message flat no matter how much churn a flush
            // interval accumulated.
            own_chunks =
                PeerSyncMsg::chunked(id, node.sync_seq, entries, removed, SYNC_CHUNK_ENTRIES);
            node.count(MemberCounter::ChunksCreated, own_chunks.len() as u64);
            node.log_own_chunks(&own_chunks, self.cfg.delta_log_flushes);
        }

        match self.cfg.dissemination {
            // Flood never queues relays, so only own chunks go out.
            DisseminationStrategy::Flood if !own_chunks.is_empty() => {
                let node = member.write();
                for &peer in alive.iter().filter(|&&p| p != id) {
                    for chunk in &own_chunks {
                        let msg = ClusterMsg::peer_sync(chunk.clone());
                        node.send_overlay(peer, chunk.wire_len(), msg, out);
                    }
                }
            }
            DisseminationStrategy::Ring => {
                if let Some((_, next)) = ring_neighbours(id, &alive) {
                    if !member.relay_outbox.is_empty() || !own_chunks.is_empty() {
                        let node = member.write();
                        let mut syncs: Vec<PeerSyncMsg> = node.relay_outbox.drain(..).collect();
                        syncs.extend(own_chunks);
                        let bundle = SyncRelayMsg { from: id, syncs };
                        // Charged 2 bytes per bundled sync above the encoded
                        // body (each sync counts its subtype), as
                        // `peer_sync_bytes` has always reported.
                        let bytes = bundle.wire_len();
                        node.send_overlay(next, bytes, ClusterMsg::sync_relay(bundle), out);
                    }
                }
            }
            DisseminationStrategy::Flood => {}
        }
        out.push(self.rearm(timer, self.cfg.replica_flush_interval_ms));
    }

    /// Absorbs a relay bundle at `at`: applies every chunk not seen
    /// before and, under ring, queues it for the next hop unless that hop
    /// is the chunk's origin. Chunks already in the dedup window
    /// (including this member's own chunks completing a lap) are not
    /// queued again: a duplicated bundle would otherwise circulate twice,
    /// and every extra copy costs a wire message even though receivers
    /// dedup — the at-most-once forwarding property the model checker
    /// verifies.
    fn absorb_relay(&mut self, at: u32, bundle: &SyncRelayMsg) {
        let next_hop = match self.cfg.dissemination {
            DisseminationStrategy::Flood => None,
            DisseminationStrategy::Ring => {
                let alive: Vec<u32> = self.believed_alive().collect();
                ring_neighbours(at, &alive).map(|(_, next)| next)
            }
        };
        let node = self.nodes[at as usize].write();
        for sync in &bundle.syncs {
            #[cfg(not(feature = "mc-mutations"))]
            let fresh = node.note_seen(sync);
            // Deliberate protocol mutation for checker self-tests:
            // treat every chunk as fresh, reintroducing the
            // duplicate-forwarding bug the dedup window exists to prevent.
            #[cfg(feature = "mc-mutations")]
            let fresh = {
                let _ = node.note_seen(sync);
                true
            };
            if !fresh {
                node.count(MemberCounter::DuplicateDrops, 1);
                continue;
            }
            if sync.origin != at {
                // Foreign chunk: absorb it. (An own chunk completing a
                // lap is already applied locally — only its forwarding
                // freshness matters.)
                node.replica.apply(sync);
                node.count(MemberCounter::RelayApplies, 1);
                if next_hop.is_some_and(|next| next != sync.origin) {
                    node.queue_relay(sync.clone());
                }
            }
        }
    }

    /// Sends this member's anti-entropy digest to one rotating
    /// believed-alive peer.
    fn anti_entropy(&mut self, id: u32, timer: ClusterTimer, out: &mut OutputSink<ClusterOutput>) {
        let peers = self.peers_of(id);
        if !peers.is_empty() {
            let node = self.nodes[id as usize].write();
            let target = peers[(node.ae_round % peers.len() as u64) as usize];
            node.ae_round += 1;
            let mut heads: BTreeMap<u32, u64> = node.replica.heads().into_iter().collect();
            heads.insert(id, node.sync_seq);
            node.count(MemberCounter::DigestsSent, 1);
            let digest = SyncDigestMsg {
                from: id,
                heads: heads.into_iter().collect(),
            };
            node.send_peer(target, ClusterMsg::sync_digest(digest), out);
        }
        out.push(self.rearm(timer, self.cfg.anti_entropy_interval_ms));
    }

    /// Serves a peer's digest at `at`: for every origin where the sender
    /// trails this member's contiguous knowledge, push the gap back
    /// directly — an exact replay from the delta log for `at`'s own
    /// origin (falling back to a full-shard *summary* snapshot when the
    /// log was truncated), and for foreign origins a summary of the
    /// attributed replica knowledge up to this member's contiguous head
    /// (entries plus tombstoned withdrawals), followed by any
    /// beyond-the-gap deltas it holds pending. This is what reconverges a
    /// member that slept through relayed deltas — and, because digests
    /// carry *contiguous* heads, it also repairs holes punched into the
    /// middle of a member's sequence by mid-circulation crashes.
    fn serve_digest(
        &mut self,
        at: u32,
        digest: &SyncDigestMsg,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        let their: BTreeMap<u32, u64> = digest.heads.iter().copied().collect();
        let mut to_send: Vec<PeerSyncMsg> = Vec::new();
        {
            let node = &self.nodes[at as usize];
            // Own origin: exact replay from the bounded delta log.
            let sender_head = their.get(&at).copied().unwrap_or(0);
            if sender_head < node.sync_seq {
                let oldest_logged = node.delta_log.front().map(|s| s.seq);
                let log_covers = oldest_logged.is_some_and(|o| o <= sender_head + 1);
                if log_covers {
                    to_send.extend(
                        node.delta_log
                            .iter()
                            .filter(|s| s.seq > sender_head)
                            .cloned(),
                    );
                } else {
                    // The log no longer reaches back far enough: send the
                    // authoritative shard — entries from the C-LIB (the
                    // origin's ground truth) plus remembered withdrawals
                    // (`own_tombstones`), so a far-behind peer's stale
                    // entries get removed instead of surviving behind an
                    // advanced head — as a summary snapshot under the
                    // *current* sequence. No bump, no log entry, no
                    // chunks_created: the snapshot is repair traffic
                    // rebuilt from the C-LIB on demand, and advancing the
                    // sequence here would make every *other* peer trail
                    // by one head and digest the same full shard in turn.
                    let entries: Vec<HostEntry> = node
                        .ctrl
                        .clib()
                        .iter()
                        .map(|(mac, loc)| HostEntry {
                            mac,
                            switch: loc.switch,
                            port: loc.port,
                            tenant: loc.tenant,
                        })
                        .collect();
                    let removed: Vec<(MacAddr, SwitchId)> = node
                        .own_tombstones
                        .iter()
                        .map(|(mac, (sw, _))| (*mac, *sw))
                        .collect();
                    let mut chunks = PeerSyncMsg::chunked(
                        at,
                        node.sync_seq,
                        entries,
                        removed,
                        SYNC_CHUNK_ENTRIES,
                    );
                    mark_last_as_summary(&mut chunks);
                    to_send.extend(chunks);
                }
            }
            // Foreign origins: the *gap* the sender is missing —
            // attributed knowledge in `(their_head, my_head]`, never
            // beyond this member's own contiguous head (that would claim
            // completeness over a gap it has itself) — then the pending
            // beyond-the-gap deltas as ordinary deltas.
            for (origin, my_head) in node.replica.heads() {
                if origin == digest.from || origin == at {
                    continue;
                }
                let their_head = their.get(&origin).copied().unwrap_or(0);
                if their_head < my_head {
                    let (entries, removed) = node.replica.knowledge_since(origin, their_head);
                    let mut chunks =
                        PeerSyncMsg::chunked(origin, my_head, entries, removed, SYNC_CHUNK_ENTRIES);
                    mark_last_as_summary(&mut chunks);
                    to_send.extend(chunks);
                }
                for seq in node.replica.pending_seqs(origin) {
                    if their_head >= seq {
                        continue;
                    }
                    let (entries, removed) = node.replica.pending_delta(origin, seq);
                    to_send.extend(PeerSyncMsg::chunked(
                        origin,
                        seq,
                        entries,
                        removed,
                        SYNC_CHUNK_ENTRIES,
                    ));
                }
            }
        }
        if to_send.is_empty() {
            return;
        }
        // Catch-up rides direct syncs but is *repair* traffic, counted as
        // `CatchupSyncs` — not as `SyncMessages`, which measures the
        // dissemination overlay's steady-state cost.
        let node = self.nodes[at as usize].write();
        node.count(MemberCounter::CatchupSyncs, to_send.len() as u64);
        for sync in to_send {
            node.send_peer(digest.from, ClusterMsg::peer_sync(sync), out);
        }
    }

    /// Sends ring heartbeats (to every live peer, loads piggybacked) and
    /// reports silent ring neighbours via Table-I wheel reports. The
    /// heartbeat tick is also the plane's periodic sweep: leader-lease
    /// maintenance (step down to read-only on majority silence, readmit
    /// on quorum contact) and pending-lookup deadlines ride it.
    fn heartbeat(
        &mut self,
        id: u32,
        now_ns: u64,
        timer: ClusterTimer,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        self.expire_lookups(id, now_ns, out);
        if self.nodes[id as usize].read_only {
            if self.holds_lease(id, now_ns) {
                self.nodes[id as usize].write().read_only = false;
            }
        } else if self.nodes[id as usize].election.role == ElectionRole::Leader
            && !self.holds_lease(id, now_ns)
        {
            self.step_down_read_only(id);
        }
        let peers = self.peers_of(id);
        let load = self.load_of(id, now_ns);
        let owned = self.ownership.groups_of(id).len() as u32;
        {
            let node = self.nodes[id as usize].write();
            node.hb_seq += 1;
            let term = node.election.term;
            let is_leader = node.election.role == ElectionRole::Leader;
            let hb = CtrlHeartbeatMsg {
                from: id,
                seq: node.hb_seq,
                load_rps: load,
                owned_groups: owned,
                term,
                leader: is_leader,
            };
            for &peer in &peers {
                node.send_peer(peer, ClusterMsg::Heartbeat(hb), out);
            }
            if is_leader {
                // Repair the transfer in-flight-loss window: re-announce
                // unacked transfers that are due, with capped exponential
                // backoff (1, 2, 4, … heartbeat intervals up to the cap) —
                // a long partition must not flood the heal with one
                // retransmit per tick. (Targets already confirmed dead
                // were pruned at takeover; an undetected crash just means
                // the retransmit vanishes and a later tick retries.)
                let hb_ns = self.cfg.heartbeat_interval_ns();
                let mut resend: Vec<OwnershipTransferMsg> = Vec::new();
                for u in node.unacked_transfers.values_mut() {
                    if now_ns < u.next_retry_ns {
                        continue;
                    }
                    u.attempts += 1;
                    let backoff = 1u64
                        .checked_shl(u.attempts)
                        .unwrap_or(u64::MAX)
                        .min(TRANSFER_RETRANSMIT_BACKOFF_CAP);
                    u.next_retry_ns = now_ns + backoff * hb_ns;
                    resend.push(u.msg);
                }
                node.count(MemberCounter::TransferRetransmits, resend.len() as u64);
                for t in resend {
                    node.send_peer(t.to, ClusterMsg::OwnershipTransfer(t), out);
                }
            }
        }
        // Silence detection on the ring: the reporter's position relative
        // to the missing member fixes the Table-I loss direction.
        let ring: Vec<u32> = self.believed_alive().collect();
        if let Some((prev, next)) = ring_neighbours(id, &ring) {
            let deadline = self.cfg.failure_deadline_ns();
            for (nb, loss) in [(prev, WheelLoss::Upstream), (next, WheelLoss::Downstream)] {
                if nb == id {
                    continue;
                }
                let last = self.nodes[id as usize]
                    .last_hb_from
                    .get(&nb)
                    .copied()
                    .unwrap_or(0);
                if now_ns.saturating_sub(last) < deadline {
                    continue;
                }
                let report = WheelReportMsg {
                    reporter: ctrl_pseudo_switch(id),
                    missing: ctrl_pseudo_switch(nb),
                    loss,
                };
                // Feed the local detector and gossip the observation so
                // every member (the leader in particular) can correlate
                // both ring directions.
                self.observe_ctrl_loss(id, now_ns, report, out);
                let node = self.nodes[id as usize].write();
                for &peer in peers.iter().filter(|&&p| p != nb) {
                    node.send_peer(peer, LazyMsg::WheelReport(report), out);
                }
            }
        }
        out.push(self.rearm(timer, self.cfg.heartbeat_interval_ms));
    }

    /// Leader-side skew check over the per-group message window: move one
    /// group from the hottest to the coolest member when the window-count
    /// ratio exceeds [`SKEW_THRESHOLD`] (and the hot member saw real
    /// activity — an idle cluster's ratio is just noise).
    fn rebalance_check(
        &mut self,
        id: u32,
        now_ns: u64,
        timer: ClusterTimer,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        out.push(self.rearm(timer, REBALANCE_CHECK_INTERVAL_MS));
        if self.nodes[id as usize].election.role != ElectionRole::Leader {
            // The window is plane-global shared state; only the leader may
            // drain it, or phase-shifted non-leader timers (e.g. after a
            // leader restart) would wipe samples before the leader reads
            // them.
            return;
        }
        if !self.holds_lease(id, now_ns) {
            // Rebalance decisions are minted state; a leader without a
            // majority lease degrades instead.
            self.step_down_read_only(id);
            return;
        }
        let live = self.live_members();
        let window = std::mem::take(&mut self.group_window);
        if live.len() < 2 {
            return;
        }
        let count_of = |member: u32| -> u64 {
            self.ownership
                .groups_of(member)
                .iter()
                .map(|g| window.get(g).copied().unwrap_or(0))
                .sum()
        };
        let counts: Vec<(u32, u64)> = live.iter().map(|&m| (m, count_of(m))).collect();
        let (&(hot, hot_count), &(cool, cool_count)) = match (
            counts
                .iter()
                .max_by_key(|&&(m, c)| (c, std::cmp::Reverse(m))),
            counts.iter().min_by_key(|&&(m, c)| (c, m)),
        ) {
            (Some(h), Some(c)) => (h, c),
            _ => return,
        };
        if hot == cool
            || hot_count < REBALANCE_MIN_WINDOW_MSGS
            || (hot_count as f64) < (cool_count.max(1) as f64) * SKEW_THRESHOLD
        {
            return;
        }
        let owned = self.ownership.groups_of(hot);
        if owned.len() < 2 {
            return;
        }
        // Move the busiest group that does not overshoot: the moved count
        // must stay within half the hot-cool gap (plus one so a single
        // dominant group can still move).
        let gap = hot_count - cool_count;
        let mut candidates: Vec<(u64, usize)> = owned
            .iter()
            .map(|&g| (window.get(&g).copied().unwrap_or(0), g))
            .collect();
        candidates.sort_unstable();
        let pick = candidates
            .iter()
            .rev()
            .find(|&&(w, _)| w <= gap / 2 + 1)
            .or_else(|| candidates.first())
            .copied();
        let Some((_, group)) = pick else {
            return;
        };
        self.transfer_group(
            id,
            now_ns,
            group,
            cool,
            TransferReason::Rebalance,
            &live,
            out,
        );
    }

    // ---- Internals -----------------------------------------------------

    /// Seeds `id`'s C-LIB shard with its replica's knowledge of one
    /// group's switches — the new owner's half of an ownership transfer.
    fn seed_group(
        &mut self,
        id: u32,
        now_ns: u64,
        group: usize,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        let members = self.nodes[id as usize].ctrl.grouping().members(group);
        let entries: Vec<HostEntry> = self.nodes[id as usize]
            .replica
            .hosts_behind(members)
            .into_iter()
            .flat_map(|(_, hosts)| hosts)
            .collect();
        self.seed_clib(id, now_ns, &entries, out);
    }

    /// Seeds a member's C-LIB shard through its public message interface
    /// (synthetic per-switch L-FIB syncs), so the inner controller's
    /// learning rules — including the stale-withdrawal guard — apply
    /// unchanged. The cost is metered like any other message, which is
    /// exactly what a real takeover resync would cost.
    fn seed_clib(
        &mut self,
        id: u32,
        now_ns: u64,
        entries: &[HostEntry],
        out: &mut OutputSink<ClusterOutput>,
    ) {
        let mut by_switch: BTreeMap<SwitchId, Vec<LfibEntry>> = BTreeMap::new();
        for e in entries {
            by_switch.entry(e.switch).or_default().push(LfibEntry {
                mac: e.mac,
                tenant: e.tenant,
                port: e.port,
            });
        }
        // Inner outputs accumulate in the scratch across the per-switch
        // syncs (same order as the old concatenation), then convert once.
        let node = self.nodes[id as usize].write();
        for (switch, lfib_entries) in by_switch {
            let sync = LfibSyncMsg {
                origin: switch,
                epoch: 0,
                entries: lfib_entries,
                removed: vec![],
            };
            node.ctrl.handle_message(
                now_ns,
                switch,
                &Message::lazy(0, LazyMsg::lfib_sync(sync)),
                &mut self.ctrl_scratch,
            );
        }
        self.convert_scratch(id, false, out);
    }

    /// Converts inner-controller outputs into cluster outputs.
    ///
    /// `filter_owned` drops `ToSwitch` messages for switches the member
    /// does not own — required on the *proactive* paths (bootstrap,
    /// timers) that run identically on every member and would otherwise
    /// duplicate traffic. Reactive paths (message handling) are unique to
    /// the member that received the trigger and pass through unfiltered,
    /// which keeps cross-shard effects like scoped-ARP relays working.
    fn convert_outputs(
        &self,
        id: u32,
        outs: &mut Vec<ControllerOutput>,
        filter_owned: bool,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        for o in outs.drain(..) {
            match o {
                ControllerOutput::ToSwitch(to, msg) => {
                    if filter_owned && self.owner_of_switch(to) != Some(id) {
                        continue;
                    }
                    out.push(ClusterOutput::ToSwitch { from: id, to, msg });
                }
                ControllerOutput::SetTimer(t, delay_ns) => {
                    out.push(ClusterOutput::SetTimer(
                        ClusterTimer {
                            node: id,
                            kind: ClusterTimerKind::Inner(t),
                            gen: self.nodes[id as usize].timer_gen,
                        },
                        delay_ns,
                    ));
                }
                ControllerOutput::Flood { .. } => {
                    unreachable!("a member runs the lazy controller, which never floods")
                }
            }
        }
    }

    /// Drains the inner-controller scratch through [`Self::convert_outputs`]
    /// and returns its allocation to the scratch (the steady-state path:
    /// zero allocation per handled message).
    fn convert_scratch(
        &mut self,
        id: u32,
        filter_owned: bool,
        out: &mut OutputSink<ClusterOutput>,
    ) {
        let mut buf = self.ctrl_scratch.take_buf();
        self.convert_outputs(id, &mut buf, filter_owned, out);
        self.ctrl_scratch.put_back(buf);
    }
}

/// Folds one peer-sync chunk into a state fingerprint.
fn hash_peer_sync(h: &mut Fnv64, s: &PeerSyncMsg) {
    h.u32(s.origin).u64(s.seq).u32(s.chunk).u8(s.summary as u8);
    h.usize(s.entries.len());
    for e in &s.entries {
        h.bytes(&e.mac.octets());
        h.u32(e.switch.0)
            .u16(e.port.as_u16())
            .u16(e.tenant.as_u16());
    }
    h.usize(s.removed.len());
    for (mac, sw) in &s.removed {
        h.bytes(&mac.octets()).u32(sw.0);
    }
}

/// An empty per-switch L-FIB sync, filled in by the harness seam.
fn empty_sync(origin: SwitchId) -> LfibSyncMsg {
    LfibSyncMsg {
        origin,
        epoch: 0,
        entries: Vec::new(),
        removed: Vec::new(),
    }
}

/// Marks only the *last* chunk of a catch-up as the head-advancing
/// summary. Earlier chunks travel as ordinary deltas of the same
/// sequence, so a receiver that loses or reorders an intermediate chunk
/// does not advance its head past content it never saw (entry application
/// itself is unaffected — every chunk's entries apply on arrival).
fn mark_last_as_summary(chunks: &mut [PeerSyncMsg]) {
    if let Some(last) = chunks.last_mut() {
        last.summary = true;
    }
}

/// If `msg` is a PacketIn towards a unicast destination the member's
/// C-LIB cannot resolve, returns that destination.
fn unresolved_unicast_dst(ctrl: &LazyController, msg: &Message) -> Option<MacAddr> {
    let MessageBody::Of(OfMessage::PacketIn(PacketInMsg { data, reason, .. })) = &msg.body else {
        return None;
    };
    if *reason == lazyctrl_proto::PacketInReason::FalsePositive {
        return None;
    }
    let frame = EthernetFrame::decode(data).ok()?;
    if frame.is_flood() || !frame.dst.is_unicast() {
        return None;
    }
    if ctrl.clib().locate(frame.dst).is_some() {
        return None;
    }
    Some(frame.dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `groups` disjoint 3-switch cliques: SGI makes each one group.
    fn cliques(groups: usize) -> WeightedGraph {
        let edges = (0..3 * groups).step_by(3);
        let edges = edges.flat_map(|b| [(b, b + 1, 1.0), (b, b + 2, 1.0), (b + 1, b + 2, 1.0)]);
        WeightedGraph::from_triplets(3 * groups, edges)
    }

    /// A plane of `members` controllers bootstrapped over `cliques(groups)`,
    /// and the switch-bound messages it sent, by sender.
    fn bootstrapped(
        members: usize,
        groups: usize,
    ) -> (ClusterControlPlane, Vec<Vec<(SwitchId, Message)>>) {
        let mut cfg = ClusterConfig::with_controllers(members);
        cfg.lazy.group_size_limit = 3;
        let mut plane = ClusterControlPlane::new(groups * 3, cfg);
        let mut out = OutputSink::new();
        plane.bootstrap(0, cliques(groups), &mut out);
        let mut sent = vec![Vec::new(); members];
        for o in out.take_buf() {
            if let ClusterOutput::ToSwitch { from, to, msg } = o {
                sent[from as usize].push((to, msg));
            }
        }
        (plane, sent)
    }

    #[test]
    fn members_and_plane_share_one_grouping_view() {
        let (plane, _) = bootstrapped(4, 4);
        let view = plane.grouping.as_ref().expect("bootstrapped");
        assert_eq!(plane.nodes[3].ctrl.grouping().num_groups(), Some(4));
        for member in &plane.nodes {
            let theirs = member.ctrl.grouping().view().expect("bootstrapped");
            assert!(Arc::ptr_eq(view, theirs), "member {}", member.id);
        }
    }

    /// Each member sends the switches it owns exactly the `GroupAssign`s a
    /// member bootstrapping on its own would send them.
    #[test]
    fn each_member_sends_its_own_bootstrap_assignments() {
        for (members, groups) in [(2, 4), (4, 4), (3, 2)] {
            let (plane, sent) = bootstrapped(members, groups);
            let ids: Vec<SwitchId> = (0..groups as u32 * 3).map(SwitchId::new).collect();
            let mut lazy_cfg = plane.cfg.lazy.clone();
            lazy_cfg.dynamic_updates = false;
            for (id, sent) in sent.iter().enumerate() {
                let mut alone = LazyController::new(ids.clone(), lazy_cfg.clone());
                let mut out = OutputSink::new();
                alone.bootstrap(0, cliques(groups), &mut out);
                let owned = out.take_buf().into_iter().filter_map(|o| match o {
                    ControllerOutput::ToSwitch(to, msg) => Some((to, msg)),
                    ControllerOutput::SetTimer(..) | ControllerOutput::Flood { .. } => None,
                });
                let owned: Vec<_> = owned
                    .filter(|(to, _)| plane.owner_of_switch(*to) == Some(id as u32))
                    .collect();
                assert_eq!(sent, &owned, "member {id} of {members}");
            }
            assert_eq!(sent.concat().len(), groups * 3, "each switch hears once");
        }
    }
}
