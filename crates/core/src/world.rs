//! The simulated data center: switches + controller + links as one
//! [`World`] for the discrete-event kernel.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

use lazyctrl_cluster::{
    ctrl_pseudo_switch, ClusterConfig, ClusterControlPlane, ClusterOutput, ClusterTimer, StepModel,
};
use lazyctrl_controller::{
    BaselineController, ControllerOutput, ControllerTimer, LazyConfig, LazyController,
};
use lazyctrl_net::{
    EncapsulatedFrame, EtherType, EthernetFrame, HostId, MacAddr, PortNo, SwitchId, TenantId,
    VlanTag,
};
use lazyctrl_obs::{
    dst_trace_id,
    intern::{kind as tk, subsys as ts},
    pair_trace_id, EngineProfile, FlightRecorder,
};
use lazyctrl_proto::{
    EventPlan, FlowModMsg, InjectedEvent, LazyMsg, Message, MessageBody, OfMessage, OutputSink,
};
use lazyctrl_sim::{
    BandwidthModel, ChannelClass, CounterId, IdHash, LatencyModel, LinkId, LinkState, MetricsSink,
    Scheduler, SimDuration, SimTime, World,
};
use lazyctrl_switch::{floods_only, EdgeSwitch, SwitchOutput, SwitchTimer};
use lazyctrl_trace::{FlowRecord, IntensityMatrix, Topology, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{ControlMode, ExperimentConfig};

/// Events driving the simulated data center.
#[derive(Debug)]
pub(crate) enum Ev {
    /// The i-th flow of the trace starts: its first packet enters the
    /// ingress switch.
    FlowArrival(usize),
    /// A synthetic frame (ARP reply, response flow) enters a switch from a
    /// local host.
    LocalFrame {
        /// The ingress switch.
        switch: SwitchId,
        /// Ingress port.
        port: PortNo,
        /// The frame.
        frame: EthernetFrame,
    },
    /// An encapsulated packet crosses the underlay.
    TunnelArrive {
        /// The egress switch.
        to: SwitchId,
        /// The packet.
        packet: EncapsulatedFrame,
    },
    /// A control-channel message reaches a switch.
    MsgToSwitch {
        /// Receiving switch.
        to: SwitchId,
        /// Sender (`SwitchId::CONTROLLER` for the controller).
        from: SwitchId,
        /// The message.
        msg: Message,
    },
    /// A message reaches the controller.
    MsgToController {
        /// Sending switch.
        from: SwitchId,
        /// The message.
        msg: Message,
    },
    /// A switch timer fires.
    SwitchTimer {
        /// The switch.
        switch: SwitchId,
        /// Which timer.
        timer: SwitchTimer,
    },
    /// A controller timer fires.
    ControllerTimer(ControllerTimer),
    /// A controller-to-controller message crosses the ctrl-peer link
    /// (cluster runs only).
    CtrlPeerMsg {
        /// Sending cluster member.
        from: u32,
        /// Receiving cluster member.
        to: u32,
        /// The message.
        msg: Message,
    },
    /// A cluster timer fires (cluster runs only).
    ClusterTimer(ClusterTimer),
    /// A fault/workload event from the experiment's `EventPlan`
    /// (controller/switch crashes, link degradation, migrations, bursts)
    /// reaches its injection time.
    Injected(InjectedEvent),
    /// A synthetic flow from an injected traffic burst starts: its first
    /// packet enters the ingress switch, exactly like a trace flow.
    SyntheticFlow {
        /// Source host.
        src: HostId,
        /// Destination host.
        dst: HostId,
    },
}

/// Declares the counters this crate bumps: one [`CounterId`] field per
/// counter, named after it, so a site names a field instead of looking a
/// string up per event.
macro_rules! world_counters {
    ($($name:ident),* $(,)?) => {
        /// Ids of the world's counters in its own [`MetricsSink`].
        #[derive(Debug, Clone, Copy)]
        pub(crate) struct WorldCounters {
            $(pub(crate) $name: CounterId,)*
        }

        impl WorldCounters {
            /// Registers every counter with `sink`; none becomes visible
            /// in a report until it is first bumped.
            fn register(sink: &mut MetricsSink) -> Self {
                WorldCounters {
                    $($name: sink.register(stringify!($name)),)*
                }
            }
        }
    };
}

world_counters!(
    burst_flows,
    controller_crashes,
    controller_messages,
    ctrl_heartbeats,
    ctrl_lookups,
    ctrl_peer_messages,
    ctrl_unreachable_drops,
    delivered_flows,
    flood_copies_counted,
    flood_tunnels_counted,
    flow_mods_counted,
    flows_started,
    fp_reports,
    frames_emitted,
    host_migrations,
    ingress_down_drops,
    keepalives_counted,
    lfib_syncs,
    link_degrades,
    link_loss_changes,
    network_partitions,
    ownership_transfer_msgs,
    packet_ins,
    partition_heals,
    peer_syncs,
    shard_bumped_events,
    shard_cross_events,
    shard_globals_applied,
    shard_rounds,
    state_reports,
    switch_crashes,
    switch_rehome_returns,
    switch_rehomes,
    sync_digests,
    sync_relays,
    tunnel_drops,
    wheel_reports,
);

/// Display names of the dense event kinds (`Ev::kind_idx` order) —
/// the vocabulary of the engine profiler's per-kind rows.
pub const EVENT_KIND_NAMES: [&str; 11] = [
    "flow_arrival",
    "local_frame",
    "tunnel_arrive",
    "msg_to_switch",
    "msg_to_controller",
    "switch_timer",
    "controller_timer",
    "ctrl_peer_msg",
    "cluster_timer",
    "injected",
    "synthetic_flow",
];

/// Subsystem attribution per dense event kind (same order as
/// [`EVENT_KIND_NAMES`]), using `lazyctrl_obs::intern::subsys` IDs.
pub(crate) const EVENT_KIND_SUBSYS: [u16; 11] = [
    ts::WORLD,      // flow_arrival
    ts::SWITCH,     // local_frame
    ts::SWITCH,     // tunnel_arrive
    ts::SWITCH,     // msg_to_switch
    ts::CONTROLLER, // msg_to_controller
    ts::SWITCH,     // switch_timer
    ts::CONTROLLER, // controller_timer
    ts::CLUSTER,    // ctrl_peer_msg
    ts::CLUSTER,    // cluster_timer
    ts::WORLD,      // injected
    ts::WORLD,      // synthetic_flow
];

/// `Ev::TunnelArrive`'s dense kind index, under which a counted flood
/// tunnel copy (DESIGN §7.6) lands in the profile.
const KIND_TUNNEL_ARRIVE: u32 = 2;

/// `Ev::MsgToSwitch`'s dense kind index, under which a counted flood
/// copy, keep-alive or `FlowMod` (DESIGN §7.6) lands in the profile.
const KIND_MSG_TO_SWITCH: u32 = 3;

impl Ev {
    /// Dense kind index for profiling/tracing (see [`EVENT_KIND_NAMES`]).
    fn kind_idx(&self) -> u32 {
        match self {
            Ev::FlowArrival(_) => 0,
            Ev::LocalFrame { .. } => 1,
            Ev::TunnelArrive { .. } => KIND_TUNNEL_ARRIVE,
            Ev::MsgToSwitch { .. } => KIND_MSG_TO_SWITCH,
            Ev::MsgToController { .. } => 4,
            Ev::SwitchTimer { .. } => 5,
            Ev::ControllerTimer(_) => 6,
            Ev::CtrlPeerMsg { .. } => 7,
            Ev::ClusterTimer(_) => 8,
            Ev::Injected(_) => 9,
            Ev::SyntheticFlow { .. } => 10,
        }
    }
}

/// The per-run observability state: flight recorder + sampling profiler.
/// Boxed behind an `Option` on the world so the disabled path costs one
/// `is_none` branch per event and zero memory beyond the pointer.
pub(crate) struct WorldObs {
    pub(crate) recorder: FlightRecorder,
    pub(crate) profile: EngineProfile,
}

/// Flow-correlation ID for a raw frame's (src, dst) MAC pair: the pair ID
/// when both are synthetic host MACs, the dst-only ID when only the
/// destination is, `0` otherwise (ARP broadcasts, control traffic).
fn mac_pair_trace_id(src: MacAddr, dst: MacAddr) -> u64 {
    match (src.host_id(), dst.host_id()) {
        (Some(s), Some(d)) => pair_trace_id(s, d),
        (None, Some(d)) => dst_trace_id(d),
        _ => 0,
    }
}

/// Flow-correlation ID for raw packet bytes (Ethernet layout: dst 6B,
/// src 6B) as carried by PacketIn/PacketOut.
fn packet_bytes_trace_id(data: &[u8]) -> u64 {
    if data.len() < 12 {
        return 0;
    }
    let dst = MacAddr::new(data[0..6].try_into().expect("6 bytes"));
    let src = MacAddr::new(data[6..12].try_into().expect("6 bytes"));
    mac_pair_trace_id(src, dst)
}

/// Flow-correlation ID for a control-plane message: PacketIn/PacketOut
/// join by the punted frame's MAC pair, FlowMods by their match fields
/// (controllers install `to_dst` rules, so these are dst-joinable).
fn message_trace_id(msg: &Message) -> u64 {
    match msg.as_of() {
        Some(OfMessage::PacketIn(pi)) => packet_bytes_trace_id(&pi.data),
        Some(OfMessage::PacketOut(po)) => packet_bytes_trace_id(&po.data),
        Some(OfMessage::FlowMod(fm)) => flow_mod_trace_id(fm),
        _ => 0,
    }
}

/// A `FlowMod`'s flow-correlation ID, from its match fields.
fn flow_mod_trace_id(fm: &FlowModMsg) -> u64 {
    let src = fm.flow_match.dl_src.and_then(|m| m.host_id());
    let dst = fm.flow_match.dl_dst.and_then(|m| m.host_id());
    match (src, dst) {
        (Some(s), Some(d)) => pair_trace_id(s, d),
        (_, Some(d)) => dst_trace_id(d),
        _ => 0,
    }
}

/// Trace-record kind for a message headed to the controller.
fn to_controller_kind(msg: &Message) -> u16 {
    match msg.as_of() {
        Some(OfMessage::PacketIn(_)) => tk::PACKET_IN_SENT,
        _ => tk::MSG_TO_CONTROLLER,
    }
}

/// Trace-record kind for a message headed to a switch.
fn to_switch_kind(msg: &Message) -> u16 {
    if let Some(lazyctrl_proto::LazyMsg::CongestionNotice(_)) = msg.as_lazy() {
        return tk::CONGESTION_NOTICE;
    }
    match msg.as_of() {
        Some(OfMessage::FlowMod(_)) => tk::FLOW_MOD_SENT,
        Some(OfMessage::PacketOut(_)) => tk::PACKET_OUT_SENT,
        _ => tk::MSG_TO_SWITCH,
    }
}

/// Any control-plane flavour behind one dispatch surface.
pub(crate) enum AnyController {
    Baseline(BaselineController),
    Lazy(Box<LazyController>),
    /// A sharded multi-controller cluster; its outputs are dispatched by
    /// [`DataCenterWorld::dispatch_cluster_outputs`] (per-member service
    /// times, ctrl-peer links).
    Cluster(Box<ClusterControlPlane>),
}

impl AnyController {
    fn on_timer(
        &mut self,
        now_ns: u64,
        timer: ControllerTimer,
        out: &mut OutputSink<ControllerOutput>,
    ) {
        match self {
            AnyController::Baseline(_) | AnyController::Cluster(_) => {}
            AnyController::Lazy(c) => c.on_timer(now_ns, timer, out),
        }
    }

    /// The sender's current service time (M/M/1-style, load dependent):
    /// the single controller's, or cluster member `member`'s.
    fn service_time(&self, member: Option<u32>, now: SimTime) -> SimDuration {
        let now_ns = now.as_nanos();
        SimDuration::from_nanos(match (self, member) {
            (AnyController::Baseline(c), _) => c.meter().service_time_ns(now_ns),
            (AnyController::Lazy(c), _) => c.meter().service_time_ns(now_ns),
            (AnyController::Cluster(plane), Some(m)) => plane.service_time_ns(m, now_ns),
            // A cluster has no single controller; its outputs name their member.
            (AnyController::Cluster(_), None) => 0,
        })
    }

    pub(crate) fn lazy(&self) -> Option<&LazyController> {
        match self {
            AnyController::Lazy(c) => Some(c),
            AnyController::Baseline(_) | AnyController::Cluster(_) => None,
        }
    }

    pub(crate) fn cluster(&self) -> Option<&ClusterControlPlane> {
        match self {
            AnyController::Cluster(c) => Some(c),
            _ => None,
        }
    }
}

/// Partition context for the sharded engine (`cfg.workers`): present only
/// on worlds produced by [`DataCenterWorld::split`]. Partition 0 is the
/// *hub* — it owns the entire control plane plus its share of switches;
/// partitions 1.. own switches only. The owner map is a placement
/// function over switch IDs, fixed for the whole run (migrations and
/// regroups do not re-shard; see the forwarding checks in
/// `dispatch_event`).
pub(crate) struct PartitionCtx {
    /// This partition's index (0 = hub).
    pub(crate) id: u16,
    /// `owner[switch] = partition index` for every switch.
    pub(crate) owner: Arc<Vec<u16>>,
    /// Cross-partition sends staged during the current event; drained
    /// into the shard executor's outbox after each handler.
    pub(crate) staged: Vec<(u16, SimTime, Ev)>,
    /// RNG used while applying *global* (injected) events. Identically
    /// seeded on every partition and only ever advanced by globals —
    /// which all partitions apply in lockstep — so replicated draws
    /// (migration targets, burst pairs) agree everywhere by construction.
    pub(crate) global_rng: StdRng,
}

/// Per-switch controller re-homing state (hub only, cluster mode).
///
/// A switch cannot observe network reachability directly — it observes
/// silence. This models the detection lag: the first blocked message
/// starts a timer, messages during the detection window are lost, and
/// once the deadline passes the switch steers its controller traffic to
/// a reachable stand-in member. While re-homed it periodically re-probes
/// its true owner with jittered exponential backoff, so a healed fabric
/// is rejoined without a thundering herd of simultaneous returns.
#[derive(Debug, Clone, Copy)]
struct RehomeState {
    /// When the owner first became unreachable for this switch (ns).
    blocked_since_ns: u64,
    /// Stand-in member carrying the traffic, once detection fired.
    standin: Option<u32>,
    /// Next owner re-probe time (ns); before it, a re-homed switch keeps
    /// using the stand-in even if the owner is reachable again.
    next_probe_ns: u64,
    /// Failed owner probes since re-homing (drives the backoff).
    attempts: u32,
}

/// Where a switch's controller-bound message lands under the current
/// reachability map (cluster mode; decided at the hub, which owns both
/// the ownership map and the re-homing state).
enum CtrlRoute {
    /// Normal path: the plane routes by group ownership.
    Owner,
    /// Owner unreachable and no stand-in available (or detection still
    /// pending): the message is lost in the partition.
    Lost,
    /// Re-homed: deliver at this stand-in member.
    Standin(u32),
}

/// What a local flood does at its frame's effective switch (see
/// [`DataCenterWorld::flood_effect`]).
enum FloodEffect {
    /// A unicast IPv4 frame reaches its destination host.
    Deliver,
    /// An ARP request draws a reply from its target host.
    ArpReply {
        target: HostId,
        request: lazyctrl_net::ArpPacket,
    },
}

/// The sorted fire times of some of the plan's events, and the index of
/// the first not yet in the past: asks whether one fires while a counted
/// delivery (DESIGN §7.6) is in flight.
#[derive(Debug, Default)]
struct PlanCursor {
    times: Vec<SimTime>,
    next: usize,
}

impl PlanCursor {
    /// The fire times of the plan's events that `pick` selects.
    fn new(plan: &EventPlan, pick: impl Fn(&InjectedEvent) -> bool) -> Self {
        let times = plan
            .events()
            .iter()
            .filter(|e| pick(&e.event))
            .map(|e| e.at)
            .collect();
        PlanCursor { times, next: 0 }
    }

    /// True when one fires in `[now, lands]`. `now` never decreases, so
    /// the cursor only moves forward.
    fn due(&mut self, now: SimTime, lands: SimTime) -> bool {
        while self.times.get(self.next).is_some_and(|&at| at < now) {
            self.next += 1;
        }
        self.times.get(self.next).is_some_and(|&at| at <= lands)
    }
}

/// A counted `FlowMod` in its receiver's inbox (DESIGN §7.6). Its seq
/// mark is the queue's next seq when it was sent, which orders it
/// against scheduled events at its landing time. Entries order as their
/// scheduled events would have fired: by landing time, then in send
/// order, which orders their marks too. The rule is boxed and the xid
/// kept apart, not a whole `Message`, so an entry stays small.
#[derive(Debug, Clone)]
struct Landed {
    lands: SimTime,
    mark: u64,
    order: u64,
    xid: u32,
    rule: Box<FlowModMsg>,
}

/// True when a counted delivery landing at `lands` with seq mark `mark`
/// fires before an event popped at `now` with `seq` (`None` for a merged
/// arrival, which wins every tie).
fn fires_before(lands: SimTime, mark: u64, now: SimTime, seq: Option<u64>) -> bool {
    lands < now || (lands == now && seq.is_some_and(|seq| mark <= seq))
}

impl Landed {
    /// True when it fires before an event popped at `now` with `seq`.
    fn before(&self, now: SimTime, seq: Option<u64>) -> bool {
        fires_before(self.lands, self.mark, now, seq)
    }

    /// Installs the rule on `sw` as it landed there, as its scheduled
    /// delivery would have. It answers nothing.
    fn apply(self, sw: &mut EdgeSwitch, sink: &mut OutputSink<SwitchOutput>) {
        let msg = Message::of(self.xid, OfMessage::FlowMod(self.rule));
        sw.handle_control_message(self.lands.as_nanos(), &msg, sink);
        debug_assert!(sink.is_empty(), "a counted FlowMod answered");
    }

    fn key(&self) -> (SimTime, u64) {
        (self.lands, self.order)
    }
}

impl PartialEq for Landed {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Landed {}

impl PartialOrd for Landed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Landed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// What one switch has not heard yet of the deliveries counted instead
/// of scheduled (DESIGN §7.6).
#[derive(Debug)]
struct Unheard {
    /// No later than the earliest landing of anything below, and
    /// `SimTime::MAX` while nothing is queued: an event before it finds
    /// nothing to hear, at the cost of one comparison.
    due: SimTime,
    /// `FlowMod`s, earliest first.
    inbox: BinaryHeap<Reverse<Landed>>,
    /// `(lands, mark, sender)` of the keep-alives not heard yet, in send
    /// order. The wheel keeps each source's latest landing, so those that
    /// fired may be heard in any order, and a keep-alive's write touches
    /// nothing a `FlowMod` or tunnel copy does: they need no heap.
    keepalives: Vec<(SimTime, u64, SwitchId)>,
    /// Flood tunnel copies known to have landed.
    copies_landed: u64,
    /// `(lands, mark)` of the flood tunnel copies that may still be in
    /// flight. A copy's only write, one packet processed, commutes with
    /// every other delivery, so they need no order.
    copies_in_flight: Vec<(SimTime, u64)>,
    /// No earlier than the latest `lands` in `copies_in_flight`.
    latest: SimTime,
}

impl Default for Unheard {
    fn default() -> Self {
        Unheard {
            due: SimTime::MAX,
            inbox: BinaryHeap::new(),
            keepalives: Vec::new(),
            copies_landed: 0,
            copies_in_flight: Vec::new(),
            latest: SimTime::ZERO,
        }
    }
}

impl Unheard {
    /// Queues a flood tunnel copy sent at `now`. The copies in flight
    /// all landed before `now` when the latest did, and then move to
    /// the landed count, so the list holds only copies sent since the
    /// last of them landed.
    fn push_copy(&mut self, now: SimTime, lands: SimTime, mark: u64) {
        if self.latest < now {
            self.copies_landed += self.copies_in_flight.len() as u64;
            self.copies_in_flight.clear();
        }
        self.copies_in_flight.push((lands, mark));
        self.latest = self.latest.max(lands);
        self.due = self.due.min(lands);
    }

    /// Takes the flood tunnel copies that fire before an event popped at
    /// `now` with `seq`, and returns how many.
    fn take_copies(&mut self, now: SimTime, seq: Option<u64>) -> u64 {
        let mut copies = std::mem::take(&mut self.copies_landed);
        self.copies_in_flight.retain(|&(lands, mark)| {
            let landed = fires_before(lands, mark, now, seq);
            copies += u64::from(landed);
            !landed
        });
        if self.copies_in_flight.is_empty() {
            self.latest = SimTime::ZERO;
        }
        copies
    }

    /// Queues a keep-alive from `from` that lands at `lands`, marked
    /// with the queue's next seq `mark`.
    fn push_keepalive(&mut self, lands: SimTime, mark: u64, from: SwitchId) {
        self.keepalives.push((lands, mark, from));
        self.due = self.due.min(lands);
    }

    /// Recomputes `due` once everything that fired has been taken.
    fn settle(&mut self) {
        let inbox = self.inbox.peek().map_or(SimTime::MAX, |Reverse(l)| l.lands);
        let copies = self.copies_in_flight.iter().map(|&(lands, _)| lands);
        let keepalives = self.keepalives.iter().map(|&(lands, ..)| lands);
        self.due = copies.chain(keepalives).fold(inbox, SimTime::min);
    }
}

/// The composed simulation state.
pub(crate) struct DataCenterWorld {
    pub(crate) cfg: ExperimentConfig,
    /// The trace's topology — live: host migrations rewrite it.
    pub(crate) topology: Topology,
    /// The trace's flows, sorted by time. Shared, never copied: the run
    /// loop streams arrivals from its own handle to the same list, and
    /// every sharded partition holds one too.
    pub(crate) flows: Arc<Vec<FlowRecord>>,
    /// Slot per switch; `None` for switches owned by another partition
    /// (always all `Some` on the single-threaded path and after merge).
    pub(crate) switches: Vec<Option<EdgeSwitch>>,
    pub(crate) controller: AnyController,
    pub(crate) links: LinkState,
    latency: LatencyModel,
    /// Fair-share bandwidth model pricing *load* on capacitated links
    /// (serialization + queueing, closed-form, zero RNG). Cloned into
    /// every partition at `split` — sound because each directed link's
    /// sender dispatches in exactly one partition, so its watermark is
    /// only ever touched there.
    bandwidth: BandwidthModel,
    rng: StdRng,
    pub(crate) metrics: MetricsSink,
    /// Where `metrics` keeps each counter this crate bumps.
    pub(crate) ctr: WorldCounters,
    /// Port of each host on its switch.
    host_port: Vec<PortNo>,
    /// Next free port per switch (migrated hosts get a fresh port at
    /// their new switch, as a re-plugged VM would).
    next_port: Vec<u16>,
    /// Host-level pairs that have exchanged traffic (for fresh-pair logic).
    seen_pairs: HashSet<(u32, u32), IdHash>,
    /// Pairs whose response frame has been generated.
    responded: HashSet<(u32, u32), IdHash>,
    workload_bucket: SimDuration,
    /// Periodic switch-timer chains severed while a switch was powered
    /// off (the firing was dropped); re-armed on recovery.
    severed_timers: std::collections::BTreeSet<(u32, SwitchTimer)>,
    /// Cache of updates_applied to detect regroup events.
    last_updates_applied: u64,
    /// Per-flow latency log: ((src host, dst host, emit ns), latency ms).
    pub(crate) flow_latencies: Vec<((u32, u32, u64), f64)>,
    /// Reusable output scratch buffers, one per handler family: every
    /// event's outputs are pushed here by the state machines and drained
    /// in place by the dispatcher — zero steady-state allocation on the
    /// per-event path (see `DESIGN.md` §7).
    switch_sink: OutputSink<SwitchOutput>,
    ctrl_sink: OutputSink<ControllerOutput>,
    cluster_sink: OutputSink<ClusterOutput>,
    /// Cluster state fingerprints captured at every injected controller
    /// crash/recovery (the schedule-sensitive moments). Reported as
    /// checkpoints so determinism tests can localize a divergence to the
    /// first checkpoint that differs instead of diffing whole reports.
    pub(crate) cluster_fingerprints: Vec<u64>,
    /// Controller re-homing state per switch (see [`RehomeState`]).
    /// Populated only at the hub, where controller-bound traffic lands.
    rehome: std::collections::BTreeMap<u32, RehomeState>,
    /// Flight recorder + profiler, present only when `cfg.obs.enabled`.
    /// Strictly read-only observers: nothing here may touch the RNG,
    /// scheduling, or any quantity that feeds the report.
    pub(crate) obs: Option<Box<WorldObs>>,
    /// Sharded-engine partition context; `None` on the single-threaded
    /// path, where every routing helper degenerates to a local schedule.
    pub(crate) part: Option<Box<PartitionCtx>>,
    /// The run's virtual end. A delivery counted instead of scheduled
    /// (DESIGN §7.6) counts as an event only if it lands by then, as the
    /// wheel pops only those.
    horizon: SimTime,
    /// Deliveries counted instead of scheduled, of every kind.
    counted_events: u64,
    /// The plan's `MigrateHosts` events. A migration can move a flood's
    /// effective switch under copies in flight, so copies that land at
    /// or after one stay eager.
    migrations: PlanCursor,
    /// The plan's `CrashSwitch` / `RecoverSwitch` events. They decide
    /// whether a delivery's receiver is up when it lands, and
    /// `RecoverSwitch` re-arms ticks, so keep-alives and `FlowMod`s in
    /// flight across one stay eager.
    power_changes: PlanCursor,
    /// Per switch: the keep-alives, `FlowMod`s and flood tunnel copies
    /// counted instead of scheduled that it has not heard yet. The switch
    /// hears those that fire before each event bound for it, just
    /// before that event, and all of them at the end of the run (DESIGN
    /// §7.6).
    unheard: Vec<Unheard>,
    /// Schedules every delivery instead of counting any: the sharded
    /// engine, whose partitions schedule everything, and the eager
    /// oracle the counted path is tested against.
    eager: bool,
}

impl DataCenterWorld {
    pub(crate) fn new(trace: Trace, mut cfg: ExperimentConfig) -> Self {
        cfg.validate();
        // Checked once here so the per-message latency sampling can skip
        // the assertion.
        cfg.latency.validate();
        let horizon = crate::experiment::run_horizon(&trace, &cfg);
        let migrations = PlanCursor::new(&cfg.plan, |e| {
            matches!(e, InjectedEvent::MigrateHosts { .. })
        });
        let power_changes = PlanCursor::new(&cfg.plan, |e| {
            matches!(
                e,
                InjectedEvent::CrashSwitch(_) | InjectedEvent::RecoverSwitch(_)
            )
        });
        let Trace {
            topology, flows, ..
        } = trace;
        let n = topology.num_switches;
        let mut switches: Vec<EdgeSwitch> = (0..n)
            .map(|i| {
                let mut sw = EdgeSwitch::new(SwitchId::new(i as u32));
                sw.report_false_positives = true;
                sw.datapath_learning = cfg.mode.is_lazy();
                sw
            })
            .collect();

        // Host → port mapping (dense per switch), and bootstrap L-FIB
        // population for lazy modes: the paper's hosts announce themselves
        // via ARP broadcast at bootstrap (§III-D.3 live dissemination).
        let mut next_port = vec![1u16; n];
        let mut host_port = Vec::with_capacity(topology.num_hosts());
        let mut boot_sink = OutputSink::new();
        for h in 0..topology.num_hosts() {
            let host = HostId::new(h as u32);
            let s = topology.switch_of(host);
            let port = PortNo::new(next_port[s.index()]);
            next_port[s.index()] += 1;
            host_port.push(port);
            if cfg.mode.is_lazy() {
                let frame = gratuitous_announcement(host, topology.tenant_of(host));
                // Learning only; the announcement itself produces no output
                // before group assignment.
                switches[s.index()].handle_local_frame(0, port, frame, &mut boot_sink);
                boot_sink.clear();
            }
        }

        let ids: Vec<SwitchId> = (0..n as u32).map(SwitchId::new).collect();
        let controller = match (cfg.mode, cfg.cluster_controllers) {
            (ControlMode::Baseline, _) => AnyController::Baseline(BaselineController::new(ids)),
            (mode, maybe_cluster) => {
                let lazy_cfg = LazyConfig {
                    sync_interval_ms: cfg.sync_interval_ms,
                    keepalive_interval_ms: cfg.keepalive_interval_ms,
                    group_size_limit: cfg.group_size_limit,
                    dynamic_updates: mode == ControlMode::LazyDynamic,
                    seed: cfg.seed,
                };
                match maybe_cluster {
                    Some(members) => {
                        let mut cluster_cfg = ClusterConfig {
                            num_controllers: members,
                            dissemination: cfg.cluster_dissemination,
                            lazy: lazy_cfg,
                            ..ClusterConfig::default()
                        };
                        if let Some(ms) = cfg.cluster_flush_interval_ms {
                            cluster_cfg.replica_flush_interval_ms = ms;
                            // Digests that fire faster than deltas can
                            // circulate only trigger redundant catch-up;
                            // keep anti-entropy slower than the flush.
                            cluster_cfg.anti_entropy_interval_ms =
                                cluster_cfg.anti_entropy_interval_ms.max(2 * ms);
                        }
                        if let Some(slots) = cfg.cluster_ingress_slots {
                            cluster_cfg.ingress_queue_slots = slots;
                        }
                        if let Some(cost) = cfg.cluster_ingress_cost_ns {
                            cluster_cfg.ingress_cost_ns = cost;
                        }
                        AnyController::Cluster(Box::new(ClusterControlPlane::new(n, cluster_cfg)))
                    }
                    None => AnyController::Lazy(Box::new(LazyController::new(ids, lazy_cfg))),
                }
            }
        };

        let workload_bucket = SimDuration::from_secs_f64(cfg.bucket_hours * 3600.0);
        let obs = cfg.obs.enabled.then(|| {
            Box::new(WorldObs {
                recorder: FlightRecorder::new(cfg.obs.ring_capacity),
                profile: EngineProfile::new(EVENT_KIND_NAMES.len(), EVENT_KIND_SUBSYS.to_vec()),
            })
        });
        let mut metrics = MetricsSink::new();
        let ctr = WorldCounters::register(&mut metrics);
        let eager = cfg.workers.is_some();
        DataCenterWorld {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x57a7e),
            // The live (fault-degradable) latency model moves out of the
            // config instead of being cloned; the config copy is not read
            // again after world construction.
            latency: std::mem::take(&mut cfg.latency),
            // Same move-out as the latency model: the live (per-link
            // watermark) copy is the world's, not the config's.
            bandwidth: std::mem::take(&mut cfg.bandwidth),
            cfg,
            topology,
            flows: Arc::new(flows),
            switches: switches.into_iter().map(Some).collect(),
            controller,
            links: LinkState::new(),
            metrics,
            ctr,
            host_port,
            next_port,
            seen_pairs: HashSet::default(),
            responded: HashSet::default(),
            workload_bucket,
            severed_timers: std::collections::BTreeSet::new(),
            last_updates_applied: 0,
            flow_latencies: Vec::new(),
            switch_sink: boot_sink,
            ctrl_sink: OutputSink::new(),
            cluster_sink: OutputSink::new(),
            cluster_fingerprints: Vec::new(),
            rehome: std::collections::BTreeMap::new(),
            obs,
            part: None,
            horizon,
            counted_events: 0,
            migrations,
            power_changes,
            unheard: (0..n).map(|_| Unheard::default()).collect(),
            eager,
        }
    }

    /// Runs the control plane's bootstrap (IniGroup from the trace's
    /// first hour — "the initial grouping is done based on the first-hour
    /// traffic pattern", §V-D) and dispatches its outputs at t=0.
    pub(crate) fn bootstrap(&mut self, sched: &mut Scheduler<'_, Ev>) {
        if matches!(self.controller, AnyController::Baseline(_)) {
            return;
        }
        let first_hour_ns = SimTime::from_hours(1.0).as_nanos();
        let first_hour = &self.flows[..self.flows.partition_point(|f| f.time_ns < first_hour_ns)];
        let graph =
            IntensityMatrix::from_flows(&self.topology, first_hour, 0, first_hour_ns).to_graph();
        match &mut self.controller {
            AnyController::Lazy(controller) => {
                controller.bootstrap(0, graph, &mut self.ctrl_sink);
                self.dispatch_controller_outputs(SimTime::ZERO, sched);
            }
            AnyController::Cluster(plane) => {
                plane.bootstrap(0, graph, &mut self.cluster_sink);
                self.dispatch_cluster_outputs(SimTime::ZERO, sched);
            }
            AnyController::Baseline(_) => unreachable!("filtered above"),
        }
    }

    pub(crate) fn port_of(&self, host: HostId) -> PortNo {
        self.host_port[host.index()]
    }

    /// Builds a flow's first packet; the emission timestamp rides in the
    /// payload so delivery latency is measured exactly, with no ambiguity
    /// when copies are dropped or pairs repeat.
    fn frame_for_flow(&self, src: HostId, dst: HostId, emit_ns: u64) -> EthernetFrame {
        EthernetFrame::tagged(
            src.mac(),
            dst.mac(),
            VlanTag::for_tenant(self.topology.tenant_of(src)),
            EtherType::IPV4,
            // One shared buffer per flow; every copy the fabric makes of
            // this frame from here on is a refcount bump.
            emit_ns.to_be_bytes(),
        )
    }

    fn note_emission(&mut self) {
        self.metrics.bump(self.ctr.frames_emitted, 1);
    }

    fn note_delivery(&mut self, now: SimTime, frame: &EthernetFrame) {
        // The emission timestamp rides in the payload (see
        // `frame_for_flow`), so the sample is exact per delivered packet.
        if frame.ethertype != EtherType::IPV4 || frame.payload.len() != 8 {
            return;
        }
        let emit_ns = u64::from_be_bytes(frame.payload[..8].try_into().expect("8 bytes"));
        if emit_ns > now.as_nanos() {
            return;
        }
        let ms = (now.as_nanos() - emit_ns) as f64 / 1e6;
        self.trace(now, || {
            let id = mac_pair_trace_id(frame.src, frame.dst);
            (id, tk::FRAME_DELIVERED, ts::SWITCH, 0, 0)
        });
        self.metrics
            .series_mut("latency_ms", self.workload_bucket)
            .record(now, ms);
        // Log2 buckets + exact sum/count: bounded memory over 67 M-event
        // runs, and `mean()` accumulates in the same order as the old
        // full-sample histogram did, so reports are unchanged.
        self.metrics.log2_histogram_mut("latency_all_ms").record(ms);
        self.metrics.bump(self.ctr.delivered_flows, 1);
        if self.cfg.record_flow_latencies {
            if let (Some(s), Some(d)) = (frame.src.host_id(), frame.dst.host_id()) {
                self.flow_latencies
                    .push(((s as u32, d as u32, emit_ns), ms));
            }
        }
    }

    /// Writes one flight-recorder record at `now` — `(trace id, kind,
    /// subsystem, a, b)` — building it only when tracing is on, so the
    /// untraced path never computes a trace id.
    fn trace(&mut self, now: SimTime, record: impl FnOnce() -> (u64, u16, u16, u32, u32)) {
        if let Some(obs) = &mut self.obs {
            let (trace_id, kind, subsys, a, b) = record();
            obs.recorder
                .record(now.as_nanos(), trace_id, kind, subsys, a, b);
        }
    }

    /// The link gate (DESIGN §7.5): what `link` does to one message sent
    /// at `now`. `None` when the link drops it, otherwise its delivery
    /// delay. The order is part of the determinism contract — both draws
    /// come from one RNG stream, and a dropped message costs nothing
    /// further: reachability and the loss draw, then the trace record
    /// (delivered messages only), then the latency draw, then the
    /// bandwidth watermark — charged, and `wire_len` evaluated, only on a
    /// capacitated class.
    fn transmit(
        &mut self,
        now: SimTime,
        link: LinkId,
        wire_len: impl FnOnce() -> usize,
        record: impl FnOnce() -> (u64, u16, u16, u32, u32),
    ) -> Option<SimDuration> {
        if !self.links.delivers(link, &mut self.rng) {
            return None;
        }
        self.trace(now, record);
        let mut delay = self.latency.sample(link.class, &mut self.rng);
        if self.bandwidth.class_enabled(link.class) {
            delay += self.bandwidth.delay(link, wire_len() as u64, now);
        }
        Some(delay)
    }

    /// Drains the switch scratch sink: schedule deliveries with channel
    /// latencies, record local deliveries, arm timers. The buffer's
    /// allocation returns to the sink afterwards, so steady-state dispatch
    /// never touches the heap.
    fn dispatch_switch_outputs(
        &mut self,
        now: SimTime,
        from: SwitchId,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let mut buf = self.switch_sink.take_buf();
        // The copies of one broadcast are consecutive outputs of one
        // drain sharing one frame, so its effective switch is found once
        // per broadcast: the last flood frame asked about, and its answer.
        let mut flood_memo: Option<(EthernetFrame, Option<SwitchId>)> = None;
        for out in buf.drain(..) {
            match out {
                SwitchOutput::ToController(msg) => {
                    let link = LinkId::new(from.0, SwitchId::CONTROLLER.0, ChannelClass::Control);
                    let record = || {
                        let (id, kind) = (message_trace_id(&msg), to_controller_kind(&msg));
                        (id, kind, ts::SWITCH, from.0, 0)
                    };
                    if let Some(delay) = self.transmit(now, link, || msg.wire_len(), record) {
                        self.route_to_hub(now, delay, Ev::MsgToController { from, msg }, sched);
                    }
                }
                SwitchOutput::ToState(msg) => {
                    let link = LinkId::new(from.0, SwitchId::CONTROLLER.0, ChannelClass::State);
                    let record = || (0, tk::MSG_TO_CONTROLLER, ts::SWITCH, from.0, 1);
                    if let Some(delay) = self.transmit(now, link, || msg.wire_len(), record) {
                        self.route_to_hub(now, delay, Ev::MsgToController { from, msg }, sched);
                    }
                }
                SwitchOutput::ToPeer(to, msg) => {
                    let link = LinkId::new(from.0, to.0, ChannelClass::Peer);
                    let record = || (0, tk::MSG_TO_SWITCH, ts::SWITCH, from.0, to.0);
                    if let Some(delay) = self.transmit(now, link, || msg.wire_len(), record) {
                        if let Some(LazyMsg::KeepAlive(ka)) = msg.as_lazy() {
                            let lands = now + delay;
                            if self.countable(now, lands) {
                                self.count_keepalive(lands, to, sched.next_seq(), ka.from);
                                continue;
                            }
                        }
                        let ev = Ev::MsgToSwitch { to, from, msg };
                        self.route_to_switch(now, delay, to, ev, sched);
                    }
                }
                SwitchOutput::Tunnel(to, packet) => {
                    let link = LinkId::new(from.0, to.0, ChannelClass::Data);
                    let record = || {
                        let id = mac_pair_trace_id(packet.inner.src, packet.inner.dst);
                        (id, tk::TUNNEL_SENT, ts::SWITCH, from.0, to.0)
                    };
                    if let Some(delay) = self.transmit(now, link, || packet.wire_len(), record) {
                        let lands = now + delay;
                        if packet.inner.is_flood() && self.countable(now, lands) {
                            let effective = match &flood_memo {
                                Some((frame, at)) if *frame == packet.inner => *at,
                                _ => {
                                    let at = self.flood_effect(&packet.inner).map(|(at, _)| at);
                                    flood_memo = Some((packet.inner.clone(), at));
                                    at
                                }
                            };
                            if self.idle_copy(now, lands, to, effective) {
                                self.count_tunnel_copy(now, lands, to, sched.next_seq());
                                continue;
                            }
                        }
                        let ev = Ev::TunnelArrive { to, packet };
                        self.route_to_switch(now, delay, to, ev, sched);
                    }
                }
                SwitchOutput::DeliverLocal(_port, frame) => {
                    self.note_delivery(now, &frame);
                    self.maybe_respond(now, &frame, sched);
                }
                SwitchOutput::FloodLocal(frame) => {
                    self.handle_flood(now, from, frame, sched);
                }
                SwitchOutput::SetTimer(timer, delay_ns) => {
                    sched.schedule_in(
                        now,
                        SimDuration::from_nanos(delay_ns),
                        Ev::SwitchTimer {
                            switch: from,
                            timer,
                        },
                    );
                }
            }
        }
        self.switch_sink.put_back(buf);
    }

    /// The one switch where a local flood of `frame` does anything, and
    /// what it does there: the switch hosting a unicast IPv4 frame's
    /// destination, or an ARP request's target. `None` for every other
    /// frame, whose floods do nothing anywhere. [`Self::handle_flood`]
    /// applies the answer, and the flood-copy count (DESIGN §7.6) asks
    /// the same question, so the two cannot disagree.
    fn flood_effect(&self, frame: &EthernetFrame) -> Option<(SwitchId, FloodEffect)> {
        let switch_of = |host: HostId| {
            (host.index() < self.topology.num_hosts()).then(|| self.topology.switch_of(host))
        };
        if frame.dst.is_unicast() {
            // Both the delivery and the response it may draw take IPv4
            // frames only.
            if frame.ethertype != EtherType::IPV4 {
                return None;
            }
            let host = HostId::new(frame.dst.host_id()? as u32);
            return Some((switch_of(host)?, FloodEffect::Deliver));
        }
        let request = frame
            .as_arp()
            .filter(|arp| arp.op == lazyctrl_net::ArpOp::Request)?;
        let target = HostId::from_ip(request.target_ip)?;
        Some((
            switch_of(target)?,
            FloodEffect::ArpReply { target, request },
        ))
    }

    /// A local flood at `at`: a unicast frame reaches its host if it
    /// lives here; an ARP request draws a reply from its target if it
    /// lives here.
    fn handle_flood(
        &mut self,
        now: SimTime,
        at: SwitchId,
        frame: EthernetFrame,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let Some((here, effect)) = self.flood_effect(&frame) else {
            return;
        };
        if here != at {
            return;
        }
        let (target, request) = match effect {
            FloodEffect::Deliver => {
                self.note_delivery(now, &frame);
                self.maybe_respond(now, &frame, sched);
                return;
            }
            FloodEffect::ArpReply { target, request } => (target, request),
        };
        let reply = lazyctrl_net::ArpPacket::reply_to(&request, target.mac());
        let reply_frame = EthernetFrame::tagged(
            target.mac(),
            request.sender_mac,
            VlanTag::for_tenant(self.topology.tenant_of(target)),
            EtherType::ARP,
            reply.encode(),
        );
        let port = self.port_of(target);
        // Host think time ≈ 100 µs.
        sched.schedule_in(
            now,
            SimDuration::from_micros(100),
            Ev::LocalFrame {
                switch: at,
                port,
                frame: reply_frame,
            },
        );
    }

    /// First delivery of a fresh pair triggers the destination's response
    /// frame (reverse-path learning).
    fn maybe_respond(
        &mut self,
        now: SimTime,
        frame: &EthernetFrame,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        if !self.cfg.responses {
            return;
        }
        let (Some(s), Some(d)) = (frame.src.host_id(), frame.dst.host_id()) else {
            return;
        };
        if frame.ethertype != EtherType::IPV4 {
            return;
        }
        let key = ((s as u32).min(d as u32), (s as u32).max(d as u32));
        if !self.responded.insert(key) {
            return;
        }
        let dst_host = HostId::new(d as u32);
        if dst_host.index() >= self.topology.num_hosts() {
            return;
        }
        let emit = now + SimDuration::from_micros(200);
        let response = self.frame_for_flow(dst_host, HostId::new(s as u32), emit.as_nanos());
        let at = self.topology.switch_of(dst_host);
        let port = self.port_of(dst_host);
        self.note_emission();
        self.route_to_switch(
            now,
            SimDuration::from_micros(200),
            at,
            Ev::LocalFrame {
                switch: at,
                port,
                frame: response,
            },
            sched,
        );
    }

    /// Sends a control-plane message down the control link to switch `to`:
    /// from the single controller (`member` = `None`), or from one cluster
    /// member. It leaves after the sender's current `service` time. A
    /// flood copy that provably does nothing where it lands is counted
    /// instead of scheduled, and so are a keep-alive and a `FlowMod`,
    /// which `to` hears before its next event (DESIGN §7.6).
    fn send_to_switch(
        &mut self,
        now: SimTime,
        member: Option<u32>,
        service: SimDuration,
        to: SwitchId,
        mut msg: Message,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        // A cluster member sends from its own pseudo-id, not the
        // CONTROLLER sentinel: a partition that cuts this member off from
        // the switch must also cut its FlowMods, or the minority side
        // would keep programming switches it can no longer hear.
        let (sender, subsys) = match member {
            Some(m) => (ctrl_pseudo_switch(m), ts::CLUSTER),
            None => (SwitchId::CONTROLLER, ts::CONTROLLER),
        };
        let link = LinkId::new(sender.0, to.0, ChannelClass::Control);
        let record = || {
            let (id, kind) = (message_trace_id(&msg), to_switch_kind(&msg));
            (id, kind, subsys, to.0, member.unwrap_or(0))
        };
        if let Some(delay) = self.transmit(now, link, || msg.wire_len(), record) {
            let lands = now + service + delay;
            if !self.eager && self.reaches_no_host(now, lands, to, &msg) {
                self.count_unscheduled(self.ctr.flood_copies_counted, KIND_MSG_TO_SWITCH, lands);
                return;
            }
            if self.countable(now, lands) {
                match msg.body {
                    MessageBody::Lazy(LazyMsg::KeepAlive(_)) => {
                        self.count_keepalive(lands, to, sched.next_seq(), SwitchId::CONTROLLER);
                        return;
                    }
                    MessageBody::Of(OfMessage::FlowMod(rule)) => {
                        self.count_flow_mod(lands, to, sched.next_seq(), msg.xid, rule);
                        return;
                    }
                    body => msg = Message { xid: msg.xid, body },
                }
            }
            let ev = Ev::MsgToSwitch {
                to,
                from: SwitchId::CONTROLLER,
                msg,
            };
            self.route_to_switch(now, service + delay, to, ev, sched);
        }
    }

    /// Sends the baseline controller's flood (`ControllerOutput::Flood`):
    /// a copy of `msg` to every switch of the fabric but `except`, in id
    /// order, copy `i` with xid `msg.xid + i`. Every copy passes the link
    /// gate as `send_to_switch` passes it, but the frame is decoded and
    /// its effective switch found once per flood, and a copy that does
    /// nothing where it lands is counted without a `Message` being built
    /// for it — in one batch when [`Self::flood_batch_lands_by`] allows
    /// it (DESIGN §7.6). The eager path sends every copy as its own
    /// message.
    fn send_flood(
        &mut self,
        now: SimTime,
        service: SimDuration,
        except: SwitchId,
        msg: Message,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let target = if self.eager {
            None
        } else {
            self.flood_target(&msg)
        };
        let copy = |xid| Message {
            xid,
            body: msg.body.clone(),
        };
        if let Some(effective) = target.filter(|_| self.flood_batch_lands_by(now, service)) {
            // Every copy that passes the gate lands by the horizon with
            // no migration due, so the idle ones are counted together:
            // each advances the stream by its latency draw's steps, and
            // only the effective switch's copy, if it is reached, is
            // sampled and built, at its own place in the stream.
            let n = self.switches.len() as u32;
            let at = effective.filter(|&e| e != except && e.0 < n && self.reaches(e));
            let before = self.flood_copies_reached(0..at.map_or(n, |e| e.0), except);
            self.latency.skip(before, &mut self.rng);
            let mut after = 0;
            if let Some(to) = at {
                let delay = self.latency.sample(ChannelClass::Control, &mut self.rng);
                let position = to.0 - u32::from(except.0 < to.0);
                let ev = Ev::MsgToSwitch {
                    to,
                    from: SwitchId::CONTROLLER,
                    msg: copy(msg.xid.wrapping_add(position)),
                };
                self.route_to_switch(now, service + delay, to, ev, sched);
                after = self.flood_copies_reached(to.0 + 1..n, except);
                self.latency.skip(after, &mut self.rng);
            }
            self.metrics
                .bump(self.ctr.flood_copies_counted, before + after);
            self.counted_events += before + after;
            return;
        }
        let mut next_xid = msg.xid;
        for to in (0..self.switches.len() as u32).map(SwitchId::new) {
            if to == except {
                continue;
            }
            let xid = next_xid;
            next_xid = next_xid.wrapping_add(1);
            let Some(effective) = target else {
                self.send_to_switch(now, None, service, to, copy(xid), sched);
                continue;
            };
            let link = LinkId::new(SwitchId::CONTROLLER.0, to.0, ChannelClass::Control);
            let record = || {
                let (id, kind) = (message_trace_id(&msg), to_switch_kind(&msg));
                (id, kind, ts::CONTROLLER, to.0, 0)
            };
            let Some(delay) = self.transmit(now, link, || msg.wire_len(), record) else {
                continue;
            };
            let lands = now + service + delay;
            if self.idle_copy(now, lands, to, effective) {
                self.count_unscheduled(self.ctr.flood_copies_counted, KIND_MSG_TO_SWITCH, lands);
                continue;
            }
            let ev = Ev::MsgToSwitch {
                to,
                from: SwitchId::CONTROLLER,
                msg: copy(xid),
            };
            self.route_to_switch(now, service + delay, to, ev, sched);
        }
    }

    /// True when a flood the controller sends at `now` after `service`
    /// may count its idle copies in one batch: every copy's gate is then
    /// its reachability and one latency draw, and every copy it passes
    /// lands by the horizon with no host migration due, so is counted
    /// exactly as the per-copy path counts it. That needs tracing off (no
    /// record per copy), a lossless (no loss draw) and uncapacitated (no
    /// watermark) Control class, and the latest landing the latency model
    /// allows, `now + service + max_sample`, by the horizon and before
    /// any migration.
    fn flood_batch_lands_by(&mut self, now: SimTime, service: SimDuration) -> bool {
        if self.obs.is_some()
            || !self.links.lossless(ChannelClass::Control)
            || self.bandwidth.class_enabled(ChannelClass::Control)
        {
            return false;
        }
        let latest = now + service + self.latency.max_sample(ChannelClass::Control);
        latest <= self.horizon && !self.migrations.due(now, latest)
    }

    /// True when the controller's Control link to `to` is up.
    fn reaches(&self, to: SwitchId) -> bool {
        let link = LinkId::new(SwitchId::CONTROLLER.0, to.0, ChannelClass::Control);
        self.links.is_up(link)
    }

    /// How many of the switches `ids` but `except` the controller
    /// reaches: each one's reachability, decided at once while every
    /// node is up and no partition is in force.
    fn flood_copies_reached(&self, ids: std::ops::Range<u32>, except: SwitchId) -> u64 {
        if self.links.all_up() {
            return (ids.len() - usize::from(ids.contains(&except.0))) as u64;
        }
        ids.map(SwitchId::new)
            .filter(|&to| to != except && self.reaches(to))
            .count() as u64
    }

    /// For a `PacketOut` that only floods (`floods_only`): the one switch
    /// where a copy of it does anything, its frame's effective switch,
    /// or `Some(None)` when there is none — bytes that do not decode
    /// included, as the switch drops them. `None` for any other message.
    fn flood_target(&self, msg: &Message) -> Option<Option<SwitchId>> {
        let Some(OfMessage::PacketOut(po)) = msg.as_of() else {
            return None;
        };
        if !floods_only(&po.actions) {
            return None;
        }
        let frame = EthernetFrame::decode(&po.data).ok();
        Some(frame.and_then(|f| self.flood_effect(&f)).map(|(at, _)| at))
    }

    /// True when the controller's `msg`, sent at `now` and landing at
    /// switch `to` at `lands`, provably does nothing there: a `PacketOut`
    /// that only floods, to a switch other than its frame's effective
    /// switch, with no host migration due before it lands.
    fn reaches_no_host(
        &mut self,
        now: SimTime,
        lands: SimTime,
        to: SwitchId,
        msg: &Message,
    ) -> bool {
        self.flood_target(msg)
            .is_some_and(|effective| self.idle_copy(now, lands, to, effective))
    }

    /// True when a flood copy sent at `now` that lands at switch `to` at
    /// `lands` does nothing there: `to` is not the flood's `effective`
    /// switch, and no host migration, which could move that switch, is
    /// due in `[now, lands]`.
    fn idle_copy(
        &mut self,
        now: SimTime,
        lands: SimTime,
        to: SwitchId,
        effective: Option<SwitchId>,
    ) -> bool {
        effective != Some(to) && !self.migrations.due(now, lands)
    }

    /// True when a keep-alive or `FlowMod` sent at `now` that lands at
    /// `lands` may be counted instead of scheduled: not on the sharded
    /// engine, and with no `CrashSwitch` / `RecoverSwitch` due in `[now,
    /// lands]`. A delivery that lands on a switch that is down is
    /// dropped, so the receiver's power at landing must be its power at
    /// send, which the gate checked; `RecoverSwitch` also re-arms ticks.
    fn countable(&mut self, now: SimTime, lands: SimTime) -> bool {
        !self.eager && !self.power_changes.due(now, lands)
    }

    /// Counts a keep-alive from `from`, landing at switch `to` at `lands`
    /// and marked with the queue's next seq `mark`, instead of
    /// scheduling it, and queues it for `to` to hear (DESIGN §7.6) — if
    /// it lands by the horizon: the wheel would never have popped it
    /// otherwise.
    fn count_keepalive(&mut self, lands: SimTime, to: SwitchId, mark: u64, from: SwitchId) {
        if self.count_unscheduled(self.ctr.keepalives_counted, KIND_MSG_TO_SWITCH, lands) {
            self.unheard[to.index()].push_keepalive(lands, mark, from);
        }
    }

    /// Counts a `FlowMod` (`xid`, `rule`) as [`Self::count_keepalive`]
    /// counts a keep-alive, and queues it on `to`'s inbox.
    fn count_flow_mod(
        &mut self,
        lands: SimTime,
        to: SwitchId,
        mark: u64,
        xid: u32,
        rule: Box<FlowModMsg>,
    ) {
        if self.count_unscheduled(self.ctr.flow_mods_counted, KIND_MSG_TO_SWITCH, lands) {
            let unheard = &mut self.unheard[to.index()];
            unheard.inbox.push(Reverse(Landed {
                lands,
                mark,
                order: self.counted_events,
                xid,
                rule,
            }));
            unheard.due = unheard.due.min(lands);
        }
    }

    /// Counts a flood tunnel copy sent at `now` that lands at switch `to`
    /// at `lands`, where it does nothing but bump `packets_processed`,
    /// instead of scheduling it. `mark` is the queue's next seq, which
    /// orders it as an inbox entry is ordered; `to` hears it as it hears
    /// those (DESIGN §7.6) — if it lands by the horizon.
    fn count_tunnel_copy(&mut self, now: SimTime, lands: SimTime, to: SwitchId, mark: u64) {
        let counter = self.ctr.flood_tunnels_counted;
        if self.count_unscheduled(counter, KIND_TUNNEL_ARRIVE, lands) {
            self.unheard[to.index()].push_copy(now, lands, mark);
        }
    }

    /// Switch `s` hears, in firing order, the counted deliveries that
    /// fire before the event popped at `now` with `seq` (`None` for a
    /// merged arrival): called at the head of every event bound for `s`.
    #[inline]
    fn hear_landed(&mut self, s: SwitchId, now: SimTime, seq: Option<u64>) {
        if self.unheard[s.index()].due <= now {
            self.hear_due(s, now, seq);
        }
    }

    /// [`Self::hear_landed`] once something queued for `s` may have
    /// fired.
    #[inline(never)]
    fn hear_due(&mut self, s: SwitchId, now: SimTime, seq: Option<u64>) {
        let i = s.index();
        let unheard = &mut self.unheard[i];
        let copies = unheard.take_copies(now, seq);
        if copies > 0 || !unheard.keepalives.is_empty() {
            let sw = self.switches[i]
                .as_mut()
                .expect("counted delivery bound for its owner");
            sw.hear_flood_copies(copies);
            unheard.keepalives.retain(|&(lands, mark, from)| {
                let fired = fires_before(lands, mark, now, seq);
                if fired {
                    sw.hear_keepalive(from, lands.as_nanos());
                }
                !fired
            });
        }
        while self.unheard[i]
            .inbox
            .peek()
            .is_some_and(|Reverse(next)| next.before(now, seq))
        {
            let Reverse(landed) = self.unheard[i].inbox.pop().expect("peeked");
            self.trace(landed.lands, || {
                let id = flow_mod_trace_id(&landed.rule);
                (id, tk::FLOW_MOD_RECV, ts::SWITCH, s.0, 0)
            });
            let sw = self.switches[i]
                .as_mut()
                .expect("counted delivery bound for its owner");
            landed.apply(sw, &mut self.switch_sink);
        }
        self.unheard[i].settle();
    }

    /// Every switch hears everything it has not heard yet: the end of a
    /// run, whose switch state is then what scheduling every delivery
    /// leaves. Everything queued landed by the horizon.
    pub(crate) fn hear_all_landed(&mut self) {
        for s in 0..self.unheard.len() {
            self.hear_due(SwitchId::new(s as u32), SimTime::MAX, None);
        }
    }

    /// Accounts for a delivery settled without scheduling it as the
    /// event it would have been, under its `counter`: one
    /// `events_processed` and one dispatch of `kind` in the profile — if
    /// it lands by the horizon, as the wheel pops only those. Returns
    /// whether it does.
    fn count_unscheduled(&mut self, counter: CounterId, kind: u32, lands: SimTime) -> bool {
        if lands > self.horizon {
            return false;
        }
        self.metrics.bump(counter, 1);
        self.counted_events += 1;
        if let Some(obs) = &mut self.obs {
            obs.profile.count_unsampled(kind);
        }
        true
    }

    /// The events this world counted instead of scheduling, of every
    /// kind (DESIGN §7.6): `events_processed` adds them to the queue's
    /// pops.
    pub(crate) fn counted_events(&self) -> u64 {
        self.counted_events
    }

    fn dispatch_controller_outputs(&mut self, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        // Model controller processing: outputs leave after the current
        // service time, the same for the whole batch.
        let service = self.controller.service_time(None, now);
        let mut buf = self.ctrl_sink.take_buf();
        for out in buf.drain(..) {
            match out {
                ControllerOutput::ToSwitch(to, msg) => {
                    self.send_to_switch(now, None, service, to, msg, sched);
                }
                ControllerOutput::Flood { except, msg } => {
                    self.send_flood(now, service, except, msg, sched);
                }
                ControllerOutput::SetTimer(timer, delay_ns) => {
                    sched.schedule_in(
                        now,
                        SimDuration::from_nanos(delay_ns),
                        Ev::ControllerTimer(timer),
                    );
                }
            }
        }
        self.ctrl_sink.put_back(buf);
    }

    /// Applies cluster-plane outputs: per-member service times, control
    /// links towards switches, ctrl-peer links between members.
    fn dispatch_cluster_outputs(&mut self, now: SimTime, sched: &mut Scheduler<'_, Ev>) {
        let mut buf = self.cluster_sink.take_buf();
        // As in `dispatch_controller_outputs`, a sender's service time is
        // the same for the whole batch: meters change inside the plane's
        // handlers, never during a drain. A batch comes out of one handler
        // call, so nearly always has one sender; computing it again when
        // the sender changes is all the memo a drain needs.
        let mut last: Option<(u32, SimDuration)> = None;
        let mut service_of = |world: &Self, member: u32| match last {
            Some((m, service)) if m == member => service,
            _ => {
                let service = world.controller.service_time(Some(member), now);
                last = Some((member, service));
                service
            }
        };
        for out in buf.drain(..) {
            match out {
                ClusterOutput::ToSwitch { from, to, msg } => {
                    let service = service_of(self, from);
                    self.send_to_switch(now, Some(from), service, to, msg, sched);
                }
                ClusterOutput::ToCtrl { from, to, msg } => {
                    let service = service_of(self, from);
                    let link = LinkId::new(
                        ctrl_pseudo_switch(from).0,
                        ctrl_pseudo_switch(to).0,
                        ChannelClass::CtrlPeer,
                    );
                    let record = || (0, tk::CTRL_PEER_SEND, ts::CLUSTER, from, to);
                    if let Some(delay) = self.transmit(now, link, || msg.wire_len(), record) {
                        sched.schedule_in(now, service + delay, Ev::CtrlPeerMsg { from, to, msg });
                    }
                }
                ClusterOutput::SetTimer(timer, delay_ns) => {
                    sched.schedule_in(
                        now,
                        SimDuration::from_nanos(delay_ns),
                        Ev::ClusterTimer(timer),
                    );
                }
            }
        }
        self.cluster_sink.put_back(buf);
    }

    /// Decides where a switch's controller-bound message lands under the
    /// current reachability map (cluster mode; see [`RehomeState`] for
    /// the detection/return model). Pure link-state consultation — no
    /// RNG is drawn, so the hub-only call site cannot desynchronize the
    /// sharded engine's replicated streams.
    fn cluster_route(&mut self, now: SimTime, from: SwitchId) -> CtrlRoute {
        let Some(plane) = self.controller.cluster() else {
            return CtrlRoute::Owner;
        };
        // Fast path: fabric whole and no switch still re-homed.
        if !self.links.partitioned() && self.rehome.is_empty() {
            return CtrlRoute::Owner;
        }
        let Some(owner) = plane.owner_of_switch(from) else {
            return CtrlRoute::Owner;
        };
        let now_ns = now.as_nanos();
        // The switch-side detection deadline mirrors the cluster's own
        // failure detector (Table-I): miss_factor silent heartbeats.
        let deadline_ns = plane.config().failure_deadline_ns();
        let n = plane.num_controllers() as u32;
        let reachable_member =
            |links: &LinkState, m: u32| links.reachable(from.0, ctrl_pseudo_switch(m).0);
        let pick = |links: &LinkState, plane: &ClusterControlPlane| -> Option<u32> {
            (0..n)
                .filter(|&m| m != owner && !plane.is_crashed(m))
                .find(|&m| reachable_member(links, m))
        };

        if reachable_member(&self.links, owner) {
            let Some(entry) = self.rehome.get(&from.0) else {
                return CtrlRoute::Owner;
            };
            let Some(standin) = entry.standin else {
                // Blip shorter than the detection window; forget it.
                self.rehome.remove(&from.0);
                return CtrlRoute::Owner;
            };
            // A re-homed switch only discovers the heal at its next
            // jitter-staggered probe (or when its stand-in dies under it)
            // — never all at once across the fabric.
            if now_ns >= entry.next_probe_ns
                || plane.is_crashed(standin)
                || !reachable_member(&self.links, standin)
            {
                self.rehome.remove(&from.0);
                self.metrics.bump(self.ctr.switch_rehome_returns, 1);
                return CtrlRoute::Owner;
            }
            return CtrlRoute::Standin(standin);
        }

        let entry = self.rehome.entry(from.0).or_insert(RehomeState {
            blocked_since_ns: now_ns,
            standin: None,
            next_probe_ns: 0,
            attempts: 0,
        });
        if entry.standin.is_none() {
            if now_ns.saturating_sub(entry.blocked_since_ns) < deadline_ns {
                // Detection window: the switch still trusts its owner, so
                // the message is lost in the partition.
                self.metrics.bump(self.ctr.ctrl_unreachable_drops, 1);
                return CtrlRoute::Lost;
            }
            let Some(m) = pick(&self.links, plane) else {
                self.metrics.bump(self.ctr.ctrl_unreachable_drops, 1);
                return CtrlRoute::Lost;
            };
            entry.standin = Some(m);
            entry.attempts = 0;
            entry.next_probe_ns = now_ns
                .saturating_add(deadline_ns)
                .saturating_add(rehome_jitter_ns(self.cfg.seed, from.0, 0, deadline_ns / 2));
            self.metrics.bump(self.ctr.switch_rehomes, 1);
            return CtrlRoute::Standin(m);
        }
        // Re-homed and due for a probe: the owner is still dark, so the
        // probe fails and the backoff doubles (capped), with fresh jitter.
        if now_ns >= entry.next_probe_ns {
            entry.attempts = entry.attempts.saturating_add(1);
            let backoff = deadline_ns.saturating_mul(1u64 << entry.attempts.min(5));
            entry.next_probe_ns = now_ns
                .saturating_add(backoff)
                .saturating_add(rehome_jitter_ns(
                    self.cfg.seed,
                    from.0,
                    entry.attempts,
                    backoff / 2,
                ));
        }
        let standin = entry.standin.expect("checked above");
        if !plane.is_crashed(standin) && reachable_member(&self.links, standin) {
            return CtrlRoute::Standin(standin);
        }
        // Stand-in lost too; fail over to the next reachable member.
        let Some(m) = pick(&self.links, plane) else {
            self.metrics.bump(self.ctr.ctrl_unreachable_drops, 1);
            return CtrlRoute::Lost;
        };
        self.rehome.get_mut(&from.0).expect("present").standin = Some(m);
        self.metrics.bump(self.ctr.switch_rehomes, 1);
        CtrlRoute::Standin(m)
    }

    /// Applies one event from the experiment's fault-injection plan.
    ///
    /// Every effect flows through state the simulation already models —
    /// the link switchboard, the latency model, the cluster plane, the
    /// topology — so injected faults interact with detection and recovery
    /// machinery exactly as organic ones would.
    fn apply_injected(
        &mut self,
        now: SimTime,
        event: InjectedEvent,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        // Under the sharded engine this runs on *every* partition (with
        // the replicated global RNG swapped in — see `handle_global`).
        // Shared state (topology, links, latency) mutates identically
        // everywhere; run-wide effects (counters, traces, fingerprints)
        // are gated to the hub; per-switch effects to the owner. The
        // lockstep invariant: a draw from `self.rng` in this scope must
        // happen on every partition or on none — anything gated to the
        // hub (or an owner) has to swap the partition-local RNG back in
        // first.
        let hub = self.is_hub();
        if let Some(obs) = self.obs.as_mut().filter(|_| hub) {
            let (kind, a, b) = match &event {
                InjectedEvent::CrashController(id) => (tk::CRASH_CONTROLLER, *id, 0),
                InjectedEvent::RecoverController(id) => (tk::RECOVER_CONTROLLER, *id, 0),
                InjectedEvent::CrashSwitch(s) => (tk::CRASH_SWITCH, s.0, 0),
                InjectedEvent::RecoverSwitch(s) => (tk::RECOVER_SWITCH, s.0, 0),
                InjectedEvent::LinkDegrade { factor, .. } => {
                    (tk::LINK_DEGRADE, (*factor * 1000.0) as u32, 0)
                }
                InjectedEvent::LinkLoss { loss, .. } => (tk::LINK_LOSS, (*loss * 1000.0) as u32, 0),
                InjectedEvent::MigrateHosts { batch } => (tk::MIGRATE_HOSTS, *batch, 0),
                InjectedEvent::TrafficBurst { scale } => {
                    (tk::TRAFFIC_BURST, (*scale * 1000.0) as u32, 0)
                }
                InjectedEvent::PartitionNetwork { groups } => {
                    (tk::PARTITION_NETWORK, groups.len() as u32, 0)
                }
                InjectedEvent::HealPartition => (tk::HEAL_PARTITION, 0, 0),
            };
            obs.recorder
                .record(now.as_nanos(), 0, kind, ts::WORLD, a, b);
        }
        match event {
            InjectedEvent::CrashController(id) => {
                if hub {
                    self.metrics.bump(self.ctr.controller_crashes, 1);
                }
                if let AnyController::Cluster(plane) = &mut self.controller {
                    plane.step_crash(id);
                    self.cluster_fingerprints.push(plane.fingerprint());
                }
            }
            InjectedEvent::RecoverController(id) => {
                if let AnyController::Cluster(plane) = &mut self.controller {
                    plane.step_recover(id, &mut self.cluster_sink);
                    self.cluster_fingerprints.push(plane.fingerprint());
                }
                // Recovery outputs exist only on the hub (shards hold a
                // placeholder controller), so any delivery/latency draws
                // the dispatch makes must come from the partition-local
                // stream: drawing them from the replicated global RNG
                // would advance the hub's copy past every shard's and
                // silently desynchronize later replicated draws
                // (migration targets, burst pairs). Swap the local RNG
                // back in around the dispatch.
                self.swap_global_rng();
                self.dispatch_cluster_outputs(now, sched);
                self.swap_global_rng();
            }
            InjectedEvent::CrashSwitch(s) => {
                if hub {
                    self.metrics.bump(self.ctr.switch_crashes, 1);
                }
                self.links.set_node_down(s.0, true);
            }
            InjectedEvent::RecoverSwitch(s) => {
                self.links.set_node_down(s.0, false);
                // Periodic chains severed during the outage resume a
                // moment after power-on (the handlers re-arm themselves).
                for timer in [SwitchTimer::KeepAlive, SwitchTimer::PeerSync] {
                    if self.severed_timers.remove(&(s.0, timer)) {
                        let delay = SimDuration::from_millis(2);
                        sched.schedule_in(now, delay, Ev::SwitchTimer { switch: s, timer });
                    }
                }
                // §III-E.3 comeback: the rebooted switch pings the
                // controller, which resynchronizes its group state. The
                // latency draw is unconditional (every partition's
                // replicated RNG must advance in lockstep); only the
                // switch's owner emits the ping.
                let delay = self.latency.sample(ChannelClass::Control, &mut self.rng);
                if self.owns_switch(s.0) {
                    self.route_to_hub(
                        now,
                        delay,
                        Ev::MsgToController {
                            from: s,
                            msg: Message::of(0, lazyctrl_proto::OfMessage::Hello),
                        },
                        sched,
                    );
                }
            }
            InjectedEvent::LinkDegrade { class, factor } => {
                if hub {
                    self.metrics.bump(self.ctr.link_degrades, 1);
                }
                self.latency.degrade(class, factor);
            }
            InjectedEvent::LinkLoss { class, loss } => {
                if hub {
                    self.metrics.bump(self.ctr.link_loss_changes, 1);
                }
                self.links.set_class_loss(class, loss);
            }
            InjectedEvent::MigrateHosts { batch } => {
                self.migrate_hosts(now, batch, sched);
            }
            InjectedEvent::TrafficBurst { scale } => {
                self.traffic_burst(now, scale, sched);
            }
            InjectedEvent::PartitionNetwork { groups } => {
                if hub {
                    self.metrics.bump(self.ctr.network_partitions, 1);
                }
                // Reachability is a pure link-state mutation, identical
                // on every partition and drawing no randomness — the
                // lockstep RNG invariant holds trivially.
                self.links.set_partition(&groups);
            }
            InjectedEvent::HealPartition => {
                if hub {
                    self.metrics.bump(self.ctr.partition_heals, 1);
                }
                self.links.heal_partition();
            }
        }
    }

    /// Live-migrates `batch` hosts to other switches: each moved host gets
    /// a fresh port at a different switch and re-announces itself from
    /// there (gratuitous ARP), so datapath learning and C-LIB state
    /// converge on the new location while stale entries age out.
    fn migrate_hosts(&mut self, now: SimTime, batch: u32, sched: &mut Scheduler<'_, Ev>) {
        let num_hosts = self.topology.num_hosts();
        let num_switches = self.topology.num_switches;
        if num_switches < 2 || num_hosts == 0 {
            return;
        }
        // Distinct hosts per batch (sampling with replacement would move
        // fewer VMs than the event promises); the batch is capped by the
        // host population.
        let mut moved = std::collections::BTreeSet::new();
        let target = (batch as usize).min(num_hosts);
        while moved.len() < target {
            let host = HostId::new(self.rng.gen_range(0..num_hosts as u32));
            if !moved.insert(host.0) {
                continue;
            }
            let k = moved.len() - 1;
            let old = self.topology.switch_of(host);
            // Only powered-on switches can receive a migrated VM — landing
            // one on a dark switch would silently drop its announcement
            // and leave location state stale forever.
            let candidates: Vec<u32> = (0..num_switches as u32)
                .filter(|&s| s != old.0 && self.links.is_node_up(s))
                .collect();
            if candidates.is_empty() {
                continue;
            }
            let pick: usize = self.rng.gen_range(0..candidates.len());
            let new = SwitchId::new(candidates[pick]);
            self.topology.host_switch[host.index()] = new;
            let port = PortNo::new(self.next_port[new.index()]);
            self.next_port[new.index()] += 1;
            self.host_port[host.index()] = port;
            if self.is_hub() {
                self.metrics.bump(self.ctr.host_migrations, 1);
            }
            // The re-plugged host announces itself from its new switch;
            // migrations in one batch land a millisecond apart. Only the
            // new switch's owner emits the (strictly local) announcement.
            if self.owns_switch(new.0) {
                let frame = gratuitous_announcement(host, self.topology.tenant_of(host));
                sched.schedule_in(
                    now,
                    SimDuration::from_millis(1 + k as u64),
                    Ev::LocalFrame {
                        switch: new,
                        port,
                        frame,
                    },
                );
            }
        }
    }

    /// Injects `scale × hosts` synthetic flow arrivals between random host
    /// pairs, spread over a one-minute window.
    fn traffic_burst(&mut self, now: SimTime, scale: f64, sched: &mut Scheduler<'_, Ev>) {
        let num_hosts = self.topology.num_hosts() as u32;
        if num_hosts < 2 {
            return;
        }
        let n = ((scale * num_hosts as f64).ceil() as u64).max(1);
        let spacing = SimDuration::from_nanos(SimDuration::from_secs(60).as_nanos() / n);
        let mut offset = SimDuration::ZERO;
        for _ in 0..n {
            // Draws are unconditional (lockstep RNG); each arrival is
            // scheduled only by the partition owning its ingress switch.
            let src = HostId::new(self.rng.gen_range(0..num_hosts));
            let hop = 1 + self.rng.gen_range(0..num_hosts - 1);
            let dst = HostId::new((src.0 + hop) % num_hosts);
            offset += spacing;
            if self.owns_switch(self.topology.switch_of(src).0) {
                sched.schedule_in(now, offset, Ev::SyntheticFlow { src, dst });
            }
        }
    }

    /// Starts one flow — trace arrival or injected burst (`arrival`, the
    /// event that brought it), both take the identical first-packet path
    /// (owner re-resolution, ingress power gate, fresh-pair tracking,
    /// optional ARP-before-data).
    fn start_flow(
        &mut self,
        now: SimTime,
        src: HostId,
        dst: HostId,
        arrival: Ev,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        let at = self.topology.switch_of(src);
        // The partition map places arrivals by the source host's switch
        // *at split time*; a later migration can move the host, so
        // re-resolve and forward to the current owner. The zero-delay
        // forward lands below the merge floor and is bumped to the epoch
        // horizon (counted in `ShardStats::bumped_events`), so a migrated
        // host's flow starts up to one window late — deterministically,
        // and only for hosts a fault moved across partitions.
        if !self.owns_switch(at.0) {
            self.route_to_switch(now, SimDuration::ZERO, at, arrival, sched);
            return;
        }
        self.hear_landed(at, now, sched.popped_seq());
        self.metrics.bump(self.ctr.flows_started, 1);
        if matches!(arrival, Ev::SyntheticFlow { .. }) {
            self.metrics.bump(self.ctr.burst_flows, 1);
        }
        let port = self.port_of(src);
        if !self.links.is_node_up(at.0) {
            // Ingress switch is powered off: the flow has nowhere to
            // enter the fabric — and the pair stays *fresh*, since
            // nothing of it ever reached the network.
            self.metrics.bump(self.ctr.ingress_down_drops, 1);
            return;
        }
        let pair = (src.0.min(dst.0), src.0.max(dst.0));
        let fresh = self.seen_pairs.insert(pair);
        self.trace(now, || {
            let id = pair_trace_id(src.0 as u64, dst.0 as u64);
            (id, tk::FLOW_START, ts::WORLD, at.0, port.0 as u32)
        });

        if fresh && self.cfg.emit_arp {
            // Fresh pair: the source ARPs for the destination first.
            let arp = lazyctrl_net::ArpPacket::request(src.mac(), src.ip(), dst.ip());
            let arp_frame = EthernetFrame::tagged(
                src.mac(),
                MacAddr::BROADCAST,
                VlanTag::for_tenant(self.topology.tenant_of(src)),
                EtherType::ARP,
                arp.encode(),
            );
            self.switches[at.index()]
                .as_mut()
                .expect("flow starts at an owned switch")
                .handle_local_frame(now.as_nanos(), port, arp_frame, &mut self.switch_sink);
            self.dispatch_switch_outputs(now, at, sched);
            // The data packet follows shortly after resolution.
            let emit = now + SimDuration::from_millis(1);
            let frame = self.frame_for_flow(src, dst, emit.as_nanos());
            self.note_emission();
            sched.schedule_in(
                now,
                SimDuration::from_millis(1),
                Ev::LocalFrame {
                    switch: at,
                    port,
                    frame,
                },
            );
        } else {
            let frame = self.frame_for_flow(src, dst, now.as_nanos());
            self.note_emission();
            self.switches[at.index()]
                .as_mut()
                .expect("flow starts at an owned switch")
                .handle_local_frame(now.as_nanos(), port, frame, &mut self.switch_sink);
            self.dispatch_switch_outputs(now, at, sched);
        }
    }

    /// Record a regroup event when the grouping manager advanced.
    fn track_regroups(&mut self, now: SimTime) {
        if let Some(lazy) = self.controller.lazy() {
            let updates = lazy.grouping().updates_applied();
            if updates > self.last_updates_applied {
                let delta = updates - self.last_updates_applied;
                self.trace(now, || (0, tk::REGROUP, ts::CONTROLLER, delta as u32, 0));
                self.metrics
                    .series_mut("regroup_updates", SimDuration::from_secs(3600))
                    .record(now, delta as f64);
                self.last_updates_applied = updates;
            }
        }
    }

    /// True when this partition owns switch `s` (always true on the
    /// single-threaded path).
    #[inline]
    fn owns_switch(&self, s: u32) -> bool {
        self.part
            .as_ref()
            .is_none_or(|p| p.owner[s as usize] == p.id)
    }

    /// True on the hub partition — the one holding the control plane and
    /// run-wide counters (always true on the single-threaded path).
    /// Inside a *global* event handler this gates everything that must
    /// happen exactly once per run rather than once per partition.
    #[inline]
    fn is_hub(&self) -> bool {
        self.part.as_ref().is_none_or(|p| p.id == 0)
    }

    /// Schedules `ev` for switch `to`'s partition: locally when owned,
    /// otherwise staged for the cross-partition exchange.
    fn route_to_switch(
        &mut self,
        now: SimTime,
        delay: SimDuration,
        to: SwitchId,
        ev: Ev,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        match &mut self.part {
            Some(p) if p.owner[to.index()] != p.id => {
                p.staged.push((p.owner[to.index()], now + delay, ev));
            }
            _ => sched.schedule_in(now, delay, ev),
        }
    }

    /// Schedules `ev` for the hub (controller/cluster) partition.
    fn route_to_hub(
        &mut self,
        now: SimTime,
        delay: SimDuration,
        ev: Ev,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        match &mut self.part {
            Some(p) if p.id != 0 => p.staged.push((0, now + delay, ev)),
            _ => sched.schedule_in(now, delay, ev),
        }
    }

    /// Swaps the partition's global-event RNG into place (and back): see
    /// [`PartitionCtx::global_rng`]. No-op on the single-threaded path.
    fn swap_global_rng(&mut self) {
        if let Some(p) = &mut self.part {
            std::mem::swap(&mut self.rng, &mut p.global_rng);
        }
    }

    /// Applies one global (injected) event under the replicated RNG. The
    /// shard executor calls this on *every* partition at the event's
    /// barrier; effect gating (`is_hub`/`owns_switch`) inside
    /// `apply_injected` keeps run-wide effects single-shot while shared
    /// state (topology, links, latency) mutates identically everywhere.
    pub(crate) fn handle_global(
        &mut self,
        now: SimTime,
        event: &InjectedEvent,
        sched: &mut Scheduler<'_, Ev>,
    ) {
        self.swap_global_rng();
        self.apply_injected(now, event.clone(), sched);
        self.swap_global_rng();
    }

    /// The minimum cross-partition delivery latency — the sharded
    /// engine's default (timing-exact) synchronization window. CtrlPeer
    /// is excluded: controller-to-controller traffic never leaves the
    /// hub partition.
    pub(crate) fn lookahead_floor(&self) -> SimDuration {
        self.latency.lookahead_floor(&[
            ChannelClass::Data,
            ChannelClass::Control,
            ChannelClass::State,
            ChannelClass::Peer,
        ])
    }

    /// Splits this world into `nparts` partition worlds along `owner`
    /// (`owner[switch] = partition`). Partition 0 — the hub — keeps the
    /// whole control plane, the run RNG, metrics and observability;
    /// partitions 1.. get fresh per-partition state, deterministically
    /// derived RNG streams, and their owned switches. Shared read-mostly
    /// state (topology, links, latency) is replicated and kept identical
    /// by the lockstep global-event protocol.
    pub(crate) fn split(mut self, owner: Arc<Vec<u16>>, nparts: u16) -> Vec<DataCenterWorld> {
        assert!(nparts >= 1, "need at least the hub partition");
        assert_eq!(owner.len(), self.switches.len(), "owner map size mismatch");
        // The sharded engine's event total is its executor's pops: a
        // delivery counted before the split would go missing from it.
        assert_eq!(self.counted_events, 0, "split after a counted delivery");
        let global_seed = self.cfg.seed ^ 0x610ba1;
        let mut parts: Vec<DataCenterWorld> = Vec::with_capacity(nparts as usize);
        for p in 1..nparts {
            let cfg = self.cfg.clone();
            let obs = cfg.obs.enabled.then(|| {
                Box::new(WorldObs {
                    recorder: FlightRecorder::new(cfg.obs.ring_capacity),
                    profile: EngineProfile::new(EVENT_KIND_NAMES.len(), EVENT_KIND_SUBSYS.to_vec()),
                })
            });
            let mut metrics = MetricsSink::new();
            let ctr = WorldCounters::register(&mut metrics);
            parts.push(DataCenterWorld {
                // A distinct, seed-derived stream per partition (golden
                // ratio stride): which jitter samples a message draws
                // depends on the partition layout, not on thread timing,
                // so any fixed layout is deterministic at every worker
                // count.
                rng: StdRng::seed_from_u64(
                    cfg.seed ^ 0x57a7e ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(p) + 1),
                ),
                latency: self.latency.clone(),
                bandwidth: self.bandwidth.clone(),
                topology: self.topology.clone(),
                flows: Arc::clone(&self.flows),
                switches: (0..self.switches.len()).map(|_| None).collect(),
                // Placeholder: shard partitions never dispatch to a
                // controller (controller-bound traffic routes to the hub).
                controller: AnyController::Baseline(BaselineController::new(Vec::new())),
                links: self.links.clone(),
                metrics,
                ctr,
                host_port: self.host_port.clone(),
                next_port: self.next_port.clone(),
                seen_pairs: HashSet::default(),
                responded: HashSet::default(),
                workload_bucket: self.workload_bucket,
                severed_timers: std::collections::BTreeSet::new(),
                last_updates_applied: 0,
                flow_latencies: Vec::new(),
                switch_sink: OutputSink::new(),
                ctrl_sink: OutputSink::new(),
                cluster_sink: OutputSink::new(),
                cluster_fingerprints: Vec::new(),
                rehome: std::collections::BTreeMap::new(),
                obs,
                part: Some(Box::new(PartitionCtx {
                    id: p,
                    owner: owner.clone(),
                    staged: Vec::new(),
                    global_rng: StdRng::seed_from_u64(global_seed),
                })),
                // A partition counts no delivery (DESIGN §7.6).
                horizon: self.horizon,
                counted_events: 0,
                migrations: PlanCursor::default(),
                power_changes: PlanCursor::default(),
                unheard: (0..self.switches.len())
                    .map(|_| Unheard::default())
                    .collect(),
                eager: true,
                cfg,
            });
        }
        // Hand each shard its switches; the hub keeps the remainder.
        for (s, slot) in self.switches.iter_mut().enumerate() {
            let o = owner[s];
            if o != 0 {
                parts[usize::from(o) - 1].switches[s] = slot.take();
            }
        }
        self.part = Some(Box::new(PartitionCtx {
            id: 0,
            owner,
            staged: Vec::new(),
            global_rng: StdRng::seed_from_u64(global_seed),
        }));
        self.eager = true;
        parts.insert(0, self);
        parts
    }

    /// Reassembles one world from the partitions a sharded run produced:
    /// the hub absorbs every shard's switches, metrics, flow latencies
    /// and observability (in partition order, so the merge is
    /// deterministic). Report collection then runs unchanged.
    pub(crate) fn merge_partitions(parts: Vec<DataCenterWorld>) -> DataCenterWorld {
        let mut iter = parts.into_iter();
        let mut hub = iter.next().expect("hub partition");
        for mut shard in iter {
            for (slot, taken) in hub.switches.iter_mut().zip(shard.switches.iter_mut()) {
                if taken.is_some() {
                    debug_assert!(slot.is_none(), "switch owned by two partitions");
                    *slot = taken.take();
                }
            }
            hub.metrics.merge(&shard.metrics);
            // Concatenated in partition order (not globally time-sorted):
            // deterministic, and downstream consumers aggregate anyway.
            hub.flow_latencies.append(&mut shard.flow_latencies);
            if let (Some(hobs), Some(sobs)) = (hub.obs.as_deref_mut(), shard.obs.as_deref()) {
                hobs.profile.merge(&sobs.profile);
                hobs.recorder.merge(&sobs.recorder);
            }
        }
        hub.part = None;
        hub
    }
}

/// Deterministic per-switch probe jitter (splitmix64 of seed, switch and
/// attempt, reduced into `window_ns`). Hash-derived rather than drawn
/// from the run RNG so re-homing perturbs no other sampling stream —
/// bit-identical runs across worker counts come for free.
fn rehome_jitter_ns(seed: u64, switch: u32, attempts: u32, window_ns: u64) -> u64 {
    if window_ns == 0 {
        return 0;
    }
    let mut x = seed ^ (u64::from(switch) << 32) ^ u64::from(attempts);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x % window_ns
}

/// Builds the gratuitous announcement frame a host sends at boot.
fn gratuitous_announcement(host: HostId, tenant: TenantId) -> EthernetFrame {
    let arp = lazyctrl_net::ArpPacket::request(host.mac(), host.ip(), host.ip());
    EthernetFrame::tagged(
        host.mac(),
        MacAddr::BROADCAST,
        VlanTag::for_tenant(tenant),
        EtherType::ARP,
        arp.encode(),
    )
}

impl DataCenterWorld {
    /// The event dispatch proper (the body of [`World::handle`], split out
    /// so the observability wrapper can bracket it without touching it).
    fn dispatch_event(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        // Every event bound for a switch first has it hear what landed
        // before it (DESIGN §7.6); `start_flow` does so for its ingress.
        if let Ev::LocalFrame { switch: s, .. }
        | Ev::TunnelArrive { to: s, .. }
        | Ev::MsgToSwitch { to: s, .. }
        | Ev::SwitchTimer { switch: s, .. } = &event
        {
            self.hear_landed(*s, now, sched.popped_seq());
        }
        match event {
            arrival @ Ev::FlowArrival(i) => {
                let flow = self.flows[i];
                self.start_flow(now, flow.src, flow.dst, arrival, sched);
            }
            Ev::LocalFrame {
                switch,
                port,
                frame,
            } => {
                if !self.links.is_node_up(switch.0) {
                    return;
                }
                self.switches[switch.index()]
                    .as_mut()
                    .expect("local frame routed to its owner")
                    .handle_local_frame(now.as_nanos(), port, frame, &mut self.switch_sink);
                self.dispatch_switch_outputs(now, switch, sched);
            }
            Ev::TunnelArrive { to, packet } => {
                if !self.links.is_node_up(to.0) {
                    return;
                }
                let is_flood = packet.inner.is_flood();
                self.switches[to.index()]
                    .as_mut()
                    .expect("tunnel routed to its owner")
                    .handle_tunnel_packet(now.as_nanos(), packet, &mut self.switch_sink);
                if self.switch_sink.is_empty() && !is_flood {
                    self.metrics.bump(self.ctr.tunnel_drops, 1);
                }
                self.dispatch_switch_outputs(now, to, sched);
            }
            Ev::MsgToSwitch { to, from, msg } => {
                if !self.links.is_node_up(to.0) {
                    return;
                }
                if from == SwitchId::CONTROLLER
                    && matches!(msg.as_of(), Some(OfMessage::FlowMod(_)))
                {
                    self.trace(now, || {
                        let id = message_trace_id(&msg);
                        (id, tk::FLOW_MOD_RECV, ts::SWITCH, to.0, 0)
                    });
                }
                let sw = self.switches[to.index()]
                    .as_mut()
                    .expect("control message routed to its owner");
                if from == SwitchId::CONTROLLER {
                    sw.handle_control_message(now.as_nanos(), &msg, &mut self.switch_sink);
                } else {
                    sw.handle_peer_message(now.as_nanos(), from, &msg, &mut self.switch_sink);
                }
                self.dispatch_switch_outputs(now, to, sched);
            }
            Ev::MsgToController { from, msg } => {
                self.metrics
                    .series_mut("workload", self.workload_bucket)
                    .increment(now);
                self.metrics.bump(self.ctr.controller_messages, 1);
                if let Some(lazyctrl_proto::OfMessage::PacketIn(pi)) = msg.as_of() {
                    self.metrics.bump(self.ctr.packet_ins, 1);
                    if pi.reason == lazyctrl_proto::PacketInReason::FalsePositive {
                        self.metrics.bump(self.ctr.fp_reports, 1);
                    }
                    self.trace(now, || {
                        let (id, reason) = (packet_bytes_trace_id(&pi.data), pi.reason as u32);
                        (id, tk::PACKET_IN_RECV, ts::CONTROLLER, from.0, reason)
                    });
                }
                match msg.as_lazy() {
                    Some(LazyMsg::StateReport(_)) => self.metrics.bump(self.ctr.state_reports, 1),
                    Some(LazyMsg::LfibSync(_)) => self.metrics.bump(self.ctr.lfib_syncs, 1),
                    Some(LazyMsg::WheelReport(_)) => self.metrics.bump(self.ctr.wheel_reports, 1),
                    _ => {}
                }
                match &mut self.controller {
                    AnyController::Baseline(c) => {
                        c.handle_message(now.as_nanos(), from, &msg, &mut self.ctrl_sink);
                        self.dispatch_controller_outputs(now, sched);
                    }
                    AnyController::Lazy(c) => {
                        c.handle_message(now.as_nanos(), from, &msg, &mut self.ctrl_sink);
                        self.dispatch_controller_outputs(now, sched);
                        self.track_regroups(now);
                    }
                    AnyController::Cluster(_) => {
                        let route = self.cluster_route(now, from);
                        let AnyController::Cluster(plane) = &mut self.controller else {
                            unreachable!("matched Cluster above");
                        };
                        match route {
                            CtrlRoute::Owner => {
                                plane.step_switch(
                                    now.as_nanos(),
                                    from,
                                    &msg,
                                    &mut self.cluster_sink,
                                );
                                self.dispatch_cluster_outputs(now, sched);
                            }
                            CtrlRoute::Standin(m) => {
                                plane.handle_switch_message_at(
                                    now.as_nanos(),
                                    m,
                                    from,
                                    &msg,
                                    &mut self.cluster_sink,
                                );
                                self.dispatch_cluster_outputs(now, sched);
                            }
                            // Owner unreachable, detection pending (or no
                            // stand-in exists): the message dies in the
                            // partition.
                            CtrlRoute::Lost => {}
                        }
                    }
                }
            }
            Ev::CtrlPeerMsg { from, to, msg } => {
                self.metrics.bump(self.ctr.ctrl_peer_messages, 1);
                match msg.as_cluster() {
                    Some(lazyctrl_proto::ClusterMsg::PeerSync(_)) => {
                        self.metrics.bump(self.ctr.peer_syncs, 1);
                    }
                    Some(lazyctrl_proto::ClusterMsg::SyncRelay(_)) => {
                        self.metrics.bump(self.ctr.sync_relays, 1);
                    }
                    Some(lazyctrl_proto::ClusterMsg::SyncDigest(_)) => {
                        self.metrics.bump(self.ctr.sync_digests, 1);
                    }
                    Some(lazyctrl_proto::ClusterMsg::Heartbeat(_)) => {
                        self.metrics.bump(self.ctr.ctrl_heartbeats, 1);
                    }
                    Some(lazyctrl_proto::ClusterMsg::LookupRequest(_)) => {
                        self.metrics.bump(self.ctr.ctrl_lookups, 1);
                    }
                    Some(lazyctrl_proto::ClusterMsg::OwnershipTransfer(_)) => {
                        self.metrics.bump(self.ctr.ownership_transfer_msgs, 1);
                        self.trace(now, || (0, tk::OWNERSHIP_TRANSFER, ts::CLUSTER, from, to));
                    }
                    _ => {}
                }
                if let AnyController::Cluster(plane) = &mut self.controller {
                    plane.step_ctrl(now.as_nanos(), from, to, &msg, &mut self.cluster_sink);
                }
                self.dispatch_cluster_outputs(now, sched);
            }
            Ev::ClusterTimer(timer) => {
                if let AnyController::Cluster(plane) = &mut self.controller {
                    plane.step_timer(now.as_nanos(), timer, &mut self.cluster_sink);
                }
                self.dispatch_cluster_outputs(now, sched);
            }
            Ev::Injected(event) => self.apply_injected(now, event, sched),
            Ev::SyntheticFlow { src, dst } => {
                self.start_flow(now, src, dst, Ev::SyntheticFlow { src, dst }, sched);
            }
            Ev::SwitchTimer { switch, timer } => {
                // A powered-off switch cannot probe the wheel or sync its
                // peers: letting those timers run would latch the wheel's
                // reported-flags (and swallow the L-FIB delta) while every
                // output is dropped on the dark links, leaving a silent
                // neighbour permanently unreported after a reboot. The
                // chain is severed here and re-armed by `RecoverSwitch`.
                // `LfibAge` is internal bookkeeping and keeps running, like
                // a firmware clock.
                if !self.links.is_node_up(switch.0)
                    && matches!(timer, SwitchTimer::KeepAlive | SwitchTimer::PeerSync)
                {
                    self.severed_timers.insert((switch.0, timer));
                    return;
                }
                self.switches[switch.index()]
                    .as_mut()
                    .expect("timer routed to its owner")
                    .on_timer(now.as_nanos(), timer, &mut self.switch_sink);
                self.dispatch_switch_outputs(now, switch, sched);
            }
            Ev::ControllerTimer(timer) => {
                self.controller
                    .on_timer(now.as_nanos(), timer, &mut self.ctrl_sink);
                self.dispatch_controller_outputs(now, sched);
                self.track_regroups(now);
            }
        }
    }
}

impl World for DataCenterWorld {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<'_, Ev>) {
        // Disabled observability is one `is_none` branch, then the
        // unchanged dispatch path.
        if self.obs.is_none() {
            return self.dispatch_event(now, event, sched);
        }
        let kind = event.kind_idx();
        let subsys = EVENT_KIND_SUBSYS[kind as usize];
        let t_ns = now.as_nanos();
        // Engine-level pop/outcome records follow the profiler's sampling
        // stride: writing two ring slots (a full cache line) on *every*
        // dispatch evicts the simulator's working set and costs ~35%
        // throughput, while sampling keeps tracing within the 10% budget.
        // Flow-scoped records (the causal chains) are never sampled.
        let (sampled, before) = {
            let obs = self.obs.as_deref_mut().expect("checked above");
            let sampled = obs.profile.will_sample();
            if sampled {
                obs.recorder.record(t_ns, 0, tk::EVENT_POP, subsys, kind, 0);
            }
            obs.profile.dispatch_begin(kind);
            (sampled, obs.recorder.recorded())
        };
        self.dispatch_event(now, event, sched);
        let obs = self.obs.as_deref_mut().expect("checked above");
        obs.profile.dispatch_end();
        if sampled {
            // Handler outcome: how many records the dispatch emitted is a
            // compact proxy for "what this event caused".
            let emitted = (obs.recorder.recorded() - before).min(u32::MAX as u64) as u32;
            obs.recorder
                .record(t_ns, 0, tk::HANDLER_DONE, subsys, kind, emitted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyctrl_proto::PacketOutMsg;

    /// The driver-level layout contract: a scheduled `Ev` is copied into
    /// and out of the payload slab once per event, so its inline size is
    /// a per-event constant. The fat members are the `Message`-carrying
    /// variants — `size_of::<Message>() ≤ 64` (enforced in
    /// `lazyctrl-proto`) keeps the whole event under 88 bytes.
    #[test]
    fn event_payload_stays_compact() {
        use std::mem::size_of;
        assert!(
            size_of::<Ev>() <= 88,
            "Ev grew to {} bytes; check Message and frame layouts",
            size_of::<Ev>()
        );
    }

    /// A preload queues thousands of counted rules on one switch's inbox
    /// and the heap moves its entries on every push and pop, so an entry
    /// holds a boxed `FlowMod`, not a whole `Message`.
    #[test]
    fn inbox_entries_stay_small() {
        assert_eq!(std::mem::size_of::<Landed>(), 40);
    }

    /// A two-switch world with no traffic — all the link gate needs.
    /// Default latency model (±5 % jitter), so every latency sample is an
    /// RNG draw the tests below can count.
    fn gate_world(obs: bool) -> DataCenterWorld {
        let trace = Trace {
            name: "gate".to_owned(),
            topology: lazyctrl_trace::Topology {
                num_switches: 2,
                host_switch: vec![SwitchId::new(0), SwitchId::new(1)],
                host_tenant: vec![TenantId::new(1); 2],
            },
            flows: Vec::new(),
            duration_ns: 0,
            nominal: Default::default(),
        };
        let mut cfg = ExperimentConfig::new(ControlMode::Baseline);
        if obs {
            cfg = cfg.with_obs(lazyctrl_obs::ObsConfig::full());
        }
        DataCenterWorld::new(trace, cfg)
    }

    const PEER_LINK: LinkId = LinkId {
        from: 0,
        to: 1,
        class: ChannelClass::Peer,
    };

    /// A message the link does not carry costs nothing and leaves no
    /// trace: no latency draw, no bandwidth charge, no record — whether
    /// the link is down, partitioned (no draw at all), or lossy (the loss
    /// draw only).
    #[test]
    fn gate_drops_without_latency_draw_charge_or_record() {
        let mut world = gate_world(true);
        world
            .bandwidth
            .set_capacity(ChannelClass::Peer, Some(1_000));
        let now = SimTime::from_secs(1);
        let unused_len = || -> usize { panic!("wire_len evaluated for a dropped message") };
        let unused_record =
            || -> (u64, u16, u16, u32, u32) { panic!("record evaluated for a dropped message") };

        world.links.set_node_down(1, true);
        let mut fresh = world.rng.clone();
        assert_eq!(
            world.transmit(now, PEER_LINK, unused_len, unused_record),
            None
        );
        world.links.set_node_down(1, false);
        world.links.set_partition(&[vec![0], vec![1]]);
        assert_eq!(
            world.transmit(now, PEER_LINK, unused_len, unused_record),
            None
        );
        world.links.heal_partition();
        assert_eq!(
            world.rng.gen::<u64>(),
            fresh.gen::<u64>(),
            "an unreachable link must draw nothing"
        );

        world.links.set_class_loss(ChannelClass::Peer, 1.0);
        let mut fresh = world.rng.clone();
        assert_eq!(
            world.transmit(now, PEER_LINK, unused_len, unused_record),
            None
        );
        assert!(fresh.gen_bool(1.0), "the loss draw");
        assert_eq!(
            world.rng.gen::<u64>(),
            fresh.gen::<u64>(),
            "a lost message must consume the loss draw and nothing else"
        );

        let recorder = &world.obs.as_ref().expect("tracing on").recorder;
        assert_eq!(recorder.recorded(), 0);
        assert_eq!(world.bandwidth.backlog_ns(PEER_LINK, now), 0);
    }

    /// The untraced, unmodeled path: exactly one latency draw, and neither
    /// the wire size nor the trace tuple is ever computed.
    #[test]
    fn gate_unmodeled_untraced_path_is_one_latency_draw() {
        let mut world = gate_world(false);
        assert!(world.bandwidth.is_unmodeled());
        // The oracle: the same model sampling from a copy of the same stream.
        let (oracle, mut fresh) = (world.latency.clone(), world.rng.clone());
        let delay = world.transmit(
            SimTime::from_secs(1),
            PEER_LINK,
            || panic!("wire_len evaluated on an uncapacitated class"),
            || panic!("record evaluated with tracing off"),
        );
        let sample = oracle.sample(ChannelClass::Peer, &mut fresh);
        assert_eq!(delay, Some(sample));
        assert_eq!(world.rng.gen::<u64>(), fresh.gen::<u64>());
    }

    /// On a capacitated class the delay is the latency sample plus the
    /// bandwidth model's serialization + queueing delay, a second message
    /// queues behind the first, and each delivered message leaves exactly
    /// its own record.
    #[test]
    fn gate_charges_bandwidth_and_records_delivered_messages() {
        let mut world = gate_world(true);
        // 100 bytes at 1 kB/s serialize in 100 ms.
        world
            .bandwidth
            .set_capacity(ChannelClass::Peer, Some(1_000));
        let ser = SimDuration::from_millis(100);
        let now = SimTime::from_secs(1);
        // The oracle: the same model sampling from a copy of the same stream.
        let (oracle, mut fresh) = (world.latency.clone(), world.rng.clone());
        let record = || (7, tk::MSG_TO_SWITCH, ts::SWITCH, 0, 1);

        let first = world.transmit(now, PEER_LINK, || 100, record);
        let second = world.transmit(now, PEER_LINK, || 100, record);
        let sample = oracle.sample(ChannelClass::Peer, &mut fresh);
        assert_eq!(first, Some(sample + ser));
        let sample = oracle.sample(ChannelClass::Peer, &mut fresh);
        assert_eq!(second, Some(sample + ser + ser), "queues behind the first");
        assert_eq!(world.rng.gen::<u64>(), fresh.gen::<u64>());

        let recorder = &world.obs.as_ref().expect("tracing on").recorder;
        let want = lazyctrl_obs::TraceRecord {
            t_ns: now.as_nanos(),
            trace_id: 7,
            kind: tk::MSG_TO_SWITCH,
            subsys: ts::SWITCH,
            a: 0,
            b: 1,
        };
        assert_eq!(recorder.iter().copied().collect::<Vec<_>>(), [want; 2]);
    }

    /// Three switches with two hosts each (host `h` on switch `h / 2`),
    /// plain OpenFlow, no traffic and no plan.
    fn flood_world() -> DataCenterWorld {
        wide_flood_world(3, ExperimentConfig::new(ControlMode::Baseline))
    }

    /// [`flood_world`] with `num_switches` switches, those past the
    /// third without hosts, under `cfg`.
    fn wide_flood_world(num_switches: usize, cfg: ExperimentConfig) -> DataCenterWorld {
        let trace = Trace {
            name: "flood".to_owned(),
            topology: lazyctrl_trace::Topology {
                num_switches,
                host_switch: (0..6).map(|h| SwitchId::new(h / 2)).collect(),
                host_tenant: vec![TenantId::new(1); 6],
            },
            flows: Vec::new(),
            duration_ns: 0,
            nominal: Default::default(),
        };
        DataCenterWorld::new(trace, cfg)
    }

    /// A controller `PacketOut` of `data` with these actions.
    fn packet_out(actions: &[lazyctrl_proto::Action], data: Vec<u8>) -> Message {
        let po = PacketOutMsg {
            buffer_id: u32::MAX,
            in_port: PortNo::NONE,
            actions: actions.into(),
            data: data.into(),
        };
        Message::of(0, OfMessage::PacketOut(po))
    }

    /// Every kind of frame a controller may flood, encoded, with the one
    /// switch of `flood_world` where its flood does something.
    fn flood_frames(world: &DataCenterWorld) -> [(&'static str, Vec<u8>, Option<u32>); 7] {
        let host = HostId::new;
        let tagged = |src: HostId, dst: MacAddr, ethertype, payload: Vec<u8>| {
            EthernetFrame::tagged(
                src.mac(),
                dst,
                VlanTag::for_tenant(TenantId::new(1)),
                ethertype,
                payload,
            )
            .encode()
        };
        let request = |target: HostId| {
            let arp = lazyctrl_net::ArpPacket::request(host(0).mac(), host(0).ip(), target.ip());
            tagged(host(0), MacAddr::BROADCAST, EtherType::ARP, arp.encode())
        };
        let reply = {
            let arp = lazyctrl_net::ArpPacket::request(host(0).mac(), host(0).ip(), host(3).ip());
            let arp = lazyctrl_net::ArpPacket::reply_to(&arp, host(3).mac());
            tagged(host(3), host(0).mac(), EtherType::ARP, arp.encode())
        };
        let unicast = |dst: u32| world.frame_for_flow(host(0), host(dst), 0).encode();
        [
            ("ARP request", request(host(3)), Some(1)),
            ("ARP request for an absent host", request(host(40)), None),
            ("ARP reply", reply, None),
            ("unicast to a present host", unicast(5), Some(2)),
            ("unicast to an absent host", unicast(40), None),
            (
                "non-ARP broadcast",
                tagged(host(0), MacAddr::BROADCAST, EtherType::IPV4, vec![0; 8]),
                None,
            ),
            ("undecodable bytes", vec![0xff; 5], None),
        ]
    }

    /// The counting rule against the eager path. Every kind of frame the
    /// controller may flood goes as a `PacketOut` to every switch: a copy
    /// is counted exactly when delivering it for real — the switch, then
    /// `handle_flood` — schedules nothing and bumps no counter. One world
    /// judges every copy in turn, so state left by one judgement would
    /// show in the next.
    #[test]
    fn counted_flood_copies_are_exactly_those_that_do_nothing() {
        let judge = &mut flood_world();
        let (sent, lands) = (
            SimTime::from_secs(1),
            SimTime::from_secs(1) + SimDuration::from_millis(1),
        );
        let flood = lazyctrl_proto::Action::Output(PortNo::FLOOD);
        for (name, bytes, effective) in flood_frames(judge) {
            let msg = packet_out(&[flood], bytes);
            for to in (0..3).map(SwitchId::new) {
                let counted = judge.reaches_no_host(sent, lands, to, &msg);
                let mut eager = flood_world();
                let before: Vec<_> = eager.metrics.counters().collect();
                let mut queue = lazyctrl_sim::EventQueue::new();
                let ev = Ev::MsgToSwitch {
                    to,
                    from: SwitchId::CONTROLLER,
                    msg: msg.clone(),
                };
                eager.dispatch_event(lands, ev, &mut Scheduler::over(&mut queue));
                let did_nothing = queue.is_empty() && eager.metrics.counters().eq(before);
                assert_eq!(counted, did_nothing, "{name} at switch {to}");
                assert_eq!(counted, effective != Some(to.0), "{name} at switch {to}");
            }
        }
        // Any other message stays eager, even where it does nothing.
        for other in [
            packet_out(&[flood, flood], vec![0xff; 5]),
            Message::of(0, OfMessage::Hello),
        ] {
            assert!(!judge.reaches_no_host(sent, lands, SwitchId::new(0), &other));
        }
    }

    /// A host migration due while a copy is in flight can move its
    /// flood's effective switch, so such a copy stays eager; a migration
    /// in the past or after the landing does not matter.
    #[test]
    fn flood_copies_landing_across_a_migration_stay_eager() {
        let mut world = flood_world();
        let frame = world.frame_for_flow(HostId::new(0), HostId::new(5), 0);
        let msg = packet_out(
            &[lazyctrl_proto::Action::Output(PortNo::ALL)],
            frame.encode(),
        );
        let t = SimTime::from_millis;
        world.migrations = PlanCursor {
            times: vec![t(5), t(20)],
            next: 0,
        };
        let counted = |w: &mut DataCenterWorld, sent, lands| {
            w.reaches_no_host(t(sent), t(lands), SwitchId::new(0), &msg)
        };
        assert!(counted(&mut world, 1, 4), "lands before the migration");
        assert!(!counted(&mut world, 4, 5), "lands as it fires");
        assert!(!counted(&mut world, 5, 6), "sent as it fires");
        assert!(counted(&mut world, 6, 19), "between the two");
        assert!(!counted(&mut world, 19, 25), "across the second");
        assert!(counted(&mut world, 21, 30), "after both");
    }

    /// A baseline flood expands to exactly what its copies did when the
    /// controller sent each as its own `ToSwitch` output, in id order
    /// with consecutive xids: the same next RNG draw, counters, counted
    /// events, trace records and scheduled events, the effective switch's
    /// copy carrying its own xid and the flood's bytes. It holds where the
    /// idle copies are counted in one batch, also with crashed receivers
    /// (an idle one, the effective one) among them; under each condition
    /// that sends the flood down the per-copy gate instead; and on the
    /// eager path. Twelve switches, so that some of the eleven copies
    /// land after the base latency and the two bounds set there — a
    /// horizon, a migration — split the copies. The first xid wraps
    /// within the flood.
    #[test]
    fn a_flood_expands_to_the_copies_it_stands_for() {
        const NOW: SimTime = SimTime::from_secs(1);
        const SWITCHES: u32 = 12;
        let control = ChannelClass::Control;
        // Just past the latest landing at the base latency, and so before
        // the latest the jitter allows.
        let past_base = {
            let w = flood_world();
            let service = w.controller.service_time(None, NOW);
            assert!(w.latency.max_sample(control) > w.latency.control);
            NOW + service + w.latency.control
        };
        let world_for = |setup: &str| {
            let mut cfg = ExperimentConfig::new(ControlMode::Baseline);
            if setup == "tracing on" {
                cfg = cfg.with_obs(lazyctrl_obs::ObsConfig::full());
            }
            let mut world = wide_flood_world(SWITCHES as usize, cfg);
            world.horizon = SimTime::MAX;
            match setup {
                "batch" | "tracing on" => {}
                "receivers down" => {
                    world.links.set_node_down(1, true);
                    world.links.set_node_down(4, true);
                }
                "lossy Control" => world.links.set_class_loss(control, 0.25),
                "capacitated Control" => world.bandwidth.set_capacity(control, Some(1_000_000)),
                "horizon before the latest landing" => world.horizon = past_base,
                "migration before the latest landing" => {
                    world.migrations = PlanCursor {
                        times: vec![past_base + SimDuration::from_nanos(1)],
                        next: 0,
                    }
                }
                "eager" => world.eager = true,
                other => unreachable!("{other}"),
            }
            world
        };
        let run = |setup: &str, outputs: Vec<ControllerOutput>| {
            let mut world = world_for(setup);
            for out in outputs {
                world.ctrl_sink.push(out);
            }
            let mut queue = lazyctrl_sim::EventQueue::new();
            world.dispatch_controller_outputs(NOW, &mut Scheduler::over(&mut queue));
            let events: Vec<_> = std::iter::from_fn(|| queue.pop())
                .map(|ev| format!("{ev:?}"))
                .collect();
            let counters: Vec<_> = world.metrics.counters().collect();
            let records: Vec<_> = world
                .obs
                .iter()
                .flat_map(|obs| obs.recorder.iter().copied())
                .collect();
            let scheduled = events
                .iter()
                .filter(|ev| ev.contains("MsgToSwitch"))
                .count();
            let counted = world.counted_events;
            (
                world.rng.gen::<u64>(),
                counters,
                counted,
                records,
                events,
                scheduled,
            )
        };
        let flood = lazyctrl_proto::Action::Output(PortNo::FLOOD);
        for (setup, batch) in [
            ("batch", true),
            ("receivers down", true),
            ("tracing on", false),
            ("lossy Control", false),
            ("capacitated Control", false),
            ("horizon before the latest landing", false),
            ("migration before the latest landing", false),
            ("eager", false),
        ] {
            let mut world = world_for(setup);
            let service = world.controller.service_time(None, NOW);
            let batched = !world.eager && world.flood_batch_lands_by(NOW, service);
            assert_eq!(batched, batch, "{setup}: batch taken");
            for (name, bytes, effective) in flood_frames(&flood_world()) {
                for except in [0, 1, 2, 4, SWITCHES - 1].map(SwitchId::new) {
                    let mut msg = packet_out(&[flood], bytes.clone());
                    msg.xid = u32::MAX - 3;
                    let copies = (0..SWITCHES)
                        .map(SwitchId::new)
                        .filter(|&to| to != except)
                        .zip(0..)
                        .map(|(to, i)| {
                            let copy = Message {
                                xid: msg.xid.wrapping_add(i),
                                body: msg.body.clone(),
                            };
                            ControllerOutput::ToSwitch(to, copy)
                        })
                        .collect();
                    let expanded = run(setup, vec![ControllerOutput::Flood { except, msg }]);
                    let context = format!("{setup}: {name}, except switch {except}");
                    assert_eq!(expanded, run(setup, copies), "{context}");
                    let down = |to| setup == "receivers down" && [1, 4].contains(&to);
                    let reached = (0..SWITCHES).filter(|&to| to != except.0 && !down(to));
                    let acts = effective.is_some_and(|at| at != except.0 && !down(at));
                    let (scheduled, counted) = (expanded.5, expanded.2);
                    match setup {
                        "batch" | "receivers down" => {
                            assert_eq!(scheduled, usize::from(acts), "{context}: scheduled");
                            let idle = reached.count() - usize::from(acts);
                            assert_eq!(counted as usize, idle, "{context}: counted");
                        }
                        "eager" => assert_eq!(scheduled, reached.count(), "{context}"),
                        // Some idle copies land after the horizon, so
                        // are not counted…
                        "horizon before the latest landing" => {
                            let idle = reached.count() - usize::from(acts);
                            assert!((counted as usize) < idle, "{context}: {counted}");
                        }
                        // …or after the migration, so are scheduled.
                        "migration before the latest landing" => {
                            assert!(scheduled > usize::from(acts), "{context}: {scheduled}");
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// The world's baseline controller and its expansion agree on the
    /// copies: a punt from switch 0 floods to switches 1 and 2 in that
    /// order, with consecutive xids, and the controller's next message
    /// takes the xid after the last copy's.
    #[test]
    fn a_baseline_flood_spends_exactly_the_xids_its_copies_carry() {
        let mut world = flood_world();
        world.eager = true;
        let frame = world.frame_for_flow(HostId::new(0), HostId::new(5), 0);
        let punt = lazyctrl_proto::PacketInMsg {
            buffer_id: u32::MAX,
            in_port: PortNo::new(1),
            reason: lazyctrl_proto::PacketInReason::NoMatch,
            data: frame.encode().into(),
        };
        let mut queue = lazyctrl_sim::EventQueue::new();
        for (from, msg) in [
            (0, Message::of(1, OfMessage::PacketIn(punt))),
            (1, Message::of(2, OfMessage::Hello)),
        ] {
            let ev = Ev::MsgToController {
                from: SwitchId::new(from),
                msg,
            };
            world.dispatch_event(SimTime::from_secs(1), ev, &mut Scheduler::over(&mut queue));
        }
        // (xid, to, is a Hello) of everything sent to a switch.
        let mut sent: Vec<_> = std::iter::from_fn(|| queue.pop())
            .filter_map(|(_, ev)| match ev {
                Ev::MsgToSwitch { to, msg, .. } => {
                    Some((msg.xid, to.0, matches!(msg.as_of(), Some(OfMessage::Hello))))
                }
                _ => None,
            })
            .collect();
        sent.sort();
        assert_eq!(sent, [(1, 1, false), (2, 2, false), (3, 1, true)]);
    }

    /// Regression for the sharded engine's replicated-RNG lockstep:
    /// `RecoverController` dispatches the recovered member's outputs on
    /// the hub only (shard partitions hold a placeholder controller), so
    /// any delivery/latency draw that dispatch makes must come from the
    /// partition-local RNG. Drawing from the replicated global stream
    /// would advance the hub's copy past every shard's, and the next
    /// replicated draw (`MigrateHosts` here) would pick different hosts
    /// per partition — silently diverging `host_switch`/`next_port`.
    /// The workers-1-vs-4-vs-8 differential tests cannot catch this
    /// (every worker count shares the layout, and with it the
    /// divergence), so this test drives the global barrier by hand and
    /// compares the partitions' replicated state directly.
    #[test]
    fn recover_controller_keeps_global_rng_lockstep() {
        use crate::scenarios::ScenarioRegistry;
        use lazyctrl_sim::EventQueue;

        let registry = ScenarioRegistry::builtin();
        let (trace, cfg, _plan) = registry.get("crash_recover").unwrap().build(0x1C);
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut world = DataCenterWorld::new(trace, cfg);
        {
            let mut sched = Scheduler::over(&mut queue);
            world.bootstrap(&mut sched);
        }
        // Hub + two shards, alternating ownership; any fixed layout
        // works — the lockstep invariant must hold for all of them.
        let nparts = 3u16;
        let owner: Vec<u16> = (0..world.topology.num_switches)
            .map(|s| 1 + (s % 2) as u16)
            .collect();
        let mut parts = world.split(Arc::new(owner), nparts);
        let mut queues: Vec<EventQueue<Ev>> = (0..nparts).map(|_| EventQueue::new()).collect();

        // One global barrier, exactly as the shard coordinator runs it:
        // the event applied to every partition, in partition order.
        let at = SimTime::from_secs(3600);
        fn barrier(
            parts: &mut [DataCenterWorld],
            queues: &mut [EventQueue<Ev>],
            at: SimTime,
            g: InjectedEvent,
        ) {
            for (p, q) in parts.iter_mut().zip(queues.iter_mut()) {
                let mut sched = Scheduler::over(q);
                p.handle_global(at, &g, &mut sched);
            }
        }
        barrier(
            &mut parts,
            &mut queues,
            at,
            InjectedEvent::CrashController(1),
        );
        // `recover` currently emits only timer outputs; pre-load a
        // message output so the recovery dispatch exercises the
        // delivery/latency draws a chattier comeback protocol would
        // make. Hub only — exactly what a real cluster plane could do.
        parts[0].cluster_sink.push(ClusterOutput::ToSwitch {
            from: 1,
            to: SwitchId::new(0),
            msg: Message::of(0, OfMessage::Hello),
        });
        barrier(
            &mut parts,
            &mut queues,
            at,
            InjectedEvent::RecoverController(1),
        );
        barrier(
            &mut parts,
            &mut queues,
            at,
            InjectedEvent::MigrateHosts { batch: 8 },
        );

        let stream = |w: &DataCenterWorld| -> Vec<u64> {
            let mut r = w.part.as_ref().expect("split world").global_rng.clone();
            (0..4).map(|_| r.gen()).collect()
        };
        let hub_stream = stream(&parts[0]);
        for (i, p) in parts.iter().enumerate().skip(1) {
            assert_eq!(
                hub_stream,
                stream(p),
                "partition {i}: replicated global RNG stream diverged from the hub"
            );
            assert_eq!(
                parts[0].topology.host_switch, p.topology.host_switch,
                "partition {i}: replicated host placement diverged"
            );
            assert_eq!(
                parts[0].next_port, p.next_port,
                "partition {i}: replicated port allocator diverged"
            );
            assert_eq!(
                parts[0].host_port, p.host_port,
                "partition {i}: replicated host-port map diverged"
            );
        }
    }

    /// A small lazy fabric driven as a run drives it. After every event
    /// but a keep-alive, `FlowMod` or flood tunnel copy delivery (the
    /// counted run does not have most of those as events) it logs a hash
    /// of every switch's whole state as of that event: as the switch
    /// stands, with the counted deliveries that fired before the event
    /// and that it has not heard yet applied to a copy.
    struct Fabric {
        world: DataCenterWorld,
        queue: lazyctrl_sim::EventQueue<Ev>,
        /// Everything up to this time has been run.
        ran_to: Option<SimTime>,
        /// `(time, kind, hash of every switch's state)` per logged event.
        log: Vec<(SimTime, u32, u64)>,
        /// Per switch: when its last keep-alive tick fired.
        last_tick: Vec<Option<SimTime>>,
        /// `(time, packets, flows)` of every `StatsReply` the controller
        /// received.
        stats_replies: Vec<(SimTime, u64, u32)>,
        /// Keep-alives dispatched as events.
        dispatched_keepalives: u64,
        /// `FlowMod`s dispatched as events.
        dispatched_flow_mods: u64,
        /// Flood tunnel copies dispatched as events.
        dispatched_flood_copies: u64,
        /// Peer `PacketOut`s asking a designated switch to broadcast.
        broadcast_requests: u64,
    }

    /// Switch `s`'s whole state once it has heard every counted delivery
    /// that fires before an event popped at `now` with `seq`, read
    /// without changing the world; and how many of those it had not
    /// heard yet.
    fn view(world: &DataCenterWorld, s: usize, now: SimTime, seq: Option<u64>) -> (String, usize) {
        let sw = world.switches[s].as_ref().expect("one partition");
        let pending = &world.unheard[s];
        let mut unheard: Vec<&Landed> = pending
            .inbox
            .iter()
            .map(|Reverse(landed)| landed)
            .filter(|landed| landed.before(now, seq))
            .collect();
        let copies = pending.copies_landed as usize
            + pending
                .copies_in_flight
                .iter()
                .filter(|&&(lands, mark)| fires_before(lands, mark, now, seq))
                .count();
        let keepalives: Vec<_> = pending
            .keepalives
            .iter()
            .filter(|&&(lands, mark, _)| fires_before(lands, mark, now, seq))
            .collect();
        if unheard.is_empty() && copies == 0 && keepalives.is_empty() {
            return (format!("{sw:?}"), 0);
        }
        unheard.sort();
        let mut sw = sw.clone();
        let mut sink = OutputSink::new();
        for landed in &unheard {
            Landed::clone(landed).apply(&mut sw, &mut sink);
        }
        for &&(lands, _, from) in &keepalives {
            sw.hear_keepalive(from, lands.as_nanos());
        }
        sw.hear_flood_copies(copies as u64);
        (format!("{sw:?}"), unheard.len() + copies + keepalives.len())
    }

    impl Fabric {
        /// `n` switches with `hosts` hosts (host `h` on switch `h % n`)
        /// under one lazy controller in one group, the wheel ticking every
        /// 10 ms, `flows` as `(src host, dst host, ms)`, the run ending at
        /// `end`; `tune` adjusts the config. Bootstrapped, with the plan
        /// queued as a run queues it. `eager` makes it the oracle that
        /// schedules every delivery.
        fn new(
            n: usize,
            hosts: usize,
            flows: &[(u32, u32, u64)],
            end: SimTime,
            tune: impl Fn(ExperimentConfig) -> ExperimentConfig,
            eager: bool,
        ) -> Self {
            let trace = Trace {
                name: "wheel".to_owned(),
                topology: lazyctrl_trace::Topology {
                    num_switches: n,
                    host_switch: (0..hosts).map(|h| SwitchId::new((h % n) as u32)).collect(),
                    host_tenant: vec![TenantId::new(1); hosts],
                },
                flows: flows
                    .iter()
                    .map(|&(src, dst, ms)| FlowRecord {
                        time_ns: ms * 1_000_000,
                        src: HostId::new(src),
                        dst: HostId::new(dst),
                        bytes: 100,
                    })
                    .collect(),
                duration_ns: 0,
                nominal: Default::default(),
            };
            let mut cfg = ExperimentConfig::new(ControlMode::LazyStatic).with_group_size_limit(n);
            cfg.keepalive_interval_ms = 10;
            let mut world = DataCenterWorld::new(trace, tune(cfg));
            world.horizon = end;
            world.eager = eager;
            let mut queue = lazyctrl_sim::EventQueue::new();
            for e in world.cfg.plan.events() {
                queue.schedule(e.at, Ev::Injected(e.event.clone()));
            }
            world.bootstrap(&mut Scheduler::over(&mut queue));
            Fabric {
                world,
                queue,
                ran_to: None,
                log: Vec::new(),
                last_tick: vec![None; n],
                stats_replies: Vec::new(),
                dispatched_keepalives: 0,
                dispatched_flow_mods: 0,
                dispatched_flood_copies: 0,
                broadcast_requests: 0,
            }
        }

        /// The switch an event is bound for, if any.
        fn bound_for(&self, ev: &Ev) -> Option<usize> {
            let ingress = |src: HostId| self.world.topology.switch_of(src).index();
            match ev {
                Ev::LocalFrame { switch, .. } | Ev::SwitchTimer { switch, .. } => {
                    Some(switch.index())
                }
                Ev::TunnelArrive { to, .. } | Ev::MsgToSwitch { to, .. } => Some(to.index()),
                Ev::FlowArrival(i) => Some(ingress(self.world.flows[*i].src)),
                Ev::SyntheticFlow { src, .. } => Some(ingress(*src)),
                _ => None,
            }
        }

        /// Runs every event up to and including `until`. A switch an
        /// event is bound for must have heard, by the end of it, every
        /// delivery that fired before it.
        fn run_to(&mut self, until: SimTime) {
            let flows = Arc::clone(&self.world.flows);
            let ran_to = self.ran_to;
            let mut arrivals = crate::experiment::flow_arrivals(&flows, until)
                .filter(|&(at, _)| ran_to.is_none_or(|ran_to| at > ran_to))
                .peekable();
            while let Some((now, ev)) = self.queue.pop_merged(&mut arrivals, until) {
                let seq = self.queue.popped_seq();
                let kind = ev.kind_idx();
                let bound = self.bound_for(&ev);
                match &ev {
                    Ev::SwitchTimer {
                        switch,
                        timer: SwitchTimer::KeepAlive,
                    } => self.last_tick[switch.index()] = Some(now),
                    Ev::MsgToController { msg, .. } => {
                        if let Some(OfMessage::StatsReply { packets, flows, .. }) = msg.as_of() {
                            self.stats_replies.push((now, *packets, *flows));
                        }
                    }
                    Ev::MsgToSwitch { from, msg, .. } if *from != SwitchId::CONTROLLER => {
                        if let Some(OfMessage::PacketOut(_)) = msg.as_of() {
                            self.broadcast_requests += 1;
                        }
                    }
                    _ => {}
                }
                let delivery = match &ev {
                    Ev::MsgToSwitch { msg, .. } => match (msg.as_lazy(), msg.as_of()) {
                        (Some(LazyMsg::KeepAlive(_)), _) => Some(&mut self.dispatched_keepalives),
                        (_, Some(OfMessage::FlowMod(_))) => Some(&mut self.dispatched_flow_mods),
                        _ => None,
                    },
                    Ev::TunnelArrive { packet, .. } if packet.inner.is_flood() => {
                        Some(&mut self.dispatched_flood_copies)
                    }
                    _ => None,
                };
                let delivery = delivery.map(|dispatched| *dispatched += 1).is_some();
                self.world
                    .handle(now, ev, &mut Scheduler::over(&mut self.queue));
                if delivery {
                    continue;
                }
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                for s in 0..self.world.switches.len() {
                    let (state, unheard) = view(&self.world, s, now, seq);
                    assert!(
                        bound != Some(s) || unheard == 0,
                        "switch {s} handled an event at {now} before hearing \
                         {unheard} deliveries that fired before it"
                    );
                    std::hash::Hash::hash(&state, &mut hasher);
                }
                self.log
                    .push((now, kind, std::hash::Hasher::finish(&hasher)));
            }
            self.ran_to = Some(until);
        }

        /// When switch `s`'s armed keep-alive tick fires: its last tick
        /// re-armed it one interval later.
        fn next_tick(&self, s: usize) -> SimTime {
            let interval = SimDuration::from_millis(self.world.cfg.keepalive_interval_ms.into());
            self.last_tick[s].expect("the switch has ticked") + interval
        }

        /// Switch `from` sends a wheel keep-alive to `to` at `now`.
        fn send_keepalive(&mut self, now: SimTime, from: u32, to: u32) {
            let ka = lazyctrl_proto::KeepAliveMsg {
                from: SwitchId::new(from),
                seq: u64::MAX,
            };
            let msg = Message::lazy(0, LazyMsg::KeepAlive(ka));
            self.world
                .switch_sink
                .push(SwitchOutput::ToPeer(SwitchId::new(to), msg));
            let sched = &mut Scheduler::over(&mut self.queue);
            self.world
                .dispatch_switch_outputs(now, SwitchId::new(from), sched);
        }

        /// Switch `from` tunnels `frame` to switch `to` at `now`, as one
        /// copy of a group broadcast.
        fn send_flood_copy(&mut self, now: SimTime, from: u32, to: u32, frame: EthernetFrame) {
            let (from, to) = (SwitchId::new(from), SwitchId::new(to));
            let header = lazyctrl_net::EncapHeader::new(
                from.underlay_ip(),
                to.underlay_ip(),
                TenantId::new(1),
                0,
            );
            let packet = EncapsulatedFrame::new(header, frame);
            self.world
                .switch_sink
                .push(SwitchOutput::Tunnel(to, packet));
            let sched = &mut Scheduler::over(&mut self.queue);
            self.world.dispatch_switch_outputs(now, from, sched);
        }

        /// A tunnel's latency, under zero jitter.
        fn data_latency(&self) -> SimDuration {
            let rng = &mut StdRng::seed_from_u64(0);
            self.world.latency.sample(ChannelClass::Data, rng)
        }

        /// When what the controller sends at `now` lands, under
        /// zero-jitter latencies.
        fn controller_lands(&self, now: SimTime) -> SimTime {
            now + self.world.controller.service_time(None, now) + self.world.latency.control
        }

        /// The controller sends `msgs` at `now`, as one batch. Returns
        /// when they land, under zero-jitter latencies.
        fn send_from_controller(
            &mut self,
            now: SimTime,
            msgs: impl IntoIterator<Item = (SwitchId, Message)>,
        ) -> SimTime {
            let lands = self.controller_lands(now);
            for (to, msg) in msgs {
                self.world
                    .ctrl_sink
                    .push(ControllerOutput::ToSwitch(to, msg));
            }
            let sched = &mut Scheduler::over(&mut self.queue);
            self.world.dispatch_controller_outputs(now, sched);
            lands
        }

        /// The controller regroups at `now`: one `GroupAssign` per
        /// switch, turning the ring around. Returns when they land.
        fn reverse_ring(&mut self, now: SimTime) -> SimTime {
            let n = self.world.switches.len() as u32;
            let at = |i: u32| SwitchId::new(i % n);
            let assigns: Vec<_> = (0..n)
                .map(|s| {
                    let ga = lazyctrl_proto::GroupAssignMsg {
                        group: lazyctrl_net::GroupId(0),
                        epoch: 7,
                        members: (0..n).rev().map(SwitchId::new).collect(),
                        designated: at(0),
                        backups: Vec::new(),
                        ring_prev: at(s + 1),
                        ring_next: at(s + n - 1),
                        sync_interval_ms: self.world.cfg.sync_interval_ms,
                        keepalive_interval_ms: self.world.cfg.keepalive_interval_ms,
                        group_size_limit: n,
                    };
                    (at(s), Message::lazy(0, LazyMsg::group_assign(ga)))
                })
                .collect();
            self.send_from_controller(now, assigns)
        }
    }

    /// A `FlowMod` installing a priority-10 rule that sends frames for
    /// `dst` out of `port`.
    fn flow_mod(dst: HostId, port: u16) -> Message {
        let fm = lazyctrl_proto::FlowModMsg {
            command: lazyctrl_proto::FlowModCommand::Add,
            flow_match: lazyctrl_proto::FlowMatch::to_dst(dst.mac()),
            priority: 10,
            idle_timeout: 30,
            hard_timeout: 0,
            cookie: 0,
            actions: [lazyctrl_proto::Action::Output(PortNo::new(port))].into(),
        };
        Message::of(0, OfMessage::flow_mod(fm))
    }

    /// Runs `script` on a counted fabric and on its eager oracle, then
    /// both to `end`, and checks that every switch's state after every
    /// event is the same in both, and at the end of the run; so are the
    /// event totals, the `StatsReply`s and every counter but the
    /// `*_counted` ones. Returns the counted fabric.
    fn counted_matches_eager(
        n: usize,
        hosts: usize,
        flows: &[(u32, u32, u64)],
        end: SimTime,
        tune: impl Fn(ExperimentConfig) -> ExperimentConfig,
        script: impl Fn(&mut Fabric),
    ) -> Fabric {
        let [mut counted, mut eager] =
            [false, true].map(|oracle| Fabric::new(n, hosts, flows, end, &tune, oracle));
        for fabric in [&mut counted, &mut eager] {
            script(fabric);
            fabric.run_to(end);
        }
        assert!(!eager.log.is_empty(), "nothing ran");
        for (c, e) in counted.log.iter().zip(&eager.log) {
            assert_eq!(c, e, "first event after which a switch differs");
        }
        assert_eq!(counted.log.len(), eager.log.len(), "event counts differ");
        counted.world.hear_all_landed();
        for (s, (c, e)) in counted
            .world
            .switches
            .iter()
            .zip(&eager.world.switches)
            .enumerate()
        {
            assert_eq!(format!("{c:?}"), format!("{e:?}"), "switch {s} at the end");
        }
        assert_eq!(counted.stats_replies, eager.stats_replies);
        let counted_total = counted.queue.popped_total() + counted.world.counted_events();
        assert_eq!(
            counted_total,
            eager.queue.popped_total(),
            "event totals differ"
        );
        assert_eq!(eager.world.counted_events(), 0);
        let others = |f: &Fabric| -> Vec<(&'static str, u64)> {
            let skip = |(k, _): &(&str, u64)| !k.ends_with("_counted");
            f.world.metrics.counters().filter(skip).collect()
        };
        assert_eq!(others(&counted), others(&eager));
        counted
    }

    const MS: u64 = 1_000_000;

    /// The oracle run: traffic, peer loss, a switch that crashes long
    /// enough to be reported and comes back, and a regroup while
    /// keep-alives are in flight. Counting changes no switch's state
    /// after any event, and most keep-alives are counted.
    #[test]
    fn counted_keepalives_leave_every_tick_as_the_eager_run_does() {
        let t = |ms: u64| SimTime::from_nanos(ms * MS);
        let flows: Vec<_> = (0..60)
            .map(|i| (i % 6, (i * 5 + 1) % 6, 20 + 37 * i as u64))
            .collect();
        let mut plan = EventPlan::new();
        plan.schedule(
            t(300),
            InjectedEvent::LinkLoss {
                class: ChannelClass::Peer,
                loss: 0.3,
            },
        );
        plan.schedule(t(700), InjectedEvent::CrashSwitch(SwitchId::new(2)));
        plan.schedule(t(1_100), InjectedEvent::RecoverSwitch(SwitchId::new(2)));
        plan.schedule(
            t(1_900),
            InjectedEvent::LinkLoss {
                class: ChannelClass::Peer,
                loss: 0.0,
            },
        );
        let counted = counted_matches_eager(
            6,
            6,
            &flows,
            t(2_500),
            |cfg| cfg.with_plan(plan.clone()),
            |fabric| {
                fabric.run_to(t(1_503));
                fabric.reverse_ring(t(1_503));
            },
        );
        let counted_keepalives = counted.world.metrics.counter("keepalives_counted");
        let keepalives = counted_keepalives + counted.dispatched_keepalives;
        assert!(
            counted_keepalives > keepalives * 9 / 10,
            "{counted_keepalives} of {keepalives} keep-alives counted"
        );
    }

    /// Zero-jitter latencies, so a test can aim a landing at a tick.
    fn fixed_latency(mut cfg: ExperimentConfig) -> ExperimentConfig {
        cfg.latency = std::mem::take(&mut cfg.latency).without_jitter();
        cfg
    }

    /// Every keep-alive lands exactly as its receiver ticks: zero
    /// jitter, a peer latency equal to the 15 ms interval, and every
    /// switch ticking in phase. Each is counted. A tick armed before the
    /// keep-alive was sent has the lower seq and fires first, so the
    /// switch hears the keep-alive after it; one armed after it is heard
    /// just before the tick.
    #[test]
    fn keepalives_landing_on_an_armed_tick_are_heard_in_seq_order() {
        let tune = |cfg: ExperimentConfig| {
            let mut cfg = fixed_latency(cfg);
            cfg.keepalive_interval_ms = 15;
            cfg.latency.degrade(ChannelClass::Peer, 100.0);
            cfg
        };
        assert_eq!(
            tune(ExperimentConfig::new(ControlMode::LazyStatic))
                .latency
                .sample(ChannelClass::Peer, &mut StdRng::seed_from_u64(0)),
            SimDuration::from_millis(15)
        );
        let end = SimTime::from_millis(400);
        let counted = counted_matches_eager(4, 4, &[], end, tune, |_| {});
        assert_eq!(counted.dispatched_keepalives, 0, "a tie stayed eager");
        assert!(counted.world.counted_events() > 0, "no tie was counted");
    }

    /// Keep-alives from one sender overtake each other: sent every 2 ms
    /// over a peer latency of 60 ms ± 5 %, so dozens from each neighbour
    /// are in flight at once and many land in the reverse of their send
    /// order. A switch hears the ones that fired in send order; the wheel
    /// keeps each source's latest landing, as hearing them as they land
    /// leaves it.
    #[test]
    fn keepalives_that_overtake_each_other_leave_the_wheel_the_eager_run_does() {
        let tune = |mut cfg: ExperimentConfig| {
            cfg.keepalive_interval_ms = 2;
            cfg.latency.degrade(ChannelClass::Peer, 400.0);
            cfg
        };
        let end = SimTime::from_millis(400);
        let counted = counted_matches_eager(4, 4, &[], end, tune, |fabric| {
            fabric.run_to(SimTime::from_millis(200));
            if fabric.world.eager {
                return;
            }
            let overtaken = |heard: &[(SimTime, u64, SwitchId)]| {
                heard.iter().enumerate().any(|(i, &(lands, _, from))| {
                    heard[i + 1..]
                        .iter()
                        .any(|&(later, _, other)| other == from && later < lands)
                })
            };
            let unheard = &fabric.world.unheard;
            assert!(
                unheard.iter().any(|u| overtaken(&u.keepalives)),
                "no keep-alive in flight overtook one sent before it"
            );
        });
        assert_eq!(counted.dispatched_keepalives, 0);
    }

    /// A regroup's `GroupAssign` replaces the receiver's wheel while
    /// keep-alives are in flight: one sent after it that lands with it,
    /// and one sent before it lands that lands after it. The first
    /// writes what the new wheel starts with anyway; the second must
    /// reach the new wheel, which hearing it at send time would miss.
    #[test]
    fn keepalives_across_a_regroup_reach_the_wheel_the_eager_run_does() {
        let end = SimTime::from_millis(300);
        let counted = counted_matches_eager(3, 3, &[], end, fixed_latency, |fabric| {
            fabric.run_to(SimTime::from_millis(100));
            let regroup = fabric.next_tick(0) + SimDuration::from_millis(1);
            fabric.run_to(regroup);
            let lands = fabric.reverse_ring(regroup);
            let peer = fabric
                .world
                .latency
                .sample(ChannelClass::Peer, &mut fabric.world.rng);
            let half = SimDuration::from_nanos(peer.as_nanos() / 2);
            for (before, from) in [(peer, 1), (half, 2)] {
                let sent = SimTime::from_nanos(lands.as_nanos() - before.as_nanos());
                fabric.run_to(sent);
                fabric.send_keepalive(sent, from, 0);
            }
        });
        assert!(counted.world.counted_events() > 0);
    }

    /// A switch crashes while keep-alives to it are in flight, and comes
    /// back later. They land on a switch that is down, which drops them,
    /// so they stay eager.
    #[test]
    fn keepalives_in_flight_across_a_crash_stay_eager() {
        let end = SimTime::from_millis(300);
        let mut probe = Fabric::new(3, 3, &[], end, fixed_latency, false);
        probe.run_to(SimTime::from_millis(100));
        let tick = probe.next_tick(1);
        let crash = tick + SimDuration::from_micros(100);
        let recover = tick + SimDuration::from_millis(51);
        let mut plan = EventPlan::new();
        plan.schedule(crash, InjectedEvent::CrashSwitch(SwitchId::new(0)));
        plan.schedule(recover, InjectedEvent::RecoverSwitch(SwitchId::new(0)));
        let tune = |cfg: ExperimentConfig| fixed_latency(cfg).with_plan(plan.clone());
        let counted = counted_matches_eager(3, 3, &[], end, tune, |_| {});
        assert!(counted.dispatched_keepalives > 0, "nothing stayed eager");
        assert!(counted.world.counted_events() > 0);
        assert_eq!(counted.world.metrics.counter("switch_crashes"), 1);
    }

    /// A dynamic fabric regroups with rules in flight: two cliques of
    /// four switches, four hosts each, talk inside themselves, and
    /// switches 3 and 7 keep talking across. The first regroup check
    /// after two minutes moves 3 and 7, and the Appendix-B preload sends
    /// a burst of tunnel rules whose jitter lands them in random order.
    /// Counting every `FlowMod` changes no switch's state after any
    /// event, and none stays eager.
    #[test]
    fn counted_flow_mods_leave_every_switch_as_the_eager_run_does() {
        let t = |ms: u64| SimTime::from_nanos(ms * MS);
        let mut flows = Vec::new();
        for i in 0..80u64 {
            let a = (i % 4) as u32;
            flows.push((a, (a + 1) % 4, 1_000 + 700 * i));
            flows.push((4 + a, 4 + (a + 1) % 4, 1_250 + 700 * i));
        }
        for round in 0..4u64 {
            for a in 0..3u32 {
                flows.push((3, 4 + a, 5_000 + 35_000 * round + 100 * a as u64));
                flows.push((7, a, 5_050 + 35_000 * round + 100 * a as u64));
            }
        }
        flows.sort_by_key(|&(.., ms)| ms);
        let tune = |mut cfg: ExperimentConfig| {
            cfg.mode = ControlMode::LazyDynamic;
            cfg.group_size_limit = 4;
            cfg.keepalive_interval_ms = 1_000;
            cfg
        };
        let groups = |f: &Fabric| -> Vec<Option<usize>> {
            let lazy = f.world.controller.lazy().expect("lazy");
            (0..8)
                .map(|s| lazy.grouping().group_of(SwitchId::new(s)))
                .collect()
        };
        let counted = counted_matches_eager(8, 32, &flows, t(125_000), tune, |fabric| {
            assert_eq!(groups(fabric)[3], groups(fabric)[0]);
        });
        let lazy = counted.world.controller.lazy().expect("lazy");
        assert_eq!(lazy.grouping().updates_applied(), 2, "no regroup");
        assert_eq!(groups(&counted)[3], groups(&counted)[4], "3 did not move");
        let flow_mods = counted.world.metrics.counter("flow_mods_counted");
        assert!(flow_mods > 60, "{flow_mods} FlowMods counted");
        assert_eq!(counted.dispatched_flow_mods, 0);
    }

    /// A rule lands at the same instant as two frames to its destination
    /// at its switch, under zero jitter: one scheduled before the rule
    /// was sent, which fires first and misses it, and one scheduled
    /// after, which fires after it and hits it.
    #[test]
    fn flow_mods_landing_with_a_frame_are_heard_in_seq_order() {
        let (src, dst) = (HostId::new(0), HostId::new(2));
        let sent = SimTime::from_millis(50);
        let counted = counted_matches_eager(
            3,
            3,
            &[],
            SimTime::from_millis(80),
            fixed_latency,
            |fabric| {
                fabric.run_to(sent);
                let lands = fabric.controller_lands(sent);
                let frame = |world: &DataCenterWorld| Ev::LocalFrame {
                    switch: SwitchId::new(0),
                    port: world.port_of(src),
                    frame: world.frame_for_flow(src, dst, lands.as_nanos()),
                };
                fabric.queue.schedule(lands, frame(&fabric.world));
                fabric.send_from_controller(sent, [(SwitchId::new(0), flow_mod(dst, 7))]);
                fabric.queue.schedule(lands, frame(&fabric.world));
            },
        );
        let sw = counted.world.switches[0].as_ref().expect("one partition");
        let hits: Vec<u64> = sw.flow_table().iter().map(|rule| rule.packets).collect();
        assert_eq!(hits, [1], "exactly the later frame hits the rule");
        assert_eq!(counted.world.metrics.counter("flow_mods_counted"), 1);
    }

    /// A switch crashes while a rule to it is in flight, and comes back
    /// later. The rule lands on a switch that is down, which drops it, so
    /// it stays eager, as does one to another switch landing across the
    /// crash; one sent after the recovery is counted.
    #[test]
    fn flow_mods_in_flight_across_a_crash_stay_eager() {
        let sent = SimTime::from_millis(50);
        let mut plan = EventPlan::new();
        let crash = sent + SimDuration::from_micros(100);
        plan.schedule(crash, InjectedEvent::CrashSwitch(SwitchId::new(1)));
        let recover = sent + SimDuration::from_millis(20);
        plan.schedule(recover, InjectedEvent::RecoverSwitch(SwitchId::new(1)));
        let tune = |cfg: ExperimentConfig| fixed_latency(cfg).with_plan(plan.clone());
        let end = SimTime::from_millis(100);
        let rule = |s: u32, h: u32| (SwitchId::new(s), flow_mod(HostId::new(h), 7));
        let counted = counted_matches_eager(3, 3, &[], end, tune, |fabric| {
            fabric.run_to(sent);
            fabric.send_from_controller(sent, [rule(1, 0), rule(2, 0)]);
            let after = recover + SimDuration::from_millis(10);
            fabric.run_to(after);
            fabric.send_from_controller(after, [rule(1, 2)]);
        });
        assert_eq!(
            counted.dispatched_flow_mods, 2,
            "the rules across the crash"
        );
        assert_eq!(counted.world.metrics.counter("flow_mods_counted"), 1);
        let rules = |s: usize| {
            let sw = counted.world.switches[s].as_ref().expect("one partition");
            sw.flow_table().len()
        };
        assert_eq!(
            (rules(1), rules(2)),
            (1, 1),
            "the crashed switch dropped one"
        );
    }

    /// A `StatsRequest` sent right behind a burst of rules reads `flows`
    /// as its scheduled delivery would: jitter lands some rules of the
    /// burst after it. A second one, later, sees the whole burst.
    #[test]
    fn stats_request_after_a_burst_counts_the_rules_landed_before_it() {
        let sent = SimTime::from_millis(50);
        let to = SwitchId::new(1);
        let counted = counted_matches_eager(
            3,
            3,
            &[],
            SimTime::from_millis(100),
            |cfg| cfg,
            |fabric| {
                fabric.run_to(sent);
                let stats = || (to, Message::of(0, OfMessage::StatsRequest));
                let burst = (100..400).map(|h| (to, flow_mod(HostId::new(h), 7)));
                fabric.send_from_controller(sent, burst.chain([stats()]));
                let later = sent + SimDuration::from_millis(10);
                fabric.run_to(later);
                fabric.send_from_controller(later, [stats()]);
            },
        );
        let flows: Vec<u32> = counted
            .stats_replies
            .iter()
            .map(|&(.., flows)| flows)
            .collect();
        assert!(
            matches!(flows[..], [first, 300] if 0 < first && first < 300),
            "replies {flows:?}"
        );
    }

    /// `src`'s ARP request for `target`, broadcast.
    fn arp_request(src: HostId, target: HostId) -> EthernetFrame {
        let arp = lazyctrl_net::ArpPacket::request(src.mac(), src.ip(), target.ip());
        EthernetFrame::tagged(
            src.mac(),
            MacAddr::BROADCAST,
            VlanTag::for_tenant(TenantId::new(1)),
            EtherType::ARP,
            arp.encode(),
        )
    }

    /// Eight switches in one group resolve every fresh pair's ARP by an
    /// in-group broadcast: the controller empties every G-FIB before
    /// the first flow, and none relearns a remote host before the first
    /// peer sync, five minutes in. The broadcasts are the designated
    /// switch's own requests, and those it runs for a member's peer
    /// `PacketOut` (`group_broadcast_except`). Counting every copy that
    /// lands away from the target's switch changes no switch's state
    /// after any event, and each target's switch still answers.
    #[test]
    fn counted_group_broadcast_copies_leave_every_switch_as_the_eager_run_does() {
        let t = |ms: u64| SimTime::from_nanos(ms * MS);
        let flows: Vec<_> = (0..40u32)
            .map(|i| (i % 16, (i * 7 + 3) % 16, 20 + 23 * u64::from(i)))
            .collect();
        let tune = |mut cfg: ExperimentConfig| {
            cfg.emit_arp = true;
            cfg
        };
        let forget_every_peer = |fabric: &mut Fabric| {
            fabric.run_to(t(10));
            let lazy = fabric.world.controller.lazy().expect("lazy");
            let epoch = lazy.grouping().epoch();
            let ids = (0..8).map(SwitchId::new);
            let updates: Vec<_> = ids
                .clone()
                .flat_map(|to| {
                    ids.clone()
                        .filter(move |&peer| peer != to)
                        .map(move |peer| (to, peer))
                })
                .map(|(to, peer)| {
                    let empty = lazyctrl_switch::build_gfib_update(peer, epoch, []);
                    (to, Message::lazy(0, LazyMsg::gfib_update(empty)))
                })
                .collect();
            fabric.send_from_controller(t(10), updates);
        };
        let counted = counted_matches_eager(8, 16, &flows, t(1_500), tune, forget_every_peer);
        let copies = counted.world.metrics.counter("flood_tunnels_counted");
        assert!(copies >= 50, "{copies} copies counted");
        assert!(counted.broadcast_requests > 0, "no member asked");
        // A member's request reaches six members, the designated
        // switch's own seven: more copies than six per request means the
        // designated switch broadcast for itself too.
        let sent = copies + counted.dispatched_flood_copies;
        assert!(sent > 6 * counted.broadcast_requests, "{sent} copies");
        // The target's switch got its copy as an event, and replied.
        assert!(counted.dispatched_flood_copies > 0);
    }

    /// A `StatsRequest` lands while two counted copies to its switch are
    /// in flight, the second sent before the first landed, and a second
    /// request lands after both, under zero jitter: the first reply
    /// counts neither copy, the second both.
    #[test]
    fn stats_request_counts_flood_copies_only_once_they_land() {
        let to = SwitchId::new(1);
        let counted = counted_matches_eager(
            3,
            3,
            &[],
            SimTime::from_millis(100),
            fixed_latency,
            |fabric| {
                let sent = SimTime::from_millis(50);
                fabric.run_to(sent);
                let lands = fabric.controller_lands(sent);
                let stats = || (to, Message::of(0, OfMessage::StatsRequest));
                fabric.send_from_controller(sent, [stats()]);
                let data = fabric.data_latency().as_nanos();
                for before in [data * 3 / 4, data / 4] {
                    let at = SimTime::from_nanos(lands.as_nanos() - before);
                    fabric.run_to(at);
                    let frame = arp_request(HostId::new(0), HostId::new(2));
                    fabric.send_flood_copy(at, 0, to.0, frame);
                }
                let later = lands + SimDuration::from_millis(5);
                fabric.run_to(later);
                fabric.send_from_controller(later, [stats()]);
            },
        );
        let packets: Vec<u64> = counted
            .stats_replies
            .iter()
            .map(|&(_, packets, _)| packets)
            .collect();
        assert!(
            matches!(packets[..], [first, second] if second == first + 2),
            "replies {packets:?}"
        );
        assert_eq!(counted.world.metrics.counter("flood_tunnels_counted"), 2);
    }

    /// A copy lands at the same instant as two frames at its switch,
    /// under zero jitter: one scheduled before the copy was sent, which
    /// fires first, and one scheduled after, which fires after it.
    #[test]
    fn flood_copies_landing_with_a_frame_are_heard_in_seq_order() {
        let counted = counted_matches_eager(
            3,
            3,
            &[],
            SimTime::from_millis(80),
            fixed_latency,
            |fabric| {
                let sent = SimTime::from_millis(50);
                fabric.run_to(sent);
                let lands = sent + fabric.data_latency();
                let (src, dst) = (HostId::new(1), HostId::new(2));
                let frame = |world: &DataCenterWorld| Ev::LocalFrame {
                    switch: SwitchId::new(1),
                    port: world.port_of(src),
                    frame: world.frame_for_flow(src, dst, lands.as_nanos()),
                };
                fabric.queue.schedule(lands, frame(&fabric.world));
                let copy = arp_request(HostId::new(0), dst);
                fabric.send_flood_copy(sent, 0, 1, copy);
                fabric.queue.schedule(lands, frame(&fabric.world));
            },
        );
        assert_eq!(counted.world.metrics.counter("flood_tunnels_counted"), 1);
        assert_eq!(counted.dispatched_flood_copies, 0);
    }

    /// Copies in flight as their receiver crashes, and as a host
    /// migrates, stay eager: the crashed switch drops its copy, and a
    /// migration could move the broadcast's target. A copy to another
    /// switch landing across the crash stays eager too; one sent after
    /// both is counted.
    #[test]
    fn flood_copies_in_flight_across_a_crash_or_a_migration_stay_eager() {
        let sent = SimTime::from_millis(50);
        let half = SimDuration::from_micros(60);
        let mut plan = EventPlan::new();
        plan.schedule(sent + half, InjectedEvent::CrashSwitch(SwitchId::new(1)));
        let recover = sent + SimDuration::from_millis(20);
        plan.schedule(recover, InjectedEvent::RecoverSwitch(SwitchId::new(1)));
        let moved = sent + SimDuration::from_millis(30);
        plan.schedule(moved + half, InjectedEvent::MigrateHosts { batch: 1 });
        let tune = |cfg: ExperimentConfig| fixed_latency(cfg).with_plan(plan.clone());
        let end = SimTime::from_millis(100);
        let counted = counted_matches_eager(3, 3, &[], end, tune, |fabric| {
            assert!(
                fabric.data_latency() > half,
                "the copies land across the plan"
            );
            let copy = || arp_request(HostId::new(0), HostId::new(4));
            fabric.run_to(sent);
            fabric.send_flood_copy(sent, 0, 1, copy());
            fabric.send_flood_copy(sent, 0, 2, copy());
            fabric.run_to(moved);
            fabric.send_flood_copy(moved, 0, 2, copy());
            let after = moved + SimDuration::from_millis(10);
            fabric.run_to(after);
            fabric.send_flood_copy(after, 0, 2, copy());
        });
        assert_eq!(
            counted.dispatched_flood_copies, 3,
            "the copies across the plan"
        );
        assert_eq!(counted.world.metrics.counter("flood_tunnels_counted"), 1);
        assert_eq!(counted.world.metrics.counter("host_migrations"), 1);
        let packets = |s: usize| {
            let sw = counted.world.switches[s].as_ref().expect("one partition");
            sw.packets_processed()
        };
        assert_eq!(packets(1), 1, "the crashed switch dropped its copy");
    }

    /// A copy that lands after the run ends is neither counted nor
    /// heard, as the wheel never pops it; one that lands before is.
    #[test]
    fn flood_copies_landing_past_the_horizon_are_not_counted() {
        let end = SimTime::from_millis(100);
        let counted = counted_matches_eager(3, 3, &[], end, fixed_latency, |fabric| {
            let data = fabric.data_latency().as_nanos();
            for before in [2 * data, data / 2] {
                let at = SimTime::from_nanos(end.as_nanos() - before);
                fabric.run_to(at);
                let frame = arp_request(HostId::new(0), HostId::new(2));
                fabric.send_flood_copy(at, 0, 1, frame);
            }
        });
        assert_eq!(counted.world.metrics.counter("flood_tunnels_counted"), 1);
        let sw = counted.world.switches[1].as_ref().expect("one partition");
        assert_eq!(
            sw.packets_processed(),
            2,
            "its host's boot announcement and one copy"
        );
    }
}
