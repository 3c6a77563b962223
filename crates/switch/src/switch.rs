//! The composed LazyCtrl edge switch.
//!
//! `EdgeSwitch` is a deterministic state machine: packets, control messages
//! and timers go in; [`SwitchOutput`] effects come out. The split mirrors
//! the prototype's ovs-vswitchd modules (§IV-A): Ctrl-IF (control link
//! I/O), state advertisement, FIB maintenance, and state reporting (active
//! only on the designated switch).
//!
//! Every handler writes its effects into a caller-owned
//! [`OutputSink<SwitchOutput>`] instead of returning a fresh `Vec`: the
//! driver owns one scratch buffer, drains it after each event, and the
//! per-packet path performs no heap allocation in steady state (see
//! `DESIGN.md` §7, "Output sinks and message layout"). Output order is
//! push order — identical to the order the old `Vec` returns carried.

use std::collections::{BTreeSet, VecDeque};

use lazyctrl_net::{
    ArpOp, EncapHeader, EncapsulatedFrame, EthernetFrame, GroupId, HostId, MacAddr, Packet, PortNo,
    SwitchId, TenantId,
};
use lazyctrl_proto::{
    Action, GroupAssignMsg, LazyMsg, LfibSyncMsg, Message, OfMessage, OutputSink, PacketInMsg,
    PacketInReason, PacketOutMsg,
};

use crate::forwarding::{forward_packet, ForwardingDecision};
use crate::gfib::build_update;
use crate::wheel::{WheelAction, WheelPosition};
use crate::{DesignatedRole, FlowTable, Gfib, Lfib, StateAdvertiser};

/// L-FIB aging horizon: entries idle longer than this age out. Hosts
/// refresh their entry whenever they send; without periodic gratuitous ARP
/// a quiet VM must not be forgotten, so this is a full day (VM removal is
/// signalled explicitly).
const LFIB_MAX_IDLE_NS: u64 = 86_400_000_000_000; // 24 h

/// Base congestion-pace window. One controller pressure notice defers
/// NoMatch punts for at least this long; repeated pressure doubles it up
/// to [`PACE_MAX_DOUBLINGS`].
const PACE_BASE_NS: u64 = 5_000_000; // 5 ms

/// Cap on pace-window doublings (5 ms × 2⁶ = 320 ms worst case).
const PACE_MAX_DOUBLINGS: u32 = 6;

/// Most NoMatch punts a pacing switch defers; overflow drops the oldest
/// (the host retries, exactly as a dropped PacketIn on a real control
/// channel would).
const PACE_BUFFER_CAP: usize = 64;

/// Deterministic pace jitter: a splitmix64-style hash of the switch id
/// and backoff depth folded into `[0, window_ns)`. De-synchronizes the
/// pace windows of switches that heard the same pressure notice in the
/// same tick — the thundering herd at window close — without drawing
/// from any RNG stream (replicated-RNG lockstep must hold).
fn pace_jitter_ns(switch: SwitchId, attempts: u32, window_ns: u64) -> u64 {
    if window_ns == 0 {
        return 0;
    }
    let mut x = ((switch.0 as u64) << 32) ^ (attempts as u64) ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x % window_ns
}

/// Group membership parameters installed by a `GroupAssign`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupConfig {
    /// The group this switch belongs to.
    pub group: GroupId,
    /// Current grouping epoch.
    pub epoch: u32,
    /// All members (ring order).
    pub members: Vec<SwitchId>,
    /// The designated switch.
    pub designated: SwitchId,
    /// Backup designated switches.
    pub backups: Vec<SwitchId>,
    /// Peer-sync period (ns).
    pub sync_interval_ns: u64,
    /// Keep-alive period (ns).
    pub keepalive_interval_ns: u64,
}

impl From<&GroupAssignMsg> for GroupConfig {
    fn from(m: &GroupAssignMsg) -> Self {
        GroupConfig {
            group: m.group,
            epoch: m.epoch,
            members: m.members.clone(),
            designated: m.designated,
            backups: m.backups.clone(),
            sync_interval_ns: m.sync_interval_ms as u64 * 1_000_000,
            keepalive_interval_ns: m.keepalive_interval_ms as u64 * 1_000_000,
        }
    }
}

/// Timers the switch asks its driver to arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SwitchTimer {
    /// Periodic peer-link state sync (§III-D.3 asynchronous dissemination).
    PeerSync,
    /// Periodic wheel keep-alive.
    KeepAlive,
    /// Periodic L-FIB aging sweep.
    LfibAge,
    /// One-shot: the congestion-pace window closed — flush deferred
    /// NoMatch punts and decay the backoff. Unlike `KeepAlive`/
    /// `PeerSync` this must keep firing on a switch whose control link
    /// is dark, or deferred setups would wedge until the link heals.
    PaceFlush,
}

/// Effects the switch wants performed.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchOutput {
    /// Send on the control link to the controller.
    ToController(Message),
    /// Send on the peer link to a group member.
    ToPeer(SwitchId, Message),
    /// Send on the state link (designated switch only).
    ToState(Message),
    /// Tunnel an encapsulated frame across the underlay to a peer edge
    /// switch.
    Tunnel(SwitchId, EncapsulatedFrame),
    /// Deliver to a local host port.
    DeliverLocal(PortNo, EthernetFrame),
    /// Flood to all local host ports (except the ingress port).
    FloodLocal(EthernetFrame),
    /// Arm a timer after the given delay (ns). Periodic timers re-arm from
    /// their handler; the driver just schedules each request once.
    SetTimer(SwitchTimer, u64),
}

/// The edge switch state machine.
#[derive(Debug)]
pub struct EdgeSwitch {
    id: SwitchId,
    flow_table: FlowTable,
    lfib: Lfib,
    gfib: Gfib,
    adv: StateAdvertiser,
    group: Option<GroupConfig>,
    designated_role: Option<DesignatedRole>,
    wheel: Option<WheelPosition>,
    blocked_arp: BTreeSet<TenantId>,
    armed_timers: BTreeSet<SwitchTimer>,
    /// Report bloom-filter mis-deliveries to the controller (Fig. 5's
    /// optional corrective path).
    pub report_false_positives: bool,
    /// When false the datapath behaves like a plain OpenFlow 1.0 switch:
    /// flow-table lookup, then punt — no L-FIB/G-FIB resolution. This is
    /// the paper's "normal mode" baseline (§V-A).
    pub datapath_learning: bool,
    /// Congestion pacing: virtual time until which NoMatch punts are
    /// deferred (an ECN-style `CongestionNotice` from the controller
    /// opens/extends the window under capped exponential backoff).
    pace_until_ns: u64,
    /// Current backoff depth in doublings; ratchets up on pressure,
    /// unwinds one step per closed window.
    pace_attempts: u32,
    /// NoMatch punts deferred while pacing, flushed at window close.
    /// Bounded by [`PACE_BUFFER_CAP`].
    paced_punts: VecDeque<Message>,
    /// Total punts ever deferred (observer counter).
    punts_paced: u64,
    /// Deferred punts dropped on buffer overflow (observer counter).
    pace_drops: u64,
    xid: u32,
    packets_processed: u64,
    packet_ins_sent: u64,
    /// Last time the flow table was swept for expired rules (amortized
    /// lazy expiry; OpenFlow idle/hard timeouts).
    last_flow_expiry_ns: u64,
    /// Scratch for matched flow-rule actions (filled by `forward_packet`,
    /// consumed by `apply_actions`); reused across packets so a rule hit
    /// costs no allocation.
    scratch_actions: Vec<Action>,
    /// Scratch for G-FIB candidate / broadcast target switch lists;
    /// reused across packets for the same reason.
    scratch_targets: Vec<SwitchId>,
}

impl EdgeSwitch {
    /// Creates a switch that is not yet in any group (it will punt
    /// everything unknown to the controller, like a plain OpenFlow switch).
    pub fn new(id: SwitchId) -> Self {
        EdgeSwitch {
            id,
            flow_table: FlowTable::new(),
            lfib: Lfib::new(),
            gfib: Gfib::new(),
            adv: StateAdvertiser::new(id),
            group: None,
            designated_role: None,
            wheel: None,
            blocked_arp: BTreeSet::new(),
            armed_timers: BTreeSet::new(),
            report_false_positives: false,
            datapath_learning: true,
            pace_until_ns: 0,
            pace_attempts: 0,
            paced_punts: VecDeque::new(),
            punts_paced: 0,
            pace_drops: 0,
            xid: 0,
            packets_processed: 0,
            packet_ins_sent: 0,
            last_flow_expiry_ns: 0,
            scratch_actions: Vec::new(),
            scratch_targets: Vec::new(),
        }
    }

    /// This switch's id.
    pub fn id(&self) -> SwitchId {
        self.id
    }

    /// The current group configuration, if assigned.
    pub fn group(&self) -> Option<&GroupConfig> {
        self.group.as_ref()
    }

    /// True while this switch serves as its group's designated switch.
    pub fn is_designated(&self) -> bool {
        self.designated_role.is_some()
    }

    /// Direct read access to the L-FIB.
    pub fn lfib(&self) -> &Lfib {
        &self.lfib
    }

    /// Direct read access to the G-FIB.
    pub fn gfib(&self) -> &Gfib {
        &self.gfib
    }

    /// Direct read access to the flow table.
    pub fn flow_table(&self) -> &FlowTable {
        &self.flow_table
    }

    /// Total packets processed.
    pub fn packets_processed(&self) -> u64 {
        self.packets_processed
    }

    /// Total `PacketIn`s sent to the controller.
    pub fn packet_ins_sent(&self) -> u64 {
        self.packet_ins_sent
    }

    /// True while NoMatch punts are deferred under congestion pacing.
    pub fn is_pacing(&self, now_ns: u64) -> bool {
        now_ns < self.pace_until_ns
    }

    /// Current congestion-backoff depth, in window doublings.
    pub fn pace_attempts(&self) -> u32 {
        self.pace_attempts
    }

    /// NoMatch punts deferred by congestion pacing so far.
    pub fn punts_paced(&self) -> u64 {
        self.punts_paced
    }

    /// Deferred punts dropped on pace-buffer overflow.
    pub fn pace_drops(&self) -> u64 {
        self.pace_drops
    }

    fn next_xid(&mut self) -> u32 {
        self.xid = self.xid.wrapping_add(1);
        self.xid
    }

    fn current_epoch(&self) -> u32 {
        self.group.as_ref().map(|g| g.epoch).unwrap_or(0)
    }

    fn designated(&self) -> Option<SwitchId> {
        self.group.as_ref().map(|g| g.designated)
    }

    fn packet_in(
        &mut self,
        reason: PacketInReason,
        in_port: PortNo,
        data: impl Into<bytes::Bytes>,
    ) -> Message {
        self.packet_ins_sent += 1;
        let xid = self.next_xid();
        Message::of(
            xid,
            OfMessage::PacketIn(PacketInMsg {
                buffer_id: u32::MAX,
                in_port,
                reason,
                data: data.into(),
            }),
        )
    }

    /// Builds a `NoMatch` punt and either sends it or, while the switch
    /// is pacing under controller congestion pressure, defers it to the
    /// bounded pace buffer (flushed when the window closes; overflow
    /// drops the oldest). Only flow setups route through here —
    /// keepalives, wheel reports and corrective reports are never paced.
    fn punt_no_match(
        &mut self,
        now_ns: u64,
        in_port: PortNo,
        data: impl Into<bytes::Bytes>,
        out: &mut OutputSink<SwitchOutput>,
    ) {
        let msg = self.packet_in(PacketInReason::NoMatch, in_port, data);
        if now_ns < self.pace_until_ns {
            self.punts_paced += 1;
            self.paced_punts.push_back(msg);
            while self.paced_punts.len() > PACE_BUFFER_CAP {
                self.paced_punts.pop_front();
                self.pace_drops += 1;
            }
        } else {
            out.push(SwitchOutput::ToController(msg));
        }
    }

    /// Handles a plain frame arriving from a directly attached host.
    pub fn handle_local_frame(
        &mut self,
        now_ns: u64,
        in_port: PortNo,
        frame: EthernetFrame,
        out: &mut OutputSink<SwitchOutput>,
    ) {
        self.packets_processed += 1;
        // Amortized flow-rule expiry (idle/hard timeouts), at most once a
        // second of virtual time.
        if now_ns.saturating_sub(self.last_flow_expiry_ns) >= 1_000_000_000 {
            self.last_flow_expiry_ns = now_ns;
            self.flow_table.expire(now_ns);
        }
        let tenant = frame.vlan.map(|t| t.vid()).unwrap_or(TenantId::NONE);
        // Source learning (live state dissemination, step i).
        self.lfib.learn(frame.src, tenant, in_port, now_ns);

        if self.datapath_learning {
            if let Some(arp) = frame.as_arp() {
                if arp.op == ArpOp::Request {
                    return self.handle_arp_request(now_ns, in_port, frame, tenant, out);
                }
                // ARP replies are unicast; fall through to normal forwarding.
            }
        }
        self.forward_plain(now_ns, in_port, frame, tenant, out)
    }

    /// The three-level ARP cascade of §III-D.3.
    fn handle_arp_request(
        &mut self,
        now_ns: u64,
        in_port: PortNo,
        frame: EthernetFrame,
        tenant: TenantId,
        out: &mut OutputSink<SwitchOutput>,
    ) {
        let arp = frame.as_arp().expect("caller verified this is ARP");
        let target_mac = HostId::from_ip(arp.target_ip).map(|h| h.mac());

        // Level i: a local host owns the target → flood locally only (the
        // owner will reply).
        if let Some(mac) = target_mac {
            if self.lfib.lookup(mac).is_some() {
                out.push(SwitchOutput::FloodLocal(frame));
                return;
            }
            // Level ii(a): the G-FIB recognizes the target → tunnel the
            // request straight to the candidate switches.
            let mut candidates = std::mem::take(&mut self.scratch_targets);
            candidates.clear();
            self.gfib.query_into(mac, &mut candidates);
            if !candidates.is_empty() {
                self.note_flow(now_ns, frame.src, mac, candidates.first().copied());
                self.tunnel_to(&candidates, frame, tenant, out);
                self.scratch_targets = candidates;
                return;
            }
            self.scratch_targets = candidates;
        }
        // Level ii(b): not recognized in-group → designated switch runs an
        // intra-group broadcast.
        if let Some(designated) = self.designated() {
            if designated != self.id {
                let xid = self.next_xid();
                out.push(SwitchOutput::ToPeer(
                    designated,
                    Message::of(
                        xid,
                        OfMessage::PacketOut(PacketOutMsg {
                            buffer_id: u32::MAX,
                            in_port,
                            actions: [Action::Output(PortNo::FLOOD)].into(),
                            data: frame.encode().into(),
                        }),
                    ),
                ));
                return;
            }
            // I am the designated switch: broadcast in-group, and escalate
            // to the controller unless this tenant's ARP is blocked.
            self.group_broadcast(frame.clone(), tenant, out);
            if !self.blocked_arp.contains(&tenant) {
                self.adv.record_punt();
                self.punt_no_match(now_ns, in_port, frame.encode(), out);
            }
            return;
        }
        // Level iii (no group at all): straight to the controller.
        if self.blocked_arp.contains(&tenant) {
            return;
        }
        self.adv.record_punt();
        self.punt_no_match(now_ns, in_port, frame.encode(), out);
    }

    /// Fig. 5 for non-ARP plain packets.
    fn forward_plain(
        &mut self,
        now_ns: u64,
        in_port: PortNo,
        frame: EthernetFrame,
        tenant: TenantId,
        out: &mut OutputSink<SwitchOutput>,
    ) {
        // Plain-OpenFlow datapath: consult only the flow table. The
        // empty tables are built only on that (cold) path.
        let empties;
        let (lfib, gfib) = if self.datapath_learning {
            (&self.lfib, &self.gfib)
        } else {
            empties = (Lfib::new(), Gfib::new());
            (&empties.0, &empties.1)
        };
        let pkt = Packet::Plain(frame);
        let decision = forward_packet(
            &pkt,
            in_port,
            &mut self.flow_table,
            lfib,
            gfib,
            now_ns,
            &mut self.scratch_actions,
            &mut self.scratch_targets,
        );
        let Packet::Plain(frame) = pkt else {
            unreachable!("constructed as plain above")
        };
        match decision {
            ForwardingDecision::FlowRule => {
                let actions = std::mem::take(&mut self.scratch_actions);
                // Rule-forwarded flows still count towards intensity: the
                // destination switch is in the rule's Encap action.
                let dst_switch = actions.iter().find_map(|a| match a {
                    Action::Encap { remote, .. } => SwitchId::from_underlay_ip(*remote),
                    Action::Output(p) if p.is_physical() => Some(self.id),
                    _ => None,
                });
                self.note_flow(now_ns, frame.src, frame.dst, dst_switch);
                self.apply_actions(now_ns, in_port, frame, tenant, &actions, out);
                self.scratch_actions = actions;
            }
            ForwardingDecision::DeliverLocal(port) => {
                self.adv.record_local_hit();
                self.note_flow(now_ns, frame.src, frame.dst, Some(self.id));
                out.push(SwitchOutput::DeliverLocal(port, frame));
            }
            ForwardingDecision::EncapTo => {
                let candidates = std::mem::take(&mut self.scratch_targets);
                self.adv.record_group_hit();
                self.note_flow(now_ns, frame.src, frame.dst, candidates.first().copied());
                self.tunnel_to(&candidates, frame, tenant, out);
                self.scratch_targets = candidates;
            }
            ForwardingDecision::PuntToController => {
                self.adv.record_punt();
                self.note_flow(now_ns, frame.src, frame.dst, None);
                self.punt_no_match(now_ns, in_port, frame.encode(), out);
            }
            ForwardingDecision::FalsePositive => {}
        }
    }

    /// Handles an encapsulated packet arriving from the underlay.
    pub fn handle_tunnel_packet(
        &mut self,
        now_ns: u64,
        encap: EncapsulatedFrame,
        out: &mut OutputSink<SwitchOutput>,
    ) {
        self.packets_processed += 1;
        // Flooded intra-group broadcasts (ARP) fan out locally.
        if encap.inner.is_flood() {
            out.push(SwitchOutput::FloodLocal(encap.into_inner()));
            return;
        }
        let pkt = Packet::Encapsulated(encap);
        let decision = forward_packet(
            &pkt,
            PortNo::NONE,
            &mut self.flow_table,
            &self.lfib,
            &self.gfib,
            now_ns,
            &mut self.scratch_actions,
            &mut self.scratch_targets,
        );
        let Packet::Encapsulated(encap) = pkt else {
            unreachable!("constructed as encapsulated above")
        };
        match decision {
            ForwardingDecision::DeliverLocal(port) => {
                out.push(SwitchOutput::DeliverLocal(port, encap.into_inner()));
            }
            ForwardingDecision::FalsePositive if self.report_false_positives => {
                // Ship the full encapsulated packet so the controller can
                // identify the mis-forwarding sender from the outer header
                // and install a corrective rule there (Fig. 5, line 28+).
                let msg =
                    self.packet_in(PacketInReason::FalsePositive, PortNo::NONE, encap.encode());
                out.push(SwitchOutput::ToController(msg));
            }
            _ => {}
        }
    }

    /// Handles a message from the controller on the control link.
    pub fn handle_control_message(
        &mut self,
        now_ns: u64,
        msg: &Message,
        out: &mut OutputSink<SwitchOutput>,
    ) {
        match &msg.body {
            lazyctrl_proto::MessageBody::Of(of) => match of {
                OfMessage::Hello => {
                    out.push(SwitchOutput::ToController(Message::of(
                        msg.xid,
                        OfMessage::Hello,
                    )));
                }
                OfMessage::EchoRequest(data) => out.push(SwitchOutput::ToController(Message::of(
                    msg.xid,
                    OfMessage::EchoReply(data.clone()),
                ))),
                OfMessage::FeaturesRequest => out.push(SwitchOutput::ToController(Message::of(
                    msg.xid,
                    OfMessage::FeaturesReply {
                        datapath_id: self.id.0 as u64,
                        n_ports: 48,
                    },
                ))),
                OfMessage::StatsRequest => out.push(SwitchOutput::ToController(Message::of(
                    msg.xid,
                    OfMessage::StatsReply {
                        packets: self.packets_processed,
                        flows: self.flow_table.len() as u32,
                        packet_ins: self.packet_ins_sent,
                    },
                ))),
                OfMessage::FlowMod(fm) => {
                    self.flow_table.apply(fm, now_ns);
                }
                OfMessage::PacketOut(po) => {
                    let Ok(frame) = EthernetFrame::decode(&po.data) else {
                        return;
                    };
                    let tenant = frame.vlan.map(|t| t.vid()).unwrap_or(TenantId::NONE);
                    self.apply_actions(now_ns, po.in_port, frame, tenant, &po.actions, out);
                }
                _ => {}
            },
            lazyctrl_proto::MessageBody::Lazy(lazy) => match lazy {
                LazyMsg::GroupAssign(ga) => self.apply_group_assign(now_ns, ga, out),
                LazyMsg::BlockArp { tenant, block } => {
                    if *block {
                        self.blocked_arp.insert(*tenant);
                    } else {
                        self.blocked_arp.remove(tenant);
                    }
                }
                LazyMsg::KeepAlive(_) => {
                    if let Some(w) = &mut self.wheel {
                        w.on_controller_keepalive(now_ns);
                    }
                }
                LazyMsg::GfibUpdate(gu) => {
                    self.gfib.apply_update(gu);
                }
                LazyMsg::LfibSync(sync) => {
                    // Controller pushing other switches' L-FIBs after a
                    // regroup goes through the designated switch; accepting
                    // it here too keeps small setups simple.
                    self.absorb_lfib_sync(sync);
                }
                LazyMsg::CongestionNotice(cn) => {
                    // ECN-style pressure from an overloaded controller:
                    // deepen the pace window under capped exponential
                    // backoff (the notice's level adds extra doublings)
                    // with deterministic hash jitter, and defer NoMatch
                    // punts until it closes. Keepalives and wheel reports
                    // keep flowing — liveness outranks flow setup.
                    self.pace_attempts =
                        (self.pace_attempts + 1 + cn.level as u32).min(PACE_MAX_DOUBLINGS);
                    let window = PACE_BASE_NS << self.pace_attempts;
                    let until =
                        now_ns + window + pace_jitter_ns(self.id, self.pace_attempts, window / 4);
                    self.pace_until_ns = self.pace_until_ns.max(until);
                    let t = SwitchTimer::PaceFlush;
                    if self.armed_timers.insert(t) {
                        out.push(SwitchOutput::SetTimer(t, self.pace_until_ns - now_ns));
                    }
                }
                _ => {}
            },
            // Controller-to-controller traffic never terminates on a switch.
            lazyctrl_proto::MessageBody::Cluster(_) => {}
        }
    }

    /// Handles a message from a group member on the peer link.
    pub fn handle_peer_message(
        &mut self,
        now_ns: u64,
        from: SwitchId,
        msg: &Message,
        out: &mut OutputSink<SwitchOutput>,
    ) {
        match &msg.body {
            lazyctrl_proto::MessageBody::Lazy(lazy) => match lazy {
                LazyMsg::KeepAlive(ka) => {
                    if let Some(w) = &mut self.wheel {
                        w.on_peer_keepalive(ka.from, now_ns);
                    }
                }
                LazyMsg::GfibUpdate(gu)
                    if crate::designated::gfib_is_relevant(gu, self.current_epoch()) =>
                {
                    self.gfib.apply_update(gu);
                    // Designated switch relays to the rest of the group.
                    if let Some(role) = &self.designated_role {
                        for target in role.relay_targets(from) {
                            let xid = self.next_xid();
                            out.push(SwitchOutput::ToPeer(
                                target,
                                Message::lazy(xid, LazyMsg::GfibUpdate(gu.clone())),
                            ));
                        }
                    }
                }
                LazyMsg::LfibSync(sync) => {
                    self.absorb_lfib_sync(sync);
                    // Designated switch relays exact entries up the state
                    // link for the controller's C-LIB.
                    if self.designated_role.is_some() {
                        let xid = self.next_xid();
                        out.push(SwitchOutput::ToState(Message::lazy(
                            xid,
                            LazyMsg::LfibSync(sync.clone()),
                        )));
                    }
                }
                LazyMsg::StateReport(report) => {
                    if let Some(role) = &mut self.designated_role {
                        role.absorb_report(report);
                    }
                }
                LazyMsg::WheelReport(report) => {
                    // Relay for a neighbour whose control link is dead.
                    let xid = self.next_xid();
                    out.push(SwitchOutput::ToController(Message::lazy(
                        xid,
                        LazyMsg::WheelReport(*report),
                    )));
                }
                _ => {}
            },
            lazyctrl_proto::MessageBody::Of(OfMessage::PacketOut(po)) => {
                // A member asked the designated switch to run an intra-group
                // ARP broadcast (§III-D.3 level ii).
                let Ok(frame) = EthernetFrame::decode(&po.data) else {
                    return;
                };
                let tenant = frame.vlan.map(|t| t.vid()).unwrap_or(TenantId::NONE);
                if self.designated_role.is_some() {
                    // Escalate to the controller (level iii) unless
                    // blocked. The punt carries the relayed bytes as they
                    // came: every frame on this path was built by
                    // `EthernetFrame::encode`, which never sets DEI, so
                    // re-encoding the decoded frame would give them back.
                    debug_assert_eq!(*frame.encode(), *po.data, "relayed frame re-encodes");
                    self.group_broadcast_except(frame, tenant, from, out);
                    if !self.blocked_arp.contains(&tenant) {
                        self.punt_no_match(now_ns, po.in_port, po.data.clone(), out);
                    }
                }
            }
            _ => {}
        }
    }

    /// Handles a timer the driver armed earlier.
    pub fn on_timer(
        &mut self,
        now_ns: u64,
        timer: SwitchTimer,
        out: &mut OutputSink<SwitchOutput>,
    ) {
        match timer {
            SwitchTimer::PeerSync => self.run_peer_sync(now_ns, out),
            SwitchTimer::KeepAlive => self.run_keepalive(now_ns, out),
            SwitchTimer::LfibAge => {
                self.lfib.age(now_ns, LFIB_MAX_IDLE_NS);
                out.push(SwitchOutput::SetTimer(
                    SwitchTimer::LfibAge,
                    LFIB_MAX_IDLE_NS / 2,
                ));
            }
            SwitchTimer::PaceFlush => {
                self.armed_timers.remove(&SwitchTimer::PaceFlush);
                if now_ns < self.pace_until_ns {
                    // Fresh pressure extended the window after this timer
                    // was armed; sleep out the remainder.
                    if self.armed_timers.insert(SwitchTimer::PaceFlush) {
                        out.push(SwitchOutput::SetTimer(
                            SwitchTimer::PaceFlush,
                            self.pace_until_ns - now_ns,
                        ));
                    }
                    return;
                }
                // Window closed: release deferred setups and unwind one
                // backoff step — repeated pressure ratchets up, quiet
                // periods decay back down.
                self.pace_attempts = self.pace_attempts.saturating_sub(1);
                while let Some(msg) = self.paced_punts.pop_front() {
                    out.push(SwitchOutput::ToController(msg));
                }
            }
        }
    }

    fn run_peer_sync(&mut self, now_ns: u64, out: &mut OutputSink<SwitchOutput>) {
        // Copy the scalars out of the group config (no members clone — the
        // periodic sync is steady-state work).
        let Some((group_id, epoch, designated, sync_interval_ns)) = self
            .group
            .as_ref()
            .map(|g| (g.group, g.epoch, g.designated, g.sync_interval_ns))
        else {
            self.armed_timers.remove(&SwitchTimer::PeerSync);
            return;
        };
        let delta = self.lfib.take_delta();
        if !delta.is_empty() {
            let sync = LfibSyncMsg {
                origin: self.id,
                epoch,
                entries: delta.added,
                removed: delta.removed,
            };
            let gfib_update = build_update(self.id, epoch, self.lfib.macs());
            if designated == self.id {
                // Apply own update and fan out directly.
                self.gfib.apply_update(&gfib_update);
                if let Some(role) = &self.designated_role {
                    for target in role.relay_targets(self.id) {
                        let xid = self.next_xid();
                        out.push(SwitchOutput::ToPeer(
                            target,
                            Message::lazy(xid, LazyMsg::gfib_update(gfib_update.clone())),
                        ));
                    }
                }
                let xid = self.next_xid();
                out.push(SwitchOutput::ToState(Message::lazy(
                    xid,
                    LazyMsg::lfib_sync(sync),
                )));
            } else {
                let xid = self.next_xid();
                out.push(SwitchOutput::ToPeer(
                    designated,
                    Message::lazy(xid, LazyMsg::lfib_sync(sync)),
                ));
                let xid = self.next_xid();
                out.push(SwitchOutput::ToPeer(
                    designated,
                    Message::lazy(xid, LazyMsg::gfib_update(gfib_update)),
                ));
            }
        }
        // Windowed traffic report. Quiet windows produce nothing: the
        // dissemination is asynchronous and event-driven (§III-D.3), so an
        // idle group costs the controller zero messages.
        let report = self.adv.take_report(group_id, epoch, now_ns);
        let report_is_empty = report.intensity.is_empty()
            && report.stats.iter().all(|(_, st)| {
                st.local_hits == 0 && st.group_hits == 0 && st.controller_punts == 0
            });
        if designated == self.id {
            if let Some(role) = &mut self.designated_role {
                if !report_is_empty {
                    role.absorb_report(&report);
                }
                if !role.is_quiescent() {
                    let controller_report = role.make_controller_report(epoch);
                    let xid = self.next_xid();
                    out.push(SwitchOutput::ToState(Message::lazy(
                        xid,
                        LazyMsg::state_report(controller_report),
                    )));
                }
            }
        } else if !report_is_empty {
            let xid = self.next_xid();
            out.push(SwitchOutput::ToPeer(
                designated,
                Message::lazy(xid, LazyMsg::state_report(report)),
            ));
        }
        out.push(SwitchOutput::SetTimer(
            SwitchTimer::PeerSync,
            sync_interval_ns,
        ));
    }

    fn run_keepalive(&mut self, now_ns: u64, out: &mut OutputSink<SwitchOutput>) {
        let Some(wheel) = &mut self.wheel else {
            self.armed_timers.remove(&SwitchTimer::KeepAlive);
            return;
        };
        let interval = self
            .group
            .as_ref()
            .map(|g| g.keepalive_interval_ns)
            .unwrap_or(1_000_000_000);
        // Disjoint-field closure captures: the wheel drives the visitor
        // while xid and the sink absorb the actions — no scratch Vec.
        let xid = &mut self.xid;
        wheel.tick_each(now_ns, |a| match a {
            WheelAction::SendKeepAlive { to, msg } => {
                *xid = xid.wrapping_add(1);
                out.push(SwitchOutput::ToPeer(
                    to,
                    Message::lazy(*xid, LazyMsg::KeepAlive(msg)),
                ));
            }
            WheelAction::Report(report) => {
                *xid = xid.wrapping_add(1);
                out.push(SwitchOutput::ToController(Message::lazy(
                    *xid,
                    LazyMsg::WheelReport(report),
                )));
            }
            WheelAction::ReportViaPeer { via, msg } => {
                *xid = xid.wrapping_add(1);
                out.push(SwitchOutput::ToPeer(
                    via,
                    Message::lazy(*xid, LazyMsg::WheelReport(msg)),
                ));
            }
        });
        out.push(SwitchOutput::SetTimer(SwitchTimer::KeepAlive, interval));
    }

    fn apply_group_assign(
        &mut self,
        now_ns: u64,
        ga: &GroupAssignMsg,
        out: &mut OutputSink<SwitchOutput>,
    ) {
        let config = GroupConfig::from(ga);

        self.wheel = Some(WheelPosition::new(
            self.id,
            ga.ring_prev,
            ga.ring_next,
            config.keepalive_interval_ns.max(1),
            now_ns,
        ));
        self.designated_role = if ga.designated == self.id {
            Some(DesignatedRole::new(ga.group, self.id, ga.members.clone()))
        } else {
            None
        };
        // Keep only filters for switches still in the group.
        let peers: Vec<SwitchId> = ga
            .members
            .iter()
            .copied()
            .filter(|&s| s != self.id)
            .collect();
        self.gfib.retain_peers(&peers);

        // Announce our filter to the new group immediately so peers'
        // G-FIBs converge. Exact L-FIB entries go up the state link only
        // when there are *pending host changes* (initial learning, VM
        // moves): a regrouping does not move hosts, so the C-LIB needs
        // nothing and the controller stays undisturbed.
        if !self.lfib.is_empty() {
            let gfib_update = build_update(self.id, ga.epoch, self.lfib.macs());
            let delta = self.lfib.take_delta();
            let sync = (!delta.is_empty()).then_some(LfibSyncMsg {
                origin: self.id,
                epoch: ga.epoch,
                entries: delta.added,
                removed: delta.removed,
            });
            if ga.designated == self.id {
                for target in peers {
                    let xid = self.next_xid();
                    out.push(SwitchOutput::ToPeer(
                        target,
                        Message::lazy(xid, LazyMsg::gfib_update(gfib_update.clone())),
                    ));
                }
                self.gfib.apply_update(&gfib_update);
                if let Some(sync) = sync {
                    let xid = self.next_xid();
                    out.push(SwitchOutput::ToState(Message::lazy(
                        xid,
                        LazyMsg::lfib_sync(sync),
                    )));
                }
            } else {
                let xid = self.next_xid();
                out.push(SwitchOutput::ToPeer(
                    ga.designated,
                    Message::lazy(xid, LazyMsg::gfib_update(gfib_update)),
                ));
                if let Some(sync) = sync {
                    let xid = self.next_xid();
                    out.push(SwitchOutput::ToPeer(
                        ga.designated,
                        Message::lazy(xid, LazyMsg::lfib_sync(sync)),
                    ));
                }
            }
        }

        self.group = Some(config.clone());
        for (timer, delay) in [
            (SwitchTimer::PeerSync, config.sync_interval_ns),
            (SwitchTimer::KeepAlive, config.keepalive_interval_ns),
            (SwitchTimer::LfibAge, LFIB_MAX_IDLE_NS / 2),
        ] {
            if self.armed_timers.insert(timer) {
                out.push(SwitchOutput::SetTimer(timer, delay));
            }
        }
    }

    /// Deliberate no-op: exact entries are only tracked by the
    /// controller. A member's G-FIB is refreshed by the periodic
    /// `GfibUpdate` that accompanies every sync (removals cannot clear
    /// bloom bits, so incremental absorption would buy nothing — the
    /// full filter push is the refresh).
    fn absorb_lfib_sync(&mut self, _sync: &LfibSyncMsg) {}

    /// Records one flow arrival towards the destination switch when known.
    /// Every first packet counts: the paper's intensity unit is *new flows
    /// per second* (§III-C.1), not distinct pairs.
    fn note_flow(
        &mut self,
        _now_ns: u64,
        _src: MacAddr,
        _dst: MacAddr,
        dst_switch: Option<SwitchId>,
    ) {
        if let Some(s) = dst_switch {
            self.adv.record_flow_to(s);
        }
    }

    fn tunnel_to(
        &mut self,
        candidates: &[SwitchId],
        frame: EthernetFrame,
        tenant: TenantId,
        out: &mut OutputSink<SwitchOutput>,
    ) {
        let epoch = self.current_epoch();
        for &target in candidates {
            out.push(SwitchOutput::Tunnel(
                target,
                EncapsulatedFrame::new(
                    EncapHeader::new(self.id.underlay_ip(), target.underlay_ip(), tenant, epoch),
                    // Arc-backed payload: each copy is a refcount bump.
                    frame.clone(),
                ),
            ));
        }
    }

    /// Broadcast a frame to every group member plus local ports.
    fn group_broadcast(
        &mut self,
        frame: EthernetFrame,
        tenant: TenantId,
        out: &mut OutputSink<SwitchOutput>,
    ) {
        self.group_broadcast_except(frame, tenant, self.id, out)
    }

    fn group_broadcast_except(
        &mut self,
        frame: EthernetFrame,
        tenant: TenantId,
        except: SwitchId,
        out: &mut OutputSink<SwitchOutput>,
    ) {
        let mut members = std::mem::take(&mut self.scratch_targets);
        members.clear();
        if let Some(g) = self.group.as_ref() {
            members.extend(
                g.members
                    .iter()
                    .copied()
                    .filter(|&s| s != self.id && s != except),
            );
        }
        self.tunnel_to(&members, frame.clone(), tenant, out);
        self.scratch_targets = members;
        out.push(SwitchOutput::FloodLocal(frame));
    }

    fn apply_actions(
        &mut self,
        _now_ns: u64,
        _in_port: PortNo,
        frame: EthernetFrame,
        tenant: TenantId,
        actions: &[Action],
        out: &mut OutputSink<SwitchOutput>,
    ) {
        let mut frame = frame;
        let mut tenant = tenant;
        for (i, action) in actions.iter().enumerate() {
            let emit = match *action {
                Action::Output(port) if port == PortNo::FLOOD || port == PortNo::ALL => Emit::Flood,
                Action::Output(port) if port == PortNo::CONTROLLER => {
                    let msg = self.packet_in(PacketInReason::Action, PortNo::NONE, frame.encode());
                    out.push(SwitchOutput::ToController(msg));
                    continue;
                }
                Action::Output(port) if port.is_physical() => Emit::Local(port),
                Action::Output(_) => continue,
                Action::SetVlan(t) => {
                    tenant = t;
                    frame.vlan = Some(lazyctrl_net::VlanTag::for_tenant(t));
                    continue;
                }
                Action::StripVlan => {
                    frame.vlan = None;
                    continue;
                }
                Action::Drop => return,
                Action::Encap { remote, key } => match SwitchId::from_underlay_ip(remote) {
                    Some(target) => Emit::Tunnel(
                        target,
                        EncapHeader::new(self.id.underlay_ip(), remote, tenant, key),
                    ),
                    None => continue,
                },
            };
            // The last action takes the frame itself; an earlier output
            // takes a copy (a refcount bump on the payload).
            if i + 1 == actions.len() {
                out.push(emit.with(frame));
                return;
            }
            out.push(emit.with(frame.clone()));
        }
    }
}

/// Where an output action sends the frame (see `EdgeSwitch::apply_actions`).
enum Emit {
    Flood,
    Local(PortNo),
    Tunnel(SwitchId, EncapHeader),
}

impl Emit {
    fn with(self, frame: EthernetFrame) -> SwitchOutput {
        match self {
            Emit::Flood => SwitchOutput::FloodLocal(frame),
            Emit::Local(port) => SwitchOutput::DeliverLocal(port, frame),
            Emit::Tunnel(target, header) => {
                SwitchOutput::Tunnel(target, EncapsulatedFrame::new(header, frame))
            }
        }
    }
}
