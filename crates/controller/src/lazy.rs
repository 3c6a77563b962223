//! The LazyCtrl central controller (§III-B.2, §IV-B).
//!
//! Handles only what the local control groups cannot: inter-group flow
//! setup (from the C-LIB), ARP relay scoped by tenant information,
//! grouping adaptation (SGI under the paper's triggers), failover, and
//! group-size bargaining. The goal is to *stay lazy*: every message
//! processed here is counted by the workload meter — the quantity Fig. 7
//! shows dropping 61–82% below the baseline controller.

use std::sync::Arc;

use lazyctrl_net::{EthernetFrame, Packet, PortNo, SwitchId, TenantId};
use lazyctrl_partition::bargain::{negotiate, BargainConfig, BargainOutcome};
use lazyctrl_partition::WeightedGraph;
use lazyctrl_proto::{
    Action, BargainMsg, FlowMatch, FlowModCommand, FlowModMsg, LazyMsg, Message, MessageBody,
    OfMessage, OutputSink, PacketInMsg, PacketInReason, PacketOutMsg,
};
use serde::{Deserialize, Serialize};

use crate::failover::{FailureDetector, FailureKind, RecoveryAction};
use crate::grouping::{FrozenGrouping, GroupingManager, RegroupDecision};
use crate::tenant::TenantDirectory;
use crate::{Clib, HostLocation, WorkloadMeter};

/// Timers the controller asks its driver to arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ControllerTimer {
    /// Periodic keep-alive to every switch (hub of the wheel).
    KeepAlive,
    /// Periodic regrouping trigger check.
    RegroupCheck,
}

/// Effects the controller wants performed.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerOutput {
    /// Send to a switch on its control link.
    ToSwitch(SwitchId, Message),
    /// Arm a timer after the given delay (ns).
    SetTimer(ControllerTimer, u64),
}

/// Idle timeout (s) of every rule a controller installs: inter-group
/// tunnels, false-positive corrections, regrouping preloads, and the
/// baseline's learned forwarding rules alike.
pub(crate) const FLOW_IDLE_TIMEOUT_S: u16 = 30;

/// Period (ms) of the [`ControllerTimer::RegroupCheck`] timer.
pub const REGROUP_CHECK_INTERVAL_MS: u32 = 10_000;

/// Configuration of the lazy controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LazyConfig {
    /// Peer-sync interval pushed to switches (ms).
    pub sync_interval_ms: u32,
    /// Keep-alive interval (ms).
    pub keepalive_interval_ms: u32,
    /// Group size limit (switches per LCG).
    pub group_size_limit: usize,
    /// Enable incremental regrouping ("dynamic" in Fig. 7); when false the
    /// bootstrap grouping stays frozen ("static").
    pub dynamic_updates: bool,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for LazyConfig {
    fn default() -> Self {
        LazyConfig {
            sync_interval_ms: 1_000,
            keepalive_interval_ms: 1_000,
            group_size_limit: 46,
            dynamic_updates: true,
            seed: 0x1a2b,
        }
    }
}

/// The hybrid controller.
#[derive(Debug, Clone)]
pub struct LazyController {
    cfg: LazyConfig,
    switches: Vec<SwitchId>,
    clib: Clib,
    grouping: GroupingManager,
    tenants: TenantDirectory,
    failover: FailureDetector,
    meter: WorkloadMeter,
    xid: u32,
    armed: std::collections::BTreeSet<ControllerTimer>,
}

impl LazyController {
    /// Creates a controller for the given switches.
    pub fn new(switches: Vec<SwitchId>, cfg: LazyConfig) -> Self {
        let grouping = GroupingManager::new(switches.len(), cfg.group_size_limit, cfg.seed);
        // Correlation window ≥ 2 wheel deadlines (interval × the shared
        // miss threshold), so persistent losses from both ring directions
        // are guaranteed to overlap — see `FailureDetector::with_window`.
        let deadline_ns = cfg.keepalive_interval_ms as u64
            * 1_000_000
            * lazyctrl_proto::WHEEL_MISS_THRESHOLD as u64;
        let detector_window_ns = (2 * deadline_ns).max(5_000_000_000);
        LazyController {
            cfg,
            switches,
            clib: Clib::new(),
            grouping,
            tenants: TenantDirectory::new(),
            failover: FailureDetector::with_window(detector_window_ns),
            meter: WorkloadMeter::new(),
            xid: 0,
            armed: std::collections::BTreeSet::new(),
        }
    }

    /// The workload meter.
    pub fn meter(&self) -> &WorkloadMeter {
        &self.meter
    }

    /// The grouping manager (for experiment harnesses).
    pub fn grouping(&self) -> &GroupingManager {
        &self.grouping
    }

    /// The C-LIB.
    pub fn clib(&self) -> &Clib {
        &self.clib
    }

    /// The failure detector.
    pub fn failover(&self) -> &FailureDetector {
        &self.failover
    }

    fn next_xid(&mut self) -> u32 {
        self.xid = self.xid.wrapping_add(1);
        self.xid
    }

    /// Negotiates the group size limit with the switches before grouping
    /// (Appendix C). Returns the transcript; the agreed limit replaces
    /// `cfg.group_size_limit`.
    pub fn negotiate_group_size(&mut self, min_limit: u32, max_limit: u32) -> BargainOutcome {
        let outcome = negotiate(&BargainConfig::new(min_limit, max_limit));
        self.cfg.group_size_limit = outcome.agreed_limit as usize;
        self.grouping = GroupingManager::new(
            self.switches.len(),
            self.cfg.group_size_limit,
            self.cfg.seed,
        );
        outcome
    }

    /// `IniGroup` + setup phase: computes the initial grouping from a
    /// bootstrap intensity graph (the paper uses the first hour of
    /// traffic), pushes `GroupAssign` to every switch, and arms timers.
    pub fn bootstrap(
        &mut self,
        now_ns: u64,
        graph: WeightedGraph,
        out: &mut OutputSink<ControllerOutput>,
    ) {
        let assignments = self.grouping.bootstrap(
            now_ns,
            graph,
            self.cfg.sync_interval_ms,
            self.cfg.keepalive_interval_ms,
        );
        self.emit_bootstrap(assignments, out);
    }

    /// Like [`bootstrap`], but adopts a peer's shared immutable grouping
    /// snapshot instead of running SGI. Cluster members all compute the
    /// *same* grouping from the same graph, so one member computes it,
    /// [`freeze_grouping`] hands out the snapshot, and the rest bootstrap
    /// from the shared `Arc` — identical `GroupAssign` output, one copy of
    /// the grouping state cluster-wide, one SGI run instead of N.
    ///
    /// [`bootstrap`]: LazyController::bootstrap
    /// [`freeze_grouping`]: LazyController::freeze_grouping
    pub fn bootstrap_shared(
        &mut self,
        now_ns: u64,
        snapshot: std::sync::Arc<FrozenGrouping>,
        out: &mut OutputSink<ControllerOutput>,
    ) {
        let assignments = self.grouping.adopt_shared(
            now_ns,
            snapshot,
            self.cfg.sync_interval_ms,
            self.cfg.keepalive_interval_ms,
        );
        self.emit_bootstrap(assignments, out);
    }

    /// Freezes this controller's grouping into a shared immutable
    /// snapshot (see [`GroupingManager::freeze_shared`]); `None` before
    /// bootstrap.
    pub fn freeze_grouping(&mut self) -> Option<std::sync::Arc<FrozenGrouping>> {
        self.grouping.freeze_shared()
    }

    /// Converts bootstrap assignments into outputs and arms the timers.
    fn emit_bootstrap(
        &mut self,
        assignments: Vec<(SwitchId, lazyctrl_proto::GroupAssignMsg)>,
        out: &mut OutputSink<ControllerOutput>,
    ) {
        for (s, ga) in assignments {
            let xid = self.next_xid();
            out.push(ControllerOutput::ToSwitch(
                s,
                Message::lazy(xid, LazyMsg::group_assign(ga)),
            ));
        }
        for (timer, delay_ms) in [
            (ControllerTimer::KeepAlive, self.cfg.keepalive_interval_ms),
            (ControllerTimer::RegroupCheck, REGROUP_CHECK_INTERVAL_MS),
        ] {
            if self.armed.insert(timer) {
                out.push(ControllerOutput::SetTimer(
                    timer,
                    delay_ms as u64 * 1_000_000,
                ));
            }
        }
    }

    /// Handles a message arriving on a control or state link, pushing the
    /// effects into the caller's sink (no per-message allocation).
    pub fn handle_message(
        &mut self,
        now_ns: u64,
        from: SwitchId,
        msg: &Message,
        out: &mut OutputSink<ControllerOutput>,
    ) {
        self.meter.record(now_ns);
        // Any sign of life from a switch we believed dead means it rebooted:
        // trigger the §III-E.3 comeback resync.
        if self.failover.mark_recovered(from) {
            self.resync_group_of(from, out);
        }
        match &msg.body {
            MessageBody::Of(OfMessage::PacketIn(pi)) => {
                self.handle_packet_in(now_ns, from, pi, out);
            }
            MessageBody::Of(OfMessage::Hello) => {
                let xid = self.next_xid();
                out.push(ControllerOutput::ToSwitch(
                    from,
                    Message::of(xid, OfMessage::Hello),
                ));
            }
            MessageBody::Of(OfMessage::EchoRequest(data)) => {
                let xid = self.next_xid();
                out.push(ControllerOutput::ToSwitch(
                    from,
                    Message::of(xid, OfMessage::EchoReply(data.clone())),
                ));
            }
            MessageBody::Lazy(lazy) => match lazy {
                LazyMsg::LfibSync(sync) => {
                    self.clib.apply_sync(sync);
                }
                LazyMsg::StateReport(report) => {
                    self.grouping.absorb_report(report);
                }
                LazyMsg::WheelReport(report) => {
                    if let Some(kind) = self.failover.observe(now_ns, report) {
                        self.apply_recovery(kind, out);
                    }
                }
                LazyMsg::Bargain(offer) => {
                    self.handle_bargain(from, offer, out);
                }
                _ => {}
            },
            _ => {}
        }
    }

    /// Handles a controller timer.
    pub fn on_timer(
        &mut self,
        now_ns: u64,
        timer: ControllerTimer,
        out: &mut OutputSink<ControllerOutput>,
    ) {
        match timer {
            ControllerTimer::KeepAlive => {
                for i in 0..self.switches.len() {
                    let s = self.switches[i];
                    let xid = self.next_xid();
                    out.push(ControllerOutput::ToSwitch(
                        s,
                        Message::lazy(
                            xid,
                            LazyMsg::KeepAlive(lazyctrl_proto::KeepAliveMsg {
                                from: SwitchId::CONTROLLER,
                                seq: xid as u64,
                            }),
                        ),
                    ));
                }
                out.push(ControllerOutput::SetTimer(
                    ControllerTimer::KeepAlive,
                    self.cfg.keepalive_interval_ms as u64 * 1_000_000,
                ));
            }
            ControllerTimer::RegroupCheck => {
                if self.cfg.dynamic_updates {
                    let rate = self.meter.rate_rps(now_ns);
                    let decision = self.grouping.check(now_ns, rate);
                    if decision != RegroupDecision::None {
                        let assignments = self.grouping.update(
                            now_ns,
                            decision,
                            rate,
                            self.cfg.sync_interval_ms,
                            self.cfg.keepalive_interval_ms,
                        );
                        for (s, ga) in assignments {
                            let xid = self.next_xid();
                            out.push(ControllerOutput::ToSwitch(
                                s,
                                Message::lazy(xid, LazyMsg::group_assign(ga)),
                            ));
                        }
                        self.preload_for_moves(out);
                        self.refresh_arp_blocking(out);
                    }
                }
                out.push(ControllerOutput::SetTimer(
                    ControllerTimer::RegroupCheck,
                    REGROUP_CHECK_INTERVAL_MS as u64 * 1_000_000,
                ));
            }
        }
    }

    /// Re-evaluates tenant confinement and pushes `BlockArp` deltas
    /// (§III-D.3).
    pub fn refresh_arp_blocking(&mut self, out: &mut OutputSink<ControllerOutput>) {
        let grouping = &self.grouping;
        self.tenants.rebuild(&self.clib, |s| grouping.group_of(s));
        let (to_block, to_unblock) = self.tenants.block_delta();
        for (tenant, block) in to_block
            .into_iter()
            .map(|t| (t, true))
            .chain(to_unblock.into_iter().map(|t| (t, false)))
        {
            // Blocking applies on the switches of the single hosting group.
            for group in self.tenants.groups_of(tenant) {
                for s in self.grouping.members(group) {
                    let xid = self.next_xid();
                    out.push(ControllerOutput::ToSwitch(
                        s,
                        Message::lazy(xid, LazyMsg::BlockArp { tenant, block }),
                    ));
                }
            }
        }
    }

    fn handle_packet_in(
        &mut self,
        _now_ns: u64,
        from: SwitchId,
        pi: &PacketInMsg,
        out: &mut OutputSink<ControllerOutput>,
    ) {
        // A false-positive report carries a full encapsulated packet; the
        // corrective rule goes on the *sender* switch (Fig. 5 line 28+).
        if pi.reason == PacketInReason::FalsePositive {
            return self.handle_false_positive(pi, out);
        }
        let Ok(frame) = EthernetFrame::decode(&pi.data) else {
            return;
        };
        let tenant = frame.vlan.map(|t| t.vid()).unwrap_or(TenantId::NONE);
        // Learn the source into the C-LIB (PacketIns carry fresh truth).
        self.clib.learn(
            frame.src,
            HostLocation {
                switch: from,
                port: pi.in_port,
                tenant,
            },
        );

        if frame.is_flood() {
            // An escalated ARP request: relay to the designated switches of
            // all *other* groups hosting this tenant (§III-D.3 level iii).
            return self.relay_arp(from, tenant, &pi.data, out);
        }

        match self.clib.locate(frame.dst) {
            Some(loc) if loc.switch != from => {
                // Inter-group flow setup: Encap rule + packet release.
                self.grouping.note_punt(from, loc.switch);
                self.install_intergroup_rule(from, frame.dst, loc, pi, out);
            }
            Some(loc) => {
                // Same-switch destination the switch failed to resolve
                // (e.g. right after migration): point it back locally.
                let xid = self.next_xid();
                out.push(ControllerOutput::ToSwitch(
                    from,
                    Message::of(
                        xid,
                        OfMessage::PacketOut(PacketOutMsg {
                            buffer_id: pi.buffer_id,
                            in_port: pi.in_port,
                            actions: Arc::new([Action::Output(loc.port)]),
                            data: pi.data.clone(),
                        }),
                    ),
                ));
            }
            None => {
                // Unknown destination: scoped relay, like the ARP path.
                self.relay_arp(from, tenant, &pi.data, out);
            }
        }
    }

    fn install_intergroup_rule(
        &mut self,
        from: SwitchId,
        dst: lazyctrl_net::MacAddr,
        loc: HostLocation,
        pi: &PacketInMsg,
        out: &mut OutputSink<ControllerOutput>,
    ) {
        // Tunnel keys carry the *receiver's* group epoch so untouched
        // groups keep accepting the traffic across global regroupings.
        let epoch = self.grouping.epoch_of_switch(loc.switch);
        // One list for the FlowMod and the PacketOut.
        let actions: Arc<[Action]> = Arc::new([Action::Encap {
            remote: loc.switch.underlay_ip(),
            key: epoch,
        }]);
        let xid = self.next_xid();
        out.push(ControllerOutput::ToSwitch(
            from,
            Message::of(
                xid,
                OfMessage::flow_mod(FlowModMsg {
                    command: FlowModCommand::Add,
                    flow_match: FlowMatch::to_dst(dst),
                    priority: 10,
                    idle_timeout: FLOW_IDLE_TIMEOUT_S,
                    hard_timeout: 0,
                    cookie: epoch as u64,
                    actions: Arc::clone(&actions),
                }),
            ),
        ));
        let xid = self.next_xid();
        out.push(ControllerOutput::ToSwitch(
            from,
            Message::of(
                xid,
                OfMessage::PacketOut(PacketOutMsg {
                    buffer_id: pi.buffer_id,
                    in_port: pi.in_port,
                    actions,
                    data: pi.data.clone(),
                }),
            ),
        ));
    }

    fn handle_false_positive(&mut self, pi: &PacketInMsg, out: &mut OutputSink<ControllerOutput>) {
        let Ok(Packet::Encapsulated(encap)) = Packet::decode(&pi.data) else {
            return;
        };
        let Some(sender) = SwitchId::from_underlay_ip(encap.header.src) else {
            return;
        };
        let Some(loc) = self.clib.locate(encap.inner.dst) else {
            return;
        };
        let epoch = self.grouping.epoch_of_switch(loc.switch);
        let xid = self.next_xid();
        out.push(ControllerOutput::ToSwitch(
            sender,
            Message::of(
                xid,
                OfMessage::flow_mod(FlowModMsg {
                    command: FlowModCommand::Add,
                    flow_match: FlowMatch::to_dst(encap.inner.dst),
                    priority: 20, // outranks the G-FIB path
                    idle_timeout: FLOW_IDLE_TIMEOUT_S,
                    hard_timeout: 0,
                    cookie: epoch as u64,
                    actions: Arc::new([Action::Encap {
                        remote: loc.switch.underlay_ip(),
                        key: epoch,
                    }]),
                }),
            ),
        ));
    }

    /// Relays an unresolved (typically ARP) frame to the designated
    /// switches of every other group hosting the tenant.
    fn relay_arp(
        &mut self,
        from: SwitchId,
        tenant: TenantId,
        data: &bytes::Bytes,
        out: &mut OutputSink<ControllerOutput>,
    ) {
        let from_group = self.grouping.group_of(from);
        let mut targets: Vec<SwitchId> = Vec::new();
        if tenant.is_none() {
            // No tenant scoping possible: all designated switches.
            if let Some(n) = self.grouping.num_groups() {
                for g in 0..n {
                    if Some(g) != from_group {
                        targets.extend(self.grouping.designated_of(g));
                    }
                }
            }
        } else {
            let mut groups: Vec<usize> = self
                .clib
                .switches_of_tenant(tenant)
                .into_iter()
                .filter_map(|s| self.grouping.group_of(s))
                .collect();
            groups.sort_unstable();
            groups.dedup();
            for g in groups {
                if Some(g) != from_group {
                    targets.extend(self.grouping.designated_of(g));
                }
            }
        }
        let flood: Arc<[Action]> = Arc::new([Action::Output(PortNo::FLOOD)]);
        for s in targets {
            let xid = self.next_xid();
            out.push(ControllerOutput::ToSwitch(
                s,
                Message::of(
                    xid,
                    OfMessage::PacketOut(PacketOutMsg {
                        buffer_id: u32::MAX,
                        in_port: PortNo::NONE,
                        // Shared handles: one relayed ARP broadcast to
                        // n designated switches is n refcount bumps,
                        // not n action-list or payload copies.
                        actions: Arc::clone(&flood),
                        data: data.clone(),
                    }),
                ),
            ));
        }
    }

    fn apply_recovery(&mut self, kind: FailureKind, out: &mut OutputSink<ControllerOutput>) {
        let failed = match kind {
            FailureKind::ControlLink(s)
            | FailureKind::PeerLinkUp(s)
            | FailureKind::PeerLinkDown(s)
            | FailureKind::Switch(s) => s,
        };
        let group = self.grouping.group_of(failed);
        let is_designated = group
            .and_then(|g| self.grouping.designated_of(g))
            .map(|d| d == failed)
            .unwrap_or(false);
        let ring_prev = group
            .map(|g| {
                let mut members = self.grouping.members(g);
                members.sort_unstable();
                let i = members.iter().position(|&s| s == failed).unwrap_or(0);
                members[(i + members.len() - 1) % members.len().max(1)]
            })
            .unwrap_or(failed);
        let plan =
            FailureDetector::plan_recovery(kind, ring_prev, is_designated, group.unwrap_or(0));
        for action in plan {
            if let RecoveryAction::ReselectDesignated { group, old } = action {
                // Push fresh assignments with the next-lowest member as
                // designated (the backup takes over).
                let mut members = self.grouping.members(group);
                members.sort_unstable();
                members.retain(|&s| s != old);
                if members.is_empty() {
                    continue;
                }
                let designated = members[0];
                let epoch = self.grouping.epoch_of_group(group);
                let n = members.len();
                for (i, &me) in members.iter().enumerate() {
                    let xid = self.next_xid();
                    out.push(ControllerOutput::ToSwitch(
                        me,
                        Message::lazy(
                            xid,
                            LazyMsg::group_assign(lazyctrl_proto::GroupAssignMsg {
                                group: lazyctrl_net::GroupId::new(group as u32),
                                epoch,
                                members: members.clone(),
                                designated,
                                backups: members.iter().copied().skip(1).take(1).collect(),
                                ring_prev: members[(i + n - 1) % n],
                                ring_next: members[(i + 1) % n],
                                sync_interval_ms: self.cfg.sync_interval_ms,
                                keepalive_interval_ms: self.cfg.keepalive_interval_ms,
                                group_size_limit: self.cfg.group_size_limit as u32,
                            }),
                        ),
                    ));
                }
            }
        }
    }

    /// §III-E.3 comeback: when a rebooted switch returns, re-push its
    /// group's assignment to force a state resync.
    fn resync_group_of(&mut self, switch: SwitchId, out: &mut OutputSink<ControllerOutput>) {
        let Some(group) = self.grouping.group_of(switch) else {
            return;
        };
        let mut members = self.grouping.members(group);
        members.sort_unstable();
        let Some(designated) = members.first().copied() else {
            return;
        };
        let epoch = self.grouping.epoch_of_group(group);
        let n = members.len();
        for (i, &me) in members.iter().enumerate() {
            let xid = self.next_xid();
            out.push(ControllerOutput::ToSwitch(
                me,
                Message::lazy(
                    xid,
                    LazyMsg::group_assign(lazyctrl_proto::GroupAssignMsg {
                        group: lazyctrl_net::GroupId::new(group as u32),
                        epoch,
                        members: members.clone(),
                        designated,
                        backups: members.iter().copied().skip(1).take(1).collect(),
                        ring_prev: members[(i + n - 1) % n],
                        ring_next: members[(i + 1) % n],
                        sync_interval_ms: self.cfg.sync_interval_ms,
                        keepalive_interval_ms: self.cfg.keepalive_interval_ms,
                        group_size_limit: self.cfg.group_size_limit as u32,
                    }),
                ),
            ));
        }
    }

    /// Appendix B preload: for every switch moved between groups, install
    /// temporary tunnel rules (normal idle timeout) so traffic between the
    /// moved switch and its former peers keeps flowing from the flow table
    /// instead of punting while G-FIBs converge.
    fn preload_for_moves(&mut self, out: &mut OutputSink<ControllerOutput>) {
        let moves = self.grouping.take_last_moves();
        if moves.is_empty() {
            return;
        }
        // One C-LIB pass per update, not one per (moved switch, peer) pair.
        let hosts = self.clib.hosts_by_switch();
        let hosts_on = |s: SwitchId| hosts.get(&s).map_or(&[][..], Vec::as_slice);
        for (moved, old_group, _new_group) in moves {
            // Former peers = current members of the old group.
            let former_peers = self.grouping.members(old_group);
            for peer in former_peers {
                if peer == moved {
                    continue;
                }
                // Rules on the former peer towards the moved switch's
                // hosts, then on the moved switch towards the peer's.
                for (at, towards) in [(peer, moved), (moved, peer)] {
                    let epoch = self.grouping.epoch_of_switch(towards);
                    // Every rule of the pair tunnels the same way: one
                    // list, shared by its FlowMods and the rules they
                    // install.
                    let actions: Arc<[Action]> = Arc::new([Action::Encap {
                        remote: towards.underlay_ip(),
                        key: epoch,
                    }]);
                    for &mac in hosts_on(towards) {
                        let xid = self.next_xid();
                        out.push(ControllerOutput::ToSwitch(
                            at,
                            Message::of(
                                xid,
                                OfMessage::flow_mod(FlowModMsg {
                                    command: FlowModCommand::Add,
                                    flow_match: FlowMatch::to_dst(mac),
                                    priority: 10,
                                    idle_timeout: FLOW_IDLE_TIMEOUT_S,
                                    hard_timeout: 0,
                                    cookie: epoch as u64,
                                    actions: Arc::clone(&actions),
                                }),
                            ),
                        ));
                    }
                }
            }
        }
    }

    fn handle_bargain(
        &mut self,
        from: SwitchId,
        offer: &BargainMsg,
        out: &mut OutputSink<ControllerOutput>,
    ) {
        // The controller accepts offers at or above its planning floor and
        // counters below it (the full alternating-offers game runs in
        // `negotiate_group_size`; this is the online responder).
        let floor = (self.cfg.group_size_limit / 2).max(1) as u32;
        let xid = self.next_xid();
        let reply = if offer.proposed_limit >= floor {
            BargainMsg {
                round: offer.round + 1,
                from_controller: true,
                proposed_limit: offer.proposed_limit,
                accept: true,
            }
        } else {
            BargainMsg {
                round: offer.round + 1,
                from_controller: true,
                proposed_limit: floor,
                accept: false,
            }
        };
        out.push(ControllerOutput::ToSwitch(
            from,
            Message::lazy(xid, LazyMsg::Bargain(reply)),
        ));
    }
}
