//! Behavioural tests for the LazyCtrl controller: bootstrap, inter-group
//! flow setup, ARP relay scoping, failover reaction, and laziness (what it
//! does *not* have to handle).

use lazyctrl_controller::{ControllerOutput, ControllerTimer, LazyConfig, LazyController};
use lazyctrl_net::{EtherType, EthernetFrame, HostId, PortNo, SwitchId, TenantId, VlanTag};
use lazyctrl_partition::WeightedGraph;
use lazyctrl_proto::{
    Action, FlowMatch, LazyMsg, LfibEntry, LfibSyncMsg, Message, MessageBody, OfMessage,
    OutputSink, PacketInMsg, PacketInReason, WheelLoss, WheelReportMsg,
};

/// Sink-collecting wrappers mirroring the pre-sink `Vec` API.
fn handle(
    c: &mut LazyController,
    now_ns: u64,
    from: SwitchId,
    msg: &Message,
) -> Vec<ControllerOutput> {
    let mut sink = OutputSink::new();
    c.handle_message(now_ns, from, msg, &mut sink);
    sink.take_buf()
}

fn fire_timer(
    c: &mut LazyController,
    now_ns: u64,
    timer: ControllerTimer,
) -> Vec<ControllerOutput> {
    let mut sink = OutputSink::new();
    c.on_timer(now_ns, timer, &mut sink);
    sink.take_buf()
}

/// Two 4-switch cliques, {0..3} and {4..7}, every edge of weight `w`.
fn two_cliques(w: f64) -> WeightedGraph {
    let mut g = WeightedGraph::new(8);
    for c in 0..2 {
        let b = c * 4;
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(b + i, b + j, w);
            }
        }
    }
    g
}

/// Two natural 4-switch clusters.
fn bootstrap_graph() -> WeightedGraph {
    let mut g = two_cliques(10.0);
    g.add_edge(3, 4, 0.2);
    g
}

fn controller() -> (LazyController, Vec<ControllerOutput>) {
    let switches: Vec<SwitchId> = (0..8).map(SwitchId::new).collect();
    let cfg = LazyConfig {
        group_size_limit: 4,
        ..LazyConfig::default()
    };
    let mut c = LazyController::new(switches, cfg);
    let mut sink = OutputSink::new();
    c.bootstrap(0, bootstrap_graph(), &mut sink);
    let out = sink.take_buf();
    (c, out)
}

fn frame(src: u32, dst: u32, tenant: u16) -> EthernetFrame {
    EthernetFrame::tagged(
        HostId::new(src).mac(),
        HostId::new(dst).mac(),
        VlanTag::for_tenant(TenantId::new(tenant)),
        EtherType::IPV4,
        vec![0; 24],
    )
}

fn packet_in(src: u32, dst: u32, tenant: u16) -> PacketInMsg {
    PacketInMsg {
        buffer_id: u32::MAX,
        in_port: PortNo::new(1),
        reason: PacketInReason::NoMatch,
        data: frame(src, dst, tenant).encode().into(),
    }
}

fn lfib_sync(origin: u32, hosts: &[(u32, u16)]) -> Message {
    Message::lazy(
        1,
        LazyMsg::lfib_sync(LfibSyncMsg {
            origin: SwitchId::new(origin),
            epoch: 1,
            entries: hosts
                .iter()
                .map(|&(h, t)| LfibEntry {
                    mac: HostId::new(h).mac(),
                    tenant: TenantId::new(t),
                    port: PortNo::new(1),
                })
                .collect(),
            removed: vec![],
        }),
    )
}

#[test]
fn bootstrap_groups_the_clusters_and_arms_timers() {
    let (c, out) = controller();
    // Eight GroupAssign messages plus two timers.
    let assigns = out
        .iter()
        .filter(|o| {
            matches!(o, ControllerOutput::ToSwitch(_, m)
                if matches!(m.as_lazy(), Some(LazyMsg::GroupAssign(_))))
        })
        .count();
    assert_eq!(assigns, 8);
    assert!(out
        .iter()
        .any(|o| matches!(o, ControllerOutput::SetTimer(ControllerTimer::KeepAlive, _))));
    assert!(out.iter().any(|o| matches!(
        o,
        ControllerOutput::SetTimer(ControllerTimer::RegroupCheck, _)
    )));
    // The clusters map to distinct groups.
    assert_eq!(
        c.grouping().group_of(SwitchId::new(0)),
        c.grouping().group_of(SwitchId::new(3))
    );
    assert_ne!(
        c.grouping().group_of(SwitchId::new(0)),
        c.grouping().group_of(SwitchId::new(4))
    );
}

#[test]
fn intergroup_packet_in_installs_encap_rule() {
    let (mut c, _) = controller();
    // C-LIB learns host 20 on switch 5 (group 1) via a state-link sync.
    let _ = handle(&mut c, 0, SwitchId::new(5), &lfib_sync(5, &[(20, 7)]));
    // Switch 0 (group 0) punts a flow towards host 20.
    let msg = Message::of(1, OfMessage::PacketIn(packet_in(10, 20, 7)));
    let out = handle(&mut c, 1, SwitchId::new(0), &msg);
    assert_eq!(out.len(), 2, "FlowMod + PacketOut: {out:?}");
    let ControllerOutput::ToSwitch(s, m) = &out[0] else {
        panic!()
    };
    assert_eq!(*s, SwitchId::new(0));
    match &m.body {
        MessageBody::Of(OfMessage::FlowMod(fm)) => {
            assert_eq!(
                *fm.actions,
                [Action::Encap {
                    remote: SwitchId::new(5).underlay_ip(),
                    key: c.grouping().epoch(),
                }]
            );
        }
        other => panic!("expected FlowMod, got {other:?}"),
    }
    // The source host was learned into the C-LIB from the PacketIn.
    assert!(c.clib().locate(HostId::new(10).mac()).is_some());
}

#[test]
fn arp_relay_is_scoped_to_tenant_groups() {
    let (mut c, _) = controller();
    // Tenant 7 has hosts behind switches 1 (group 0) and 5 (group 1);
    // tenant 8 only behind switch 2 (group 0).
    let _ = handle(&mut c, 0, SwitchId::new(1), &lfib_sync(1, &[(11, 7)]));
    let _ = handle(&mut c, 0, SwitchId::new(5), &lfib_sync(5, &[(20, 7)]));
    let _ = handle(&mut c, 0, SwitchId::new(2), &lfib_sync(2, &[(30, 8)]));

    // An escalated ARP broadcast from group 0 for tenant 7: relayed to the
    // designated switch of group 1 only.
    let mut arp = packet_in(11, 0, 7);
    let mut f = frame(11, 0, 7);
    f.dst = lazyctrl_net::MacAddr::BROADCAST;
    arp.data = f.encode().into();
    let out = handle(
        &mut c,
        1,
        SwitchId::new(0),
        &Message::of(2, OfMessage::PacketIn(arp)),
    );
    assert_eq!(out.len(), 1, "one designated relay: {out:?}");
    let ControllerOutput::ToSwitch(s, _) = &out[0] else {
        panic!()
    };
    let designated_g1 = c
        .grouping()
        .designated_of(c.grouping().group_of(SwitchId::new(5)).unwrap())
        .unwrap();
    assert_eq!(*s, designated_g1);

    // Same for tenant 8 (entirely in group 0): nothing to relay.
    let mut arp = packet_in(30, 0, 8);
    let mut f = frame(30, 0, 8);
    f.dst = lazyctrl_net::MacAddr::BROADCAST;
    arp.data = f.encode().into();
    let out = handle(
        &mut c,
        2,
        SwitchId::new(0),
        &Message::of(3, OfMessage::PacketIn(arp)),
    );
    assert!(
        out.is_empty(),
        "tenant confined to the origin group: {out:?}"
    );
}

#[test]
fn false_positive_report_corrects_the_sender() {
    let (mut c, _) = controller();
    let _ = handle(&mut c, 0, SwitchId::new(5), &lfib_sync(5, &[(20, 7)]));
    // Switch 6 received a mis-forwarded tunnel packet from switch 0.
    let encap = lazyctrl_net::EncapsulatedFrame::new(
        lazyctrl_net::EncapHeader::new(
            SwitchId::new(0).underlay_ip(),
            SwitchId::new(6).underlay_ip(),
            TenantId::new(7),
            1,
        ),
        frame(10, 20, 7),
    );
    let pi = PacketInMsg {
        buffer_id: u32::MAX,
        in_port: PortNo::NONE,
        reason: PacketInReason::FalsePositive,
        data: encap.encode().into(),
    };
    let out = handle(
        &mut c,
        1,
        SwitchId::new(6),
        &Message::of(4, OfMessage::PacketIn(pi)),
    );
    assert_eq!(out.len(), 1);
    let ControllerOutput::ToSwitch(s, m) = &out[0] else {
        panic!()
    };
    assert_eq!(*s, SwitchId::new(0), "corrective rule goes to the sender");
    match &m.body {
        MessageBody::Of(OfMessage::FlowMod(fm)) => {
            assert_eq!(fm.priority, 20, "must outrank the G-FIB path");
            assert!(matches!(fm.actions[0], Action::Encap { remote, .. }
                if remote == SwitchId::new(5).underlay_ip()));
        }
        other => panic!("expected FlowMod, got {other:?}"),
    }
}

#[test]
fn keepalive_timer_probes_every_switch() {
    let (mut c, _) = controller();
    let out = fire_timer(&mut c, 1_000_000_000, ControllerTimer::KeepAlive);
    let probes = out
        .iter()
        .filter(|o| {
            matches!(o, ControllerOutput::ToSwitch(_, m)
                if matches!(m.as_lazy(), Some(LazyMsg::KeepAlive(_))))
        })
        .count();
    assert_eq!(probes, 8);
    assert!(out
        .iter()
        .any(|o| matches!(o, ControllerOutput::SetTimer(ControllerTimer::KeepAlive, _))));
}

#[test]
fn dead_switch_triggers_designated_reselection() {
    let (mut c, _) = controller();
    let victim = c.grouping().designated_of(0).unwrap();
    // Both ring neighbours report silence.
    let up = WheelReportMsg {
        reporter: SwitchId::new(99),
        missing: victim,
        loss: WheelLoss::Upstream,
    };
    let down = WheelReportMsg {
        reporter: SwitchId::new(98),
        missing: victim,
        loss: WheelLoss::Downstream,
    };
    let _ = handle(
        &mut c,
        0,
        SwitchId::new(99),
        &Message::lazy(1, LazyMsg::WheelReport(up)),
    );
    let out = handle(
        &mut c,
        1,
        SwitchId::new(98),
        &Message::lazy(2, LazyMsg::WheelReport(down)),
    );
    // The group re-forms without the victim.
    let assigns: Vec<_> = out
        .iter()
        .filter_map(|o| match o {
            ControllerOutput::ToSwitch(s, m) => match m.as_lazy() {
                Some(LazyMsg::GroupAssign(ga)) => Some((s, ga)),
                _ => None,
            },
            _ => None,
        })
        .collect();
    assert!(!assigns.is_empty(), "reselection must reassign: {out:?}");
    for (_, ga) in &assigns {
        assert!(!ga.members.contains(&victim));
        assert_ne!(ga.designated, victim);
    }
    assert_eq!(c.failover().down_switches(), vec![victim]);
    // The victim comes back: any message from it triggers a resync.
    let hello = Message::of(9, OfMessage::Hello);
    let out = handle(&mut c, 10, victim, &hello);
    assert!(
        out.iter()
            .any(|o| matches!(o, ControllerOutput::ToSwitch(_, m)
            if matches!(m.as_lazy(), Some(LazyMsg::GroupAssign(_))))),
        "comeback must resync the group: {out:?}"
    );
    assert!(c.failover().down_switches().is_empty());
}

#[test]
fn workload_counts_every_message() {
    let (mut c, _) = controller();
    for i in 0..10u64 {
        let _ = handle(
            &mut c,
            i,
            SwitchId::new(0),
            &Message::of(1, OfMessage::PacketIn(packet_in(10, 20, 7))),
        );
    }
    assert_eq!(c.meter().total(), 10);
}

#[test]
fn bargaining_sets_the_group_size() {
    let switches: Vec<SwitchId> = (0..8).map(SwitchId::new).collect();
    let mut c = LazyController::new(switches, LazyConfig::default());
    let outcome = c.negotiate_group_size(20, 100);
    assert!((20..=100).contains(&outcome.agreed_limit));
    assert!(!outcome.transcript.is_empty());
}

#[test]
fn static_mode_never_regroups() {
    let switches: Vec<SwitchId> = (0..8).map(SwitchId::new).collect();
    let cfg = LazyConfig {
        group_size_limit: 4,
        dynamic_updates: false,
        ..LazyConfig::default()
    };
    let mut c = LazyController::new(switches, cfg);
    {
        let mut sink = OutputSink::new();
        c.bootstrap(0, bootstrap_graph(), &mut sink);
    }
    let updates_before = c.grouping().updates_applied();
    // Hammer the regroup timer far past every trigger.
    for i in 1..10u64 {
        let out = fire_timer(&mut c, i * 600_000_000_000, ControllerTimer::RegroupCheck);
        let assigns = out
            .iter()
            .filter(|o| {
                matches!(o, ControllerOutput::ToSwitch(_, m)
                    if matches!(m.as_lazy(), Some(LazyMsg::GroupAssign(_))))
            })
            .count();
        assert_eq!(assigns, 0, "static mode must not reassign");
    }
    assert_eq!(c.grouping().updates_applied(), updates_before);
}

/// Two 4-switch clusters whose ties are weak enough for a few dozen punts
/// to outweigh them.
fn regroup_fixture() -> LazyController {
    let cfg = LazyConfig {
        group_size_limit: 4,
        ..LazyConfig::default()
    };
    let mut c = LazyController::new((0..8).map(SwitchId::new).collect(), cfg);
    c.bootstrap(0, two_cliques(0.01), &mut OutputSink::new());
    // Host 10·s (and 10·s+1 on switches 3 and 4) lives on switch s.
    for s in 0..8u32 {
        let mut hosts = vec![(10 * s, 7)];
        if s == 3 || s == 4 {
            hosts.push((10 * s + 1, 7));
        }
        let _ = handle(&mut c, 0, SwitchId::new(s), &lfib_sync(s, &hosts));
    }
    // Switch 3 now talks to the other cluster and switch 7 to this one.
    for round in 0..40u64 {
        for (from, to) in [(3u32, 4u32), (3, 5), (3, 6), (7, 0), (7, 1), (7, 2)] {
            let msg = Message::of(1, OfMessage::PacketIn(packet_in(10 * from, 10 * to, 7)));
            let _ = handle(&mut c, 1 + round, SwitchId::new(from), &msg);
        }
    }
    c
}

/// The Appendix-B preload is a message *sequence*: its order fixes the
/// xids and, downstream, the order of the simulator's per-message RNG
/// draws. However the hosts behind a switch are found, this must not move.
#[test]
fn preload_emits_a_pinned_flow_mod_sequence() {
    let mut c = regroup_fixture();
    let groups = |c: &LazyController| -> Vec<usize> {
        (0..8)
            .map(|s| c.grouping().group_of(SwitchId::new(s)).unwrap())
            .collect()
    };
    assert_eq!(groups(&c), [1, 1, 1, 1, 0, 0, 0, 0]);
    let out = fire_timer(&mut c, 360_000_000_000, ControllerTimer::RegroupCheck);
    // Two moves: switch 3 and switch 7 trade places.
    assert_eq!(groups(&c), [1, 1, 1, 0, 0, 0, 0, 1]);

    let got: Vec<_> = out
        .iter()
        .filter_map(|o| match o {
            ControllerOutput::ToSwitch(s, m) => match &m.body {
                MessageBody::Of(OfMessage::FlowMod(fm)) => {
                    assert_eq!((fm.priority, fm.idle_timeout, fm.hard_timeout), (10, 30, 0));
                    Some((s.0, m.xid, fm.flow_match, fm.cookie, fm.actions.to_vec()))
                }
                _ => None,
            },
            _ => None,
        })
        .collect();
    // (target switch, xid, destination host, switch the tunnel leads to);
    // every rule carries the post-update epoch 2 as cookie and tunnel key.
    // Per move: for each current member of the group it left, the peer's
    // rules towards the moved switch's hosts (MAC order), then the moved
    // switch's rules towards that peer's hosts.
    let want: Vec<_> = [
        // Switch 3 left group 1, now {0, 1, 2, 7}.
        (0, 497, 30, 3),
        (0, 498, 31, 3),
        (3, 499, 0, 0),
        (1, 500, 30, 3),
        (1, 501, 31, 3),
        (3, 502, 10, 1),
        (2, 503, 30, 3),
        (2, 504, 31, 3),
        (3, 505, 20, 2),
        (7, 506, 30, 3),
        (7, 507, 31, 3),
        (3, 508, 70, 7),
        // Switch 7 left group 0, now {3, 4, 5, 6}.
        (3, 509, 70, 7),
        (7, 510, 30, 3),
        (7, 511, 31, 3),
        (4, 512, 70, 7),
        (7, 513, 40, 4),
        (7, 514, 41, 4),
        (5, 515, 70, 7),
        (7, 516, 50, 5),
        (6, 517, 70, 7),
        (7, 518, 60, 6),
    ]
    .into_iter()
    .map(|(target, xid, dst_host, towards): (u32, u32, u32, u32)| {
        (
            target,
            xid,
            FlowMatch::to_dst(HostId::new(dst_host).mac()),
            2u64,
            vec![Action::Encap {
                remote: SwitchId::new(towards).underlay_ip(),
                key: 2,
            }],
        )
    })
    .collect();
    assert_eq!(got, want);
}
