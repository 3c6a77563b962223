//! Behavioural tests for the composed edge switch: group assignment, the
//! ARP cascade, tunnelling, sync timers and keep-alives.

use lazyctrl_net::{
    ArpPacket, EtherType, EthernetFrame, GroupId, HostId, MacAddr, PortNo, SwitchId, TenantId,
    VlanTag,
};
use lazyctrl_proto::{
    Action, FlowMatch, FlowModCommand, FlowModMsg, GroupAssignMsg, LazyMsg, Message, MessageBody,
    OfMessage, OutputSink, PacketInReason,
};
use lazyctrl_switch::{EdgeSwitch, SwitchOutput, SwitchTimer};

/// Runs one sink-based handler and returns its outputs as a `Vec` (test
/// convenience mirroring the pre-sink API).
fn collect(f: impl FnOnce(&mut OutputSink<SwitchOutput>)) -> Vec<SwitchOutput> {
    let mut sink = OutputSink::new();
    f(&mut sink);
    sink.take_buf()
}

fn host_frame(src: u32, dst: u32, tenant: u16) -> EthernetFrame {
    EthernetFrame::tagged(
        HostId::new(src).mac(),
        HostId::new(dst).mac(),
        VlanTag::for_tenant(TenantId::new(tenant)),
        EtherType::IPV4,
        vec![0xab; 40],
    )
}

fn arp_request(src: u32, target: u32, tenant: u16) -> EthernetFrame {
    let arp = ArpPacket::request(
        HostId::new(src).mac(),
        HostId::new(src).ip(),
        HostId::new(target).ip(),
    );
    EthernetFrame::tagged(
        HostId::new(src).mac(),
        MacAddr::BROADCAST,
        VlanTag::for_tenant(TenantId::new(tenant)),
        EtherType::ARP,
        arp.encode(),
    )
}

fn group_assign(me_designated: bool) -> GroupAssignMsg {
    GroupAssignMsg {
        group: GroupId::new(0),
        epoch: 1,
        members: vec![SwitchId::new(1), SwitchId::new(2), SwitchId::new(3)],
        designated: if me_designated {
            SwitchId::new(1)
        } else {
            SwitchId::new(2)
        },
        backups: vec![SwitchId::new(3)],
        ring_prev: SwitchId::new(3),
        ring_next: SwitchId::new(2),
        sync_interval_ms: 1000,
        keepalive_interval_ms: 500,
        group_size_limit: 3,
    }
}

fn configured_switch(designated: bool) -> EdgeSwitch {
    let mut sw = EdgeSwitch::new(SwitchId::new(1));
    let msg = Message::lazy(1, LazyMsg::group_assign(group_assign(designated)));
    let _ = collect(|s| sw.handle_control_message(0, &msg, s));
    sw
}

fn controller_msgs(outputs: &[SwitchOutput]) -> Vec<&Message> {
    outputs
        .iter()
        .filter_map(|o| match o {
            SwitchOutput::ToController(m) => Some(m),
            _ => None,
        })
        .collect()
}

#[test]
fn unassigned_switch_punts_unknowns_like_plain_openflow() {
    let mut sw = EdgeSwitch::new(SwitchId::new(1));
    let out = collect(|s| sw.handle_local_frame(0, PortNo::new(1), host_frame(10, 20, 1), s));
    let msgs = controller_msgs(&out);
    assert_eq!(msgs.len(), 1);
    match &msgs[0].body {
        MessageBody::Of(OfMessage::PacketIn(pi)) => {
            assert_eq!(pi.reason, PacketInReason::NoMatch);
        }
        other => panic!("expected PacketIn, got {other:?}"),
    }
    assert_eq!(sw.packet_ins_sent(), 1);
}

#[test]
fn group_assign_installs_state_and_timers() {
    let mut sw = EdgeSwitch::new(SwitchId::new(1));
    // Learn a host first so the assignment triggers an announcement.
    let _ = collect(|s| sw.handle_local_frame(0, PortNo::new(4), host_frame(10, 11, 1), s));
    let msg = Message::lazy(1, LazyMsg::group_assign(group_assign(false)));
    let out = collect(|s| sw.handle_control_message(0, &msg, s));

    assert!(sw.group().is_some());
    assert!(!sw.is_designated());
    let timers: Vec<SwitchTimer> = out
        .iter()
        .filter_map(|o| match o {
            SwitchOutput::SetTimer(t, _) => Some(*t),
            _ => None,
        })
        .collect();
    assert!(timers.contains(&SwitchTimer::PeerSync));
    assert!(timers.contains(&SwitchTimer::KeepAlive));
    // L-FIB announcement heads to the designated switch (S2).
    let to_designated: Vec<_> = out
        .iter()
        .filter(|o| matches!(o, SwitchOutput::ToPeer(s, _) if *s == SwitchId::new(2)))
        .collect();
    assert!(
        to_designated.len() >= 2,
        "expected LfibSync + GfibUpdate to designated, got {out:?}"
    );
}

#[test]
fn local_destination_is_delivered_locally() {
    let mut sw = configured_switch(false);
    // Host 20 attaches locally (we learn it from its own traffic).
    let _ = collect(|s| sw.handle_local_frame(0, PortNo::new(7), host_frame(20, 99, 1), s));
    // Traffic towards 20 now short-circuits in the data plane.
    let out = collect(|s| sw.handle_local_frame(1, PortNo::new(1), host_frame(10, 20, 1), s));
    assert!(
        matches!(
            out.as_slice(),
            [SwitchOutput::DeliverLocal(p, _)] if *p == PortNo::new(7)
        ),
        "got {out:?}"
    );
    assert_eq!(sw.packet_ins_sent(), 1, "only host 99 punted earlier");
}

#[test]
fn gfib_hit_tunnels_with_epoch_key() {
    let mut sw = configured_switch(false);
    // Peer S3 advertises host 30.
    let update =
        lazyctrl_switch::build_gfib_update(SwitchId::new(3), 1, vec![HostId::new(30).mac()]);
    let msg = Message::lazy(5, LazyMsg::gfib_update(update));
    let _ = collect(|s| sw.handle_control_message(0, &msg, s));
    let out = collect(|s| sw.handle_local_frame(1, PortNo::new(1), host_frame(10, 30, 1), s));
    match out.as_slice() {
        [SwitchOutput::Tunnel(target, encap)] => {
            assert_eq!(*target, SwitchId::new(3));
            assert_eq!(encap.header.key, 1, "epoch stamped into tunnel header");
            assert_eq!(encap.header.dst, SwitchId::new(3).underlay_ip());
            assert_eq!(encap.inner.dst, HostId::new(30).mac());
        }
        other => panic!("expected a single tunnel, got {other:?}"),
    }
}

#[test]
fn tunnel_delivery_and_false_positive_drop() {
    let mut tx = configured_switch(false);
    let mut rx = EdgeSwitch::new(SwitchId::new(3));
    // rx knows host 30 locally.
    let _ = collect(|s| rx.handle_local_frame(0, PortNo::new(2), host_frame(30, 99, 1), s));

    let update =
        lazyctrl_switch::build_gfib_update(SwitchId::new(3), 1, vec![HostId::new(30).mac()]);
    let msg = Message::lazy(5, LazyMsg::gfib_update(update));
    let _ = collect(|s| tx.handle_control_message(0, &msg, s));
    let out = collect(|s| tx.handle_local_frame(1, PortNo::new(1), host_frame(10, 30, 1), s));
    let SwitchOutput::Tunnel(_, encap) = &out[0] else {
        panic!("expected tunnel");
    };
    // Delivered at rx.
    let delivery = collect(|s| rx.handle_tunnel_packet(2, encap.clone(), s));
    assert!(
        matches!(
            delivery.as_slice(),
            [SwitchOutput::DeliverLocal(p, _)] if *p == PortNo::new(2)
        ),
        "got {delivery:?}"
    );
    // A mis-forwarded copy (host unknown at rx) is silently dropped.
    let mut bogus = encap.clone();
    bogus.inner.dst = HostId::new(12345).mac();
    let dropped = collect(|s| rx.handle_tunnel_packet(3, bogus, s));
    assert!(dropped.is_empty(), "false positive must drop: {dropped:?}");
}

#[test]
fn false_positive_reporting_is_optional() {
    let mut rx = EdgeSwitch::new(SwitchId::new(3));
    rx.report_false_positives = true;
    let encap = lazyctrl_net::EncapsulatedFrame::new(
        lazyctrl_net::EncapHeader::new(
            SwitchId::new(1).underlay_ip(),
            SwitchId::new(3).underlay_ip(),
            TenantId::new(1),
            0,
        ),
        host_frame(10, 777, 1),
    );
    let out = collect(|s| rx.handle_tunnel_packet(0, encap, s));
    let msgs = controller_msgs(&out);
    assert_eq!(msgs.len(), 1);
    match &msgs[0].body {
        MessageBody::Of(OfMessage::PacketIn(pi)) => {
            assert_eq!(pi.reason, PacketInReason::FalsePositive);
        }
        other => panic!("expected FalsePositive PacketIn, got {other:?}"),
    }
}

#[test]
fn arp_cascade_level_one_floods_locally() {
    let mut sw = configured_switch(false);
    let _ = collect(|s| sw.handle_local_frame(0, PortNo::new(7), host_frame(20, 99, 1), s));
    let out = collect(|s| sw.handle_local_frame(1, PortNo::new(1), arp_request(10, 20, 1), s));
    assert!(
        matches!(out.as_slice(), [SwitchOutput::FloodLocal(_)]),
        "local target: flood locally only, got {out:?}"
    );
}

#[test]
fn arp_cascade_level_two_tunnels_to_candidates() {
    let mut sw = configured_switch(false);
    let update =
        lazyctrl_switch::build_gfib_update(SwitchId::new(3), 1, vec![HostId::new(30).mac()]);
    let msg = Message::lazy(5, LazyMsg::gfib_update(update));
    let _ = collect(|s| sw.handle_control_message(0, &msg, s));
    let out = collect(|s| sw.handle_local_frame(1, PortNo::new(1), arp_request(10, 30, 1), s));
    assert!(
        matches!(out.as_slice(), [SwitchOutput::Tunnel(s, _)] if *s == SwitchId::new(3)),
        "got {out:?}"
    );
}

#[test]
fn arp_cascade_level_two_b_asks_designated() {
    let mut sw = configured_switch(false);
    let out = collect(|s| sw.handle_local_frame(1, PortNo::new(1), arp_request(10, 555, 1), s));
    assert!(
        matches!(
            out.as_slice(),
            [SwitchOutput::ToPeer(s, m)]
                if *s == SwitchId::new(2)
                    && matches!(m.body, MessageBody::Of(OfMessage::PacketOut(_)))
        ),
        "unknown target goes to designated switch, got {out:?}"
    );
    assert_eq!(sw.packet_ins_sent(), 0, "member must not punt ARP itself");
}

#[test]
fn designated_broadcasts_and_escalates() {
    let mut sw = configured_switch(true);
    assert!(sw.is_designated());
    let out = collect(|s| sw.handle_local_frame(1, PortNo::new(1), arp_request(10, 555, 1), s));
    let tunnels = out
        .iter()
        .filter(|o| matches!(o, SwitchOutput::Tunnel(_, _)))
        .count();
    assert_eq!(tunnels, 2, "broadcast to both other members: {out:?}");
    assert!(out.iter().any(|o| matches!(o, SwitchOutput::FloodLocal(_))));
    assert_eq!(controller_msgs(&out).len(), 1, "escalation to controller");
}

#[test]
fn blocked_tenant_arp_never_reaches_controller() {
    let mut sw = configured_switch(true);
    let block = Message::lazy(
        9,
        LazyMsg::BlockArp {
            tenant: TenantId::new(1),
            block: true,
        },
    );
    let _ = collect(|s| sw.handle_control_message(0, &block, s));
    let out = collect(|s| sw.handle_local_frame(1, PortNo::new(1), arp_request(10, 555, 1), s));
    assert!(
        controller_msgs(&out).is_empty(),
        "blocked tenant escalated anyway: {out:?}"
    );
    // Unblock restores escalation.
    let unblock = Message::lazy(
        10,
        LazyMsg::BlockArp {
            tenant: TenantId::new(1),
            block: false,
        },
    );
    let _ = collect(|s| sw.handle_control_message(2, &unblock, s));
    let out = collect(|s| sw.handle_local_frame(3, PortNo::new(1), arp_request(10, 556, 1), s));
    assert_eq!(controller_msgs(&out).len(), 1);
}

#[test]
fn flow_mod_and_stats_round_trip() {
    let mut sw = configured_switch(false);
    let fm = Message::of(
        2,
        OfMessage::flow_mod(FlowModMsg {
            command: FlowModCommand::Add,
            flow_match: FlowMatch::to_dst(HostId::new(40).mac()),
            priority: 10,
            idle_timeout: 0,
            hard_timeout: 0,
            cookie: 7,
            actions: vec![Action::Drop].into(),
        }),
    );
    let _ = collect(|s| sw.handle_control_message(0, &fm, s));
    assert_eq!(sw.flow_table().len(), 1);
    // Matching traffic is dropped by the rule, not punted.
    let out = collect(|s| sw.handle_local_frame(1, PortNo::new(1), host_frame(10, 40, 1), s));
    assert!(out.is_empty(), "rule says drop, got {out:?}");

    let stats_req = Message::of(3, OfMessage::StatsRequest);
    let out = collect(|s| sw.handle_control_message(2, &stats_req, s));
    match &controller_msgs(&out)[0].body {
        MessageBody::Of(OfMessage::StatsReply { flows, .. }) => assert_eq!(*flows, 1),
        other => panic!("expected StatsReply, got {other:?}"),
    }
}

#[test]
fn echo_and_features_replies() {
    let mut sw = EdgeSwitch::new(SwitchId::new(9));
    let echo = Message::of(4, OfMessage::EchoRequest(vec![1, 2]));
    let out = collect(|s| sw.handle_control_message(0, &echo, s));
    assert!(matches!(
        &controller_msgs(&out)[0].body,
        MessageBody::Of(OfMessage::EchoReply(d)) if d == &vec![1, 2]
    ));
    let features = Message::of(5, OfMessage::FeaturesRequest);
    let out = collect(|s| sw.handle_control_message(0, &features, s));
    assert!(matches!(
        &controller_msgs(&out)[0].body,
        MessageBody::Of(OfMessage::FeaturesReply { datapath_id: 9, .. })
    ));
}

#[test]
fn peer_sync_timer_reports_state() {
    let mut sw = configured_switch(false);
    let _ = collect(|s| sw.handle_local_frame(0, PortNo::new(7), host_frame(20, 99, 1), s));
    let out = collect(|s| sw.on_timer(1_000_000_000, SwitchTimer::PeerSync, s));
    // A non-designated member sends LfibSync + GfibUpdate + StateReport to
    // the designated switch, and re-arms the timer.
    let to_designated = out
        .iter()
        .filter(|o| matches!(o, SwitchOutput::ToPeer(s, _) if *s == SwitchId::new(2)))
        .count();
    assert!(
        to_designated >= 3,
        "expected 3 messages to designated: {out:?}"
    );
    assert!(out
        .iter()
        .any(|o| matches!(o, SwitchOutput::SetTimer(SwitchTimer::PeerSync, _))));
}

#[test]
fn designated_sync_timer_reports_upward() {
    let mut sw = configured_switch(true);
    let _ = collect(|s| sw.handle_local_frame(0, PortNo::new(7), host_frame(20, 99, 1), s));
    let out = collect(|s| sw.on_timer(1_000_000_000, SwitchTimer::PeerSync, s));
    let to_state = out
        .iter()
        .filter(|o| matches!(o, SwitchOutput::ToState(_)))
        .count();
    assert!(
        to_state >= 2,
        "LfibSync + StateReport on state link: {out:?}"
    );
}

#[test]
fn keepalive_timer_probes_ring() {
    let mut sw = configured_switch(false);
    let out = collect(|s| sw.on_timer(500_000_000, SwitchTimer::KeepAlive, s));
    let probes: Vec<SwitchId> = out
        .iter()
        .filter_map(|o| match o {
            SwitchOutput::ToPeer(s, m) if matches!(m.as_lazy(), Some(LazyMsg::KeepAlive(_))) => {
                Some(*s)
            }
            _ => None,
        })
        .collect();
    assert_eq!(probes, vec![SwitchId::new(3), SwitchId::new(2)]);
}

#[test]
fn wheel_report_relay_goes_up_the_control_link() {
    let mut sw = configured_switch(false);
    let report = lazyctrl_proto::WheelReportMsg {
        reporter: SwitchId::new(3),
        missing: SwitchId::new(3),
        loss: lazyctrl_proto::WheelLoss::Controller,
    };
    let msg = Message::lazy(11, LazyMsg::WheelReport(report));
    let out = collect(|s| sw.handle_peer_message(0, SwitchId::new(3), &msg, s));
    assert!(
        matches!(
            out.as_slice(),
            [SwitchOutput::ToController(m)]
                if matches!(m.as_lazy(), Some(LazyMsg::WheelReport(r)) if *r == report)
        ),
        "got {out:?}"
    );
}

#[test]
fn congestion_notice_paces_punts_and_flushes_at_window_close() {
    let mut sw = EdgeSwitch::new(SwitchId::new(1));
    // Pressure notice from the controller opens a pace window.
    let cn = Message::lazy(
        7,
        LazyMsg::CongestionNotice(lazyctrl_proto::CongestionNoticeMsg { from: 0, level: 1 }),
    );
    let out = collect(|s| sw.handle_control_message(1_000, &cn, s));
    assert!(sw.is_pacing(2_000));
    let flush_delay = out
        .iter()
        .find_map(|o| match o {
            SwitchOutput::SetTimer(SwitchTimer::PaceFlush, d) => Some(*d),
            _ => None,
        })
        .expect("pressure must arm a PaceFlush timer");

    // An unknown destination now defers its punt instead of sending it.
    let out = collect(|s| sw.handle_local_frame(2_000, PortNo::new(1), host_frame(10, 20, 1), s));
    assert!(
        controller_msgs(&out).is_empty(),
        "paced punt leaked: {out:?}"
    );
    assert_eq!(sw.punts_paced(), 1);

    // Window close releases the deferred setup and decays the backoff.
    let depth = sw.pace_attempts();
    let out = collect(|s| sw.on_timer(1_000 + flush_delay, SwitchTimer::PaceFlush, s));
    let msgs = controller_msgs(&out);
    assert_eq!(msgs.len(), 1, "flush must release the deferred punt");
    assert!(matches!(
        &msgs[0].body,
        MessageBody::Of(OfMessage::PacketIn(pi)) if pi.reason == PacketInReason::NoMatch
    ));
    assert_eq!(sw.pace_attempts(), depth - 1);
    assert!(!sw.is_pacing(1_000 + flush_delay));
}

#[test]
fn pacing_never_defers_keepalives_or_wheel_reports() {
    let mut sw = configured_switch(false);
    let cn = Message::lazy(
        8,
        LazyMsg::CongestionNotice(lazyctrl_proto::CongestionNoticeMsg { from: 0, level: 6 }),
    );
    let _ = collect(|s| sw.handle_control_message(0, &cn, s));
    assert!(sw.is_pacing(1_000_000));

    // Keep-alive tick still emits its peer keepalives while paced.
    let out = collect(|s| sw.on_timer(500_000_000, SwitchTimer::KeepAlive, s));
    assert!(
        out.iter().any(|o| matches!(
            o,
            SwitchOutput::ToPeer(_, m) if matches!(m.as_lazy(), Some(LazyMsg::KeepAlive(_)))
        )),
        "keepalives must not pace: {out:?}"
    );

    // A relayed wheel report still goes straight up the control link.
    let report = lazyctrl_proto::WheelReportMsg {
        reporter: SwitchId::new(3),
        missing: SwitchId::new(3),
        loss: lazyctrl_proto::WheelLoss::Controller,
    };
    let msg = Message::lazy(12, LazyMsg::WheelReport(report));
    let out = collect(|s| sw.handle_peer_message(1_000, SwitchId::new(3), &msg, s));
    assert!(
        matches!(out.as_slice(), [SwitchOutput::ToController(_)]),
        "wheel report must not pace: {out:?}"
    );
}

#[test]
fn pace_buffer_overflow_drops_oldest() {
    let mut sw = EdgeSwitch::new(SwitchId::new(1));
    let cn = Message::lazy(
        9,
        LazyMsg::CongestionNotice(lazyctrl_proto::CongestionNoticeMsg { from: 0, level: 6 }),
    );
    let _ = collect(|s| sw.handle_control_message(0, &cn, s));
    for i in 0..100u32 {
        let out =
            collect(|s| sw.handle_local_frame(1_000, PortNo::new(1), host_frame(10, 20 + i, 1), s));
        assert!(controller_msgs(&out).is_empty());
    }
    assert_eq!(sw.punts_paced(), 100);
    assert!(sw.pace_drops() > 0, "overflow must drop the oldest punts");
    assert_eq!(sw.punts_paced() - sw.pace_drops(), 64);
}
