//! Differential test for the sink-based dispatch refactor: the same
//! scripted scenario driven twice through identical switches — once
//! through a single **reused** `OutputSink` (the world's steady-state
//! path, where the scratch buffer lives for the whole run) and once
//! through a **fresh sink per event** (the debug shim equivalent of the
//! old `Vec<SwitchOutput>`-returning handlers). The full ordered output
//! sequences must be identical: sink reuse must not leak state between
//! events, reorder effects, or drop anything.

use lazyctrl_net::{
    ArpPacket, EncapHeader, EncapsulatedFrame, EtherType, EthernetFrame, GroupId, HostId, MacAddr,
    PortNo, SwitchId, TenantId, VlanTag,
};
use lazyctrl_proto::{
    Action, FlowMatch, FlowModCommand, FlowModMsg, GroupAssignMsg, LazyMsg, Message, OfMessage,
    OutputSink, PacketOutMsg,
};
use lazyctrl_switch::{EdgeSwitch, SwitchOutput, SwitchTimer};

/// One scripted input event for the switch under test.
enum Input {
    Local(u64, PortNo, EthernetFrame),
    Tunnel(u64, EncapsulatedFrame),
    Control(u64, Message),
    Peer(u64, SwitchId, Message),
    Timer(u64, SwitchTimer),
}

fn data_frame(src: u32, dst: u32, tenant: u16) -> EthernetFrame {
    EthernetFrame::tagged(
        HostId::new(src).mac(),
        HostId::new(dst).mac(),
        VlanTag::for_tenant(TenantId::new(tenant)),
        EtherType::IPV4,
        vec![0xcd; 24],
    )
}

fn arp_frame(src: u32, target: u32, tenant: u16) -> EthernetFrame {
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

/// A mini-scenario covering every handler on the per-event path: group
/// assignment, local data frames (hit/miss/punt), the three ARP cascade
/// levels, tunnel delivery and false-positive drop, flow-rule
/// application, peer relays, and the periodic timers.
fn script() -> Vec<Input> {
    let ga = GroupAssignMsg {
        group: GroupId::new(0),
        epoch: 1,
        members: vec![SwitchId::new(1), SwitchId::new(2), SwitchId::new(3)],
        designated: SwitchId::new(1), // the switch under test is designated
        backups: vec![SwitchId::new(2)],
        ring_prev: SwitchId::new(3),
        ring_next: SwitchId::new(2),
        sync_interval_ms: 1000,
        keepalive_interval_ms: 500,
        group_size_limit: 3,
    };
    let gfib = lazyctrl_switch::build_gfib_update(SwitchId::new(3), 1, vec![HostId::new(30).mac()]);
    let flow_mod = FlowModMsg {
        command: FlowModCommand::Add,
        flow_match: FlowMatch::to_dst(HostId::new(40).mac()),
        priority: 10,
        idle_timeout: 30,
        hard_timeout: 0,
        cookie: 1,
        actions: vec![Action::Encap {
            remote: SwitchId::new(9).underlay_ip(),
            key: 1,
        }]
        .into(),
    };
    let relayed_arp = Message::of(
        77,
        OfMessage::PacketOut(PacketOutMsg {
            buffer_id: u32::MAX,
            in_port: PortNo::new(3),
            actions: vec![Action::Output(PortNo::FLOOD)].into(),
            data: arp_frame(50, 60, 1).encode().into(),
        }),
    );
    let tunnel_hit = EncapsulatedFrame::new(
        EncapHeader::new(
            SwitchId::new(2).underlay_ip(),
            SwitchId::new(1).underlay_ip(),
            TenantId::new(1),
            1,
        ),
        data_frame(10, 20, 1),
    );
    let tunnel_fp = EncapsulatedFrame::new(
        EncapHeader::new(
            SwitchId::new(2).underlay_ip(),
            SwitchId::new(1).underlay_ip(),
            TenantId::new(1),
            1,
        ),
        data_frame(10, 777, 1),
    );
    vec![
        Input::Control(0, Message::lazy(1, LazyMsg::group_assign(ga))),
        // Learn host 20 locally, then hit it.
        Input::Local(1_000, PortNo::new(7), data_frame(20, 99, 1)),
        Input::Local(2_000, PortNo::new(1), data_frame(10, 20, 1)),
        // G-FIB learns host 30 at S3, then a frame and an ARP tunnel out.
        Input::Control(3_000, Message::lazy(2, LazyMsg::gfib_update(gfib))),
        Input::Local(4_000, PortNo::new(1), data_frame(10, 30, 1)),
        Input::Local(5_000, PortNo::new(1), arp_frame(10, 30, 1)),
        // Unknown target: designated broadcast + controller escalation.
        Input::Local(6_000, PortNo::new(1), arp_frame(10, 555, 1)),
        // Flow rule install + rule-forwarded frame.
        Input::Control(7_000, Message::of(3, OfMessage::flow_mod(flow_mod))),
        Input::Local(8_000, PortNo::new(1), data_frame(10, 40, 1)),
        // Tunnel delivery and a bloom false positive (silent drop).
        Input::Tunnel(9_000, tunnel_hit),
        Input::Tunnel(10_000, tunnel_fp),
        // Peer relays: a member-escalated ARP broadcast.
        Input::Peer(11_000, SwitchId::new(2), relayed_arp),
        // Periodic machinery.
        Input::Timer(500_000_000, SwitchTimer::KeepAlive),
        Input::Timer(1_000_000_000, SwitchTimer::PeerSync),
        Input::Timer(1_500_000_000, SwitchTimer::KeepAlive),
        Input::Local(1_600_000_000, PortNo::new(1), data_frame(10, 20, 1)),
    ]
}

fn drive(sw: &mut EdgeSwitch, input: &Input, sink: &mut OutputSink<SwitchOutput>) {
    match input {
        Input::Local(now, port, frame) => sw.handle_local_frame(*now, *port, frame.clone(), sink),
        Input::Tunnel(now, encap) => sw.handle_tunnel_packet(*now, encap.clone(), sink),
        Input::Control(now, msg) => sw.handle_control_message(*now, msg, sink),
        Input::Peer(now, from, msg) => sw.handle_peer_message(*now, *from, msg, sink),
        Input::Timer(now, timer) => sw.on_timer(*now, *timer, sink),
    }
}

#[test]
fn reused_sink_matches_fresh_sink_per_event() {
    let inputs = script();

    // Path A: the world's steady-state pattern — one sink, drained (and
    // its capacity kept) after every event.
    let mut sw_a = EdgeSwitch::new(SwitchId::new(1));
    let mut reused = OutputSink::new();
    let mut outputs_a: Vec<Vec<SwitchOutput>> = Vec::new();
    for input in &inputs {
        drive(&mut sw_a, input, &mut reused);
        let buf = reused.take_buf();
        outputs_a.push(buf.clone());
        reused.put_back(buf);
    }

    // Path B: the debug shim — a fresh sink per event, collecting into a
    // Vec exactly like the pre-refactor `Vec<SwitchOutput>` returns.
    let mut sw_b = EdgeSwitch::new(SwitchId::new(1));
    let mut outputs_b: Vec<Vec<SwitchOutput>> = Vec::new();
    for input in &inputs {
        let mut fresh = OutputSink::new();
        drive(&mut sw_b, input, &mut fresh);
        outputs_b.push(fresh.take_buf());
    }

    assert_eq!(outputs_a.len(), outputs_b.len());
    for (i, (a, b)) in outputs_a.iter().zip(&outputs_b).enumerate() {
        assert_eq!(a, b, "event #{i}: sink reuse changed the output sequence");
    }
    // The scenario actually exercised the machine: outputs flowed.
    let total: usize = outputs_a.iter().map(Vec::len).sum();
    assert!(total >= 15, "scenario too quiet ({total} outputs)");
    assert_eq!(sw_a.packets_processed(), sw_b.packets_processed());
    assert_eq!(sw_a.packet_ins_sent(), sw_b.packet_ins_sent());
}

/// The reused sink must always be handed to handlers empty (the driver
/// contract), and handlers must never read what the driver left: a
/// poisoned-capacity sink (cleared but previously large) behaves
/// identically to a brand new one.
#[test]
fn sink_capacity_reuse_is_invisible() {
    let inputs = script();
    let mut sw_a = EdgeSwitch::new(SwitchId::new(1));
    let mut sw_b = EdgeSwitch::new(SwitchId::new(1));
    let mut big = OutputSink::with_capacity(1024);
    let mut small = OutputSink::new();
    for input in &inputs {
        drive(&mut sw_a, input, &mut big);
        drive(&mut sw_b, input, &mut small);
        assert_eq!(big.as_slice(), small.as_slice());
        big.clear();
        small.clear();
    }
}
