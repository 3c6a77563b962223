//! Property tests: all protocol messages round-trip, `wire_len` equals
//! the encoded length, and the decoder never panics on fuzz input.

use lazyctrl_net::{GroupId, MacAddr, PortNo, SwitchId, TenantId};
use lazyctrl_proto::{
    Action, BargainMsg, ClusterMsg, CtrlHeartbeatMsg, FlowMatch, FlowModCommand, FlowModMsg,
    GroupAssignMsg, HostEntry, KeepAliveMsg, LazyMsg, LfibEntry, LfibSyncMsg, LookupReplyMsg,
    LookupRequestMsg, Message, OfMessage, OwnershipTransferMsg, PacketInMsg, PacketInReason,
    PacketOutMsg, PeerSyncMsg, StateReportMsg, SwitchStats, SyncDigestMsg, SyncRelayMsg,
    TransferReason,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_tenant() -> impl Strategy<Value = TenantId> {
    (0u16..=0x0fff).prop_map(TenantId::new)
}

fn arb_port() -> impl Strategy<Value = PortNo> {
    any::<u16>().prop_map(PortNo::new)
}

fn arb_switch() -> impl Strategy<Value = SwitchId> {
    any::<u32>().prop_map(SwitchId::new)
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        arb_port().prop_map(Action::Output),
        arb_tenant().prop_map(Action::SetVlan),
        Just(Action::StripVlan),
        Just(Action::Drop),
        (any::<[u8; 4]>(), any::<u32>()).prop_map(|(ip, key)| Action::Encap {
            remote: Ipv4Addr::from(ip),
            key,
        }),
    ]
}

fn arb_match() -> impl Strategy<Value = FlowMatch> {
    (
        proptest::option::of(arb_port()),
        proptest::option::of(arb_mac()),
        proptest::option::of(arb_mac()),
        proptest::option::of(arb_tenant()),
        proptest::option::of(any::<u16>()),
    )
        .prop_map(|(in_port, dl_src, dl_dst, dl_vlan, ty)| FlowMatch {
            in_port,
            dl_src,
            dl_dst,
            dl_vlan,
            dl_type: ty.map(lazyctrl_net::EtherType),
        })
}

fn arb_of() -> impl Strategy<Value = OfMessage> {
    prop_oneof![
        Just(OfMessage::Hello),
        Just(OfMessage::FeaturesRequest),
        Just(OfMessage::StatsRequest),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(OfMessage::EchoRequest),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(OfMessage::EchoReply),
        (any::<u64>(), any::<u16>()).prop_map(|(d, p)| OfMessage::FeaturesReply {
            datapath_id: d,
            n_ports: p
        }),
        (any::<u64>(), any::<u32>(), any::<u64>()).prop_map(|(a, b, c)| OfMessage::StatsReply {
            packets: a,
            flows: b,
            packet_ins: c
        }),
        (
            any::<u32>(),
            arb_port(),
            prop_oneof![
                Just(PacketInReason::NoMatch),
                Just(PacketInReason::Action),
                Just(PacketInReason::FalsePositive)
            ],
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(buffer_id, in_port, reason, data)| OfMessage::PacketIn(
                PacketInMsg {
                    buffer_id,
                    in_port,
                    reason,
                    data: data.into()
                }
            )),
        (
            any::<u32>(),
            arb_port(),
            proptest::collection::vec(arb_action(), 0..8),
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(buffer_id, in_port, actions, data)| OfMessage::PacketOut(
                PacketOutMsg {
                    buffer_id,
                    in_port,
                    actions: actions.into(),
                    data: data.into()
                }
            )),
        (
            prop_oneof![
                Just(FlowModCommand::Add),
                Just(FlowModCommand::Modify),
                Just(FlowModCommand::Delete)
            ],
            arb_match(),
            any::<u16>(),
            any::<u16>(),
            any::<u16>(),
            any::<u64>(),
            proptest::collection::vec(arb_action(), 0..8)
        )
            .prop_map(
                |(command, flow_match, priority, idle, hard, cookie, actions)| {
                    OfMessage::flow_mod(FlowModMsg {
                        command,
                        flow_match,
                        priority,
                        idle_timeout: idle,
                        hard_timeout: hard,
                        cookie,
                        actions: actions.into(),
                    })
                }
            ),
    ]
}

fn arb_lazy() -> impl Strategy<Value = LazyMsg> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u32>(),
            proptest::collection::vec(arb_switch(), 1..20),
            arb_switch(),
            proptest::collection::vec(arb_switch(), 0..3),
            arb_switch(),
            arb_switch(),
            any::<u32>(),
            any::<u32>(),
            1u32..1000
        )
            .prop_map(
                |(g, e, members, designated, backups, prev, next, si, ki, lim)| {
                    LazyMsg::group_assign(GroupAssignMsg {
                        group: GroupId::new(g),
                        epoch: e,
                        members,
                        designated,
                        backups,
                        ring_prev: prev,
                        ring_next: next,
                        sync_interval_ms: si,
                        keepalive_interval_ms: ki,
                        group_size_limit: lim,
                    })
                }
            ),
        (
            arb_switch(),
            any::<u32>(),
            proptest::collection::vec(
                (arb_mac(), arb_tenant(), arb_port()).prop_map(|(mac, tenant, port)| LfibEntry {
                    mac,
                    tenant,
                    port
                }),
                0..50
            ),
            proptest::collection::vec(arb_mac(), 0..20)
        )
            .prop_map(|(origin, epoch, entries, removed)| LazyMsg::lfib_sync(
                LfibSyncMsg {
                    origin,
                    epoch,
                    entries,
                    removed
                }
            )),
        (arb_switch(), any::<u64>())
            .prop_map(|(from, seq)| LazyMsg::KeepAlive(KeepAliveMsg { from, seq })),
        (any::<u32>(), any::<bool>(), any::<u32>(), any::<bool>()).prop_map(
            |(round, from_controller, proposed_limit, accept)| LazyMsg::Bargain(BargainMsg {
                round,
                from_controller,
                proposed_limit,
                accept
            })
        ),
        (arb_tenant(), any::<bool>())
            .prop_map(|(tenant, block)| LazyMsg::BlockArp { tenant, block }),
        (
            any::<u32>(),
            any::<u32>(),
            proptest::collection::vec((arb_switch(), arb_switch(), any::<f64>()), 0..20),
            proptest::collection::vec(
                (
                    arb_switch(),
                    any::<f64>(),
                    any::<u64>(),
                    any::<u64>(),
                    any::<u64>()
                )
                    .prop_map(|(s, f, l, g, c)| (
                        s,
                        SwitchStats {
                            new_flows_per_sec: f,
                            local_hits: l,
                            group_hits: g,
                            controller_punts: c
                        }
                    )),
                0..10
            )
        )
            .prop_map(
                |(g, e, intensity, stats)| LazyMsg::state_report(StateReportMsg {
                    group: GroupId::new(g),
                    epoch: e,
                    intensity,
                    stats
                })
            ),
    ]
}

fn arb_host_entry() -> impl Strategy<Value = HostEntry> {
    (arb_mac(), arb_switch(), arb_port(), arb_tenant()).prop_map(|(mac, switch, port, tenant)| {
        HostEntry {
            mac,
            switch,
            port,
            tenant,
        }
    })
}

fn arb_peer_sync() -> impl Strategy<Value = PeerSyncMsg> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        proptest::collection::vec(arb_host_entry(), 0..50),
        proptest::collection::vec((arb_mac(), arb_switch()), 0..20),
    )
        .prop_map(
            |(origin, seq, chunk, summary, entries, removed)| PeerSyncMsg {
                origin,
                seq,
                chunk,
                summary,
                entries,
                removed,
            },
        )
}

fn arb_cluster() -> impl Strategy<Value = ClusterMsg> {
    prop_oneof![
        // Peer sync: C-LIB shard replication.
        arb_peer_sync().prop_map(ClusterMsg::peer_sync),
        // Relay bundle on a ring dissemination edge.
        (
            any::<u32>(),
            proptest::collection::vec(arb_peer_sync(), 0..4)
        )
            .prop_map(|(from, syncs)| ClusterMsg::sync_relay(SyncRelayMsg { from, syncs })),
        // Anti-entropy digest.
        (
            any::<u32>(),
            proptest::collection::vec((any::<u32>(), any::<u64>()), 0..16)
        )
            .prop_map(|(from, heads)| ClusterMsg::sync_digest(SyncDigestMsg { from, heads })),
        // Ownership transfer: rebalance or failover.
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            prop_oneof![
                Just(TransferReason::Rebalance),
                Just(TransferReason::Failover)
            ]
        )
            .prop_map(
                |(epoch, g, from, to, term, reason)| ClusterMsg::OwnershipTransfer(
                    OwnershipTransferMsg {
                        epoch,
                        group: GroupId::new(g),
                        from,
                        to,
                        term,
                        reason
                    }
                )
            ),
        // Heartbeat with load piggyback and leader/term advertisement.
        (
            any::<u32>(),
            any::<u64>(),
            any::<f64>(),
            any::<u32>(),
            any::<u64>(),
            any::<bool>()
        )
            .prop_map(|(from, seq, load_rps, owned_groups, term, leader)| {
                ClusterMsg::Heartbeat(CtrlHeartbeatMsg {
                    from,
                    seq,
                    load_rps,
                    owned_groups,
                    term,
                    leader,
                })
            }),
        // Host lookups (replica-miss fallback).
        (any::<u32>(), arb_mac())
            .prop_map(|(from, mac)| ClusterMsg::LookupRequest(LookupRequestMsg { from, mac })),
        (
            any::<u32>(),
            arb_mac(),
            proptest::option::of(arb_host_entry())
        )
            .prop_map(
                |(from, mac, location)| ClusterMsg::LookupReply(LookupReplyMsg {
                    from,
                    mac,
                    location
                })
            ),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u32>(),
        prop_oneof![
            arb_of().prop_map(lazyctrl_proto::MessageBody::Of),
            arb_lazy().prop_map(lazyctrl_proto::MessageBody::Lazy),
            arb_cluster().prop_map(lazyctrl_proto::MessageBody::Cluster)
        ],
    )
        .prop_map(|(xid, body)| Message { xid, body })
}

/// NaN payloads break `PartialEq`-based comparison; normalize them away so
/// the round-trip equality check is meaningful (the wire format itself is
/// bit-exact for NaN too).
fn has_nan(m: &Message) -> bool {
    match (m.as_lazy(), m.as_cluster()) {
        (Some(LazyMsg::StateReport(r)), _) => {
            r.intensity.iter().any(|(_, _, w)| w.is_nan())
                || r.stats.iter().any(|(_, s)| s.new_flows_per_sec.is_nan())
        }
        (_, Some(ClusterMsg::Heartbeat(hb))) => hb.load_rps.is_nan(),
        _ => false,
    }
}

proptest! {
    #[test]
    fn messages_round_trip(m in arb_message()) {
        let wire = m.encode();
        prop_assert_eq!(m.wire_len(), wire.len());
        prop_assume!(!has_nan(&m));
        prop_assert_eq!(Message::decode(&wire).unwrap(), m);
    }

    #[test]
    fn decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Errors are fine; panics are not.
        let _ = Message::decode(&bytes);
    }
}
