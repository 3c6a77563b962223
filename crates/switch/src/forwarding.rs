//! The packet forwarding routine of Fig. 5, as a pure decision function.
//!
//! ```text
//! plain packet:        flow table → L-FIB → G-FIB → controller
//! encapsulated packet: decap → L-FIB → drop (false positive)
//! ```
//!
//! Keeping this a function from `(packet, tables)` to a
//! [`ForwardingDecision`] makes every branch of the paper's routine
//! directly unit-testable; [`EdgeSwitch`](crate::EdgeSwitch) maps decisions
//! onto I/O effects.

use lazyctrl_net::{Packet, PortNo, SwitchId};
use lazyctrl_proto::Action;

use crate::flow_table::PacketFields;
use crate::{FlowTable, Gfib, Lfib};

/// The outcome of the forwarding routine for one packet.
///
/// The data-carrying outcomes write into caller-owned scratch buffers
/// (see [`forward_packet`]) instead of allocating per decision, so the
/// enum itself is `Copy` and the per-packet path stays heap-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardingDecision {
    /// A flow-table rule matched; its action list was appended to the
    /// `actions_out` scratch (Fig. 5 lines 4–5).
    FlowRule,
    /// The destination is a local host on this port (lines 20–21, 29).
    DeliverLocal(PortNo),
    /// Encapsulate and send a copy to each candidate peer switch; the
    /// candidates were appended to the `targets_out` scratch (lines
    /// 17–19; multiple targets possible due to BF false positives).
    EncapTo,
    /// No group knowledge: punt to the controller for inter-group handling
    /// (lines 14–16).
    PuntToController,
    /// Drop: the packet was mis-forwarded to us by a peer's G-FIB false
    /// positive (lines 27–28).
    FalsePositive,
}

/// Runs the Fig. 5 routine over the switch's tables.
///
/// `actions_out` and `targets_out` are caller-owned scratch buffers: they
/// are cleared on entry, and filled exactly when the returned decision is
/// [`ForwardingDecision::FlowRule`] / [`ForwardingDecision::EncapTo`]
/// respectively — reusing the caller's capacity instead of allocating a
/// fresh `Vec` per forwarded packet.
#[allow(clippy::too_many_arguments)]
pub fn forward_packet(
    pkt: &Packet,
    in_port: PortNo,
    flow_table: &mut FlowTable,
    lfib: &Lfib,
    gfib: &Gfib,
    now_ns: u64,
    actions_out: &mut Vec<Action>,
    targets_out: &mut Vec<SwitchId>,
) -> ForwardingDecision {
    actions_out.clear();
    targets_out.clear();
    match pkt {
        Packet::Plain(frame) => {
            // Lines 4–5: flow table first.
            let fields = PacketFields {
                in_port: Some(in_port),
                dl_src: Some(frame.src),
                dl_dst: Some(frame.dst),
                dl_vlan: frame.vlan.map(|t| t.vid()),
                dl_type: Some(frame.ethertype),
            };
            if let Some(rule) = flow_table.lookup(&fields, now_ns) {
                actions_out.extend_from_slice(&rule.actions);
                return ForwardingDecision::FlowRule;
            }
            // Lines 8–9: L-FIB.
            if let Some(port) = lfib.lookup(frame.dst) {
                return ForwardingDecision::DeliverLocal(port);
            }
            // Lines 12–13: G-FIB.
            gfib.query_into(frame.dst, targets_out);
            if targets_out.is_empty() {
                // Lines 14–16.
                ForwardingDecision::PuntToController
            } else {
                // Lines 17–19.
                ForwardingDecision::EncapTo
            }
        }
        // Lines 24–29.
        Packet::Encapsulated(encap) => match lfib.lookup(encap.inner.dst) {
            Some(port) => ForwardingDecision::DeliverLocal(port),
            None => ForwardingDecision::FalsePositive,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gfib::build_update;
    use lazyctrl_net::{
        EncapHeader, EncapsulatedFrame, EtherType, EthernetFrame, MacAddr, TenantId,
    };
    use lazyctrl_proto::{FlowMatch, FlowModCommand, FlowModMsg};

    fn frame(src: u64, dst: u64) -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::for_host(src),
            MacAddr::for_host(dst),
            EtherType::IPV4,
            vec![0; 32],
        )
    }

    fn encap(dst: u64, key: u32) -> Packet {
        Packet::Encapsulated(EncapsulatedFrame::new(
            EncapHeader::new(
                SwitchId::new(1).underlay_ip(),
                SwitchId::new(2).underlay_ip(),
                TenantId::new(1),
                key,
            ),
            frame(1, dst),
        ))
    }

    fn setup() -> (FlowTable, Lfib, Gfib) {
        let mut lfib = Lfib::new();
        lfib.learn(MacAddr::for_host(100), TenantId::new(1), PortNo::new(4), 0);
        let mut gfib = Gfib::new();
        gfib.apply_update(&build_update(
            SwitchId::new(7),
            1,
            vec![MacAddr::for_host(200)],
        ));
        (FlowTable::new(), lfib, gfib)
    }

    /// Runs the routine with fresh scratch buffers and returns the
    /// decision plus both scratch payloads.
    fn forward(
        pkt: &Packet,
        in_port: PortNo,
        ft: &mut FlowTable,
        lfib: &Lfib,
        gfib: &Gfib,
    ) -> (ForwardingDecision, Vec<Action>, Vec<SwitchId>) {
        let mut actions = vec![Action::Drop]; // stale junk: must be cleared
        let mut targets = vec![SwitchId::new(99)];
        let d = forward_packet(pkt, in_port, ft, lfib, gfib, 0, &mut actions, &mut targets);
        (d, actions, targets)
    }

    #[test]
    fn flow_rule_takes_precedence() {
        let (mut ft, lfib, gfib) = setup();
        ft.apply(
            &FlowModMsg {
                command: FlowModCommand::Add,
                flow_match: FlowMatch::to_dst(MacAddr::for_host(100)),
                priority: 5,
                idle_timeout: 0,
                hard_timeout: 0,
                cookie: 0,
                actions: vec![Action::Drop].into(),
            },
            0,
        );
        // 100 is also in the L-FIB, but the flow rule wins (Fig. 5 order).
        let (d, actions, targets) = forward(
            &Packet::Plain(frame(1, 100)),
            PortNo::new(1),
            &mut ft,
            &lfib,
            &gfib,
        );
        assert_eq!(d, ForwardingDecision::FlowRule);
        assert_eq!(actions, vec![Action::Drop]);
        assert!(targets.is_empty(), "stale scratch must be cleared");
    }

    #[test]
    fn local_host_delivers() {
        let (mut ft, lfib, gfib) = setup();
        let (d, _, _) = forward(
            &Packet::Plain(frame(1, 100)),
            PortNo::new(1),
            &mut ft,
            &lfib,
            &gfib,
        );
        assert_eq!(d, ForwardingDecision::DeliverLocal(PortNo::new(4)));
    }

    #[test]
    fn group_host_tunnels() {
        let (mut ft, lfib, gfib) = setup();
        let (d, actions, targets) = forward(
            &Packet::Plain(frame(1, 200)),
            PortNo::new(1),
            &mut ft,
            &lfib,
            &gfib,
        );
        assert_eq!(d, ForwardingDecision::EncapTo);
        assert_eq!(targets, vec![SwitchId::new(7)]);
        assert!(actions.is_empty(), "stale scratch must be cleared");
    }

    #[test]
    fn unknown_host_punts() {
        let (mut ft, lfib, gfib) = setup();
        let (d, _, targets) = forward(
            &Packet::Plain(frame(1, 999)),
            PortNo::new(1),
            &mut ft,
            &lfib,
            &gfib,
        );
        assert_eq!(d, ForwardingDecision::PuntToController);
        assert!(targets.is_empty());
    }

    #[test]
    fn encapsulated_delivers_locally() {
        let (mut ft, lfib, gfib) = setup();
        let (d, _, _) = forward(&encap(100, 1), PortNo::new(9), &mut ft, &lfib, &gfib);
        assert_eq!(d, ForwardingDecision::DeliverLocal(PortNo::new(4)));
    }

    #[test]
    fn false_positive_drops() {
        let (mut ft, lfib, gfib) = setup();
        let (d, _, _) = forward(&encap(555, 1), PortNo::new(9), &mut ft, &lfib, &gfib);
        assert_eq!(d, ForwardingDecision::FalsePositive);
    }

    #[test]
    fn multiple_bf_candidates_all_targeted() {
        let (mut ft, lfib, mut gfib) = setup();
        gfib.apply_update(&build_update(
            SwitchId::new(9),
            1,
            vec![MacAddr::for_host(200)],
        ));
        let (d, _, targets) = forward(
            &Packet::Plain(frame(1, 200)),
            PortNo::new(1),
            &mut ft,
            &lfib,
            &gfib,
        );
        assert_eq!(d, ForwardingDecision::EncapTo);
        assert_eq!(targets, vec![SwitchId::new(7), SwitchId::new(9)]);
    }
}
