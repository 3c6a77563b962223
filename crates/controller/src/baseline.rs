//! The comparison controller: standard OpenFlow reactive control, modelled
//! on Floodlight's `learning-switch` module (§V-A "normal mode", §V-D
//! "standard OpenFlow control (with the original Floodlight
//! implementation)").
//!
//! Every first packet of every flow reaches this controller; it learns
//! source locations from `PacketIn`s, floods unknown destinations, and once
//! both endpoints are known installs an `Encap` rule on the ingress switch
//! so the flow's remaining packets ride the underlay directly.

use std::sync::Arc;

use lazyctrl_net::{EthernetFrame, MacAddr, PortNo, SwitchId};
use lazyctrl_proto::{
    Action, FlowMatch, FlowModCommand, FlowModMsg, Message, OfMessage, OutputSink, PacketInMsg,
    PacketOutMsg,
};
use serde::{Deserialize, Serialize};

use crate::lazy::{ControllerOutput, FLOW_IDLE_TIMEOUT_S};
use crate::WorkloadMeter;

/// Floodlight-style reactive learning controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineController {
    switches: Vec<SwitchId>,
    hosts: std::collections::BTreeMap<MacAddr, (SwitchId, PortNo)>,
    meter: WorkloadMeter,
    xid: u32,
}

impl BaselineController {
    /// Creates the controller managing the given switches.
    pub fn new(switches: Vec<SwitchId>) -> Self {
        BaselineController {
            switches,
            hosts: std::collections::BTreeMap::new(),
            meter: WorkloadMeter::new(),
            xid: 0,
        }
    }

    /// The workload meter (for experiment harnesses).
    pub fn meter(&self) -> &WorkloadMeter {
        &self.meter
    }

    /// Number of learned host locations.
    pub fn known_hosts(&self) -> usize {
        self.hosts.len()
    }

    fn next_xid(&mut self) -> u32 {
        self.xid = self.xid.wrapping_add(1);
        self.xid
    }

    /// Handles a message from a switch on the control link, pushing the
    /// effects into the caller's sink.
    pub fn handle_message(
        &mut self,
        now_ns: u64,
        from: SwitchId,
        msg: &Message,
        out: &mut OutputSink<ControllerOutput>,
    ) {
        self.meter.record(now_ns);
        match &msg.body {
            lazyctrl_proto::MessageBody::Of(OfMessage::PacketIn(pi)) => {
                self.handle_packet_in(now_ns, from, pi, out);
            }
            lazyctrl_proto::MessageBody::Of(OfMessage::Hello) => {
                let xid = self.next_xid();
                out.push(ControllerOutput::ToSwitch(
                    from,
                    Message::of(xid, OfMessage::Hello),
                ));
            }
            lazyctrl_proto::MessageBody::Of(OfMessage::EchoRequest(data)) => {
                let xid = self.next_xid();
                out.push(ControllerOutput::ToSwitch(
                    from,
                    Message::of(xid, OfMessage::EchoReply(data.clone())),
                ));
            }
            _ => {}
        }
    }

    fn handle_packet_in(
        &mut self,
        _now_ns: u64,
        from: SwitchId,
        pi: &PacketInMsg,
        out: &mut OutputSink<ControllerOutput>,
    ) {
        let Ok(frame) = EthernetFrame::decode(&pi.data) else {
            return;
        };
        // Learn the source.
        self.hosts.insert(frame.src, (from, pi.in_port));

        match self.hosts.get(&frame.dst).copied() {
            Some((dst_switch, dst_port)) => {
                // Known destination: install the forwarding rule on the
                // ingress switch, then release the packet.
                // One list for the FlowMod and the PacketOut.
                let action = if dst_switch == from {
                    Action::Output(dst_port)
                } else {
                    Action::Encap {
                        remote: dst_switch.underlay_ip(),
                        key: 0,
                    }
                };
                let actions: Arc<[Action]> = Arc::new([action]);
                let xid = self.next_xid();
                out.push(ControllerOutput::ToSwitch(
                    from,
                    Message::of(
                        xid,
                        OfMessage::flow_mod(FlowModMsg {
                            command: FlowModCommand::Add,
                            flow_match: FlowMatch::to_dst(frame.dst),
                            priority: 10,
                            idle_timeout: FLOW_IDLE_TIMEOUT_S,
                            hard_timeout: 0,
                            cookie: 0,
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
            None => {
                // Unknown destination: flood. The learning switch relays
                // the packet to every other switch for local flooding —
                // one action list and one packet buffer for all of them.
                let flood: Arc<[Action]> = Arc::new([Action::Output(PortNo::FLOOD)]);
                for i in 0..self.switches.len() {
                    let s = self.switches[i];
                    if s == from {
                        continue;
                    }
                    let xid = self.next_xid();
                    out.push(ControllerOutput::ToSwitch(
                        s,
                        Message::of(
                            xid,
                            OfMessage::PacketOut(PacketOutMsg {
                                buffer_id: u32::MAX,
                                in_port: PortNo::NONE,
                                actions: Arc::clone(&flood),
                                data: pi.data.clone(),
                            }),
                        ),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyctrl_net::{EtherType, HostId};
    use lazyctrl_proto::PacketInReason;

    fn handle(
        c: &mut BaselineController,
        now_ns: u64,
        from: SwitchId,
        msg: &Message,
    ) -> Vec<ControllerOutput> {
        let mut sink = OutputSink::new();
        c.handle_message(now_ns, from, msg, &mut sink);
        sink.take_buf()
    }

    fn packet_in(src: u32, dst: u32) -> PacketInMsg {
        let frame = EthernetFrame::new(
            HostId::new(src).mac(),
            HostId::new(dst).mac(),
            EtherType::IPV4,
            vec![0; 20],
        );
        PacketInMsg {
            buffer_id: u32::MAX,
            in_port: PortNo::new(1),
            reason: PacketInReason::NoMatch,
            data: frame.encode().into(),
        }
    }

    fn switches(n: u32) -> Vec<SwitchId> {
        (0..n).map(SwitchId::new).collect()
    }

    #[test]
    fn unknown_destination_floods_everywhere_else() {
        let mut c = BaselineController::new(switches(4));
        let msg = Message::of(1, OfMessage::PacketIn(packet_in(10, 20)));
        let out = handle(&mut c, 0, SwitchId::new(0), &msg);
        // Flood relayed to the 3 other switches.
        assert_eq!(out.len(), 3);
        for o in &out {
            let ControllerOutput::ToSwitch(s, m) = o else {
                panic!("unexpected output {o:?}")
            };
            assert_ne!(*s, SwitchId::new(0));
            assert!(matches!(
                &m.body,
                lazyctrl_proto::MessageBody::Of(OfMessage::PacketOut(_))
            ));
        }
        assert_eq!(c.known_hosts(), 1, "source learned");
    }

    #[test]
    fn known_destination_installs_encap_rule() {
        let mut c = BaselineController::new(switches(4));
        // Teach the controller where host 20 lives (its own traffic from S2).
        let _ = handle(
            &mut c,
            0,
            SwitchId::new(2),
            &Message::of(1, OfMessage::PacketIn(packet_in(20, 10))),
        );
        // Now host 10 on S0 talks to 20.
        let out = handle(
            &mut c,
            1,
            SwitchId::new(0),
            &Message::of(2, OfMessage::PacketIn(packet_in(10, 20))),
        );
        assert_eq!(out.len(), 2, "FlowMod + PacketOut: {out:?}");
        let ControllerOutput::ToSwitch(s, m) = &out[0] else {
            panic!()
        };
        assert_eq!(*s, SwitchId::new(0));
        match &m.body {
            lazyctrl_proto::MessageBody::Of(OfMessage::FlowMod(fm)) => {
                assert_eq!(fm.command, FlowModCommand::Add);
                assert_eq!(
                    *fm.actions,
                    [Action::Encap {
                        remote: SwitchId::new(2).underlay_ip(),
                        key: 0
                    }]
                );
                assert_eq!(fm.idle_timeout, 30);
            }
            other => panic!("expected FlowMod, got {other:?}"),
        }
    }

    #[test]
    fn same_switch_destination_outputs_port() {
        let mut c = BaselineController::new(switches(2));
        let mut pi = packet_in(20, 10);
        pi.in_port = PortNo::new(7);
        let _ = handle(
            &mut c,
            0,
            SwitchId::new(0),
            &Message::of(1, OfMessage::PacketIn(pi)),
        );
        let out = handle(
            &mut c,
            1,
            SwitchId::new(0),
            &Message::of(2, OfMessage::PacketIn(packet_in(10, 20))),
        );
        let ControllerOutput::ToSwitch(_, m) = &out[0] else {
            panic!()
        };
        match &m.body {
            lazyctrl_proto::MessageBody::Of(OfMessage::FlowMod(fm)) => {
                assert_eq!(*fm.actions, [Action::Output(PortNo::new(7))]);
            }
            other => panic!("expected FlowMod, got {other:?}"),
        }
    }

    #[test]
    fn every_message_counts_as_workload() {
        let mut c = BaselineController::new(switches(2));
        for i in 0..5u64 {
            let _ = handle(
                &mut c,
                i * 1_000_000,
                SwitchId::new(0),
                &Message::of(1, OfMessage::PacketIn(packet_in(10, 20))),
            );
        }
        assert_eq!(c.meter().total(), 5);
    }

    #[test]
    fn echo_is_answered() {
        let mut c = BaselineController::new(switches(1));
        let out = handle(
            &mut c,
            0,
            SwitchId::new(0),
            &Message::of(9, OfMessage::EchoRequest(vec![7])),
        );
        assert!(matches!(
            &out[0],
            ControllerOutput::ToSwitch(_, m)
                if matches!(&m.body, lazyctrl_proto::MessageBody::Of(OfMessage::EchoReply(d)) if d == &vec![7])
        ));
    }
}
