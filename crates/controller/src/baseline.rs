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
                self.handle_packet_in(from, pi, out);
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
                // the packet to every other switch for local flooding. One
                // output stands for every copy, and the counter moves past
                // the xids the copies carry.
                let copies = self.switches.len() - usize::from(self.switches.contains(&from));
                let first = self.xid.wrapping_add(1);
                self.xid = self.xid.wrapping_add(copies as u32);
                out.push(ControllerOutput::Flood {
                    except: from,
                    msg: Message::of(
                        first,
                        OfMessage::PacketOut(PacketOutMsg {
                            buffer_id: u32::MAX,
                            in_port: PortNo::NONE,
                            actions: Arc::new([Action::Output(PortNo::FLOOD)]),
                            data: pi.data.clone(),
                        }),
                    ),
                });
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
        let first = c.xid + 1;
        let msg = Message::of(1, OfMessage::PacketIn(packet_in(10, 20)));
        let out = handle(&mut c, 0, SwitchId::new(0), &msg);
        // One flood, relayed to the 3 other switches.
        let [ControllerOutput::Flood { except, msg }] = &out[..] else {
            panic!("expected one flood, got {out:?}")
        };
        assert_eq!(*except, SwitchId::new(0));
        assert_eq!(msg.xid, first, "the first copy's xid");
        let lazyctrl_proto::MessageBody::Of(OfMessage::PacketOut(po)) = &msg.body else {
            panic!("expected a PacketOut, got {msg:?}")
        };
        assert_eq!(*po.actions, [Action::Output(PortNo::FLOOD)]);
        assert_eq!(po.data, packet_in(10, 20).data);
        assert_eq!(c.hosts.len(), 1, "source learned");
        // The copies used three xids, as three `next_xid`s would have.
        let out = handle(
            &mut c,
            1,
            SwitchId::new(1),
            &Message::of(2, OfMessage::Hello),
        );
        let [ControllerOutput::ToSwitch(_, hello)] = &out[..] else {
            panic!("expected a Hello, got {out:?}")
        };
        assert_eq!(hello.xid, first + 3);
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
