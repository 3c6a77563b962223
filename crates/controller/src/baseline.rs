//! The comparison controller: standard OpenFlow reactive control, modelled
//! on Floodlight's `learning-switch` module (§V-A "normal mode", §V-D
//! "standard OpenFlow control (with the original Floodlight
//! implementation)").
//!
//! Every first packet of every flow reaches this controller; it learns
//! source locations from `PacketIn`s, floods unknown destinations, and once
//! both endpoints are known installs an `Encap` rule on the ingress switch
//! so the flow's remaining packets ride the underlay directly.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use lazyctrl_net::{EthernetFrame, MacAddr, PortNo, SwitchId};
use lazyctrl_proto::{
    Action, FlowMatch, FlowModCommand, FlowModMsg, Message, OfMessage, OutputSink, PacketInMsg,
    PacketOutMsg,
};
use serde::{Deserialize, Serialize};

use crate::lazy::{ControllerOutput, FLOW_IDLE_TIMEOUT_S};
use crate::WorkloadMeter;

/// Build-hasher for the controller's tables. Their keys are a MAC's six
/// octets or a switch id, taken from frames and ids the simulator itself
/// generates, so the standard library's collision-resistant SipHash is
/// pure overhead on the per-`PacketIn` path; this one packs the bytes
/// into a word and applies the splitmix64 finalizer, as the simulator's
/// bandwidth table does in a crate this one does not depend on. Nothing
/// iterates the tables, so hash order reaches no output.
#[derive(Debug, Clone, Copy, Default)]
struct TableHash;

impl BuildHasher for TableHash {
    type Hasher = TableHasher;

    fn build_hasher(&self) -> TableHasher {
        TableHasher(0)
    }
}

/// Rotates everything written into one word; [`Hasher::finish`] mixes it.
struct TableHasher(u64);

impl Hasher for TableHasher {
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.0 = self.0.rotate_left(32) ^ v as u64;
    }
}

/// Floodlight-style reactive learning controller.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineController {
    /// The switches it manages: a flood goes to each of them but the one
    /// that punted.
    switches: HashSet<SwitchId, TableHash>,
    /// Where each learned source MAC was last seen. It grows by one
    /// entry per distinct MAC, whatever the MAC's bytes say.
    hosts: HashMap<MacAddr, (SwitchId, PortNo), TableHash>,
    /// The action list of every flood `PacketOut`, one `Output(FLOOD)`:
    /// built once, and each flood holds a clone of the `Arc`.
    flood_actions: Arc<[Action]>,
    meter: WorkloadMeter,
    xid: u32,
}

impl BaselineController {
    /// Creates the controller managing the given switches.
    pub fn new(switches: Vec<SwitchId>) -> Self {
        BaselineController {
            switches: switches.into_iter().collect(),
            hosts: HashMap::default(),
            flood_actions: Arc::new([Action::Output(PortNo::FLOOD)]),
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
                            actions: Arc::clone(&self.flood_actions),
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
        // A second flood holds the same action list, not a fresh one.
        let msg = Message::of(3, OfMessage::PacketIn(packet_in(11, 21)));
        let out = handle(&mut c, 2, SwitchId::new(2), &msg);
        let flood_actions = |out: &[ControllerOutput]| match out {
            [ControllerOutput::Flood { msg, .. }] => match msg.as_of() {
                Some(OfMessage::PacketOut(po)) => Arc::clone(&po.actions),
                other => panic!("expected a PacketOut, got {other:?}"),
            },
            other => panic!("expected one flood, got {other:?}"),
        };
        assert!(Arc::ptr_eq(&flood_actions(&out), &po.actions));
    }

    /// A punt from a switch the controller does not manage floods to
    /// every managed switch, so the flood spends n xids, not n − 1.
    #[test]
    fn a_flood_from_an_unmanaged_switch_spends_every_xid() {
        let mut c = BaselineController::new(switches(4));
        let first = c.xid + 1;
        let msg = Message::of(1, OfMessage::PacketIn(packet_in(10, 20)));
        let out = handle(&mut c, 0, SwitchId::new(9), &msg);
        assert!(
            matches!(&out[..], [ControllerOutput::Flood { except, msg }]
                if *except == SwitchId::new(9) && msg.xid == first),
            "{out:?}"
        );
        let out = handle(
            &mut c,
            1,
            SwitchId::new(1),
            &Message::of(2, OfMessage::Hello),
        );
        let [ControllerOutput::ToSwitch(_, hello)] = &out[..] else {
            panic!("expected a Hello, got {out:?}")
        };
        assert_eq!(hello.xid, first + 4);
    }

    /// The learning rule over a `BTreeMap` host table and a scanned
    /// switch list: the oracle for the hashed tables.
    struct Reference {
        switches: Vec<SwitchId>,
        hosts: std::collections::BTreeMap<MacAddr, (SwitchId, PortNo)>,
        xid: u32,
    }

    impl Reference {
        fn next_xid(&mut self) -> u32 {
            self.xid = self.xid.wrapping_add(1);
            self.xid
        }

        fn handle(&mut self, from: SwitchId, msg: &Message) -> Vec<ControllerOutput> {
            let to = |xid, body| ControllerOutput::ToSwitch(from, Message::of(xid, body));
            let pi = match msg.as_of() {
                Some(OfMessage::PacketIn(pi)) => pi,
                Some(OfMessage::Hello) => return vec![to(self.next_xid(), OfMessage::Hello)],
                Some(OfMessage::EchoRequest(data)) => {
                    return vec![to(self.next_xid(), OfMessage::EchoReply(data.clone()))]
                }
                _ => return Vec::new(),
            };
            let Ok(frame) = EthernetFrame::decode(&pi.data) else {
                return Vec::new();
            };
            self.hosts.insert(frame.src, (from, pi.in_port));
            let Some(&(at, port)) = self.hosts.get(&frame.dst) else {
                let copies = self.switches.iter().filter(|&&s| s != from).count();
                let first = self.xid.wrapping_add(1);
                self.xid = self.xid.wrapping_add(copies as u32);
                let po = PacketOutMsg {
                    buffer_id: u32::MAX,
                    in_port: PortNo::NONE,
                    actions: Arc::new([Action::Output(PortNo::FLOOD)]),
                    data: pi.data.clone(),
                };
                let msg = Message::of(first, OfMessage::PacketOut(po));
                return vec![ControllerOutput::Flood { except: from, msg }];
            };
            let actions: Arc<[Action]> = if at == from {
                Arc::new([Action::Output(port)])
            } else {
                Arc::new([Action::Encap {
                    remote: at.underlay_ip(),
                    key: 0,
                }])
            };
            let fm = FlowModMsg {
                command: FlowModCommand::Add,
                flow_match: FlowMatch::to_dst(frame.dst),
                priority: 10,
                idle_timeout: FLOW_IDLE_TIMEOUT_S,
                hard_timeout: 0,
                cookie: 0,
                actions: Arc::clone(&actions),
            };
            let po = PacketOutMsg {
                buffer_id: pi.buffer_id,
                in_port: pi.in_port,
                actions,
                data: pi.data.clone(),
            };
            vec![
                to(self.next_xid(), OfMessage::flow_mod(fm)),
                to(self.next_xid(), OfMessage::PacketOut(po)),
            ]
        }
    }

    /// The MACs a punted frame may carry: simulator hosts, broadcast,
    /// multicast, the zero address and a foreign unicast address.
    fn mac(i: usize) -> MacAddr {
        match i {
            0..=5 => HostId::new(i as u32).mac(),
            6 => MacAddr::BROADCAST,
            7 => MacAddr::new([0x01, 0x00, 0x5e, 0, 0, 1]),
            8 => MacAddr::ZERO,
            _ => MacAddr::new([0x00, 0x1b, 0x21, 0xab, 0xcd, 0xef]),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Over random message sequences — hosts seen, re-learned at
        /// another switch, broadcast and foreign MACs, punts from a
        /// switch it does not manage, undecodable bytes, Hellos and
        /// echoes — the hashed tables answer what the `BTreeMap` ones do.
        #[test]
        fn hashed_tables_match_the_btreemap_reference(
            steps in proptest::collection::vec(
                (0u8..10, 0u32..6, 0usize..10, 0usize..10, 1u16..4),
                1..60,
            ),
        ) {
            let mut c = BaselineController::new(switches(5));
            let mut reference = Reference {
                switches: switches(5),
                hosts: Default::default(),
                xid: 0,
            };
            for (i, &(kind, from, src, dst, port)) in steps.iter().enumerate() {
                let body = match kind {
                    0 => OfMessage::Hello,
                    1 => OfMessage::EchoRequest(vec![kind, port as u8]),
                    2 => OfMessage::PacketIn(PacketInMsg {
                        buffer_id: u32::MAX,
                        in_port: PortNo::new(port),
                        reason: PacketInReason::NoMatch,
                        data: vec![0xff; 5].into(),
                    }),
                    _ => {
                        let frame = EthernetFrame::new(mac(src), mac(dst), EtherType::IPV4, vec![0; 20]);
                        OfMessage::PacketIn(PacketInMsg {
                            buffer_id: i as u32,
                            in_port: PortNo::new(port),
                            reason: PacketInReason::NoMatch,
                            data: frame.encode().into(),
                        })
                    }
                };
                let (from, msg) = (SwitchId::new(from), Message::of(i as u32, body));
                let out = handle(&mut c, i as u64, from, &msg);
                proptest::prop_assert_eq!(out, reference.handle(from, &msg), "step {}", i);
            }
            proptest::prop_assert_eq!(c.hosts.len(), reference.hosts.len());
        }
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
