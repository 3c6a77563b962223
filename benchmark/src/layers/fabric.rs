//! A warmed-up miniature of the workload's data center, assembled from
//! the same public pieces the experiment driver wires together: one
//! `EdgeSwitch` per switch of the trace, the workload's controller, and a
//! zero-latency message pump between them. The switch and controller
//! probes run against it, so the state they exercise — group sizes,
//! L-FIB and G-FIB fill, C-LIB contents — is the workload's own, and the
//! messages they replay are ones this fabric really produced.

use std::collections::VecDeque;

use lazyctrl::controller::{BaselineController, ControllerOutput, LazyConfig, LazyController};
use lazyctrl::net::{
    ArpPacket, EncapsulatedFrame, EtherType, EthernetFrame, HostId, MacAddr, PortNo, SwitchId,
    VlanTag,
};
use lazyctrl::proto::{Message, OutputSink};
use lazyctrl::switch::{EdgeSwitch, SwitchOutput, SwitchTimer};
use lazyctrl::trace::Trace;

use super::partition::bootstrap_graph;

/// Most messages of one direction kept for replay.
const SAMPLE_CAP: usize = 4_096;
/// Flows whose first packets [`Fabric::first_packets`] classifies.
const FIRST_PACKETS: usize = 8_192;

/// The control plane of a fabric.
pub enum Controller {
    Lazy(Box<LazyController>),
    Baseline(BaselineController),
}

/// A message on its way to a switch (`from` is `SwitchId::CONTROLLER` on
/// the control link, a group member on the peer link).
#[derive(Debug, Clone)]
pub struct ToSwitch {
    pub to: SwitchId,
    pub from: SwitchId,
    pub msg: Message,
}

enum Hop {
    Switch(ToSwitch),
    Controller(SwitchId, Message),
}

/// A flow's first packet at its ingress switch.
#[derive(Debug, Clone)]
pub struct Ingress {
    pub switch: usize,
    pub port: PortNo,
    pub frame: EthernetFrame,
}

/// The first packets of the trace's leading flows, split by what the
/// warmed datapath did with them.
#[derive(Debug, Default)]
pub struct FirstPackets {
    /// Resolved in the datapath (local port or G-FIB tunnel).
    pub hits: Vec<Ingress>,
    /// Punted to the controller.
    pub misses: Vec<Ingress>,
    /// What the hits put on the underlay: `(egress switch, packet)`.
    pub tunnels: Vec<(usize, EncapsulatedFrame)>,
    /// What the misses sent the controller: `(ingress switch, PacketIn)`.
    pub punts: Vec<(SwitchId, Message)>,
}

pub struct Fabric {
    pub switches: Vec<EdgeSwitch>,
    pub controller: Controller,
    host_port: Vec<PortNo>,
    /// Messages delivered into switches so far (capped sample).
    pub switch_bound: Vec<ToSwitch>,
    /// Messages delivered to the controller so far (capped sample).
    pub controller_bound: Vec<(SwitchId, Message)>,
    pub now_ns: u64,
    /// Mean time between flow arrivals in the trace. Probes advance the
    /// clock by this much per operation, so time-driven work in the
    /// handlers (rule expiry, rate windows) runs as often per operation
    /// as it does in the run.
    step_ns: u64,
}

fn announcement(host: HostId, vlan: VlanTag) -> EthernetFrame {
    let arp = ArpPacket::request(host.mac(), host.ip(), host.ip());
    EthernetFrame::tagged(
        host.mac(),
        MacAddr::BROADCAST,
        vlan,
        EtherType::ARP,
        arp.encode(),
    )
}

impl Fabric {
    /// Builds and warms the fabric for `trace`. With `lazy`, hosts
    /// announce themselves, the controller bootstraps its grouping from
    /// the first hour's intensities, and one peer-sync round fills the
    /// G-FIBs and the C-LIB; without, switches are plain OpenFlow and the
    /// baseline controller starts empty, as in the run.
    pub fn build(trace: &Trace, lazy: Option<LazyConfig>) -> Fabric {
        let topo = &trace.topology;
        let n = topo.num_switches;
        let mut switches: Vec<EdgeSwitch> = (0..n as u32)
            .map(|i| {
                let mut sw = EdgeSwitch::new(SwitchId::new(i));
                sw.report_false_positives = true;
                sw.datapath_learning = lazy.is_some();
                sw
            })
            .collect();
        let mut next_port = vec![1u16; n];
        let mut host_port = Vec::with_capacity(topo.num_hosts());
        let mut sink = OutputSink::new();
        for h in 0..topo.num_hosts() as u32 {
            let host = HostId::new(h);
            let s = topo.switch_of(host).index();
            let port = PortNo::new(next_port[s]);
            next_port[s] += 1;
            host_port.push(port);
            if lazy.is_some() {
                let vlan = VlanTag::for_tenant(topo.tenant_of(host));
                switches[s].handle_local_frame(0, port, announcement(host, vlan), &mut sink);
                sink.clear();
            }
        }
        let ids: Vec<SwitchId> = (0..n as u32).map(SwitchId::new).collect();
        let controller = match &lazy {
            Some(cfg) => Controller::Lazy(Box::new(LazyController::new(ids, cfg.clone()))),
            None => Controller::Baseline(BaselineController::new(ids)),
        };
        let mut fabric = Fabric {
            switches,
            controller,
            host_port,
            switch_bound: Vec::new(),
            controller_bound: Vec::new(),
            now_ns: 0,
            step_ns: trace.duration_ns / trace.flows.len().max(1) as u64,
        };
        if let Controller::Lazy(c) = &mut fabric.controller {
            let mut out = OutputSink::new();
            c.bootstrap(0, bootstrap_graph(trace), &mut out);
            let mut queue = VecDeque::new();
            enqueue_controller_outputs(&mut out, &mut queue);
            fabric.pump(queue);
            // One sync round: members advertise to their designated
            // switch, which relays filters to the group and entries up
            // the state link.
            fabric.now_ns = 1_000_000_000;
            for s in 0..n {
                let mut sink = OutputSink::new();
                fabric.switches[s].on_timer(fabric.now_ns, SwitchTimer::PeerSync, &mut sink);
                let mut queue = VecDeque::new();
                enqueue_switch_outputs(SwitchId::new(s as u32), &mut sink, &mut queue);
                fabric.pump(queue);
            }
        }
        fabric
    }

    /// Advances virtual time by one flow inter-arrival and returns it.
    pub fn tick(&mut self) -> u64 {
        self.now_ns += self.step_ns;
        self.now_ns
    }

    /// Delivers queued messages, and whatever they cause, until quiet.
    /// Frames, floods and timer requests leave the fabric unanswered.
    fn pump(&mut self, mut queue: VecDeque<Hop>) {
        let mut switch_out = OutputSink::new();
        let mut ctrl_out = OutputSink::new();
        while let Some(hop) = queue.pop_front() {
            match hop {
                Hop::Switch(m) => {
                    let sw = &mut self.switches[m.to.index()];
                    if m.from == SwitchId::CONTROLLER {
                        sw.handle_control_message(self.now_ns, &m.msg, &mut switch_out);
                    } else {
                        sw.handle_peer_message(self.now_ns, m.from, &m.msg, &mut switch_out);
                    }
                    enqueue_switch_outputs(m.to, &mut switch_out, &mut queue);
                    if self.switch_bound.len() < SAMPLE_CAP {
                        self.switch_bound.push(m);
                    }
                }
                Hop::Controller(from, msg) => {
                    match &mut self.controller {
                        Controller::Lazy(c) => {
                            c.handle_message(self.now_ns, from, &msg, &mut ctrl_out)
                        }
                        Controller::Baseline(c) => {
                            c.handle_message(self.now_ns, from, &msg, &mut ctrl_out)
                        }
                    }
                    enqueue_controller_outputs(&mut ctrl_out, &mut queue);
                    if self.controller_bound.len() < SAMPLE_CAP {
                        self.controller_bound.push((from, msg));
                    }
                }
            }
        }
    }

    /// Delivers controller-emitted messages into the switches (and
    /// records them for replay).
    pub fn deliver_from_controller(&mut self, out: &mut OutputSink<ControllerOutput>) {
        let mut queue = VecDeque::new();
        enqueue_controller_outputs(out, &mut queue);
        self.pump(queue);
    }

    /// Pushes the first packet of each leading flow of `trace` through
    /// its ingress switch once and sorts them by outcome.
    pub fn first_packets(&mut self, trace: &Trace) -> FirstPackets {
        let topo = &trace.topology;
        let mut found = FirstPackets::default();
        let mut sink = OutputSink::new();
        for f in trace.flows.iter().take(FIRST_PACKETS) {
            let now = self.tick();
            let ingress = Ingress {
                switch: topo.switch_of(f.src).index(),
                port: self.host_port[f.src.index()],
                frame: EthernetFrame::tagged(
                    f.src.mac(),
                    f.dst.mac(),
                    VlanTag::for_tenant(topo.tenant_of(f.src)),
                    EtherType::IPV4,
                    f.time_ns.to_be_bytes(),
                ),
            };
            self.switches[ingress.switch].handle_local_frame(
                now,
                ingress.port,
                ingress.frame.clone(),
                &mut sink,
            );
            let mut punted = false;
            let mut resolved = false;
            for out in sink.drain() {
                match out {
                    SwitchOutput::ToController(msg) => {
                        punted = true;
                        found
                            .punts
                            .push((SwitchId::new(ingress.switch as u32), msg));
                    }
                    SwitchOutput::Tunnel(to, packet) => {
                        resolved = true;
                        found.tunnels.push((to.index(), packet));
                    }
                    SwitchOutput::DeliverLocal(..) => resolved = true,
                    _ => {}
                }
            }
            if punted {
                found.misses.push(ingress);
            } else if resolved {
                found.hits.push(ingress);
            }
        }
        found
    }
}

fn enqueue_switch_outputs(
    from: SwitchId,
    sink: &mut OutputSink<SwitchOutput>,
    queue: &mut VecDeque<Hop>,
) {
    for out in sink.drain() {
        match out {
            SwitchOutput::ToController(msg) | SwitchOutput::ToState(msg) => {
                queue.push_back(Hop::Controller(from, msg));
            }
            SwitchOutput::ToPeer(to, msg) => {
                queue.push_back(Hop::Switch(ToSwitch { to, from, msg }))
            }
            SwitchOutput::Tunnel(..)
            | SwitchOutput::DeliverLocal(..)
            | SwitchOutput::FloodLocal(..)
            | SwitchOutput::SetTimer(..) => {}
        }
    }
}

fn enqueue_controller_outputs(sink: &mut OutputSink<ControllerOutput>, queue: &mut VecDeque<Hop>) {
    for out in sink.drain() {
        if let ControllerOutput::ToSwitch(to, msg) = out {
            queue.push_back(Hop::Switch(ToSwitch {
                to,
                from: SwitchId::CONTROLLER,
                msg,
            }));
        }
    }
}
