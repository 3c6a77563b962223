//! Layer `switch`: the edge switch's datapath, control-message and timer
//! entry points, on the warmed [`Fabric`](super::fabric::Fabric).

use lazyctrl::net::SwitchId;
use lazyctrl::proto::OutputSink;
use lazyctrl::switch::{SwitchOutput, SwitchTimer};
use std::hint::black_box;

use super::fabric::{Fabric, FirstPackets, Ingress};
use super::ns_per_op;
use crate::metrics::Bag;
use crate::spans::Recorder;

/// One switch keep-alive period of virtual time (the experiment
/// default); peer sync runs every fifth.
const KEEPALIVE_NS: u64 = 60_000_000_000;

/// Re-injects `packets` at their ingress switches; outputs are dropped,
/// so a punt stays a punt on every pass.
fn local_frames(rec: &mut Recorder, name: &str, fabric: &mut Fabric, packets: &[Ingress]) -> f64 {
    let mut sink = OutputSink::new();
    ns_per_op(rec, name, |clock| {
        clock.time(|| {
            for p in packets {
                let now = fabric.tick();
                fabric.switches[p.switch].handle_local_frame(
                    now,
                    p.port,
                    p.frame.clone(),
                    &mut sink,
                );
                sink.clear();
            }
        });
        packets.len() as u64
    })
}

pub fn probes(rec: &mut Recorder, fabric: &mut Fabric, packets: &FirstPackets, bag: &mut Bag) {
    let hit = local_frames(rec, "switch.local_frame_hit", fabric, &packets.hits);
    bag.set("switch.local_frame_hit_ns", hit);
    let miss = local_frames(rec, "switch.local_frame_miss", fabric, &packets.misses);
    bag.set("switch.local_frame_miss_ns", miss);

    let mut sink = OutputSink::new();
    let tunnel = ns_per_op(rec, "switch.tunnel_packet", |clock| {
        clock.time(|| {
            for (egress, packet) in &packets.tunnels {
                let now = fabric.tick();
                fabric.switches[*egress].handle_tunnel_packet(now, packet.clone(), &mut sink);
                sink.clear();
            }
        });
        packets.tunnels.len() as u64
    });
    bag.set("switch.tunnel_packet_ns", tunnel);

    // Every destination of the sample against its ingress switch's
    // G-FIB: group-local ones hit one filter, the rest miss them all.
    let mut candidates = Vec::new();
    let grouped = fabric.switches.iter().any(|s| s.gfib().num_peers() > 0);
    let gfib = ns_per_op(rec, "switch.gfib_query", |clock| {
        if !grouped {
            return 0;
        }
        clock.time(|| {
            for p in packets.hits.iter().chain(&packets.misses) {
                fabric.switches[p.switch]
                    .gfib()
                    .query_into(p.frame.dst, &mut candidates);
                black_box(&candidates);
            }
        });
        (packets.hits.len() + packets.misses.len()) as u64
    });
    bag.set("switch.gfib_query_ns", gfib);

    // Replays what the fabric really delivered into switches: the
    // controller's GroupAssign, FlowMod, PacketOut and BlockArp on the
    // control link, and the group's LfibSync / GfibUpdate relays on the
    // peer link — in the mix this workload's control plane produced.
    let inbound = fabric.switch_bound.clone();
    let control = ns_per_op(rec, "switch.control_msg", |clock| {
        clock.time(|| {
            for m in &inbound {
                let now = fabric.tick();
                let sw = &mut fabric.switches[m.to.index()];
                if m.from == SwitchId::CONTROLLER {
                    sw.handle_control_message(now, &m.msg, &mut sink);
                } else {
                    sw.handle_peer_message(now, m.from, &m.msg, &mut sink);
                }
                sink.clear();
            }
        });
        inbound.len() as u64
    });
    bag.set("switch.control_msg_ns", control);

    // Keep-alive on every grouped switch each period, peer sync every
    // fifth (the experiment's 60 s / 300 s). Between passes, off the
    // clock, the ring keep-alives are delivered so no switch starts
    // reporting dead neighbours. The day-long L-FIB aging sweep is left
    // out: it would empty the tables the other probes stand on.
    let mut round = 0u64;
    let timer = ns_per_op(rec, "switch.timer", |clock| {
        if !grouped {
            return 0;
        }
        round += 1;
        fabric.now_ns += KEEPALIVE_NS;
        let now = fabric.now_ns;
        let mut ops = 0;
        for s in 0..fabric.switches.len() {
            clock.time(|| {
                fabric.switches[s].on_timer(now, SwitchTimer::KeepAlive, &mut sink);
                ops += 1;
                if round.is_multiple_of(5) {
                    fabric.switches[s].on_timer(now, SwitchTimer::PeerSync, &mut sink);
                    ops += 1;
                }
            });
            let mut absorbed = OutputSink::new();
            for out in sink.drain() {
                if let SwitchOutput::ToPeer(to, msg) = out {
                    let from = SwitchId::new(s as u32);
                    fabric.switches[to.index()].handle_peer_message(now, from, &msg, &mut absorbed);
                    absorbed.clear();
                }
            }
        }
        ops
    });
    bag.set("switch.timer_ns", timer);
}
