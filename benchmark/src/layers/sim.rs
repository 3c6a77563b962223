//! Layer `sim`: the event queue and the link gate (reachability → loss →
//! latency → bandwidth) every message crosses.

use lazyctrl::net::SwitchId;
use lazyctrl::sim::{
    BandwidthModel, ChannelClass, EventQueue, LatencyModel, LinkId, LinkState, SimDuration, SimTime,
};
use lazyctrl::trace::Trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

use super::ns_per_op;
use crate::metrics::Bag;
use crate::spans::Recorder;

/// Flows a link-gate pass walks.
const GATE_FLOWS: usize = 16_384;

/// Runs the `sim` probes on inputs derived from `trace`. `bandwidth` is
/// the workload's own model; its probe only runs where a class is
/// capacitated (elsewhere the program never enters the model).
pub fn probes(
    rec: &mut Recorder,
    trace: &Trace,
    latency: &LatencyModel,
    bandwidth: &BandwidthModel,
    seed: u64,
    bag: &mut Bag,
) {
    // The wheel under the workload's own arrival process: every flow
    // arrival is pre-scheduled, and each pop chains four short-delay
    // follow-ups (data- and control-link latencies), as frame deliveries
    // and control messages do in a run.
    let follow_ups = [120u64, 150, 900, 900].map(SimDuration::from_micros);
    let wheel = ns_per_op(rec, "sim.wheel", |clock| {
        clock.time(|| {
            let mut queue: EventQueue<u32> = EventQueue::new();
            for f in &trace.flows {
                queue.schedule(SimTime::from_nanos(f.time_ns), 0);
            }
            while let Some((now, generation)) = queue.pop() {
                if generation == 0 {
                    for delay in follow_ups {
                        queue.schedule(now + delay, 1);
                    }
                }
            }
            black_box(queue.popped_total())
        })
    });
    bag.set("sim.wheel_ns_per_op", wheel);

    // One data-link and one control-link crossing per flow: admission
    // (`delivers`) then a latency draw, on the links the trace uses.
    let topo = &trace.topology;
    let links: Vec<(LinkId, LinkId)> = trace
        .flows
        .iter()
        .take(GATE_FLOWS)
        .map(|f| {
            let (src, dst) = (topo.switch_of(f.src).0, topo.switch_of(f.dst).0);
            (
                LinkId::new(src, dst, ChannelClass::Data),
                LinkId::new(src, SwitchId::CONTROLLER.0, ChannelClass::Control),
            )
        })
        .collect();
    let state = LinkState::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let gate = ns_per_op(rec, "sim.link_gate", |clock| {
        clock.time(|| {
            let mut total = SimDuration::ZERO;
            for &(data, control) in &links {
                for link in [data, control] {
                    if state.delivers(link, &mut rng) {
                        total += latency.sample(link.class, &mut rng);
                    }
                }
            }
            black_box(total);
        });
        2 * links.len() as u64
    });
    bag.set("sim.link_gate_ns_per_op", gate);

    if !bandwidth.is_unmodeled() {
        // Control-link pricing of a PacketIn-sized message per flow, at
        // the flow's own arrival time so backlogs build as in the run.
        let mut model = bandwidth.clone();
        let mut pass_offset = 0u64;
        let price = ns_per_op(rec, "sim.bandwidth", |clock| {
            clock.time(|| {
                let mut total = SimDuration::ZERO;
                for (f, &(_, control)) in trace.flows.iter().zip(&links) {
                    let now = SimTime::from_nanos(pass_offset + f.time_ns);
                    total += model.delay(control, 96, now);
                }
                black_box(total);
            });
            // Keep virtual time non-decreasing from pass to pass.
            pass_offset += trace.duration_ns;
            links.len() as u64
        });
        bag.set("sim.bandwidth_ns_per_op", price);
    }
}
