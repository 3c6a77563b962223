//! Layer `cluster`: the multi-controller plane, driven through the
//! `StepModel` seam exactly as the simulator and the model checker drive
//! it — switch messages, controller-peer messages, timers — plus the two
//! operations the model checker leans on, `Clone` and the state
//! fingerprint.

use std::collections::BTreeMap;
use std::time::Instant;

use lazyctrl::cluster::{
    ClusterConfig, ClusterControlPlane, ClusterOutput, ClusterTimer, StepModel,
};
use lazyctrl::controller::LazyConfig;
use lazyctrl::net::SwitchId;
use lazyctrl::partition::WeightedGraph;
use lazyctrl::proto::{Message, OutputSink};
use std::hint::black_box;

use super::{ns_per_op, Stopwatch, PROBE_MIN};
use crate::metrics::Bag;
use crate::spans::Recorder;

/// One-way controller-peer latency of the experiment's latency model.
const PEER_LATENCY_NS: u64 = 400_000;
/// Flow-setup requests offered after each timer firing.
const PUNTS_PER_TICK: usize = 16;
/// Peer messages kept for the codec probes.
const PEER_SAMPLE: usize = 512;

/// The plane configuration the experiment driver derives for
/// `cluster_storm`: four members, flood dissemination, 32 ingress slots
/// at 5 ms per message.
pub fn storm_config(lazy: LazyConfig) -> ClusterConfig {
    ClusterConfig {
        num_controllers: 4,
        lazy,
        ingress_queue_slots: 32,
        ingress_cost_ns: 5_000_000,
        ..ClusterConfig::default()
    }
}

/// A bench-side driver of the plane: timers fire in due order, peer
/// messages arrive one peer latency after they were sent, switch
/// messages are offered between timer firings.
struct Driver {
    plane: ClusterControlPlane,
    /// Armed timers by `(due ns, arming order)`: earliest first, ties in
    /// the order they were armed, so the drive is deterministic.
    timers: BTreeMap<(u64, u64), ClusterTimer>,
    armed: u64,
    in_flight: Vec<(u32, u32, Message)>,
    now_ns: u64,
    peer_sample: Vec<Message>,
}

impl Driver {
    fn absorb(&mut self, out: &mut OutputSink<ClusterOutput>) {
        for o in out.drain() {
            match o {
                ClusterOutput::ToCtrl { from, to, msg } => {
                    if self.peer_sample.len() < PEER_SAMPLE {
                        self.peer_sample.push(msg.clone());
                    }
                    self.in_flight.push((from, to, msg));
                }
                ClusterOutput::SetTimer(timer, delay_ns) => {
                    self.armed += 1;
                    self.timers
                        .insert((self.now_ns + delay_ns, self.armed), timer);
                }
                ClusterOutput::ToSwitch { .. } => {}
            }
        }
    }
}

/// Per-call host time of the plane's three handlers under `cfg`, on a
/// plane bootstrapped from `graph` (one vertex per switch), taught the
/// fabric's host locations (`learned`: the LfibSync / StateReport
/// messages designated switches sent up) and offered the fabric's `punts`. Also clone and fingerprint
/// cost of the plane so evolved. Returns a sample of the peer messages
/// the plane sent.
pub fn probes(
    rec: &mut Recorder,
    cfg: ClusterConfig,
    graph: WeightedGraph,
    learned: &[(SwitchId, Message)],
    punts: &[(SwitchId, Message)],
    bag: &mut Bag,
) -> Vec<Message> {
    let mut out = OutputSink::new();
    let mut d = Driver {
        plane: ClusterControlPlane::new(graph.num_vertices(), cfg),
        timers: BTreeMap::new(),
        armed: 0,
        in_flight: Vec::new(),
        now_ns: 0,
        peer_sample: Vec::new(),
    };
    d.plane.bootstrap(0, graph, &mut out);
    d.absorb(&mut out);
    for (from, msg) in learned {
        d.plane.step_switch(d.now_ns, *from, msg, &mut out);
        d.absorb(&mut out);
    }

    let (mut switch_clock, mut ctrl_clock, mut timer_clock) = (
        Stopwatch::default(),
        Stopwatch::default(),
        Stopwatch::default(),
    );
    let (mut switch_ops, mut ctrl_ops, mut timer_ops) = (0u64, 0u64, 0u64);
    let mut next_punt = 0;
    rec.span("cluster.step_model", |_| {
        let begun = Instant::now();
        // Three handlers share the loop, so it runs three probe lengths.
        while begun.elapsed() < 3 * PROBE_MIN {
            let Some(((due, _), timer)) = d.timers.pop_first() else {
                break;
            };
            d.now_ns = d.now_ns.max(due);
            let now = d.now_ns;
            timer_clock.time(|| d.plane.step_timer(now, timer, &mut out));
            timer_ops += 1;
            d.absorb(&mut out);

            // Everything in flight lands one peer latency later, and so
            // does whatever that causes, until the fabric is quiet.
            while !d.in_flight.is_empty() {
                d.now_ns += PEER_LATENCY_NS;
                let now = d.now_ns;
                let batch = std::mem::take(&mut d.in_flight);
                ctrl_ops += batch.len() as u64;
                ctrl_clock.time(|| {
                    for (from, to, msg) in &batch {
                        d.plane.step_ctrl(now, *from, *to, msg, &mut out);
                    }
                });
                d.absorb(&mut out);
            }

            if !punts.is_empty() {
                let now = d.now_ns;
                switch_clock.time(|| {
                    for _ in 0..PUNTS_PER_TICK {
                        let (from, msg) = &punts[next_punt % punts.len()];
                        next_punt += 1;
                        d.plane.step_switch(now, *from, msg, &mut out);
                    }
                });
                switch_ops += PUNTS_PER_TICK as u64;
                d.absorb(&mut out);
            }
        }
    });
    let per_op = |clock: &Stopwatch, ops: u64| clock.ns() as f64 / ops.max(1) as f64;
    bag.set("cluster.switch_msg_ns", per_op(&switch_clock, switch_ops));
    bag.set("cluster.ctrl_msg_ns", per_op(&ctrl_clock, ctrl_ops));
    bag.set("cluster.timer_ns", per_op(&timer_clock, timer_ops));

    state_probes(rec, &d.plane, bag);
    d.peer_sample
}

/// `Clone` and `fingerprint` of `plane` — what every model-checker
/// transition pays on top of the handler it runs.
pub fn state_probes(rec: &mut Recorder, plane: &ClusterControlPlane, bag: &mut Bag) {
    const PER_PASS: u64 = 256;
    let clone = ns_per_op(rec, "cluster.clone", |clock| {
        clock.time(|| {
            for _ in 0..PER_PASS {
                black_box(plane.clone());
            }
        });
        PER_PASS
    });
    bag.set("cluster.clone_ns", clone);
    let fingerprint = ns_per_op(rec, "cluster.fingerprint", |clock| {
        clock.time(|| {
            for _ in 0..PER_PASS {
                black_box(plane.fingerprint());
            }
        });
        PER_PASS
    });
    bag.set("cluster.fingerprint_ns", fingerprint);
}
