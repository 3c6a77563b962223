//! Layer `controller`: the lazy and baseline controllers' message and
//! timer handlers, and the grouping manager's regroup step.

use lazyctrl::controller::{ControllerTimer, GroupingManager, LazyConfig, RegroupDecision};
use lazyctrl::proto::OutputSink;
use lazyctrl::trace::Trace;
use std::hint::black_box;

use super::fabric::{Controller, Fabric, FirstPackets};
use super::ns_per_op;
use crate::metrics::Bag;
use crate::spans::Recorder;

/// The experiment driver's switch-facing intervals (its defaults).
const SYNC_INTERVAL_MS: u32 = 300_000;
const KEEPALIVE_INTERVAL_MS: u32 = 60_000;
/// Virtual time between regroup-trigger checks.
const REGROUP_CHECK_NS: u64 = 10_000_000_000;

/// The lazy controller configuration the experiment driver derives from
/// a workload's settings.
pub fn lazy_config(group_size_limit: usize, dynamic_updates: bool, seed: u64) -> LazyConfig {
    LazyConfig {
        sync_interval_ms: SYNC_INTERVAL_MS,
        keepalive_interval_ms: KEEPALIVE_INTERVAL_MS,
        group_size_limit,
        dynamic_updates,
        seed,
        ..LazyConfig::default()
    }
}

/// `regroups` says whether the workload runs `LazyDynamic`; only then is
/// the regroup step part of its run.
pub fn probes(
    rec: &mut Recorder,
    fabric: &mut Fabric,
    packets: &FirstPackets,
    trace: &Trace,
    regroups: bool,
    bag: &mut Bag,
) {
    // Taken before the probes below feed the grouping manager punts.
    let bootstrapped = match &fabric.controller {
        Controller::Lazy(c) if regroups => Some(c.grouping().clone()),
        _ => None,
    };

    // The sample's punts through the workload's own controller. The
    // first pass's answers (FlowMod, PacketOut, ARP relays) are delivered
    // into the switches, which is where `switch.control_msg` and the
    // codec probes get them from; later passes drop theirs.
    let mut out = OutputSink::new();
    let mut first = true;
    let name = match fabric.controller {
        Controller::Lazy(_) => "controller.packet_in",
        Controller::Baseline(_) => "controller.baseline_packet_in",
    };
    let packet_in = ns_per_op(rec, name, |clock| {
        clock.time(|| {
            for (from, msg) in &packets.punts {
                let now = fabric.tick();
                match &mut fabric.controller {
                    Controller::Lazy(c) => c.handle_message(now, *from, msg, &mut out),
                    Controller::Baseline(c) => c.handle_message(now, *from, msg, &mut out),
                }
            }
        });
        if std::mem::take(&mut first) {
            fabric.deliver_from_controller(&mut out);
        }
        out.clear();
        packets.punts.len() as u64
    });
    bag.set(&format!("{name}_ns"), packet_in);

    let Controller::Lazy(controller) = &mut fabric.controller else {
        return;
    };
    // One refresh period (six minutes) per pass: 36 trigger checks and 6
    // keep-alive fan-outs, as their 10 s / 60 s periods interleave in a
    // run — so every pass of a regrouping controller holds one regroup
    // round. Off the clock, a slice of the punts arrives first, or the
    // round would find nothing to adapt to.
    let mut now = fabric.now_ns;
    let mut next_punt = 0;
    let timer = ns_per_op(rec, "controller.timer", |clock| {
        for (from, msg) in packets.punts.iter().cycle().skip(next_punt).take(256) {
            controller.handle_message(now, *from, msg, &mut out);
        }
        next_punt = (next_punt + 256) % packets.punts.len().max(1);
        out.clear();
        clock.time(|| {
            for check in 1..=36 {
                now += REGROUP_CHECK_NS;
                controller.on_timer(now, ControllerTimer::RegroupCheck, &mut out);
                if check % 6 == 0 {
                    controller.on_timer(now, ControllerTimer::KeepAlive, &mut out);
                }
            }
        });
        out.clear();
        42
    });
    fabric.now_ns = now;
    bag.set("controller.timer_ns", timer);

    if let Some(bootstrapped) = &bootstrapped {
        regroup_probe(rec, trace, bootstrapped, bag);
    }
}

/// One incremental regroup per six-minute refresh window from hour 8 on
/// (where the expanded trace starts eroding locality): the window's
/// inter-group flows are noted as punts, off the clock, then
/// `GroupingManager::update` runs on it. Starts over from `bootstrapped`
/// when the day is used up.
fn regroup_probe(rec: &mut Recorder, trace: &Trace, bootstrapped: &GroupingManager, bag: &mut Bag) {
    const WINDOW_NS: u64 = 360_000_000_000;
    const START_NS: u64 = 8 * 3_600_000_000_000;
    let topo = &trace.topology;
    let mut manager = bootstrapped.clone();
    let mut window_start = START_NS;
    let ns = ns_per_op(rec, "controller.regroup", |clock| {
        if window_start + WINDOW_NS > trace.duration_ns {
            manager = bootstrapped.clone();
            window_start = START_NS;
        }
        let window_end = window_start + WINDOW_NS;
        for f in trace.flows_between(window_start, window_end) {
            let (a, b) = (topo.switch_of(f.src), topo.switch_of(f.dst));
            if manager.group_of(a) != manager.group_of(b) {
                manager.note_punt(a, b);
            }
        }
        black_box(clock.time(|| {
            manager.update(
                window_end,
                RegroupDecision::Incremental,
                1.0,
                SYNC_INTERVAL_MS,
                KEEPALIVE_INTERVAL_MS,
            )
        }));
        window_start = window_end;
        1
    });
    bag.set("controller.regroup_ms", ns / 1e6);
}
