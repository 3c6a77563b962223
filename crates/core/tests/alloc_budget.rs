//! Allocation budget of the simulator's per-event path.
//!
//! A counting global allocator over `System` counts every heap allocation
//! in this test binary. The file holds a single test so no other test's
//! allocations land in the count.
//!
//! The budget is for a plain-OpenFlow run with ARP: every fresh pair's
//! ARP request is punted and flooded to every other switch, so the run is
//! dominated by fan-out — one PacketIn, a PacketOut per switch, a decode
//! per PacketOut. Those must not allocate per copy: the flood shares one
//! action list and the PacketIn's bytes, a switch decodes a frame as a
//! view of its message's bytes, and an installed rule shares its FlowMod's
//! action list. The test pins both the count and the sharing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lazyctrl_controller::{BaselineController, ControllerOutput};
use lazyctrl_core::{ControlMode, Experiment, ExperimentConfig};
use lazyctrl_net::{EtherType, EthernetFrame, HostId, PortNo, SwitchId};
use lazyctrl_proto::{
    Action, FlowMatch, FlowModCommand, FlowModMsg, Message, MessageBody, OfMessage, OutputSink,
    PacketInMsg, PacketInReason,
};
use lazyctrl_switch::EdgeSwitch;
use lazyctrl_trace::synthetic::{generate, SyntheticConfig};

/// Heap allocations (and reallocations) made by this process so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `realloc`'s contract: `ptr` came from
        // this allocator with `layout`, and `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `dealloc`'s contract: `ptr` came from
        // this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most heap allocations per processed event a plain-OpenFlow run with
/// ARP may make. Copying an action list into every flood PacketOut and a
/// payload out of every decoded frame cost about 3 per event on Syn-A/8.
const ALLOCATIONS_PER_EVENT: f64 = 0.25;

fn punt(src: u32, dst: u32) -> PacketInMsg {
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

#[test]
fn baseline_fan_out_shares_instead_of_copying() {
    // An installed rule holds its FlowMod's action list, not a copy.
    let fm = FlowModMsg {
        command: FlowModCommand::Add,
        flow_match: FlowMatch::to_dst(HostId::new(2).mac()),
        priority: 10,
        idle_timeout: 0,
        hard_timeout: 0,
        cookie: 0,
        actions: Arc::new([Action::Output(PortNo::new(3))]),
    };
    let mut switch = EdgeSwitch::new(SwitchId::new(0));
    let msg = Message::of(1, OfMessage::flow_mod(fm.clone()));
    switch.handle_control_message(0, &msg, &mut OutputSink::new());
    let rule = switch.flow_table().iter().next().expect("rule installed");
    assert!(
        Arc::ptr_eq(&rule.actions, &fm.actions),
        "rule copied its actions"
    );

    // The baseline flood: one action list and the PacketIn's own bytes in
    // every PacketOut.
    let mut controller = BaselineController::new((0..8).map(SwitchId::new).collect());
    let pi = punt(10, 20);
    let mut out = OutputSink::new();
    let msg = Message::of(1, OfMessage::PacketIn(pi.clone()));
    controller.handle_message(0, SwitchId::new(0), &msg, &mut out);
    let flood: Vec<_> = out
        .drain()
        .map(|o| match o {
            ControllerOutput::ToSwitch(
                _,
                Message {
                    body: MessageBody::Of(OfMessage::PacketOut(po)),
                    ..
                },
            ) => po,
            other => panic!("expected a flood PacketOut, got {other:?}"),
        })
        .collect();
    assert_eq!(flood.len(), 7);
    for po in &flood {
        assert!(
            Arc::ptr_eq(&po.actions, &flood[0].actions),
            "flood copied its actions"
        );
        assert_eq!(
            po.data.as_ptr(),
            pi.data.as_ptr(),
            "flood copied the packet"
        );
    }

    // The budget, over a whole run.
    let mut tc = SyntheticConfig::syn_a().scaled_down(16);
    tc.num_flows = 3_000;
    tc.duration_hours = 2;
    let trace = generate(&tc);
    let mut cfg = ExperimentConfig::new(ControlMode::Baseline);
    cfg.emit_arp = true;
    let experiment = Experiment::new(trace, cfg);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = experiment.run();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let per_event = allocations as f64 / report.events_processed as f64;
    assert!(
        report.events_processed > 100_000,
        "{} events",
        report.events_processed
    );
    assert!(
        per_event < ALLOCATIONS_PER_EVENT,
        "{allocations} allocations for {} events: {per_event:.3} per event",
        report.events_processed
    );
}
