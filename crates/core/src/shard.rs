//! Sharded-engine driver: partitions a built [`DataCenterWorld`] along
//! the control plane's own switch grouping and runs it on the
//! conservative parallel executor (`lazyctrl_sim::run_sharded`).
//!
//! The partition function reuses LazyCtrl's thesis structurally: most
//! control traffic stays inside a switch group, so placing whole groups
//! on one partition keeps the dominant event kinds (local frames, peer
//! syncs, tunnels within a group) partition-local. Partition 0 — the
//! *hub* — owns the entire control plane (central controller or cluster)
//! plus any switches whose group hashes there; the measured event mix is
//! ~95% switch-subsystem, so the hub's serial share stays small.
//!
//! Shard count is a constant ([`DEFAULT_SHARDS`]), deliberately
//! independent of the worker-thread count: results are a function of the
//! layout, threads only change wall clock.

use std::sync::Arc;

use lazyctrl_net::SwitchId;
use lazyctrl_proto::InjectedEvent;
use lazyctrl_sim::{
    run_sharded, EventQueue, Outbox, Scheduler, ShardOpts, ShardWorld, SimDuration, SimTime, World,
};

use crate::world::{AnyController, DataCenterWorld, Ev};

/// Switch partitions per sharded run (capped at the switch count).
/// Chosen to leave headroom over common core counts while keeping
/// per-partition state (topology + link clones) modest.
const DEFAULT_SHARDS: usize = 16;

/// Outcome of a sharded run, post-merge.
pub(crate) struct ShardedRun {
    /// The reassembled world (hub + all shards), ready for the unchanged
    /// report-collection path.
    pub(crate) world: DataCenterWorld,
    /// Events processed across all partitions, including one per applied
    /// global — the sharded analogue of `queue.popped_total()`.
    pub(crate) events_processed: u64,
}

/// `owner[switch] = partition` along the controller's grouping: whole
/// groups land on one shard (1..=shards); ungrouped switches (and every
/// switch under the Baseline controller) fall back to their own ID so the
/// map still spreads them. Partition 0 is reserved for the hub; it owns
/// no switches by default, only the control plane.
///
/// This is a *placement* function evaluated once, at split time: later
/// regroups or migrations do not re-shard (events for a moved host are
/// forwarded by the ownership checks in the world's dispatcher).
fn partition_map(world: &DataCenterWorld, shards: usize) -> Vec<u16> {
    let n = world.topology.num_switches;
    (0..n)
        .map(|s| {
            let id = SwitchId::new(s as u32);
            let group = match &world.controller {
                AnyController::Lazy(c) => c.grouping().group_of(id),
                AnyController::Cluster(p) => p.group_of_switch(id),
                AnyController::Baseline(_) => None,
            }
            .unwrap_or(s);
            (1 + group % shards) as u16
        })
        .collect()
}

/// Which partition an event belongs to; `None` marks a global (injected)
/// event, which the executor applies to every partition at a barrier.
fn target_partition(world: &DataCenterWorld, owner: &[u16], ev: &Ev) -> Option<u16> {
    let of = |s: SwitchId| owner[s.index()];
    match ev {
        Ev::FlowArrival(i) => Some(of(world.topology.switch_of(world.flows[*i].src))),
        Ev::SyntheticFlow { src, .. } => Some(of(world.topology.switch_of(*src))),
        Ev::LocalFrame { switch, .. } => Some(of(*switch)),
        Ev::TunnelArrive { to, .. } => Some(of(*to)),
        Ev::MsgToSwitch { to, .. } => Some(of(*to)),
        Ev::SwitchTimer { switch, .. } => Some(of(*switch)),
        Ev::MsgToController { .. }
        | Ev::ControllerTimer(_)
        | Ev::CtrlPeerMsg { .. }
        | Ev::ClusterTimer(_) => Some(0),
        Ev::Injected(_) => None,
    }
}

/// Redistributes the sequential bootstrap queue, merged with the flow
/// arrivals exactly as the sequential run loop merges them, into
/// per-partition queues plus the global-event list. Draining in merge
/// order and re-inserting preserves relative order within each
/// destination, so the split is itself deterministic.
fn split_queue(
    world: &DataCenterWorld,
    owner: &[u16],
    nparts: u16,
    mut queue: EventQueue<Ev>,
    arrivals: impl Iterator<Item = (SimTime, Ev)>,
) -> (Vec<EventQueue<Ev>>, Vec<(SimTime, InjectedEvent)>) {
    let mut queues: Vec<EventQueue<Ev>> = (0..nparts).map(|_| EventQueue::new()).collect();
    let mut globals = Vec::new();
    let mut arrivals = arrivals.peekable();
    while let Some((at, ev)) = queue.pop_merged(&mut arrivals, SimTime::MAX) {
        if let Ev::Injected(g) = ev {
            globals.push((at, g));
            continue;
        }
        let p = target_partition(world, owner, &ev).expect("only Injected is global");
        queues[usize::from(p)].schedule(at, ev);
    }
    (queues, globals)
}

/// Adapter: one partition world as a [`ShardWorld`]. Handlers run the
/// ordinary [`World`] dispatch, then move any cross-partition sends the
/// world staged into the executor's outbox.
struct CoreShard(DataCenterWorld);

fn drain_staged(world: &mut DataCenterWorld, outbox: &mut Outbox<Ev>) {
    if let Some(p) = &mut world.part {
        for (dst, at, ev) in p.staged.drain(..) {
            outbox.send(usize::from(dst), at, ev);
        }
    }
}

impl ShardWorld for CoreShard {
    type Event = Ev;
    type Global = InjectedEvent;

    fn handle(
        &mut self,
        now: SimTime,
        event: Ev,
        sched: &mut Scheduler<'_, Ev>,
        outbox: &mut Outbox<Ev>,
    ) {
        World::handle(&mut self.0, now, event, sched);
        drain_staged(&mut self.0, outbox);
    }

    fn apply_global(
        &mut self,
        now: SimTime,
        global: &InjectedEvent,
        sched: &mut Scheduler<'_, Ev>,
        outbox: &mut Outbox<Ev>,
    ) {
        self.0.handle_global(now, global, sched);
        drain_staged(&mut self.0, outbox);
    }
}

/// Runs a bootstrapped world + queue, beside the flow `arrivals`, on the
/// sharded engine with `workers` threads, then reassembles one world for
/// report collection.
/// Shard-layer counters land in the merged metrics (prefixed `shard_`);
/// only worker-count-independent quantities are recorded, preserving
/// bit-identical reports across worker counts.
pub(crate) fn run_sharded_experiment(
    world: DataCenterWorld,
    queue: EventQueue<Ev>,
    arrivals: impl Iterator<Item = (SimTime, Ev)>,
    horizon: SimTime,
    workers: usize,
) -> ShardedRun {
    let num_switches = world.topology.num_switches;
    let shards = DEFAULT_SHARDS.min(num_switches.max(1));
    let window = world
        .cfg
        .shard_window_us
        .map(SimDuration::from_micros)
        .unwrap_or_else(|| world.lookahead_floor());
    let owner = Arc::new(partition_map(&world, shards));
    let nparts = (shards + 1) as u16; // + the hub
    let (queues, globals) = split_queue(&world, &owner, nparts, queue, arrivals);
    let worlds = world.split(owner, nparts);
    let shards_in: Vec<(CoreShard, EventQueue<Ev>)> =
        worlds.into_iter().map(CoreShard).zip(queues).collect();

    let (parts, stats) = run_sharded(shards_in, globals, horizon, ShardOpts { workers, window });

    let mut events_processed = stats.globals_applied;
    let mut worlds = Vec::with_capacity(parts.len());
    for (shard, queue) in parts {
        events_processed += queue.popped_total();
        worlds.push(shard.0);
    }
    let mut world = DataCenterWorld::merge_partitions(worlds);
    let ctr = world.ctr;
    world.metrics.bump(ctr.shard_rounds, stats.rounds);
    world
        .metrics
        .bump(ctr.shard_cross_events, stats.cross_events);
    world
        .metrics
        .bump(ctr.shard_bumped_events, stats.bumped_events);
    world
        .metrics
        .bump(ctr.shard_globals_applied, stats.globals_applied);
    ShardedRun {
        world,
        events_processed,
    }
}
