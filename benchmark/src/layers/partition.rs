//! Layer `partition`: the SGI grouping algorithm on the workload's own
//! intensity graphs.

use lazyctrl::partition::{Sgi, SgiConfig, WeightedGraph};
use lazyctrl::trace::{IntensityMatrix, Trace};
use std::hint::black_box;

use super::ns_per_op;
use crate::metrics::Bag;
use crate::spans::Recorder;

/// The intensity graph of the trace's first hour — what the controller
/// bootstraps its grouping from.
pub fn bootstrap_graph(trace: &Trace) -> WeightedGraph {
    IntensityMatrix::from_trace_window(trace, 0, 3_600_000_000_000).to_graph()
}

/// The configuration the controller's grouping manager hands SGI.
fn controller_sgi_config(group_limit: usize, seed: u64) -> SgiConfig {
    SgiConfig::new(group_limit)
        .with_thresholds(0.0, 0.0)
        .with_min_improvement(0.10)
        .with_seed(seed)
}

/// `IniGroup` on the bootstrap graph (part of every lazy run's set-up)
/// and, where the workload regroups, one `IncUpdate` after the whole
/// day's intensities replace the first hour's. Input copies are made off
/// the clock.
pub fn probes(
    rec: &mut Recorder,
    trace: &Trace,
    group_limit: usize,
    seed: u64,
    regroups: bool,
    bag: &mut Bag,
) {
    let first_hour = bootstrap_graph(trace);
    let cfg = controller_sgi_config(group_limit, seed);
    let ini_ns = ns_per_op(rec, "partition.inigroup", |clock| {
        let (graph, cfg) = (first_hour.clone(), cfg.clone());
        black_box(clock.time(|| Sgi::ini_group(graph, cfg)));
        1
    });
    bag.set("partition.inigroup_ms", ini_ns / 1e6);

    if regroups {
        let grouped = Sgi::ini_group(first_hour, cfg);
        let whole_day = IntensityMatrix::from_trace(trace).to_graph();
        let rounds = grouped.config().max_merge_rounds;
        let inc_ns = ns_per_op(rec, "partition.incupdate", |clock| {
            let (mut sgi, graph) = (grouped.clone(), whole_day.clone());
            black_box(clock.time(|| {
                sgi.set_intensity(graph);
                sgi.par_inc_update(f64::INFINITY, rounds)
            }));
            1
        });
        bag.set("partition.incupdate_ms", inc_ns / 1e6);
    }
}
