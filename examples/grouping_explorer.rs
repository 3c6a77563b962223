//! Explore the switch-grouping machinery on the paper's synthetic traces:
//! how inter-group traffic intensity (W_inter) depends on the number of
//! groups (Fig. 6a's sweep), how fast grouping runs, and what the
//! incremental update does when traffic shifts.
//!
//! ```sh
//! cargo run --release --example grouping_explorer
//! ```

use std::time::Instant;

use lazyctrl::partition::{metrics, mlkp, MlkpConfig, Sgi, SgiConfig};
use lazyctrl::trace::synthetic::{generate, SyntheticConfig};
use lazyctrl::trace::IntensityMatrix;

fn main() {
    // Scaled-down Syn-A/B/C (same generation procedure as §V-B).
    let scale = 8;
    println!("generating synthetic traces (scale 1/{scale})...");
    let traces: Vec<_> = [
        SyntheticConfig::syn_a(),
        SyntheticConfig::syn_b(),
        SyntheticConfig::syn_c(),
    ]
    .into_iter()
    .map(|cfg| generate(&cfg.scaled_down(scale)))
    .collect();

    println!("\n=== W_inter vs number of groups (Fig. 6a shape) ===");
    println!("{:>8} {:>10} {:>10} {:>10}", "k", "syn-a", "syn-b", "syn-c");
    for k in [5usize, 10, 20, 40, 80] {
        let mut row = format!("{k:>8}");
        for trace in &traces {
            let graph = IntensityMatrix::from_trace(trace).to_graph();
            // Size-constrained, as in IniGroup (roughly equal groups).
            let cap = (graph.num_vertices() as f64 / k as f64 * 1.1).ceil();
            let part = mlkp(
                &graph,
                &MlkpConfig::new(k).with_max_part_weight(cap).with_seed(7),
            );
            let w = metrics::normalized_inter_group_intensity(&graph, &part);
            row.push_str(&format!(" {:>9.1}%", w * 100.0));
        }
        println!("{row}");
    }

    println!("\n=== grouping computation time vs group size limit (Fig. 6b shape) ===");
    let trace = &traces[0];
    let graph = IntensityMatrix::from_trace(trace).to_graph();
    println!(
        "switches: {}, pairs: {}",
        graph.num_vertices(),
        graph.num_edges()
    );
    for limit in [10usize, 20, 40, 80] {
        let k = graph.num_vertices().div_ceil(limit);
        let start = Instant::now();
        let part = mlkp(
            &graph,
            &MlkpConfig::new(k)
                .with_max_part_weight(limit as f64)
                .with_seed(7),
        );
        let elapsed = start.elapsed();
        println!(
            "limit {:>4}: {:>3} groups in {:>8.2?} (W_inter {:.1}%)",
            limit,
            part.num_groups(),
            elapsed,
            metrics::normalized_inter_group_intensity(&graph, &part) * 100.0
        );
    }

    println!("\n=== IncUpdate after a traffic shift ===");
    let graph = IntensityMatrix::from_trace(&traces[0]).to_graph();
    let n = graph.num_vertices();
    let limit = 40;
    let mut sgi = Sgi::ini_group(
        graph.clone(),
        SgiConfig::new(limit).with_thresholds(0.0, 0.0).with_seed(3),
    );
    println!(
        "initial grouping: {} groups, W_inter {:.2}%",
        sgi.partition().num_groups(),
        sgi.winter() * 100.0
    );
    // Shift: ten previously unrelated switch pairs start talking at a rate
    // comparable to the hottest existing pairs.
    let peak = (0..n)
        .map(|u| graph.weighted_degree(u))
        .fold(0.0f64, f64::max);
    let mut shifted = graph.clone();
    for i in 0..10 {
        let a = i;
        let b = n / 2 + i;
        if a != b {
            shifted.add_edge(a, b, peak);
        }
    }
    sgi.set_intensity(shifted);
    println!("after shift:      W_inter {:.2}%", sgi.winter() * 100.0);
    let start = Instant::now();
    let report = sgi.par_inc_update(f64::INFINITY, sgi.config().max_merge_rounds);
    println!(
        "IncUpdate: {} round(s) in {:.2?}, W_inter {:.2}% → {:.2}%",
        report.rounds,
        start.elapsed(),
        report.winter_before * 100.0,
        report.winter_after * 100.0
    );
}
