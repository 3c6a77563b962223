//! Table II statistics, computed from generated traces.
//!
//! The paper characterizes each trace by flow count and *average
//! centrality* under an even k-way partition of the hosts (§II-A uses k=5).
//! This module reproduces that measurement pipeline: host-pair graph →
//! size-constrained MLkP → per-group centrality.

use lazyctrl_partition::{metrics, mlkp, MlkpConfig, WeightedGraph};
use serde::{Deserialize, Serialize};

use crate::Trace;

/// One Table II row, measured (not asserted) from a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Trace name.
    pub name: String,
    /// Number of flow arrivals.
    pub num_flows: usize,
    /// Distinct communicating host pairs.
    pub distinct_pairs: usize,
    /// Average group centrality under an even k-way host partition.
    pub avg_centrality: f64,
    /// Fraction of traffic crossing the k groups (the paper's "<9.8%").
    pub inter_group_fraction: f64,
    /// Share of flows carried by the top 10% of communicating pairs.
    pub top10_share: f64,
    /// Nominal p (synthetic traces only).
    pub p: Option<f64>,
    /// Nominal q (synthetic traces only).
    pub q: Option<f64>,
}

/// Builds the host-level communication graph: vertices are hosts, edge
/// weights are flow counts between the pair.
pub(crate) fn host_graph(trace: &Trace) -> WeightedGraph {
    let n = trace.topology.num_hosts();
    let mut counts: std::collections::HashMap<(u32, u32), f64> = std::collections::HashMap::new();
    for f in &trace.flows {
        let key = if f.src.0 < f.dst.0 {
            (f.src.0, f.dst.0)
        } else {
            (f.dst.0, f.src.0)
        };
        *counts.entry(key).or_insert(0.0) += 1.0;
    }
    WeightedGraph::from_triplets(
        n,
        counts
            .into_iter()
            .map(|((a, b), w)| (a as usize, b as usize, w)),
    )
}

/// Computes a trace's Table II row: centrality via an (approximately even)
/// `k`-way partition of the hosts, as in §II-A.
pub fn compute(trace: &Trace, k: usize, seed: u64) -> TraceStats {
    let g = host_graph(trace);
    let n = g.num_vertices();
    // "partitioning the hosts evenly into k groups": allow 5% slack.
    let cap = (n as f64 / k as f64 * 1.05).ceil();
    let part = mlkp(
        &g,
        &MlkpConfig::new(k).with_max_part_weight(cap).with_seed(seed),
    );
    let avg_centrality = metrics::average_centrality(&g, &part);
    let inter_group_fraction = metrics::normalized_inter_group_intensity(&g, &part);

    // Top-10% pair share.
    let mut pair_counts: Vec<f64> = {
        let mut m: std::collections::HashMap<(u32, u32), f64> = std::collections::HashMap::new();
        for f in &trace.flows {
            let key = if f.src.0 < f.dst.0 {
                (f.src.0, f.dst.0)
            } else {
                (f.dst.0, f.src.0)
            };
            *m.entry(key).or_insert(0.0) += 1.0;
        }
        m.into_values().collect()
    };
    pair_counts.sort_by(|a, b| b.partial_cmp(a).expect("finite counts"));
    let top_k = (pair_counts.len() / 10).max(1);
    let top10_share = if trace.num_flows() == 0 {
        0.0
    } else {
        pair_counts.iter().take(top_k).sum::<f64>() / trace.num_flows() as f64
    };

    TraceStats {
        name: trace.name.clone(),
        num_flows: trace.num_flows(),
        distinct_pairs: pair_counts.len(),
        avg_centrality,
        inter_group_fraction,
        top10_share,
        p: trace.nominal.p,
        q: trace.nominal.q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realistic::{generate, RealTraceConfig};

    #[test]
    fn real_surrogate_matches_paper_aggregates() {
        let trace = generate(&RealTraceConfig::small());
        let stats = compute(&trace, 5, 1);
        // §II-A: average centrality 0.853, inter-group < 9.8%, 90/10 skew.
        assert!(
            stats.avg_centrality > 0.75,
            "centrality {} below paper band",
            stats.avg_centrality
        );
        assert!(
            stats.inter_group_fraction < 0.20,
            "inter-group fraction {} too high",
            stats.inter_group_fraction
        );
        assert!(
            stats.top10_share > 0.80,
            "top-10% share {} too low",
            stats.top10_share
        );
        assert_eq!(stats.num_flows, trace.num_flows());
        assert_eq!(stats.p, None);
    }

    #[test]
    fn host_graph_shape() {
        let trace = generate(&RealTraceConfig::small());
        let g = host_graph(&trace);
        assert_eq!(g.num_vertices(), 1000);
        assert_eq!(g.num_edges(), trace.distinct_pairs());
        assert!((g.total_edge_weight() - trace.num_flows() as f64).abs() < 1e-9);
    }

    #[test]
    fn stats_are_deterministic() {
        let trace = generate(&RealTraceConfig::small());
        assert_eq!(compute(&trace, 5, 42), compute(&trace, 5, 42));
    }
}
