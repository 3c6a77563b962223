//! Quality metrics for groupings: edge cut, the paper's normalized
//! inter-group traffic intensity `W_inter`, and group centrality.

use crate::{Partition, WeightedGraph, CONTROLLER_GROUP};

/// Total weight of edges crossing group boundaries.
///
/// Edges incident to [`CONTROLLER_GROUP`]-excluded vertices count as cut
/// (their traffic is controller-handled by definition).
pub fn edge_cut(graph: &WeightedGraph, part: &Partition) -> f64 {
    let mut cut = 0.0;
    for u in 0..graph.num_vertices() {
        for &(v, w) in graph.neighbors(u) {
            if u < v {
                let gu = part.group_of(u);
                let gv = part.group_of(v);
                if gu != gv || gu == CONTROLLER_GROUP {
                    cut += w;
                }
            }
        }
    }
    cut
}

/// The paper's `W_inter` (§III-C.1) normalized by total intensity: the
/// fraction of traffic that crosses groups, in `[0, 1]`.
///
/// Returns 0 for graphs with no edges.
pub fn normalized_inter_group_intensity(graph: &WeightedGraph, part: &Partition) -> f64 {
    let total = graph.total_edge_weight();
    if total == 0.0 {
        return 0.0;
    }
    edge_cut(graph, part) / total
}

/// Centrality of one group (§II-A): intra-group traffic divided by all
/// traffic involving the group's vertices, in `[0, 1]`.
///
/// Returns `None` for groups with no incident traffic.
pub(crate) fn group_centrality(
    graph: &WeightedGraph,
    part: &Partition,
    group: usize,
) -> Option<f64> {
    let mut intra = 0.0;
    let mut incident = 0.0;
    for u in 0..graph.num_vertices() {
        if part.group_of(u) != group {
            continue;
        }
        for &(v, w) in graph.neighbors(u) {
            if part.group_of(v) == group {
                // Counted from both endpoints; halve below.
                intra += w;
                incident += w;
            } else {
                incident += w;
            }
        }
    }
    intra /= 2.0;
    incident -= intra; // intra edges were double counted in incident too
    if incident == 0.0 {
        None
    } else {
        Some(intra / incident)
    }
}

/// Mean centrality over all non-empty groups (the paper reports 0.853 for
/// its k=5 partition of the real trace).
pub fn average_centrality(graph: &WeightedGraph, part: &Partition) -> f64 {
    let vals: Vec<f64> = (0..part.num_groups())
        .filter_map(|g| group_centrality(graph, part, g))
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster_graph() -> WeightedGraph {
        let mut g = WeightedGraph::new(6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(u, v, 10.0);
        }
        g.add_edge(2, 3, 5.0);
        g
    }

    #[test]
    fn cut_counts_cross_edges_once() {
        let g = two_cluster_graph();
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1], 2);
        assert_eq!(edge_cut(&g, &p), 5.0);
        let frac = normalized_inter_group_intensity(&g, &p);
        assert!((frac - 5.0 / 65.0).abs() < 1e-12);
    }

    #[test]
    fn single_group_has_zero_cut() {
        let g = two_cluster_graph();
        let p = Partition::single_group(6);
        assert_eq!(edge_cut(&g, &p), 0.0);
        assert_eq!(normalized_inter_group_intensity(&g, &p), 0.0);
        assert_eq!(average_centrality(&g, &p), 1.0);
    }

    #[test]
    fn centrality_matches_hand_computation() {
        let g = two_cluster_graph();
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1], 2);
        // Group 0: intra = 30, incident = 30 + 5 = 35.
        let c0 = group_centrality(&g, &p, 0).unwrap();
        assert!((c0 - 30.0 / 35.0).abs() < 1e-12);
        let avg = average_centrality(&g, &p);
        assert!((avg - 30.0 / 35.0).abs() < 1e-12);
    }

    #[test]
    fn excluded_vertices_count_as_cut() {
        let g = two_cluster_graph();
        let p = Partition::from_assignment(vec![0, 0, CONTROLLER_GROUP, 1, 1, 1], 2);
        // Edges 1-2, 0-2 (intra cluster but excluded endpoint) and 2-3 all cut.
        assert_eq!(edge_cut(&g, &p), 10.0 + 10.0 + 5.0);
    }

    #[test]
    fn empty_graph_metrics() {
        let g = WeightedGraph::new(4);
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2);
        assert_eq!(normalized_inter_group_intensity(&g, &p), 0.0);
        assert_eq!(group_centrality(&g, &p, 0), None);
        assert_eq!(average_centrality(&g, &p), 0.0);
    }
}
