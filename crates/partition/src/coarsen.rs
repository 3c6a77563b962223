//! Graph contraction for the multilevel scheme.

use std::collections::BTreeMap;

use crate::WeightedGraph;

/// One level of the coarsening hierarchy.
#[derive(Debug, Clone)]
pub(crate) struct CoarseLevel {
    /// The contracted graph.
    pub(crate) graph: WeightedGraph,
    /// Mapping from fine vertex id to coarse vertex id.
    pub(crate) fine_to_coarse: Vec<usize>,
}

/// Contracts matched pairs into single vertices.
///
/// Vertex weights add; parallel edges accumulate; intra-pair edges vanish
/// (they are interior to the coarse vertex).
pub(crate) fn contract(graph: &WeightedGraph, match_of: &[usize]) -> CoarseLevel {
    let n = graph.num_vertices();
    let mut fine_to_coarse = vec![usize::MAX; n];
    let mut next = 0usize;
    for u in 0..n {
        if fine_to_coarse[u] != usize::MAX {
            continue;
        }
        let p = match_of[u];
        fine_to_coarse[u] = next;
        if p != u {
            fine_to_coarse[p] = next;
        }
        next += 1;
    }

    let mut coarse = WeightedGraph::new(next);
    // Accumulate vertex weights.
    let mut vw = vec![0.0; next];
    for u in 0..n {
        vw[fine_to_coarse[u]] += graph.vertex_weight(u);
    }
    for (c, &w) in vw.iter().enumerate() {
        coarse.set_vertex_weight(c, w);
    }
    // Accumulate edges between distinct coarse vertices.
    let mut acc: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for u in 0..n {
        let cu = fine_to_coarse[u];
        for &(v, w) in graph.neighbors(u) {
            if u < v {
                let cv = fine_to_coarse[v];
                if cu != cv {
                    let key = if cu < cv { (cu, cv) } else { (cv, cu) };
                    *acc.entry(key).or_insert(0.0) += w;
                }
            }
        }
    }
    for ((a, b), w) in acc {
        coarse.add_edge(a, b, w);
    }
    CoarseLevel {
        graph: coarse,
        fine_to_coarse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contraction_merges_pairs() {
        // Square 0-1-2-3 with matching {0,1} {2,3}.
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 5.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 5.0);
        g.add_edge(3, 0, 2.0);
        let level = contract(&g, &[1, 0, 3, 2]);
        assert_eq!(level.graph.num_vertices(), 2);
        assert_eq!(level.graph.num_edges(), 1);
        // Cross edges 1-2 (1.0) and 3-0 (2.0) accumulate.
        assert_eq!(level.graph.edge_weight(0, 1), 3.0);
        assert_eq!(level.graph.vertex_weight(0), 2.0);
        assert_eq!(level.graph.vertex_weight(1), 2.0);
        assert_eq!(level.fine_to_coarse, vec![0, 0, 1, 1]);
    }

    #[test]
    fn unmatched_vertices_survive() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        let level = contract(&g, &[1, 0, 2]);
        assert_eq!(level.graph.num_vertices(), 2);
        assert_eq!(level.graph.vertex_weight(level.fine_to_coarse[2]), 1.0);
        assert_eq!(level.graph.edge_weight(0, 1), 1.0);
    }

    #[test]
    fn total_cross_weight_is_preserved() {
        let mut g = WeightedGraph::new(6);
        for (u, v, w) in [
            (0, 1, 1.0),
            (1, 2, 2.0),
            (2, 3, 3.0),
            (3, 4, 4.0),
            (4, 5, 5.0),
        ] {
            g.add_edge(u, v, w);
        }
        let level = contract(&g, &[1, 0, 3, 2, 5, 4]);
        // Interior edges 0-1 (1.0), 2-3 (3.0), 4-5 (5.0) vanish; 2.0 + 4.0 remain.
        assert_eq!(level.graph.total_edge_weight(), 6.0);
        assert_eq!(level.graph.total_vertex_weight(), g.total_vertex_weight());
    }

    #[test]
    fn identity_matching_copies_graph() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(0, 2, 7.0);
        let level = contract(&g, &[0, 1, 2]);
        assert_eq!(level.graph.num_vertices(), 3);
        assert_eq!(level.graph.edge_weight(0, 2), 7.0);
    }
}
