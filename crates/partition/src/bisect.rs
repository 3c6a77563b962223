//! Size-capped minimum bisection for `IncUpdate`'s merge-and-split step.
//!
//! The paper re-splits a merged group pair "to ensure minimized
//! communication between the two new groups ... identical to finding a
//! minimum bisection cut" (§III-C.2). True minimum bisection is NP-hard;
//! following the paper's own pragmatics we take the best of:
//!
//! 1. the **Stoer–Wagner** global minimum cut, accepted when both sides fit
//!    the size cap (cheap to check, often optimal when the merged group has
//!    two natural communities), and
//! 2. a **greedy-growing + boundary-refinement** balanced bisection that
//!    always satisfies the cap.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::initial::grow_bisection;
use crate::metrics::edge_cut;
use crate::mincut::stoer_wagner;
use crate::refine::{enforce_limit, refine};
use crate::{Partition, WeightedGraph};

/// Vertex-count threshold above which Stoer–Wagner (O(V³)) is skipped.
const SW_MAX_VERTICES: usize = 192;

/// Splits `graph` into two groups, each of weighted size at most
/// `max_side_weight`, minimizing the cut between them.
///
/// # Panics
///
/// Panics if `2 * max_side_weight` is less than the total vertex weight
/// (no feasible bisection) or if the graph has fewer than 2 vertices.
pub(crate) fn min_bisection(graph: &WeightedGraph, max_side_weight: f64, seed: u64) -> Partition {
    let n = graph.num_vertices();
    assert!(n >= 2, "cannot bisect a graph with {n} vertices");
    let total = graph.total_vertex_weight();
    assert!(
        total <= 2.0 * max_side_weight + 1e-9,
        "total weight {total} cannot fit in two sides of {max_side_weight}"
    );
    let mut rng = StdRng::seed_from_u64(seed);

    let mut candidates: Vec<Partition> = Vec::new();

    // Candidate 1: global min cut, if it happens to be balanced enough.
    if n <= SW_MAX_VERTICES {
        if let Some(cut) = stoer_wagner(graph) {
            let assignment: Vec<usize> = cut.side.iter().map(|&s| usize::from(s)).collect();
            let part = Partition::from_assignment(assignment, 2);
            if part.respects_limit(graph, max_side_weight)
                && part.groups().iter().all(|g| !g.is_empty())
            {
                candidates.push(part);
            }
        }
    }

    // Candidate 2: balanced greedy growing + refinement, then hard repair.
    let bucket: Vec<usize> = (0..n).collect();
    let (side_a, _side_b) = grow_bisection(graph, &bucket, total / 2.0, &mut rng);
    let mut assignment = vec![1usize; n];
    for &v in &side_a {
        assignment[v] = 0;
    }
    let mut part = Partition::from_assignment(assignment, 2);
    refine(graph, &mut part, max_side_weight, 8);
    enforce_limit(graph, &mut part, max_side_weight);
    // enforce_limit may create a third group in pathological cases; fold the
    // smallest group into whichever of the first two has room.
    if part.num_groups() > 2 {
        let weights = part.group_weights(graph);
        for g in 2..part.num_groups() {
            for v in part.members(g) {
                let vw = graph.vertex_weight(v);
                let target = if weights[0] + vw <= max_side_weight {
                    0
                } else {
                    1
                };
                part.assign(v, target);
            }
        }
        part.compact();
    }
    if part.respects_limit(graph, max_side_weight) {
        candidates.push(part);
    }

    candidates
        .into_iter()
        .min_by(|a, b| {
            edge_cut(graph, a)
                .partial_cmp(&edge_cut(graph, b))
                .expect("finite cuts")
        })
        .expect("at least the balanced candidate is feasible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::normalized_inter_group_intensity;

    fn dumbbell(k: usize, bridge: f64) -> WeightedGraph {
        let mut g = WeightedGraph::new(2 * k);
        for i in 0..k {
            for j in (i + 1)..k {
                g.add_edge(i, j, 10.0);
                g.add_edge(k + i, k + j, 10.0);
            }
        }
        g.add_edge(k - 1, k, bridge);
        g
    }

    #[test]
    fn finds_the_bridge() {
        let g = dumbbell(5, 0.5);
        let part = min_bisection(&g, 5.0, 1);
        assert_eq!(part.num_groups(), 2);
        assert!(part.respects_limit(&g, 5.0));
        assert_eq!(edge_cut(&g, &part), 0.5);
    }

    #[test]
    fn balanced_when_mincut_is_lopsided() {
        // A star: min cut isolates one leaf, but the cap forces balance.
        let mut g = WeightedGraph::new(10);
        for v in 1..10 {
            g.add_edge(0, v, 1.0);
        }
        let part = min_bisection(&g, 5.0, 2);
        assert!(part.respects_limit(&g, 5.0));
        let sizes: Vec<usize> = part.groups().iter().map(Vec::len).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s <= 5));
    }

    #[test]
    fn two_vertices() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(0, 1, 1.0);
        let part = min_bisection(&g, 1.0, 3);
        assert_ne!(part.group_of(0), part.group_of(1));
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn infeasible_cap_panics() {
        let g = WeightedGraph::new(10);
        let _ = min_bisection(&g, 4.0, 1);
    }

    #[test]
    fn deterministic() {
        let g = dumbbell(8, 1.0);
        let a = min_bisection(&g, 8.0, 42);
        let b = min_bisection(&g, 8.0, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn larger_graph_stays_capped_and_low_cut() {
        let g = dumbbell(60, 2.0); // 120 vertices
        let part = min_bisection(&g, 60.0, 9);
        assert!(part.respects_limit(&g, 60.0));
        let frac = normalized_inter_group_intensity(&g, &part);
        assert!(frac < 0.01, "cut fraction {frac} too high for a dumbbell");
    }
}
