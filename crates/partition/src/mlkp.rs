//! The Multi-Level k-way Partitioning driver with the paper's
//! size-constraint wrapper.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::coarsen::{contract, CoarseLevel};
use crate::initial::initial_partition;
use crate::matching::heavy_edge_matching;
use crate::refine::{enforce_limit, refine};
use crate::{Partition, WeightedGraph};

/// Refinement passes per uncoarsening level.
const REFINE_PASSES: usize = 8;

/// Configuration for [`mlkp`].
///
/// # Example
///
/// ```
/// use lazyctrl_partition::MlkpConfig;
///
/// let cfg = MlkpConfig::new(8)
///     .with_max_part_weight(46.0)
///     .with_seed(1);
/// assert_eq!(cfg.num_parts, 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlkpConfig {
    /// Number of parts `k` to produce (more may appear if the size cap
    /// forces it; fewer if the graph has fewer vertices).
    pub num_parts: usize,
    /// Hard cap on a part's total vertex weight (`None` = unconstrained).
    pub(crate) max_part_weight: Option<f64>,
    /// RNG seed (the algorithm is deterministic given the seed).
    pub(crate) seed: u64,
}

impl MlkpConfig {
    /// A default configuration for `k` parts.
    pub fn new(num_parts: usize) -> Self {
        MlkpConfig {
            num_parts,
            max_part_weight: None,
            seed: 0xC0FFEE,
        }
    }

    /// Sets the hard per-part weight cap.
    pub fn with_max_part_weight(mut self, w: f64) -> Self {
        self.max_part_weight = Some(w);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Partitions `graph` into (approximately) `cfg.num_parts` parts minimizing
/// edge cut, honouring `cfg.max_part_weight` as a hard cap.
///
/// This is the engine behind the paper's `IniGroup` (§III-C.2): coarsen by
/// heavy-edge matching, partition the coarsest graph by recursive greedy
/// growing, then uncoarsen with boundary refinement at every level. Runtime
/// is linear in the number of edges per level.
///
/// # Panics
///
/// Panics if `cfg.num_parts` is zero, or if `max_part_weight` is smaller
/// than the heaviest vertex (no feasible assignment exists).
pub fn mlkp(graph: &WeightedGraph, cfg: &MlkpConfig) -> Partition {
    assert!(cfg.num_parts > 0, "num_parts must be positive");
    let n = graph.num_vertices();
    if n == 0 {
        return Partition::from_assignment(vec![], cfg.num_parts.max(1));
    }
    if let Some(cap) = cfg.max_part_weight {
        let heaviest = (0..n)
            .map(|v| graph.vertex_weight(v))
            .fold(0.0f64, f64::max);
        assert!(
            heaviest <= cap + 1e-9,
            "max_part_weight {cap} below heaviest vertex {heaviest}"
        );
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let cap = cfg.max_part_weight.unwrap_or(f64::INFINITY);
    // ---- Coarsening phase: down to max(64, 8·k) vertices ----
    let coarsen_until = (8 * cfg.num_parts).max(64);
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut current = graph.clone();
    while current.num_vertices() > coarsen_until {
        let matching = heavy_edge_matching(&current, cap, &mut rng);
        let matched_pairs = matching.iter().enumerate().filter(|(u, &p)| *u < p).count();
        // Give up when matching stops shrinking the graph meaningfully.
        if matched_pairs * 20 < current.num_vertices() {
            break;
        }
        let level = contract(&current, &matching);
        current = level.graph.clone();
        levels.push(level);
    }

    // ---- Initial partitioning on the coarsest graph ----
    let mut part = initial_partition(&current, cfg.num_parts, &mut rng);
    if cfg.max_part_weight.is_some() {
        enforce_limit(&current, &mut part, cap);
    }
    refine(&current, &mut part, cap, REFINE_PASSES);

    // ---- Uncoarsening + refinement ----
    for idx in (0..levels.len()).rev() {
        let level = &levels[idx];
        let fine_n = level.fine_to_coarse.len();
        let mut fine_assignment = vec![0usize; fine_n];
        for (v, &c) in level.fine_to_coarse.iter().enumerate() {
            fine_assignment[v] = part.group_of(c);
        }
        part = Partition::from_assignment(fine_assignment, part.num_groups());
        // Projection preserves weights exactly, so the cap still holds;
        // refinement both improves the cut and maintains it.
        let fine_graph = if idx == 0 {
            graph
        } else {
            &levels[idx - 1].graph
        };
        refine(fine_graph, &mut part, cap, REFINE_PASSES);
    }

    if cfg.max_part_weight.is_some() {
        enforce_limit(graph, &mut part, cap);
        refine(graph, &mut part, cap, REFINE_PASSES);
        enforce_limit(graph, &mut part, cap);
    }
    part.compact();
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, normalized_inter_group_intensity};
    use rand::Rng;

    /// A planted-partition graph: `k` clusters of `size`, dense inside,
    /// sparse between.
    fn planted(k: usize, size: usize, seed: u64) -> WeightedGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = k * size;
        let mut g = WeightedGraph::new(n);
        for c in 0..k {
            let base = c * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    if rng.gen_bool(0.6) {
                        g.add_edge(base + i, base + j, 5.0 + rng.gen::<f64>());
                    }
                }
            }
        }
        for _ in 0..(k * size / 2) {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u / size != v / size {
                g.add_edge(u, v, 0.2);
            }
        }
        g
    }

    #[test]
    fn recovers_planted_clusters() {
        let g = planted(4, 12, 3);
        let part = mlkp(
            &g,
            &MlkpConfig::new(4).with_max_part_weight(12.0).with_seed(5),
        );
        assert!(part.respects_limit(&g, 12.0));
        let frac = normalized_inter_group_intensity(&g, &part);
        assert!(frac < 0.12, "inter-group fraction {frac} too high");
        // Each planted cluster should land (almost) wholly in one group.
        for c in 0..4 {
            let mut counts = std::collections::HashMap::new();
            for v in c * 12..(c + 1) * 12 {
                *counts.entry(part.group_of(v)).or_insert(0) += 1;
            }
            let max = counts.values().max().copied().unwrap_or(0);
            assert!(max >= 10, "cluster {c} fragmented: {counts:?}");
        }
    }

    #[test]
    fn cap_is_hard() {
        let g = planted(3, 20, 11);
        for cap in [8.0, 15.0, 25.0] {
            let part = mlkp(
                &g,
                &MlkpConfig::new((60.0f64 / cap).ceil() as usize)
                    .with_max_part_weight(cap)
                    .with_seed(2),
            );
            assert!(part.respects_limit(&g, cap), "cap {cap} violated");
            let covered: usize = part.groups().iter().map(Vec::len).sum();
            assert_eq!(covered, 60);
        }
    }

    #[test]
    fn more_groups_mean_more_cut() {
        // The paper's Fig 6(a) trend: W_inter grows with the group count.
        let g = planted(8, 10, 7);
        let mut last = -1.0;
        for k in [2usize, 4, 8, 16] {
            let part = mlkp(&g, &MlkpConfig::new(k).with_seed(3));
            let frac = normalized_inter_group_intensity(&g, &part);
            assert!(
                frac >= last - 0.02,
                "W_inter regressed hard at k={k}: {frac} < {last}"
            );
            last = frac;
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = planted(3, 15, 9);
        let cfg = MlkpConfig::new(3).with_max_part_weight(20.0).with_seed(77);
        let a = mlkp(&g, &cfg);
        let b = mlkp(&g, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn single_part_has_no_cut() {
        let g = planted(2, 8, 1);
        let part = mlkp(&g, &MlkpConfig::new(1));
        assert_eq!(part.num_groups(), 1);
        assert_eq!(edge_cut(&g, &part), 0.0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = WeightedGraph::new(0);
        let part = mlkp(&g, &MlkpConfig::new(4));
        assert!(part.assignment().is_empty());
    }

    #[test]
    #[should_panic(expected = "below heaviest vertex")]
    fn infeasible_cap_panics() {
        let mut g = WeightedGraph::new(2);
        g.set_vertex_weight(0, 10.0);
        g.add_edge(0, 1, 1.0);
        let _ = mlkp(&g, &MlkpConfig::new(2).with_max_part_weight(5.0));
    }

    #[test]
    fn large_sparse_graph_runs_fast() {
        // 2000 vertices ring + chords; mostly a smoke/perf guard.
        let mut g = WeightedGraph::new(2000);
        for i in 0..2000 {
            g.add_edge(i, (i + 1) % 2000, 1.0);
            if i % 7 == 0 {
                g.add_edge(i, (i + 500) % 2000, 0.3);
            }
        }
        let part = mlkp(&g, &MlkpConfig::new(20).with_max_part_weight(120.0));
        assert!(part.respects_limit(&g, 120.0));
        assert_eq!(part.groups().iter().map(Vec::len).sum::<usize>(), 2000);
    }
}
