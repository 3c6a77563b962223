//! Property tests for the partitioning stack: feasibility invariants of
//! MLkP/SGI and correctness of Stoer–Wagner against brute force.

use lazyctrl_partition::{
    metrics, mincut::stoer_wagner, mlkp, MlkpConfig, Sgi, SgiConfig, WeightedGraph,
    CONTROLLER_GROUP,
};
use proptest::prelude::*;

/// Random sparse graph: n vertices, edge probability p, weights in [1, 10].
fn arb_graph(max_n: usize) -> impl Strategy<Value = WeightedGraph> {
    (2usize..max_n, any::<u64>()).prop_map(|(n, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = WeightedGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.3) {
                    g.add_edge(u, v, rng.gen_range(1..=10) as f64);
                }
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// MLkP always yields a complete, feasible partition.
    #[test]
    fn mlkp_is_always_feasible(g in arb_graph(40), k in 1usize..6, seed in any::<u64>()) {
        let n = g.num_vertices();
        let cap = (n.div_ceil(k) + 1) as f64;
        let part = mlkp(&g, &MlkpConfig::new(k).with_max_part_weight(cap).with_seed(seed));
        // Complete cover.
        let covered: usize = part.groups().iter().map(Vec::len).sum();
        prop_assert_eq!(covered, n);
        // Cap respected.
        prop_assert!(part.respects_limit(&g, cap));
        // Dense group ids.
        for v in 0..n {
            prop_assert!(part.group_of(v) < part.num_groups());
        }
    }

    /// The cut metric is bounded by the total weight and zero for k=1.
    #[test]
    fn cut_bounds(g in arb_graph(30), seed in any::<u64>()) {
        let single = mlkp(&g, &MlkpConfig::new(1).with_seed(seed));
        prop_assert_eq!(metrics::edge_cut(&g, &single), 0.0);
        let part = mlkp(&g, &MlkpConfig::new(3).with_seed(seed));
        let cut = metrics::edge_cut(&g, &part);
        prop_assert!(cut >= 0.0);
        prop_assert!(cut <= g.total_edge_weight() + 1e-9);
        let w = metrics::normalized_inter_group_intensity(&g, &part);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&w));
    }

    /// Stoer–Wagner equals brute force on small graphs.
    #[test]
    fn stoer_wagner_is_optimal(g in arb_graph(9)) {
        let n = g.num_vertices();
        let sw = stoer_wagner(&g).expect("n >= 2");
        let mut best = f64::INFINITY;
        for mask in 1..(1u32 << n) - 1 {
            let mut cut = 0.0;
            for u in 0..n {
                for &(v, w) in g.neighbors(u) {
                    if u < v && ((mask >> u) & 1) != ((mask >> v) & 1) {
                        cut += w;
                    }
                }
            }
            best = best.min(cut);
        }
        prop_assert!((sw.weight - best).abs() < 1e-9,
            "sw {} != brute {}", sw.weight, best);
        // The reported side must realize the reported weight.
        let mut realized = 0.0;
        for u in 0..n {
            for &(v, w) in g.neighbors(u) {
                if u < v && sw.side[u] != sw.side[v] {
                    realized += w;
                }
            }
        }
        prop_assert!((realized - sw.weight).abs() < 1e-9);
    }

    /// SGI: IniGroup + repeated IncUpdate never violates the size cap and
    /// never increases W_inter.
    #[test]
    fn sgi_maintains_invariants(g in arb_graph(30), limit in 3usize..10, seed in any::<u64>()) {
        let n = g.num_vertices();
        let mut sgi = Sgi::ini_group(
            g.clone(),
            SgiConfig::new(limit).with_thresholds(0.0, 0.0).with_seed(seed),
        );
        prop_assert!(sgi.partition().respects_limit(&g, limit as f64));
        let mut winter = sgi.winter();
        for _ in 0..3 {
            sgi.par_inc_update(f64::INFINITY, sgi.config().max_merge_rounds);
            let now = sgi.winter();
            prop_assert!(now <= winter + 1e-9, "winter increased {winter} -> {now}");
            winter = now;
            prop_assert!(sgi.partition().respects_limit(&g, limit as f64));
            let covered: usize = sgi.partition().groups().iter().map(Vec::len).sum();
            prop_assert_eq!(covered, n);
        }
    }

    /// Exclusion: excluded vertices stay excluded through updates.
    #[test]
    fn exclusion_is_sticky(g in arb_graph(20), seed in any::<u64>()) {
        let excluded = vec![0, 1];
        let mut sgi = Sgi::ini_group(
            g,
            SgiConfig::new(5)
                .with_excluded(excluded.clone())
                .with_thresholds(0.0, 0.0)
                .with_seed(seed),
        );
        sgi.par_inc_update(f64::INFINITY, sgi.config().max_merge_rounds);
        for &v in &excluded {
            prop_assert_eq!(sgi.partition().group_of(v), CONTROLLER_GROUP);
        }
    }
}
