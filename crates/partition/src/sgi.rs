//! **SGI** — the paper's Size-constrained Grouping algorithm with
//! Incremental update support (§III-C.2, Fig. 3).
//!
//! * `IniGroup` ([`Sgi::ini_group`]): build the intensity graph from history
//!   and produce an initial feasible grouping with size-constrained MLkP
//!   (`k` estimated as *switches / group-size-limit*).
//! * `IncUpdate` ([`Sgi::inc_update`]): while the controller is overloaded,
//!   find the two groups between which traffic increased the most, merge
//!   them, and re-split along a minimum (size-capped) bisection; stop when
//!   the estimated load falls below the low threshold.
//!
//! Appendix-B extensions are included: host/switch **exclusion** (excluded
//! vertices are pinned to [`CONTROLLER_GROUP`] and handled centrally) and
//! the **parallel** merge/split over disjoint group pairs
//! ([`Sgi::par_inc_update`]). The pairs are disjoint, so each re-split is
//! a pure function of its pair's subgraph and a pair-derived seed; they
//! run one after another on the calling thread and are applied in
//! selection order.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::bisect::min_bisection;
use crate::metrics::normalized_inter_group_intensity;
use crate::{mlkp, MlkpConfig, Partition, WeightedGraph, CONTROLLER_GROUP};

/// Configuration for the SGI algorithm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SgiConfig {
    /// Hard cap on switches per group (the paper's TCAM-driven limit).
    pub group_size_limit: usize,
    /// Controller load (requests/sec) above which `IncUpdate` keeps
    /// merging/splitting (`threshold.high` in Fig. 3).
    pub high_threshold: f64,
    /// Load below which `IncUpdate` stops early (`threshold.low`).
    pub low_threshold: f64,
    /// RNG seed for all randomized sub-steps.
    pub seed: u64,
    /// Vertices excluded from grouping and pinned to the controller
    /// (Appendix B, host exclusion).
    pub excluded: Vec<usize>,
    /// Safety bound on merge/split rounds per `inc_update` call.
    pub max_merge_rounds: usize,
    /// Minimum *relative* W_inter improvement a merge/split must deliver to
    /// be accepted (e.g. 0.02 = 2%). Marginal reshuffles are rejected: in a
    /// live network every accepted update costs reassignments, G-FIB
    /// rebuilds and transient punts, so it must earn its keep.
    pub min_improvement: f64,
}

impl SgiConfig {
    /// A sensible default configuration for the given group size limit.
    ///
    /// # Panics
    ///
    /// Panics if `group_size_limit` is zero.
    pub fn new(group_size_limit: usize) -> Self {
        assert!(group_size_limit > 0, "group size limit must be positive");
        SgiConfig {
            group_size_limit,
            high_threshold: f64::INFINITY,
            low_threshold: 0.0,
            seed: 0x5A61,
            excluded: Vec::new(),
            max_merge_rounds: 16,
            min_improvement: 0.0,
        }
    }

    /// Sets the minimum relative improvement for accepting a merge/split.
    ///
    /// # Panics
    ///
    /// Panics unless `frac` is in `[0, 1)`.
    pub fn with_min_improvement(mut self, frac: f64) -> Self {
        assert!((0.0..1.0).contains(&frac), "min_improvement out of [0,1)");
        self.min_improvement = frac;
        self
    }

    /// Sets the controller load thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `low > high`.
    pub fn with_thresholds(mut self, low: f64, high: f64) -> Self {
        assert!(low <= high, "low threshold above high threshold");
        self.low_threshold = low;
        self.high_threshold = high;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Excludes vertices from grouping (controller-handled).
    pub fn with_excluded(mut self, excluded: Vec<usize>) -> Self {
        self.excluded = excluded;
        self
    }
}

/// What one `IncUpdate` invocation did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncUpdateReport {
    /// Merge/split rounds performed.
    pub rounds: usize,
    /// The group pairs that were merged and re-split.
    pub merged_pairs: Vec<(usize, usize)>,
    /// Normalized inter-group intensity before the update.
    pub winter_before: f64,
    /// Normalized inter-group intensity after the update.
    pub winter_after: f64,
    /// Estimated controller load after the update (input load scaled by the
    /// inter-group intensity ratio).
    pub estimated_load_after: f64,
}

/// The SGI state machine: a grouping, the intensity graph it was built
/// from, and the baseline for change detection.
#[derive(Debug, Clone)]
pub struct Sgi {
    cfg: SgiConfig,
    graph: WeightedGraph,
    partition: Partition,
    /// Inter-group pair weights at the last accepted grouping; `IncUpdate`
    /// picks the pair with the largest *increase* relative to this.
    baseline_pairs: BTreeMap<(usize, usize), f64>,
    epoch: u32,
    updates_applied: u64,
}

impl Sgi {
    /// `IniGroup`: builds the initial size-constrained grouping.
    ///
    /// The number of groups `k` is estimated as
    /// `#included-switches / group_size_limit` (§III-C.2), rounded up.
    ///
    /// # Panics
    ///
    /// Panics if an excluded vertex id is out of range or duplicated.
    pub fn ini_group(graph: WeightedGraph, cfg: SgiConfig) -> Self {
        let partition = Self::full_partition(&graph, &cfg);
        let baseline_pairs = pair_weights(&graph, &partition);
        Sgi {
            cfg,
            graph,
            partition,
            baseline_pairs,
            epoch: 1,
            updates_applied: 0,
        }
    }

    fn full_partition(graph: &WeightedGraph, cfg: &SgiConfig) -> Partition {
        let n = graph.num_vertices();
        let mut is_excluded = vec![false; n];
        for &v in &cfg.excluded {
            assert!(v < n, "excluded vertex {v} out of range");
            assert!(!is_excluded[v], "excluded vertex {v} duplicated");
            is_excluded[v] = true;
        }
        let included: Vec<usize> = (0..n).filter(|&v| !is_excluded[v]).collect();
        if included.is_empty() {
            return Partition::from_assignment(vec![CONTROLLER_GROUP; n], 1);
        }
        let k = included.len().div_ceil(cfg.group_size_limit);
        let (sub, map) = graph.subgraph(&included);
        let sub_part = mlkp(
            &sub,
            &MlkpConfig::new(k.max(1))
                .with_max_part_weight(cfg.group_size_limit as f64)
                .with_seed(cfg.seed),
        );
        let mut assignment = vec![CONTROLLER_GROUP; n];
        for (sub_v, &orig_v) in map.iter().enumerate() {
            assignment[orig_v] = sub_part.group_of(sub_v);
        }
        Partition::from_assignment(assignment, sub_part.num_groups())
    }

    /// The current grouping.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The current intensity graph.
    pub fn graph(&self) -> &WeightedGraph {
        &self.graph
    }

    /// The configuration in force.
    pub fn config(&self) -> &SgiConfig {
        &self.cfg
    }

    /// Monotonic grouping epoch; bumped by every regroup or update round.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Total incremental updates applied so far (Fig. 8's quantity).
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Current normalized inter-group traffic intensity `W_inter`.
    pub fn winter(&self) -> f64 {
        normalized_inter_group_intensity(&self.graph, &self.partition)
    }

    /// Replaces the intensity measurements (same vertex count).
    ///
    /// # Panics
    ///
    /// Panics if the vertex count differs from the current graph.
    pub fn set_intensity(&mut self, graph: WeightedGraph) {
        assert_eq!(
            graph.num_vertices(),
            self.graph.num_vertices(),
            "intensity graph vertex count changed"
        );
        self.graph = graph;
    }

    /// Re-runs `IniGroup` from scratch on the current intensity graph
    /// (the controller does this when incremental updates can no longer
    /// keep up, §V-C).
    pub fn regroup(&mut self) {
        self.partition = Self::full_partition(&self.graph, &self.cfg);
        self.baseline_pairs = pair_weights(&self.graph, &self.partition);
        self.epoch += 1;
        self.updates_applied += 1;
    }

    /// `IncUpdate`: greedy merge/split refinement driven by controller load
    /// (Fig. 3 lines 5–16).
    ///
    /// `current_load` is the controller's measured request rate. The load
    /// estimate after each round scales with the inter-group intensity
    /// (punts are proportional to inter-group traffic), and the loop exits
    /// as soon as it drops below `low_threshold`, no pair improves, or
    /// `max_merge_rounds` is hit.
    pub fn inc_update(&mut self, current_load: f64) -> IncUpdateReport {
        let winter_before = self.winter();
        let mut report = IncUpdateReport {
            rounds: 0,
            merged_pairs: Vec::new(),
            winter_before,
            winter_after: winter_before,
            estimated_load_after: current_load,
        };
        if current_load <= self.cfg.high_threshold {
            return report;
        }
        let mut load_est = current_load;
        while load_est > self.cfg.high_threshold && report.rounds < self.cfg.max_merge_rounds {
            let Some((g1, g2)) = self.find_candidate_pair() else {
                break;
            };
            let improved = self.merge_and_split(g1, g2);
            report.rounds += 1;
            report.merged_pairs.push((g1, g2));
            let winter_now = self.winter();
            if winter_before > 0.0 {
                load_est = current_load * (winter_now / winter_before);
            }
            report.winter_after = winter_now;
            report.estimated_load_after = load_est;
            if !improved || load_est < self.cfg.low_threshold {
                break;
            }
        }
        if report.rounds > 0 {
            self.baseline_pairs = pair_weights(&self.graph, &self.partition);
            self.epoch += 1;
            self.updates_applied += 1;
        }
        report
    }

    /// Parallel `IncUpdate` (Appendix B): merges and re-splits several
    /// *disjoint* group pairs in one round.
    ///
    /// Selects up to `max_pairs` disjoint candidate pairs by traffic
    /// increase. Each pair's re-split is a pure function of the intensity
    /// graph and the grouping as it stood before the round; the results
    /// are then *applied* in selection order, each accepted only if it
    /// improves `W_inter` by at least `min_improvement` (the same
    /// accept/revert rule as the serial path).
    pub fn par_inc_update(&mut self, current_load: f64, max_pairs: usize) -> IncUpdateReport {
        let winter_before = self.winter();
        let mut report = IncUpdateReport {
            rounds: 0,
            merged_pairs: Vec::new(),
            winter_before,
            winter_after: winter_before,
            estimated_load_after: current_load,
        };
        if current_load <= self.cfg.high_threshold || max_pairs == 0 {
            return report;
        }
        let pairs = self.find_disjoint_pairs(max_pairs);
        if pairs.is_empty() {
            return report;
        }
        // Compute every re-split against the pre-round grouping, then
        // apply them in selection order.
        let results: Vec<(usize, usize, Vec<usize>, Partition)> = pairs
            .iter()
            .map(|&(g1, g2)| {
                let mut members = self.partition.members(g1);
                members.extend(self.partition.members(g2));
                let (sub, map) = self.graph.subgraph(&members);
                let split = min_bisection(
                    &sub,
                    self.cfg.group_size_limit as f64,
                    self.cfg.seed ^ ((g1 as u64) << 16) ^ g2 as u64 ^ ((self.epoch as u64) << 32),
                );
                (g1, g2, map, split)
            })
            .collect();

        for (g1, g2, map, split) in results {
            let before = self.winter();
            let old: Vec<usize> = map.iter().map(|&v| self.partition.group_of(v)).collect();
            for (sub_v, &orig_v) in map.iter().enumerate() {
                let target = if split.group_of(sub_v) == 0 { g1 } else { g2 };
                self.partition.assign(orig_v, target);
            }
            let after = self.winter();
            if after >= before * (1.0 - self.cfg.min_improvement) - 1e-12 {
                // Not enough improvement: revert, exactly like the serial
                // merge/split (lateral churn costs more than it earns).
                for (&orig_v, &g) in map.iter().zip(&old) {
                    self.partition.assign(orig_v, g);
                }
                continue;
            }
            report.merged_pairs.push((g1, g2));
        }
        report.winter_after = self.winter();
        if winter_before > 0.0 {
            report.estimated_load_after = current_load * (report.winter_after / winter_before);
        }
        if report.merged_pairs.is_empty() {
            return report;
        }
        report.rounds = 1;
        self.baseline_pairs = pair_weights(&self.graph, &self.partition);
        self.epoch += 1;
        self.updates_applied += 1;
        report
    }

    /// `FindGroups`: the pair of groups whose mutual traffic grew the most
    /// since the last accepted grouping; falls back to the heaviest current
    /// pair when nothing grew.
    fn find_candidate_pair(&self) -> Option<(usize, usize)> {
        let current = pair_weights(&self.graph, &self.partition);
        if current.is_empty() {
            return None;
        }
        let by_delta = current
            .iter()
            .map(|(&pair, &w)| {
                let base = self.baseline_pairs.get(&pair).copied().unwrap_or(0.0);
                (pair, w - base, w)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite weights"))?;
        if by_delta.1 > 1e-12 {
            return Some(by_delta.0);
        }
        current
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite weights"))
            .map(|(&pair, _)| pair)
    }

    /// Greedy selection of up to `max_pairs` disjoint pairs by delta.
    fn find_disjoint_pairs(&self, max_pairs: usize) -> Vec<(usize, usize)> {
        let current = pair_weights(&self.graph, &self.partition);
        let mut scored: Vec<((usize, usize), f64)> = current
            .iter()
            .map(|(&pair, &w)| {
                let base = self.baseline_pairs.get(&pair).copied().unwrap_or(0.0);
                (pair, (w - base).max(w * 1e-6))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite weights"));
        let mut used = std::collections::HashSet::new();
        let mut out = Vec::new();
        for ((g1, g2), _) in scored {
            if out.len() >= max_pairs {
                break;
            }
            if used.contains(&g1) || used.contains(&g2) {
                continue;
            }
            used.insert(g1);
            used.insert(g2);
            out.push((g1, g2));
        }
        out
    }

    /// `MergeGroups` + `SplitGroup`: returns true if the cut improved.
    fn merge_and_split(&mut self, g1: usize, g2: usize) -> bool {
        let mut members = self.partition.members(g1);
        members.extend(self.partition.members(g2));
        if members.len() < 2 {
            return false;
        }
        let before = self.winter();
        let (sub, map) = self.graph.subgraph(&members);
        let split = min_bisection(
            &sub,
            self.cfg.group_size_limit as f64,
            self.cfg.seed ^ ((g1 as u64) << 16) ^ g2 as u64 ^ ((self.epoch as u64) << 32),
        );
        let old: Vec<usize> = map.iter().map(|&v| self.partition.group_of(v)).collect();
        for (sub_v, &orig_v) in map.iter().enumerate() {
            let target = if split.group_of(sub_v) == 0 { g1 } else { g2 };
            self.partition.assign(orig_v, target);
        }
        let after = self.winter();
        let required = before * (1.0 - self.cfg.min_improvement);
        if after >= required - 1e-12 {
            // Revert: not enough improvement. Lateral or marginal moves
            // would churn the data plane (reassignments, G-FIB rebuilds,
            // transient punts) for less than they cost.
            for (&orig_v, &g) in map.iter().zip(&old) {
                self.partition.assign(orig_v, g);
            }
            return false;
        }
        true
    }
}

/// Inter-group pair weights: `(min_group, max_group) -> total crossing
/// intensity`. Excluded vertices are skipped (their traffic is permanently
/// controller-handled and no regrouping can help it).
pub(crate) fn pair_weights(
    graph: &WeightedGraph,
    part: &Partition,
) -> BTreeMap<(usize, usize), f64> {
    let mut out: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for u in 0..graph.num_vertices() {
        let gu = part.group_of(u);
        if gu == CONTROLLER_GROUP {
            continue;
        }
        for &(v, w) in graph.neighbors(u) {
            if u < v {
                let gv = part.group_of(v);
                if gv == CONTROLLER_GROUP || gu == gv {
                    continue;
                }
                let key = if gu < gv { (gu, gv) } else { (gv, gu) };
                *out.entry(key).or_insert(0.0) += w;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clustered_graph(k: usize, size: usize, seed: u64) -> WeightedGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = k * size;
        let mut g = WeightedGraph::new(n);
        for c in 0..k {
            let base = c * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    if rng.gen_bool(0.5) {
                        g.add_edge(base + i, base + j, 4.0 + rng.gen::<f64>());
                    }
                }
            }
        }
        for _ in 0..n {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u / size != v / size {
                g.add_edge(u, v, 0.1);
            }
        }
        g
    }

    #[test]
    fn ini_group_produces_feasible_grouping() {
        let g = clustered_graph(5, 10, 1);
        let sgi = Sgi::ini_group(g.clone(), SgiConfig::new(10).with_seed(2));
        assert!(sgi.partition().respects_limit(&g, 10.0));
        assert!(sgi.partition().num_groups() >= 5);
        assert!(sgi.winter() < 0.3);
        assert_eq!(sgi.epoch(), 1);
    }

    #[test]
    fn exclusion_pins_vertices_to_controller() {
        let g = clustered_graph(3, 8, 4);
        let sgi = Sgi::ini_group(g, SgiConfig::new(8).with_excluded(vec![0, 5]).with_seed(1));
        assert_eq!(sgi.partition().group_of(0), CONTROLLER_GROUP);
        assert_eq!(sgi.partition().group_of(5), CONTROLLER_GROUP);
        assert_eq!(sgi.partition().excluded(), vec![0, 5]);
    }

    #[test]
    fn inc_update_noops_when_underloaded() {
        let g = clustered_graph(4, 8, 7);
        let mut sgi = Sgi::ini_group(g, SgiConfig::new(8).with_thresholds(10.0, 100.0));
        let report = sgi.inc_update(50.0); // below high threshold
        assert_eq!(report.rounds, 0);
        assert_eq!(sgi.updates_applied(), 0);
    }

    #[test]
    fn inc_update_reduces_winter_after_traffic_shift() {
        // Build two clusters; group them; then shift traffic so two groups
        // start talking heavily. IncUpdate should repair the grouping.
        let mut g = WeightedGraph::new(12);
        for c in 0..3 {
            let b = c * 4;
            for i in 0..4 {
                for j in (i + 1)..4 {
                    g.add_edge(b + i, b + j, 10.0);
                }
            }
        }
        let mut sgi = Sgi::ini_group(
            g.clone(),
            SgiConfig::new(4).with_thresholds(1.0, 10.0).with_seed(3),
        );
        let w0 = sgi.winter();
        assert!(w0 < 0.05, "initial grouping should be clean, got {w0}");

        // Traffic shifts: vertices 0,1 now talk mostly to 4,5 (cross-group).
        let mut shifted = g.clone();
        shifted.add_edge(0, 4, 50.0);
        shifted.add_edge(1, 5, 50.0);
        sgi.set_intensity(shifted.clone());
        let w1 = sgi.winter();
        assert!(w1 > 0.2, "shift should raise winter, got {w1}");

        let report = sgi.inc_update(100.0);
        assert!(report.rounds >= 1);
        assert!(
            report.winter_after < w1,
            "winter {} not improved from {w1}",
            report.winter_after
        );
        assert!(sgi.partition().respects_limit(&shifted, 4.0));
        assert_eq!(sgi.updates_applied(), 1);
        assert_eq!(sgi.epoch(), 2);
    }

    #[test]
    fn par_inc_update_matches_serial_quality() {
        let g = clustered_graph(6, 8, 13);
        let cfg = SgiConfig::new(8).with_thresholds(0.1, 1.0).with_seed(5);
        let mut serial = Sgi::ini_group(g.clone(), cfg.clone());
        let mut parallel = Sgi::ini_group(g.clone(), cfg);

        // Shift: connect clusters 0↔1 and 2↔3 heavily.
        let mut shifted = g.clone();
        for i in 0..4 {
            shifted.add_edge(i, 8 + i, 30.0);
            shifted.add_edge(16 + i, 24 + i, 30.0);
        }
        serial.set_intensity(shifted.clone());
        parallel.set_intensity(shifted.clone());

        let rs = serial.inc_update(1e9);
        let rp = parallel.par_inc_update(1e9, 2);
        assert!(rp.rounds == 1 && !rp.merged_pairs.is_empty());
        assert!(parallel.partition().respects_limit(&shifted, 8.0));
        // Both should materially cut winter; parallel handles 2 pairs at once.
        assert!(rs.winter_after <= rs.winter_before);
        assert!(rp.winter_after <= rp.winter_before + 1e-9);
    }

    #[test]
    fn par_inc_update_reverts_lateral_moves() {
        // A graph whose grouping is already optimal: every re-split is a
        // lateral move and must be rejected, leaving the report empty and
        // the epoch untouched.
        let g = clustered_graph(4, 6, 31);
        let mut sgi = Sgi::ini_group(
            g,
            SgiConfig::new(6)
                .with_thresholds(0.0, 0.0)
                .with_seed(9)
                .with_min_improvement(0.10),
        );
        let winter0 = sgi.winter();
        let epoch0 = sgi.epoch();
        let report = sgi.par_inc_update(f64::INFINITY, 4);
        assert!(sgi.winter() <= winter0 + 1e-9);
        if report.merged_pairs.is_empty() {
            assert_eq!(sgi.epoch(), epoch0, "no accepted pair must not bump epoch");
            assert_eq!(sgi.updates_applied(), 0);
        }
    }

    #[test]
    fn regroup_resets_baseline_and_bumps_epoch() {
        let g = clustered_graph(3, 6, 21);
        let mut sgi = Sgi::ini_group(g, SgiConfig::new(6));
        let e0 = sgi.epoch();
        sgi.regroup();
        assert_eq!(sgi.epoch(), e0 + 1);
        assert_eq!(sgi.updates_applied(), 1);
    }

    #[test]
    fn merge_and_split_never_worsens_winter() {
        let g = clustered_graph(4, 6, 31);
        let mut sgi = Sgi::ini_group(g, SgiConfig::new(6).with_thresholds(0.0, 0.0).with_seed(9));
        for round in 0..5 {
            let before = sgi.winter();
            sgi.inc_update(f64::INFINITY);
            let after = sgi.winter();
            assert!(
                after <= before + 1e-9,
                "round {round}: winter got worse {before} -> {after}"
            );
        }
    }

    #[test]
    fn pair_weights_counts_cross_edges() {
        let mut g = WeightedGraph::new(4);
        g.add_edge(0, 1, 1.0); // intra
        g.add_edge(0, 2, 2.0); // cross 0-1
        g.add_edge(1, 3, 3.0); // cross 0-1
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2);
        let pw = pair_weights(&g, &p);
        assert_eq!(pw.len(), 1);
        assert_eq!(pw[&(0, 1)], 5.0);
    }

    #[test]
    fn all_excluded_graph_degenerates_gracefully() {
        let g = WeightedGraph::new(3);
        let sgi = Sgi::ini_group(g, SgiConfig::new(2).with_excluded(vec![0, 1, 2]));
        assert_eq!(sgi.partition().excluded().len(), 3);
        assert_eq!(sgi.winter(), 0.0);
    }
}
