//! Switch grouping management (§IV-B): wraps the SGI algorithm, watches
//! the traffic pattern through state reports, and regenerates group
//! assignments under the paper's regrouping triggers.
//!
//! A grouping is one switch → group map, and every read answers from one
//! immutable [`GroupView`] behind an [`Arc`] — the map, each group's
//! members, the epochs and `W_inter` — with no branch on how the manager
//! was built. Only a manager built for dynamic updates also keeps what
//! recomputes the map (the SGI partition, intensity history, pending
//! samples and punt counts); each of its updates swaps in a fresh view.
//! A static manager — the `LazyStatic` controller, every cluster member —
//! holds the view and nothing else, so a cluster's members and its plane
//! can all share one.
//!
//! Triggers (§IV-B): "Regrouping will be triggered when i) the workload of
//! the controller suffers from an accumulated growth of up to 30% from last
//! update or ii) it has been two minutes since last update. Setting up a
//! minimum update interval (2 minutes here) is to prevent the oscillation
//! caused by short-term traffic fluctuation."

use std::collections::BTreeMap;
use std::sync::Arc;

use lazyctrl_net::{GroupId, SwitchId};
use lazyctrl_partition::{Sgi, SgiConfig, WeightedGraph, CONTROLLER_GROUP};
use lazyctrl_proto::{GroupAssignMsg, StateReportMsg};
use serde::{Deserialize, Serialize};

/// Minimum time between updates (ns): the paper's 2-minute oscillation
/// floor.
const MIN_REGROUP_INTERVAL_NS: u64 = 120_000_000_000;

/// Workload growth since the last update that forces an update (+30 %).
const GROWTH_THRESHOLD: f64 = 0.30;

/// Periodic refresh even without growth (ns, 6 minutes): keeps the
/// grouping tracking slow drift (the paper's trigger ii).
const REFRESH_INTERVAL_NS: u64 = 360_000_000_000;

/// What the trigger check decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegroupDecision {
    /// Nothing to do.
    None,
    /// Run `IncUpdate` (greedy merge/split refinement).
    Incremental,
    /// Run a full `IniGroup` from scratch (used when incremental updates
    /// cannot keep up — the grouping drifted too far).
    Full,
}

/// One immutable grouping: what every read of a [`GroupingManager`]
/// answers from.
///
/// Shared via [`Arc`]: by a cluster's members and its plane, and by a
/// manager and its clones until one of them regroups. A regrouping
/// builds a fresh view; a view is never changed in place.
#[derive(Debug)]
pub struct GroupView {
    /// Dense switch → group map (`None`: excluded from grouping).
    group_of: Vec<Option<usize>>,
    /// Each group's members, ascending switch id; empty groups are kept,
    /// so the length is the partition's group count.
    members: Vec<Vec<SwitchId>>,
    /// Epoch at which each group last changed composition.
    group_epochs: Vec<u32>,
    /// The (global) grouping epoch.
    epoch: u32,
    /// Normalized inter-group intensity `W_inter`.
    winter: f64,
}

impl GroupView {
    /// The grouping `sgi` holds, with each group's epoch from
    /// `group_epochs` (a group missing there carries the global epoch).
    fn new(sgi: &Sgi, group_epochs: &BTreeMap<usize, u32>) -> Self {
        let partition = sgi.partition();
        let epoch = sgi.epoch();
        GroupView {
            group_of: partition
                .assignment()
                .iter()
                .map(|&g| (g != CONTROLLER_GROUP).then_some(g))
                .collect(),
            members: partition
                .groups()
                .into_iter()
                .map(|m| m.into_iter().map(|v| SwitchId::new(v as u32)).collect())
                .collect(),
            group_epochs: (0..partition.num_groups())
                .map(|g| group_epochs.get(&g).copied().unwrap_or(epoch))
                .collect(),
            epoch,
            winter: sgi.winter(),
        }
    }

    /// The group a switch belongs to, if grouped.
    pub fn group_of(&self, switch: SwitchId) -> Option<usize> {
        self.group_of.get(switch.index()).copied().flatten()
    }
}

/// What only regrouping reads: the SGI partition it refines and the
/// traffic picture it refines it against. Held only by a manager built
/// for dynamic updates.
#[derive(Debug, Clone, Default)]
struct Regrouper {
    /// `None` until bootstrap.
    sgi: Option<Sgi>,
    /// Directed intensity samples from state reports, accumulated since
    /// the last update (drained at each update so the grouping always sees
    /// a fresh, consistent window — stale rates must not linger).
    samples: BTreeMap<(SwitchId, SwitchId), f64>,
    /// Exponentially-weighted history of undirected pair intensities — the
    /// paper's "estimated based on history traffic statistics" (§III-C.2).
    /// Smooths window noise while still tracking persistent shifts.
    history: BTreeMap<(SwitchId, SwitchId), f64>,
    /// Punt counts per (ingress, destination) switch pair since the last
    /// update. State reports only cover intra-group traffic (switches
    /// cannot see where punted flows land); the controller derives the
    /// inter-group intensities — exactly what regrouping must shrink —
    /// from its own PacketIn stream.
    punt_counts: BTreeMap<(SwitchId, SwitchId), u64>,
    last_update_ns: u64,
    workload_at_last_update: f64,
    /// Epoch at which each group last changed composition. Tunnel keys and
    /// `GroupAssign`s carry the *group's* epoch, so untouched groups keep
    /// accepting their traffic across global updates.
    group_epochs: BTreeMap<usize, u32>,
    /// Switches moved by the most recent update: `(switch, old group,
    /// new group)`. Consumed by the controller's preload step.
    last_moves: Vec<(SwitchId, usize, usize)>,
}

impl Regrouper {
    /// Takes over the bootstrap grouping and seeds the intensity history
    /// from its graph.
    fn bootstrap(&mut self, now_ns: u64, sgi: Sgi) {
        let epoch = sgi.epoch();
        self.group_epochs = (0..sgi.partition().num_groups())
            .map(|g| (g, epoch))
            .collect();
        self.history.clear();
        let g = sgi.graph();
        for u in 0..g.num_vertices() {
            for &(v, w) in g.neighbors(u) {
                if u < v {
                    self.history
                        .insert((SwitchId::new(u as u32), SwitchId::new(v as u32)), w);
                }
            }
        }
        self.sgi = Some(sgi);
        self.last_update_ns = now_ns;
    }

    /// The trigger check (call periodically with the measured workload).
    fn check(&self, now_ns: u64, workload_rps: f64) -> RegroupDecision {
        if self.sgi.is_none() {
            return RegroupDecision::None;
        }
        let elapsed = now_ns.saturating_sub(self.last_update_ns);
        if elapsed < MIN_REGROUP_INTERVAL_NS {
            return RegroupDecision::None;
        }
        let base = self.workload_at_last_update.max(1e-9);
        let growth = (workload_rps - self.workload_at_last_update) / base;
        if growth >= GROWTH_THRESHOLD {
            // Large accumulated drift: incremental updates may not retain
            // quality; the paper falls back to a fresh IniGroup for "very
            // significant" changes (§V-C).
            if growth >= 2.0 * GROWTH_THRESHOLD {
                return RegroupDecision::Full;
            }
            return RegroupDecision::Incremental;
        }
        if elapsed >= REFRESH_INTERVAL_NS {
            return RegroupDecision::Incremental;
        }
        RegroupDecision::None
    }

    /// Runs one regrouping round. `None` when there was nothing to run
    /// (not bootstrapped, or a window without measurements): the grouping
    /// stands. Otherwise the groups whose composition changed, ascending
    /// (empty when no switch moved — the partition's intensity graph and
    /// epoch still changed).
    fn update(
        &mut self,
        now_ns: u64,
        decision: RegroupDecision,
        workload_rps: f64,
    ) -> Option<Vec<usize>> {
        let n = self.sgi.as_ref()?.graph().num_vertices();
        // Build this window's measurements: state-report samples (intra-
        // group) plus punt-derived rates (inter-group), as undirected pair
        // rates.
        let elapsed_secs = ((now_ns.saturating_sub(self.last_update_ns)) as f64 / 1e9).max(1.0);
        let mut window: BTreeMap<(SwitchId, SwitchId), f64> = BTreeMap::new();
        for ((a, b), w) in std::mem::take(&mut self.samples) {
            if a != b {
                let key = if a < b { (a, b) } else { (b, a) };
                *window.entry(key).or_insert(0.0) += w;
            }
        }
        for ((a, b), count) in std::mem::take(&mut self.punt_counts) {
            let key = if a < b { (a, b) } else { (b, a) };
            *window.entry(key).or_insert(0.0) += count as f64 / elapsed_secs;
        }
        self.last_update_ns = now_ns;
        self.workload_at_last_update = workload_rps;
        if window.is_empty() {
            // No measurements this window: nothing to adapt to.
            return None;
        }
        // Blend into the exponentially-weighted history (the paper's
        // "history traffic statistics"): stable under window noise, still
        // responsive to persistent shifts.
        const ALPHA: f64 = 0.3;
        for h in self.history.values_mut() {
            *h *= 1.0 - ALPHA;
        }
        for (key, w) in window {
            *self.history.entry(key).or_insert(0.0) += ALPHA * w;
        }
        let peak = self.history.values().cloned().fold(0.0f64, f64::max);
        self.history.retain(|_, w| *w > peak * 1e-6);
        let graph = WeightedGraph::from_triplets(
            n,
            self.history
                .iter()
                .filter(|((a, b), _)| a != b)
                .map(|((a, b), &w)| (a.index(), b.index(), w)),
        );
        let sgi = self.sgi.as_mut().expect("checked above");
        let before: Vec<usize> = sgi.partition().assignment().to_vec();
        sgi.set_intensity(graph);
        match decision {
            RegroupDecision::Incremental => {
                // Disjoint-pair merge/split (Appendix B): several group
                // pairs re-split in one round, applied in selection order.
                let _ = sgi.par_inc_update(f64::INFINITY, sgi.config().max_merge_rounds);
            }
            RegroupDecision::Full => sgi.regroup(),
            RegroupDecision::None => unreachable!("filtered by the caller"),
        }
        let after = sgi.partition().assignment();
        let changed: Vec<usize> = (0..n).filter(|&v| before[v] != after[v]).collect();
        self.last_moves = changed
            .iter()
            .filter(|&&v| before[v] != CONTROLLER_GROUP && after[v] != CONTROLLER_GROUP)
            .map(|&v| (SwitchId::new(v as u32), before[v], after[v]))
            .collect();
        // Every member of every group touched by a moved switch needs a
        // fresh assignment (ring neighbours and G-FIB membership change).
        let mut touched: Vec<usize> = changed
            .iter()
            .flat_map(|&v| [before[v], after[v]])
            .filter(|&g| g != CONTROLLER_GROUP)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        let epoch = sgi.epoch();
        for &g in &touched {
            self.group_epochs.insert(g, epoch);
        }
        Some(touched)
    }
}

/// The controller's grouping state machine.
#[derive(Debug, Clone)]
pub struct GroupingManager {
    /// The grouping every read answers from; `None` until bootstrap.
    view: Option<Arc<GroupView>>,
    /// The regrouping state; `None` in a manager built without dynamic
    /// updates, which never regroups and so drops every report and punt.
    regroup: Option<Regrouper>,
    num_switches: usize,
    group_size_limit: usize,
    seed: u64,
    updates_applied: u64,
}

impl GroupingManager {
    /// Creates a manager for `num_switches` switches; only one built with
    /// `dynamic_updates` keeps the state regrouping needs.
    ///
    /// # Panics
    ///
    /// Panics if `group_size_limit` is zero.
    pub(crate) fn new(
        num_switches: usize,
        group_size_limit: usize,
        seed: u64,
        dynamic_updates: bool,
    ) -> Self {
        assert!(group_size_limit > 0, "group size limit must be positive");
        GroupingManager {
            view: None,
            regroup: dynamic_updates.then(Regrouper::default),
            num_switches,
            group_size_limit,
            seed,
            updates_applied: 0,
        }
    }

    /// The shared grouping view, once bootstrapped.
    pub fn view(&self) -> Option<&Arc<GroupView>> {
        self.view.as_ref()
    }

    /// The (global) grouping epoch currently in force.
    pub fn epoch(&self) -> u32 {
        self.view.as_ref().map_or(0, |v| v.epoch)
    }

    /// The epoch at which `group` last changed composition.
    pub(crate) fn epoch_of_group(&self, group: usize) -> u32 {
        let view = self.view.as_ref();
        view.map_or(0, |v| v.group_epochs.get(group).copied().unwrap_or(v.epoch))
    }

    /// The epoch governing traffic towards `switch` (its group's epoch).
    pub(crate) fn epoch_of_switch(&self, switch: SwitchId) -> u32 {
        self.group_of(switch)
            .map(|g| self.epoch_of_group(g))
            .unwrap_or(self.epoch())
    }

    /// Updates applied so far (Fig. 8's quantity).
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Current normalized inter-group intensity, if grouped.
    pub fn winter(&self) -> Option<f64> {
        self.view.as_ref().map(|v| v.winter)
    }

    /// The group a switch belongs to (dense index), if grouped.
    pub fn group_of(&self, switch: SwitchId) -> Option<usize> {
        self.view.as_ref()?.group_of(switch)
    }

    /// Members of a group, ascending switch id.
    pub fn members(&self, group: usize) -> &[SwitchId] {
        let members = self.view.as_ref().and_then(|v| v.members.get(group));
        members.map_or(&[], Vec::as_slice)
    }

    /// Number of groups, if grouped.
    pub fn num_groups(&self) -> Option<usize> {
        self.view.as_ref().map(|v| v.members.len())
    }

    /// The designated switch of a group under the controller's selection
    /// principle (lowest switch id — "some given principle", §III-D.1).
    pub fn designated_of(&self, group: usize) -> Option<SwitchId> {
        self.members(group).first().copied()
    }

    /// Absorbs a designated switch's aggregated state report (dropped by
    /// a manager that never regroups).
    pub(crate) fn absorb_report(&mut self, report: &StateReportMsg) {
        if let Some(r) = &mut self.regroup {
            for &(a, b, w) in &report.intensity {
                r.samples.insert((a, b), w);
            }
        }
    }

    /// Records one punted flow from `ingress` towards `dst` (resolved via
    /// the C-LIB). Folded into the intensity picture at the next update;
    /// dropped by a manager that never regroups.
    pub fn note_punt(&mut self, ingress: SwitchId, dst: SwitchId) {
        if let Some(r) = &mut self.regroup {
            if ingress != dst {
                *r.punt_counts.entry((ingress, dst)).or_insert(0) += 1;
            }
        }
    }

    /// `IniGroup`: computes the initial grouping from a bootstrap intensity
    /// graph (the paper uses the first hour of traffic) and returns the
    /// per-switch assignments to push.
    ///
    /// # Panics
    ///
    /// Panics if the graph's vertex count differs from `num_switches`.
    pub(crate) fn bootstrap(
        &mut self,
        now_ns: u64,
        graph: WeightedGraph,
        sync_interval_ms: u32,
        keepalive_interval_ms: u32,
    ) -> Vec<(SwitchId, GroupAssignMsg)> {
        assert_eq!(
            graph.num_vertices(),
            self.num_switches,
            "intensity graph size mismatch"
        );
        // The regrouping *triggers* live in this manager (`check`), so the
        // inner SGI loop gets fully permissive thresholds: when we decide
        // to update, it always runs.
        let sgi = Sgi::ini_group(
            graph,
            SgiConfig::new(self.group_size_limit)
                .with_thresholds(0.0, 0.0)
                .with_min_improvement(0.10)
                .with_seed(self.seed),
        );
        let view = match &mut self.regroup {
            Some(r) => {
                r.bootstrap(now_ns, sgi);
                GroupView::new(r.sgi.as_ref().expect("just bootstrapped"), &r.group_epochs)
            }
            None => GroupView::new(&sgi, &BTreeMap::new()),
        };
        let groups = 0..view.members.len();
        self.view = Some(Arc::new(view));
        self.updates_applied += 1;
        self.assignments(groups, None, sync_interval_ms, keepalive_interval_ms)
    }

    /// The trigger check (call periodically with the measured workload);
    /// always [`RegroupDecision::None`] for a manager that never regroups.
    pub(crate) fn check(&self, now_ns: u64, workload_rps: f64) -> RegroupDecision {
        self.regroup
            .as_ref()
            .map_or(RegroupDecision::None, |r| r.check(now_ns, workload_rps))
    }

    /// Executes a regrouping decision. Returns assignments for the switches
    /// whose group composition changed (empty when nothing moved).
    pub fn update(
        &mut self,
        now_ns: u64,
        decision: RegroupDecision,
        workload_rps: f64,
        sync_interval_ms: u32,
        keepalive_interval_ms: u32,
    ) -> Vec<(SwitchId, GroupAssignMsg)> {
        let Some(r) = self
            .regroup
            .as_mut()
            .filter(|_| decision != RegroupDecision::None)
        else {
            return Vec::new();
        };
        let Some(touched) = r.update(now_ns, decision, workload_rps) else {
            return Vec::new();
        };
        // The round moved the epoch and `W_inter` even if no switch moved:
        // a fresh view, never an edit of the shared one.
        let sgi = r.sgi.as_ref().expect("updated");
        self.view = Some(Arc::new(GroupView::new(sgi, &r.group_epochs)));
        if touched.is_empty() {
            return Vec::new();
        }
        self.updates_applied += 1;
        self.assignments(touched, None, sync_interval_ms, keepalive_interval_ms)
    }

    /// Drains the switches moved by the most recent update (for preload).
    pub(crate) fn take_last_moves(&mut self) -> Vec<(SwitchId, usize, usize)> {
        self.regroup
            .as_mut()
            .map(|r| std::mem::take(&mut r.last_moves))
            .unwrap_or_default()
    }

    /// The `GroupAssign` every member of each of `groups` needs, with the
    /// failed switch `without` left out: members in ring order (ascending
    /// id, the paper's MAC-address ordering), the lowest designated, the
    /// next its backup, and each member's ring neighbours.
    pub(crate) fn assignments(
        &self,
        groups: impl IntoIterator<Item = usize>,
        without: Option<SwitchId>,
        sync_interval_ms: u32,
        keepalive_interval_ms: u32,
    ) -> Vec<(SwitchId, GroupAssignMsg)> {
        let mut out = Vec::new();
        for group in groups {
            let members = self.members(group).iter().copied();
            let members: Vec<SwitchId> = members.filter(|&s| Some(s) != without).collect();
            let n = members.len();
            for (i, &me) in members.iter().enumerate() {
                let assign = GroupAssignMsg {
                    group: GroupId::new(group as u32),
                    epoch: self.epoch_of_group(group),
                    members: members.clone(),
                    designated: members[0],
                    backups: members.get(1).copied().into_iter().collect(),
                    ring_prev: members[(i + n - 1) % n],
                    ring_next: members[(i + 1) % n],
                    sync_interval_ms,
                    keepalive_interval_ms,
                    group_size_limit: self.group_size_limit as u32,
                };
                out.push((me, assign));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn clustered_graph(k: usize, size: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new(k * size);
        for c in 0..k {
            let b = c * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    g.add_edge(b + i, b + j, 10.0);
                }
            }
        }
        g
    }

    fn manager(n: usize, limit: usize) -> GroupingManager {
        GroupingManager::new(n, limit, 7, true)
    }

    fn report(a: u32, b: u32, w: f64) -> StateReportMsg {
        StateReportMsg {
            group: GroupId::new(0),
            epoch: 0,
            intensity: vec![(SwitchId::new(a), SwitchId::new(b), w)],
            stats: vec![],
        }
    }

    /// Every read of `m` answers what the read path the view replaced —
    /// a scan of the live partition — answers.
    fn assert_view_matches_scan(m: &GroupingManager) {
        let r = m.regroup.as_ref().expect("dynamic");
        let sgi = r.sgi.as_ref().expect("bootstrapped");
        let (part, epoch) = (sgi.partition(), sgi.epoch());
        assert_eq!(m.num_groups(), Some(part.num_groups()));
        assert_eq!(m.epoch(), epoch);
        assert_eq!(m.winter().map(f64::to_bits), Some(sgi.winter().to_bits()));
        for s in 0..=m.num_switches {
            let g = (s < m.num_switches).then(|| part.group_of(s));
            let g = g.filter(|&g| g != CONTROLLER_GROUP);
            assert_eq!(m.group_of(SwitchId::new(s as u32)), g, "group of {s}");
        }
        for g in 0..part.num_groups() + 2 {
            let members = part.members(g).into_iter().map(|v| SwitchId::new(v as u32));
            let members: Vec<SwitchId> = members.collect();
            assert_eq!(m.members(g), members, "members of {g}");
            assert_eq!(m.designated_of(g), members.iter().copied().min());
            if g < part.num_groups() {
                let scanned = r.group_epochs.get(&g).copied().unwrap_or(epoch);
                assert_eq!(m.epoch_of_group(g), scanned, "epoch of {g}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// After a random bootstrap and every later punt, report and
        /// update, the shared view answers exactly what scanning the live
        /// partition answers.
        #[test]
        fn view_agrees_with_partition_scan(
            (n, limit, seed) in (4usize..=14, 2usize..=5, any::<u64>()),
            edges in prop::collection::vec((0usize..14, 0usize..14, 1u32..50), 0..40),
            steps in prop::collection::vec(
                (0usize..4, 0u32..14, 0u32..14, 1u32..200, 1u64..400),
                1..24,
            ),
        ) {
            let edges = edges.into_iter().map(|(u, v, w)| (u % n, v % n, w as f64));
            let graph = WeightedGraph::from_triplets(n, edges.filter(|&(u, v, _)| u != v));
            let mut m = GroupingManager::new(n, limit, seed, true);
            let _ = m.bootstrap(0, graph, 1000, 500);
            assert_view_matches_scan(&m);
            let mut now = 0;
            for (kind, a, b, w, dt) in steps {
                let (a, b) = (SwitchId::new(a % n as u32), SwitchId::new(b % n as u32));
                now += dt * 1_000_000_000;
                match kind {
                    0 => m.note_punt(a, b),
                    1 => m.absorb_report(&report(a.0, b.0, w as f64)),
                    k => {
                        let decision = [RegroupDecision::Incremental, RegroupDecision::Full][k - 2];
                        for (s, ga) in m.update(now, decision, w as f64, 1000, 500) {
                            let group = m.group_of(s).map(|g| GroupId::new(g as u32));
                            prop_assert_eq!((Some(ga.group), ga.epoch), (group, m.epoch()));
                        }
                    }
                }
                assert_view_matches_scan(&m);
            }
        }
    }

    #[test]
    fn bootstrap_assigns_every_switch() {
        let mut m = manager(12, 4);
        let assignments = m.bootstrap(0, clustered_graph(3, 4), 1000, 500);
        assert_eq!(assignments.len(), 12);
        for (s, ga) in &assignments {
            assert!(ga.members.contains(s));
            assert!(ga.members.contains(&ga.designated));
            assert!(ga.members.len() <= 4);
            assert_eq!(ga.epoch, m.epoch());
            // Ring neighbours are members.
            assert!(ga.members.contains(&ga.ring_prev));
            assert!(ga.members.contains(&ga.ring_next));
        }
        assert_eq!(m.num_groups(), Some(3));
        assert_eq!(m.updates_applied(), 1);
    }

    #[test]
    fn only_a_dynamic_manager_retains_reports_and_punts() {
        for dynamic in [false, true] {
            let mut m = GroupingManager::new(8, 4, 7, dynamic);
            let assignments = m.bootstrap(0, clustered_graph(2, 4), 1000, 500);
            let mut live = manager(8, 4);
            assert_eq!(
                assignments,
                live.bootstrap(0, clustered_graph(2, 4), 1000, 500)
            );
            m.absorb_report(&report(0, 4, 100.0));
            m.note_punt(SwitchId::new(1), SwitchId::new(5));
            let held = m.regroup.as_ref().map(|r| {
                let sizes = (r.samples.len(), r.punt_counts.len(), r.history.len());
                (r.sgi.is_some(), sizes)
            });
            let view = m.view().cloned().expect("bootstrapped");
            let out = m.update(200_000_000_000, RegroupDecision::Full, 500.0, 1000, 500);
            let fresh = !Arc::ptr_eq(&view, m.view().expect("bootstrapped"));
            if dynamic {
                assert_eq!(held, Some((true, (1, 1, 12))));
                assert!(fresh, "an update swaps in a fresh view");
            } else {
                assert_eq!(held, None, "a static manager holds no SGI state");
                assert!(out.is_empty() && !fresh);
                assert_eq!(m.check(400_000_000_000, 1e6), RegroupDecision::None);
            }
        }
    }

    #[test]
    fn designated_is_lowest_member() {
        let mut m = manager(8, 4);
        let _ = m.bootstrap(0, clustered_graph(2, 4), 1000, 500);
        for g in 0..m.num_groups().unwrap() {
            let members = m.members(g);
            let designated = m.designated_of(g).unwrap();
            assert_eq!(Some(&designated), members.iter().min());
        }
    }

    #[test]
    fn triggers_respect_min_interval() {
        let mut m = manager(8, 4);
        let _ = m.bootstrap(0, clustered_graph(2, 4), 1000, 500);
        m.regroup.as_mut().unwrap().workload_at_last_update = 100.0;
        // 1 minute in, even huge growth must wait.
        assert_eq!(m.check(60_000_000_000, 1000.0), RegroupDecision::None);
        // Past 2 minutes, 30% growth triggers an incremental update.
        assert_eq!(
            m.check(150_000_000_000, 135.0),
            RegroupDecision::Incremental
        );
        // Runaway growth escalates to a full regroup.
        assert_eq!(m.check(150_000_000_000, 300.0), RegroupDecision::Full);
        // No growth: wait for the refresh interval.
        assert_eq!(m.check(150_000_000_000, 100.0), RegroupDecision::None);
        assert_eq!(
            m.check(400_000_000_000, 100.0),
            RegroupDecision::Incremental
        );
    }

    #[test]
    fn update_reassigns_moved_switches() {
        let mut m = manager(8, 4);
        let _ = m.bootstrap(0, clustered_graph(2, 4), 1000, 500);
        let e0 = m.epoch();
        // Traffic shifts: switches 0..2 now talk to 4..6 heavily.
        for (a, b) in [(0u32, 4u32), (1, 5), (2, 6)] {
            m.absorb_report(&report(a, b, 100.0));
        }
        let assignments = m.update(
            200_000_000_000,
            RegroupDecision::Incremental,
            500.0,
            1000,
            500,
        );
        assert!(!assignments.is_empty(), "shift must reassign someone");
        assert!(m.epoch() > e0);
        assert_eq!(m.updates_applied(), 2);
        // All assignments carry the new epoch and respect the size cap.
        for (_, ga) in &assignments {
            assert_eq!(ga.epoch, m.epoch());
            assert!(ga.members.len() <= 4);
        }
    }

    #[test]
    fn none_decision_is_a_noop() {
        let mut m = manager(8, 4);
        let _ = m.bootstrap(0, clustered_graph(2, 4), 1000, 500);
        let out = m.update(1, RegroupDecision::None, 0.0, 1000, 500);
        assert!(out.is_empty());
        assert_eq!(m.updates_applied(), 1);
    }

    #[test]
    fn group_of_maps_switches() {
        let mut m = manager(8, 4);
        let _ = m.bootstrap(0, clustered_graph(2, 4), 1000, 500);
        // Same cluster ⇒ same group.
        assert_eq!(m.group_of(SwitchId::new(0)), m.group_of(SwitchId::new(3)));
        assert_ne!(m.group_of(SwitchId::new(0)), m.group_of(SwitchId::new(4)));
    }
}
