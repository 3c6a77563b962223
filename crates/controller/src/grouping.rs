//! Switch grouping management (§IV-B): wraps the SGI algorithm, watches
//! the traffic pattern through state reports, and regenerates group
//! assignments under the paper's regrouping triggers.
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

/// An immutable snapshot of a computed grouping, shareable across
/// controllers via [`Arc`].
///
/// A cluster freezes the grouping at bootstrap (ownership moves between
/// members instead of switches moving between groups), so every member
/// asking the same read-only questions of its own full `Sgi` — graph,
/// partition, history — is pure memory waste, multiplied by the cluster
/// size. One member computes the grouping, freezes it into this snapshot,
/// and every other member adopts the shared `Arc`: per-member grouping
/// state collapses to one pointer, and bootstrap runs SGI once instead of
/// N times.
#[derive(Debug)]
pub struct FrozenGrouping {
    /// Dense switch → group mapping.
    group_of: Vec<Option<usize>>,
    /// Members per group, ascending switch id.
    members: Vec<Vec<SwitchId>>,
    /// The grouping epoch in force when frozen.
    epoch: u32,
    /// Per-group composition epochs.
    group_epochs: BTreeMap<usize, u32>,
    /// Normalized inter-group intensity at freeze time.
    winter: Option<f64>,
}

impl FrozenGrouping {
    /// Number of switches covered.
    pub fn num_switches(&self) -> usize {
        self.group_of.len()
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.members.len()
    }
}

/// The controller's grouping state machine.
#[derive(Debug, Clone)]
pub struct GroupingManager {
    sgi: Option<Sgi>,
    /// When set, the grouping is frozen to this shared immutable snapshot:
    /// all read accessors answer from it, mutation paths no-op, and the
    /// heavyweight SGI state (`sgi`, samples, history, punt counts) is
    /// dropped/never accumulated. See [`FrozenGrouping`].
    frozen: Option<Arc<FrozenGrouping>>,
    num_switches: usize,
    group_size_limit: usize,
    seed: u64,
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
    updates_applied: u64,
    epoch: u32,
    /// Epoch at which each group last changed composition. Tunnel keys and
    /// `GroupAssign`s carry the *group's* epoch, so untouched groups keep
    /// accepting their traffic across global updates.
    group_epochs: BTreeMap<usize, u32>,
    /// Switches moved by the most recent update: `(switch, old group,
    /// new group)`. Consumed by the controller's preload step.
    last_moves: Vec<(SwitchId, usize, usize)>,
}

impl GroupingManager {
    /// Creates a manager for `num_switches` switches.
    ///
    /// # Panics
    ///
    /// Panics if `group_size_limit` is zero.
    pub fn new(num_switches: usize, group_size_limit: usize, seed: u64) -> Self {
        assert!(group_size_limit > 0, "group size limit must be positive");
        GroupingManager {
            sgi: None,
            frozen: None,
            num_switches,
            group_size_limit,
            seed,
            samples: BTreeMap::new(),
            history: BTreeMap::new(),
            punt_counts: BTreeMap::new(),
            last_update_ns: 0,
            workload_at_last_update: 0.0,
            updates_applied: 0,
            epoch: 0,
            group_epochs: BTreeMap::new(),
            last_moves: Vec::new(),
        }
    }

    /// The (global) grouping epoch currently in force.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The epoch at which `group` last changed composition.
    pub fn epoch_of_group(&self, group: usize) -> u32 {
        if let Some(f) = &self.frozen {
            return f.group_epochs.get(&group).copied().unwrap_or(f.epoch);
        }
        self.group_epochs.get(&group).copied().unwrap_or(self.epoch)
    }

    /// The epoch governing traffic towards `switch` (its group's epoch).
    pub fn epoch_of_switch(&self, switch: SwitchId) -> u32 {
        self.group_of(switch)
            .map(|g| self.epoch_of_group(g))
            .unwrap_or(self.epoch)
    }

    /// Updates applied so far (Fig. 8's quantity).
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Current normalized inter-group intensity, if grouped.
    pub fn winter(&self) -> Option<f64> {
        if let Some(f) = &self.frozen {
            return f.winter;
        }
        self.sgi.as_ref().map(|s| s.winter())
    }

    /// The group a switch belongs to (dense index), if grouped.
    pub fn group_of(&self, switch: SwitchId) -> Option<usize> {
        if let Some(f) = &self.frozen {
            return f.group_of.get(switch.index()).copied().flatten();
        }
        let sgi = self.sgi.as_ref()?;
        let g = sgi.partition().group_of(switch.index());
        (g != CONTROLLER_GROUP).then_some(g)
    }

    /// Members of a group, as switch ids.
    pub fn members(&self, group: usize) -> Vec<SwitchId> {
        if let Some(f) = &self.frozen {
            return f.members.get(group).cloned().unwrap_or_default();
        }
        self.sgi
            .as_ref()
            .map(|s| {
                s.partition()
                    .members(group)
                    .into_iter()
                    .map(|v| SwitchId::new(v as u32))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Number of groups, if grouped.
    pub fn num_groups(&self) -> Option<usize> {
        if let Some(f) = &self.frozen {
            return Some(f.num_groups());
        }
        self.sgi.as_ref().map(|s| s.partition().num_groups())
    }

    /// True when this manager answers from a shared frozen snapshot.
    pub fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    /// The designated switch of a group under the controller's selection
    /// principle (lowest switch id — "some given principle", §III-D.1).
    pub fn designated_of(&self, group: usize) -> Option<SwitchId> {
        self.members(group).into_iter().min()
    }

    /// Absorbs a designated switch's aggregated state report. A frozen
    /// grouping can never regroup, so the samples would only accumulate
    /// unbounded memory — they are dropped.
    pub fn absorb_report(&mut self, report: &StateReportMsg) {
        if self.frozen.is_some() {
            return;
        }
        for &(a, b, w) in &report.intensity {
            self.samples.insert((a, b), w);
        }
    }

    /// Records one punted flow from `ingress` towards `dst` (resolved via
    /// the C-LIB). Folded into the intensity picture at the next update;
    /// dropped when frozen (no update will ever consume it).
    pub fn note_punt(&mut self, ingress: SwitchId, dst: SwitchId) {
        if self.frozen.is_some() {
            return;
        }
        if ingress != dst {
            *self.punt_counts.entry((ingress, dst)).or_insert(0) += 1;
        }
    }

    /// Freezes the computed grouping into an immutable shared snapshot and
    /// drops the SGI state behind it (graph, partition, intensity history,
    /// pending samples). Further reads answer from the snapshot; mutation
    /// paths ([`absorb_report`], [`note_punt`], [`update`]) become no-ops.
    /// Returns `None` when nothing was bootstrapped yet.
    ///
    /// [`absorb_report`]: GroupingManager::absorb_report
    /// [`note_punt`]: GroupingManager::note_punt
    /// [`update`]: GroupingManager::update
    pub fn freeze_shared(&mut self) -> Option<Arc<FrozenGrouping>> {
        if let Some(f) = &self.frozen {
            return Some(f.clone());
        }
        self.sgi.as_ref()?;
        let num_groups = self.num_groups().unwrap_or(0);
        let snapshot = Arc::new(FrozenGrouping {
            group_of: (0..self.num_switches)
                .map(|s| self.group_of(SwitchId::new(s as u32)))
                .collect(),
            members: (0..num_groups).map(|g| self.members(g)).collect(),
            epoch: self.epoch,
            group_epochs: self.group_epochs.clone(),
            winter: self.winter(),
        });
        self.sgi = None;
        self.samples.clear();
        self.history.clear();
        self.punt_counts.clear();
        self.last_moves.clear();
        self.frozen = Some(snapshot.clone());
        Some(snapshot)
    }

    /// Adopts a peer's frozen grouping snapshot instead of computing one,
    /// returning the same per-switch assignments [`bootstrap`] would have
    /// produced from the equivalent graph — without running SGI and
    /// without holding any per-member grouping state beyond the shared
    /// pointer.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot covers a different switch population, or if
    /// this manager already bootstrapped on its own.
    ///
    /// [`bootstrap`]: GroupingManager::bootstrap
    pub fn adopt_shared(
        &mut self,
        now_ns: u64,
        snapshot: Arc<FrozenGrouping>,
        sync_interval_ms: u32,
        keepalive_interval_ms: u32,
    ) -> Vec<(SwitchId, GroupAssignMsg)> {
        assert_eq!(
            snapshot.num_switches(),
            self.num_switches,
            "frozen grouping covers a different switch population"
        );
        assert!(
            self.sgi.is_none() && self.frozen.is_none(),
            "manager already has a grouping"
        );
        self.epoch = snapshot.epoch;
        self.frozen = Some(snapshot);
        self.last_update_ns = now_ns;
        self.updates_applied += 1;
        self.assignments_for_all(sync_interval_ms, keepalive_interval_ms)
    }

    /// `IniGroup`: computes the initial grouping from a bootstrap intensity
    /// graph (the paper uses the first hour of traffic) and returns the
    /// per-switch assignments to push.
    ///
    /// # Panics
    ///
    /// Panics if the graph's vertex count differs from `num_switches`.
    pub fn bootstrap(
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
        assert!(
            self.frozen.is_none(),
            "cannot bootstrap over an adopted frozen grouping"
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
        self.epoch = sgi.epoch();
        let num_groups = sgi.partition().num_groups();
        self.group_epochs = (0..num_groups).map(|g| (g, self.epoch)).collect();
        // Seed the intensity history from the bootstrap graph.
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
        self.updates_applied += 1;
        self.assignments_for_all(sync_interval_ms, keepalive_interval_ms)
    }

    /// The trigger check (call periodically with the measured workload).
    pub fn check(&mut self, now_ns: u64, workload_rps: f64) -> RegroupDecision {
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
        if self.sgi.is_none() || decision == RegroupDecision::None {
            return Vec::new();
        }
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
        if window.is_empty() {
            // No measurements this window: nothing to adapt to.
            self.last_update_ns = now_ns;
            self.workload_at_last_update = workload_rps;
            return Vec::new();
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
        let graph = self.history_graph();
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
            RegroupDecision::None => unreachable!("filtered above"),
        }
        let after = sgi.partition().assignment();
        let changed: Vec<usize> = before
            .iter()
            .zip(after)
            .enumerate()
            .filter(|(_, (b, a))| b != a)
            .map(|(v, _)| v)
            .collect();
        self.last_moves = changed
            .iter()
            .filter(|&&v| before[v] != CONTROLLER_GROUP && after[v] != CONTROLLER_GROUP)
            .map(|&v| (SwitchId::new(v as u32), before[v], after[v]))
            .collect();
        self.epoch = sgi.epoch();
        self.last_update_ns = now_ns;
        self.workload_at_last_update = workload_rps;
        if changed.is_empty() {
            return Vec::new();
        }
        self.updates_applied += 1;
        // Every member of every group touched by a moved switch needs a
        // fresh assignment (ring neighbours and G-FIB membership change).
        let mut touched_groups: Vec<usize> = changed
            .iter()
            .flat_map(|&v| [before[v], after[v]])
            .filter(|&g| g != CONTROLLER_GROUP)
            .collect();
        touched_groups.sort_unstable();
        touched_groups.dedup();
        for &g in &touched_groups {
            self.group_epochs.insert(g, self.epoch);
        }
        let mut out = Vec::new();
        for g in touched_groups {
            out.extend(self.assignments_for_group(g, sync_interval_ms, keepalive_interval_ms));
        }
        out
    }

    /// Drains the switches moved by the most recent update (for preload).
    pub fn take_last_moves(&mut self) -> Vec<(SwitchId, usize, usize)> {
        std::mem::take(&mut self.last_moves)
    }

    /// Records the workload baseline without regrouping (used right after
    /// bootstrap when the meter warms up).
    pub fn set_workload_baseline(&mut self, workload_rps: f64) {
        self.workload_at_last_update = workload_rps;
    }

    fn history_graph(&self) -> WeightedGraph {
        WeightedGraph::from_triplets(
            self.num_switches,
            self.history
                .iter()
                .filter(|((a, b), _)| a != b)
                .map(|((a, b), &w)| (a.index(), b.index(), w)),
        )
    }

    fn assignments_for_all(
        &self,
        sync_interval_ms: u32,
        keepalive_interval_ms: u32,
    ) -> Vec<(SwitchId, GroupAssignMsg)> {
        let n = self.num_groups().unwrap_or(0);
        (0..n)
            .flat_map(|g| self.assignments_for_group(g, sync_interval_ms, keepalive_interval_ms))
            .collect()
    }

    /// Builds the per-member `GroupAssign` messages for one group: members
    /// in ring order (sorted by id, the paper's MAC-address ordering),
    /// designated switch, backups, and each member's ring neighbours.
    fn assignments_for_group(
        &self,
        group: usize,
        sync_interval_ms: u32,
        keepalive_interval_ms: u32,
    ) -> Vec<(SwitchId, GroupAssignMsg)> {
        let mut members = self.members(group);
        members.sort_unstable();
        if members.is_empty() {
            return Vec::new();
        }
        let designated = members[0];
        let backups: Vec<SwitchId> = members.iter().copied().skip(1).take(1).collect();
        let n = members.len();
        members
            .iter()
            .enumerate()
            .map(|(i, &me)| {
                let prev = members[(i + n - 1) % n];
                let next = members[(i + 1) % n];
                (
                    me,
                    GroupAssignMsg {
                        group: GroupId::new(group as u32),
                        epoch: self.epoch_of_group(group),
                        members: members.clone(),
                        designated,
                        backups: backups.clone(),
                        ring_prev: prev,
                        ring_next: next,
                        sync_interval_ms,
                        keepalive_interval_ms,
                        group_size_limit: self.group_size_limit as u32,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        GroupingManager::new(n, limit, 7)
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
    fn freeze_preserves_every_read() {
        let mut m = manager(12, 4);
        let _ = m.bootstrap(0, clustered_graph(3, 4), 1000, 500);
        let before: Vec<_> = (0..12)
            .map(|s| m.group_of(SwitchId::new(s as u32)))
            .collect();
        let groups = m.num_groups().unwrap();
        let members_before: Vec<_> = (0..groups).map(|g| m.members(g)).collect();
        let winter = m.winter();
        let epoch = m.epoch();
        let snap = m.freeze_shared().expect("bootstrapped");
        assert!(m.is_frozen());
        assert_eq!(snap.num_switches(), 12);
        assert_eq!(snap.num_groups(), groups);
        for (s, expected) in before.iter().enumerate() {
            assert_eq!(m.group_of(SwitchId::new(s as u32)), *expected);
        }
        for (g, expected) in members_before.iter().enumerate() {
            assert_eq!(&m.members(g), expected);
            assert_eq!(m.epoch_of_group(g), epoch);
        }
        assert_eq!(m.winter(), winter);
        assert_eq!(m.epoch(), epoch);
        // Mutation paths are inert: no sample memory accumulates.
        m.note_punt(SwitchId::new(0), SwitchId::new(5));
        assert_eq!(
            m.update(1, RegroupDecision::Incremental, 10.0, 1000, 500),
            Vec::new()
        );
    }

    #[test]
    fn adopt_emits_the_same_assignments() {
        let mut a = manager(12, 4);
        let mut assignments_a = a.bootstrap(0, clustered_graph(3, 4), 1000, 500);
        let snap = a.freeze_shared().expect("bootstrapped");
        let mut b = manager(12, 4);
        let mut assignments_b = b.adopt_shared(0, snap, 1000, 500);
        assignments_a.sort_by_key(|(s, _)| *s);
        assignments_b.sort_by_key(|(s, _)| *s);
        assert_eq!(assignments_a, assignments_b);
        assert_eq!(b.num_groups(), a.num_groups());
        assert_eq!(b.epoch(), a.epoch());
        assert_eq!(b.updates_applied(), 1);
    }

    #[test]
    #[should_panic(expected = "different switch population")]
    fn adopt_rejects_mismatched_population() {
        let mut a = manager(12, 4);
        let _ = a.bootstrap(0, clustered_graph(3, 4), 1000, 500);
        let snap = a.freeze_shared().unwrap();
        let mut b = manager(8, 4);
        let _ = b.adopt_shared(0, snap, 1000, 500);
    }

    #[test]
    fn designated_is_lowest_member() {
        let mut m = manager(8, 4);
        let _ = m.bootstrap(0, clustered_graph(2, 4), 1000, 500);
        for g in 0..m.num_groups().unwrap() {
            let members = m.members(g);
            let designated = m.designated_of(g).unwrap();
            assert_eq!(designated, members.into_iter().min().unwrap());
        }
    }

    #[test]
    fn triggers_respect_min_interval() {
        let mut m = manager(8, 4);
        let _ = m.bootstrap(0, clustered_graph(2, 4), 1000, 500);
        m.set_workload_baseline(100.0);
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
            m.absorb_report(&StateReportMsg {
                group: GroupId::new(0),
                epoch: e0,
                intensity: vec![(SwitchId::new(a), SwitchId::new(b), 100.0)],
                stats: vec![],
            });
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
