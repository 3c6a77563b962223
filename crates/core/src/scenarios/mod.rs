//! Canned scenarios: the paper's evaluation family plus fault-injection
//! workloads, behind one composable API.
//!
//! A [`Scenario`] bundles three things:
//!
//! 1. **`build`** — a deterministic function from a seed to the complete
//!    experiment input: a [`Trace`], an [`ExperimentConfig`] and an
//!    [`EventPlan`] of injected faults/perturbations;
//! 2. **`check`** — the scenario's acceptance contract over the resulting
//!    [`ExperimentReport`], as a [`ScenarioVerdict`];
//! 3. **a name** — so benches, tests and the `repro_scenario` binary can
//!    discover it through the [`ScenarioRegistry`].
//!
//! Adding a scenario is a one-file change: implement the trait (usually a
//! few dozen lines combining an existing testbed with an `EventPlan`) and
//! register it in [`ScenarioRegistry::builtin`]. Nothing in the driver,
//! config or world needs to know about it.
//!
//! # Determinism
//!
//! `build(seed)` must be a pure function of the seed (and the
//! [`Scale`](crate::Scale) read from `LAZYCTRL_SCALE`), and every injected event rides
//! the simulation's event queue with the same insertion-order tie-breaks
//! as organic traffic — so `run_scenario` with the same seed produces
//! bit-identical reports, crash-and-burst scenarios included. The
//! registry test asserts this for every built-in scenario.

mod cluster;
mod cold_cache;
mod congestion;
mod faults;
mod partition;

use lazyctrl_proto::EventPlan;
use lazyctrl_trace::Trace;

use crate::experiment::DetailedRun;
use crate::{Experiment, ExperimentConfig, ExperimentReport};

pub use cluster::{controller_crash, shard_rebalance, ClusterCrashReport, ClusterRebalanceReport};
pub use cold_cache::{cold_cache, ColdCacheReport};

/// Number of switch-clusters in the shared cluster testbed at the
/// `LAZYCTRL_SCALE` in force: 4 at quick scale (seconds per scenario), 16
/// at paper or x10 scale (minutes per scenario).
///
/// # Panics
///
/// Panics on an unrecognised `LAZYCTRL_SCALE`, so a typo cannot pass for
/// a quick-scale run.
pub(crate) fn testbed_clusters() -> usize {
    crate::Scale::from_env()
        .unwrap_or_else(|err| panic!("{err}"))
        .pick(4, 16)
}

/// One named, checkable experiment: input construction and acceptance
/// contract in one object.
pub trait Scenario {
    /// Registry/CLI name (`snake_case`).
    fn name(&self) -> &'static str;

    /// One-line description for `repro_scenario --list`.
    fn summary(&self) -> &'static str;

    /// Builds the complete experiment input for `seed`. Must be a pure
    /// function of the seed (plus the [`Scale`](crate::Scale) in force).
    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan);

    /// Judges a finished run against the scenario's contract.
    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict;
}

/// The outcome of [`Scenario::check`]: a list of failed expectations
/// (empty ⇒ pass) plus free-form notes for human readers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioVerdict {
    /// Violated expectations, one message each.
    pub failures: Vec<String>,
    /// Informational observations (always shown by `repro_scenario`).
    pub notes: Vec<String>,
}

impl ScenarioVerdict {
    /// A verdict with no findings yet.
    pub fn new() -> Self {
        ScenarioVerdict::default()
    }

    /// Records a failed expectation unless `ok` holds.
    pub fn require(&mut self, ok: bool, expectation: impl Into<String>) {
        if !ok {
            self.failures.push(expectation.into());
        }
    }

    /// Adds an informational note.
    pub(crate) fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// True if every expectation held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A finished scenario run: the report plus its verdict.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The full experiment report.
    pub report: ExperimentReport,
    /// The scenario's judgement of that report.
    pub verdict: ScenarioVerdict,
}

/// Builds, runs and checks `scenario` at `seed`.
///
/// # Panics
///
/// Panics if the built config/trace/plan fail validation (a scenario bug,
/// not a run outcome — run outcomes land in the verdict).
pub fn run_scenario(scenario: &dyn Scenario, seed: u64) -> ScenarioRun {
    let (trace, cfg, plan) = scenario.build(seed);
    run_built(scenario, trace, cfg, plan)
}

/// Like [`run_scenario`], but from an already-built input — for callers
/// that inspected the plan first and should not pay for a second
/// [`Scenario::build`].
pub fn run_built(
    scenario: &dyn Scenario,
    trace: Trace,
    cfg: ExperimentConfig,
    plan: EventPlan,
) -> ScenarioRun {
    run_built_detailed(scenario, trace, cfg, plan).0
}

/// Like [`run_built`], but also returns the full [`DetailedRun`] (per-flow
/// latencies, phase timings, and — when the config enables observability —
/// the flight recorder and engine profile).
///
/// When observability is on with `dump_on_failure` and the verdict fails,
/// the recorder is dumped automatically to `<dump_dir>/<scenario>.trace.jsonl`
/// (+ `.chrome.json` + `.telemetry.json`) — the dumps `repro_trace` reads.
pub fn run_built_detailed(
    scenario: &dyn Scenario,
    trace: Trace,
    cfg: ExperimentConfig,
    plan: EventPlan,
) -> (ScenarioRun, DetailedRun) {
    let detailed = Experiment::new(trace, cfg.with_plan(plan)).run_detailed();
    let verdict = scenario.check(&detailed.report);
    if !verdict.passed() {
        if let Some(obs) = &detailed.obs {
            if obs.config.dump_on_failure {
                dump_on_failure(scenario.name(), &detailed);
            }
        }
    }
    (
        ScenarioRun {
            report: detailed.report.clone(),
            verdict,
        },
        detailed,
    )
}

/// Best-effort flight-recorder dump for a failed verdict. IO failures are
/// reported to stderr, never propagated: a broken disk must not turn a
/// scenario failure into a crash.
fn dump_on_failure(name: &str, detailed: &DetailedRun) {
    let Some(obs) = &detailed.obs else { return };
    let dir = std::path::Path::new(&obs.config.dump_dir);
    let write = |file: String, contents: String| {
        let path = dir.join(file);
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("obs: failed to write {}: {e}", path.display());
        }
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("obs: failed to create {}: {e}", dir.display());
        return;
    }
    write(
        format!("{name}.trace.jsonl"),
        lazyctrl_obs::jsonl_dump(&obs.recorder),
    );
    write(
        format!("{name}.chrome.json"),
        lazyctrl_obs::chrome_trace_json(&obs.recorder, name),
    );
    write(
        format!("{name}.telemetry.json"),
        crate::telemetry::telemetry_json(detailed).to_json_pretty(),
    );
    eprintln!(
        "obs: verdict failed; flight recorder dumped to {}/{name}.trace.jsonl",
        dir.display()
    );
}

/// Name-indexed collection of scenarios.
#[derive(Default)]
pub struct ScenarioRegistry {
    entries: Vec<Box<dyn Scenario>>,
}

impl ScenarioRegistry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        ScenarioRegistry::default()
    }

    /// Every scenario this crate ships.
    pub fn builtin() -> Self {
        let mut reg = ScenarioRegistry::new();
        reg.register(Box::new(cold_cache::ColdCache));
        reg.register(Box::new(cluster::CrashUnderLoad));
        reg.register(Box::new(cluster::CrashRecover));
        reg.register(Box::new(cluster::ShardRebalance));
        reg.register(Box::new(cluster::PeerSyncStorm::default()));
        reg.register(Box::new(faults::SwitchFailure));
        reg.register(Box::new(faults::DegradedControlNet));
        reg.register(Box::new(faults::HostMigrationStorm));
        reg.register(Box::new(faults::TrafficBurstScenario));
        reg.register(Box::new(partition::PartitionSplit));
        reg.register(Box::new(partition::PartitionCtrlIsland));
        reg.register(Box::new(partition::PartitionSwitchOrphan));
        reg.register(Box::new(partition::PartitionFlapping));
        reg.register(Box::new(congestion::FlowSetupStorm));
        reg.register(Box::new(congestion::ControllerIncast));
        reg.register(Box::new(congestion::ElephantPeerSync));
        reg
    }

    /// Adds a scenario.
    ///
    /// # Panics
    ///
    /// Panics if a scenario with the same name is already registered.
    pub(crate) fn register(&mut self, scenario: Box<dyn Scenario>) {
        assert!(
            self.get(scenario.name()).is_none(),
            "duplicate scenario name {:?}",
            scenario.name()
        );
        self.entries.push(scenario);
    }

    /// Looks a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Scenario> {
        self.entries
            .iter()
            .find(|s| s.name() == name)
            .map(|s| s.as_ref())
    }

    /// All scenarios, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Scenario> {
        self.entries.iter().map(|s| s.as_ref())
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|s| s.name()).collect()
    }

    /// Number of registered scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no scenario is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_is_discoverable() {
        let reg = ScenarioRegistry::builtin();
        assert!(reg.len() >= 6, "registry too small: {:?}", reg.names());
        assert!(reg.get("cold_cache").is_some());
        assert!(reg.get("crash_under_load").is_some());
        assert!(reg.get("no_such_scenario").is_none());
        for s in reg.iter() {
            assert!(!s.summary().is_empty(), "{} has no summary", s.name());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate scenario name")]
    fn duplicate_names_rejected() {
        let mut reg = ScenarioRegistry::builtin();
        reg.register(Box::new(cold_cache::ColdCache));
    }

    #[test]
    fn verdict_collects_failures() {
        let mut v = ScenarioVerdict::new();
        v.require(true, "fine");
        assert!(v.passed());
        v.note("observation");
        v.require(false, "broken");
        assert!(!v.passed());
        assert_eq!(v.failures, vec!["broken".to_string()]);
        assert_eq!(v.notes, vec!["observation".to_string()]);
    }
}
