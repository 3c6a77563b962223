//! The §V-E cold-cache micro-scenario: first-packet latency for fresh
//! flows among newly deployed hosts.

use lazyctrl_net::{HostId, SwitchId, TenantId};
use lazyctrl_proto::EventPlan;
use lazyctrl_trace::{FlowRecord, NominalParams, Topology, Trace};
use serde::{Deserialize, Serialize};

use super::{Scenario, ScenarioVerdict};
use crate::{ControlMode, Experiment, ExperimentConfig, ExperimentReport};

/// Start of the cold-cache phase (just past the bootstrap hour).
const COLD_START_NS: u64 = 3_700_000_000_000;

/// Results of the §V-E cold-cache experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColdCacheReport {
    /// Mean first-packet latency for intra-group flows (ms). Paper: 0.83 ms
    /// (LazyCtrl) vs 15.06 ms (OpenFlow).
    pub intra_group_ms: f64,
    /// Mean first-packet latency for inter-group flows (ms). Paper:
    /// 5.38 ms (LazyCtrl).
    pub inter_group_ms: f64,
    /// Flows measured.
    pub flows: u64,
}

/// The cold-cache micro-topology and trace: two groups of switches with
/// freshly deployed hosts, 45 fresh intra-group flows among 5 new hosts
/// plus an inter-group tail. Returns the trace and the (intra, inter)
/// pair sets the cold phase measures.
#[allow(clippy::type_complexity)]
fn cold_cache_trace() -> (Trace, Vec<(u32, u32)>, Vec<(u32, u32)>) {
    // Topology: 6 switches; hosts 0..5 on switches 0..2 (group A by
    // traffic), hosts 5..10 on switches 3..5 (group B).
    let num_switches = 6;
    let hosts_per_switch = 2;
    let num_hosts = num_switches * hosts_per_switch;
    let host_switch: Vec<SwitchId> = (0..num_hosts)
        .map(|h| SwitchId::new((h / hosts_per_switch) as u32))
        .collect();
    let host_tenant: Vec<TenantId> = (0..num_hosts)
        .map(|h| TenantId::new(if h < num_hosts / 2 { 1 } else { 2 }))
        .collect();
    let topology = Topology {
        num_switches,
        host_switch,
        host_tenant,
    };

    // Bootstrap window traffic (hour 0): establishes the two groups.
    let mut flows = Vec::new();
    let mut t = 60_000_000_000u64; // start at 1 min
    for round in 0..40u32 {
        for (a, b) in [(0u32, 2u32), (1, 3), (2, 4), (7, 9), (6, 8), (9, 11)] {
            flows.push(FlowRecord {
                time_ns: t,
                src: HostId::new(a),
                dst: HostId::new(b),
                bytes: 200,
            });
            t += 7_000_000_000 + (round as u64 % 3) * 1_000_000_000;
        }
    }
    // Cold-cache phase (after bootstrap + grouping): 45 fresh intra-group
    // flows among "newly deployed" host pairs that never communicated...
    let mut t = COLD_START_NS;
    let mut intra_pairs = Vec::new();
    for a in 0..5u32 {
        for b in 0..5u32 {
            if a < b {
                intra_pairs.push((a, b));
            }
        }
    }
    // ...plus fresh inter-group flows for the 5.38 ms number.
    let mut inter_pairs = Vec::new();
    for a in 0..5u32 {
        inter_pairs.push((a, 6 + a));
    }
    for &(a, b) in intra_pairs.iter().chain(&inter_pairs) {
        flows.push(FlowRecord {
            time_ns: t,
            src: HostId::new(a),
            dst: HostId::new(b),
            bytes: 100,
        });
        t += 2_000_000_000;
    }
    flows.sort_by_key(|f| f.time_ns);

    let trace = Trace {
        name: "cold-cache".into(),
        topology,
        flows,
        duration_ns: t + 10_000_000_000,
        nominal: NominalParams::default(),
    };
    (trace, intra_pairs, inter_pairs)
}

fn cold_cache_config(mode: ControlMode, seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(mode)
        .with_group_size_limit(3)
        .with_seed(seed);
    cfg.emit_arp = true;
    cfg.record_flow_latencies = true;
    cfg.bucket_hours = 0.25;
    cfg.sync_interval_ms = 5_000;
    cfg.keepalive_interval_ms = 10_000;
    cfg
}

/// Runs the §V-E cold-cache experiment and splits the cold-phase
/// latencies into intra-/inter-group means.
///
/// `mode` selects the control plane; the same trace runs under both so the
/// comparison is like-for-like.
pub fn cold_cache(mode: ControlMode, seed: u64) -> ColdCacheReport {
    let (trace, intra_pairs, inter_pairs) = cold_cache_trace();
    let cfg = cold_cache_config(mode, seed);

    let intra_set: std::collections::HashSet<(u32, u32)> = intra_pairs.into_iter().collect();
    let inter_set: std::collections::HashSet<(u32, u32)> = inter_pairs.into_iter().collect();

    let run = Experiment::new(trace, cfg).run_detailed();
    let mut intra = Vec::new();
    let mut inter = Vec::new();
    for ((src, dst, at_ns), ms) in &run.flow_latencies {
        if *at_ns < COLD_START_NS {
            continue;
        }
        let key = (*src, *dst);
        if intra_set.contains(&key) {
            intra.push(*ms);
        } else if inter_set.contains(&key) {
            inter.push(*ms);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    ColdCacheReport {
        intra_group_ms: mean(&intra),
        inter_group_ms: mean(&inter),
        flows: (intra.len() + inter.len()) as u64,
    }
}

/// The §V-E cold-cache scenario under LazyCtrl, as a registry entry.
pub struct ColdCache;

impl Scenario for ColdCache {
    fn name(&self) -> &'static str {
        "cold_cache"
    }

    fn summary(&self) -> &'static str {
        "§V-E: first-packet latency for fresh flows among newly deployed hosts"
    }

    fn build(&self, seed: u64) -> (Trace, ExperimentConfig, EventPlan) {
        let (trace, _, _) = cold_cache_trace();
        (
            trace,
            cold_cache_config(ControlMode::LazyStatic, seed),
            EventPlan::new(),
        )
    }

    fn check(&self, report: &ExperimentReport) -> ScenarioVerdict {
        let mut v = ScenarioVerdict::new();
        v.require(
            report.num_groups == Some(2),
            format!(
                "bootstrap grouping must find the two traffic clusters, got {:?}",
                report.num_groups
            ),
        );
        v.require(report.delivered_flows > 0, "no traffic delivered");
        v.require(
            report.delivered_flows * 10 >= report.flows_started * 9,
            format!(
                "≥90% of flows must deliver: {}/{}",
                report.delivered_flows, report.flows_started
            ),
        );
        v.require(
            report.mean_latency_ms < 10.0,
            format!(
                "lazy-mode mean latency must stay below 10 ms, got {:.3}",
                report.mean_latency_ms
            ),
        );
        v.note(format!(
            "mean first-packet latency {:.3} ms over {} delivered flows",
            report.mean_latency_ms, report.delivered_flows
        ));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazyctrl_beats_openflow_on_cold_cache() {
        let lazy = cold_cache(ControlMode::LazyStatic, 1);
        let base = cold_cache(ControlMode::Baseline, 1);
        assert!(lazy.flows > 0 && base.flows > 0);
        // The paper's headline gap: intra-group cold-cache latency is an
        // order of magnitude below the baseline (0.83 ms vs 15.06 ms).
        assert!(
            lazy.intra_group_ms < base.intra_group_ms / 3.0,
            "intra-group: lazy {} vs baseline {}",
            lazy.intra_group_ms,
            base.intra_group_ms
        );
        // Intra-group resolution never touches the controller, so it is
        // also far below LazyCtrl's own inter-group path (0.83 vs 5.38).
        assert!(
            lazy.intra_group_ms < lazy.inter_group_ms / 2.0,
            "locality dividend missing: intra {} vs inter {}",
            lazy.intra_group_ms,
            lazy.inter_group_ms
        );
        // Inter-group flows pay one controller round trip in both designs;
        // LazyCtrl must not be meaningfully slower than the baseline there.
        // (The paper's 5.38-vs-15.06 gap additionally reflects Floodlight's
        // slow passive topology learning, which our leaner baseline does
        // not model — see DESIGN.md §1.)
        assert!(
            lazy.inter_group_ms <= base.inter_group_ms * 2.0,
            "inter-group: lazy {} vs baseline {}",
            lazy.inter_group_ms,
            base.inter_group_ms
        );
    }
}
