//! Switch-pair traffic intensity matrices — the input to switch grouping.
//!
//! §III-C.1: "an intensity matrix where each element w_{i,j} represents the
//! normalized traffic intensity (i.e., number of new flows per second)
//! between two edge switches". Built here from a trace window, consumed by
//! `lazyctrl-partition` as a [`WeightedGraph`].

use std::collections::HashMap;

use lazyctrl_partition::WeightedGraph;
use serde::{Deserialize, Serialize};

use crate::{FlowRecord, Topology, Trace};

/// A sparse symmetric switch-pair intensity matrix (new flows/sec).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntensityMatrix {
    num_switches: usize,
    /// `(s_min, s_max) -> flows/sec`.
    entries: HashMap<(u32, u32), f64>,
}

impl IntensityMatrix {
    /// Builds the matrix from all flows in `[start_ns, end_ns)` of `trace`.
    ///
    /// Intra-switch flows (both hosts on one edge switch) don't appear: they
    /// never cross the fabric and are invisible to grouping.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty (`start_ns >= end_ns`).
    pub fn from_trace_window(trace: &Trace, start_ns: u64, end_ns: u64) -> Self {
        let window = trace.flows_between(start_ns, end_ns);
        Self::from_flows(&trace.topology, window, start_ns, end_ns)
    }

    /// Builds the matrix from `flows` over `topology`, all of which lie in
    /// the window `[start_ns, end_ns)` that normalizes the rates.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty (`start_ns >= end_ns`).
    pub fn from_flows(
        topology: &Topology,
        flows: &[FlowRecord],
        start_ns: u64,
        end_ns: u64,
    ) -> Self {
        assert!(start_ns < end_ns, "empty window");
        let secs = (end_ns - start_ns) as f64 / 1e9;
        let mut entries: HashMap<(u32, u32), f64> = HashMap::new();
        for f in flows {
            let a = topology.switch_of(f.src).0;
            let b = topology.switch_of(f.dst).0;
            if a == b {
                continue;
            }
            let key = if a < b { (a, b) } else { (b, a) };
            *entries.entry(key).or_insert(0.0) += 1.0;
        }
        for v in entries.values_mut() {
            *v /= secs;
        }
        IntensityMatrix {
            num_switches: topology.num_switches,
            entries,
        }
    }

    /// Builds the matrix over the whole trace.
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_trace_window(trace, 0, trace.duration_ns.max(1))
    }

    /// Number of switch pairs with non-zero intensity.
    #[cfg(test)]
    fn num_pairs(&self) -> usize {
        self.entries.len()
    }

    /// Intensity between two switches (0 when absent, symmetric).
    #[cfg(test)]
    fn intensity(&self, a: u32, b: u32) -> f64 {
        if a == b {
            return 0.0;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        self.entries.get(&key).copied().unwrap_or(0.0)
    }

    /// Sum of all pairwise intensities.
    #[cfg(test)]
    fn total(&self) -> f64 {
        self.entries.values().sum()
    }

    /// Iterates over `(switch_a, switch_b, flows_per_sec)` triplets.
    pub(crate) fn triplets(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.entries.iter().map(|(&(a, b), &w)| (a, b, w))
    }

    /// Converts to the partition crate's graph form (vertex = switch).
    pub fn to_graph(&self) -> WeightedGraph {
        WeightedGraph::from_triplets(
            self.num_switches,
            self.triplets().map(|(a, b, w)| (a as usize, b as usize, w)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realistic::{generate, RealTraceConfig};
    use crate::{FlowRecord, NominalParams, Topology};
    use lazyctrl_net::{HostId, SwitchId, TenantId};

    fn tiny_trace() -> Trace {
        // Hosts 0,1 on switch 0; host 2 on switch 1; host 3 on switch 2.
        let topology = Topology {
            num_switches: 3,
            host_switch: vec![
                SwitchId::new(0),
                SwitchId::new(0),
                SwitchId::new(1),
                SwitchId::new(2),
            ],
            host_tenant: vec![TenantId::new(1); 4],
        };
        let mk = |t: u64, s: u32, d: u32| FlowRecord {
            time_ns: t,
            src: HostId::new(s),
            dst: HostId::new(d),
            bytes: 100,
        };
        Trace {
            name: "tiny".into(),
            topology,
            flows: vec![
                mk(0, 0, 1),             // intra-switch: ignored
                mk(1_000_000_000, 0, 2), // S0-S1
                mk(2_000_000_000, 2, 0), // S1-S0 (same pair)
                mk(3_000_000_000, 1, 3), // S0-S2
            ],
            duration_ns: 10_000_000_000, // 10 s
            nominal: NominalParams::default(),
        }
    }

    #[test]
    fn builds_flows_per_second() {
        let m = IntensityMatrix::from_trace(&tiny_trace());
        assert_eq!(m.num_pairs(), 2);
        assert!((m.intensity(0, 1) - 0.2).abs() < 1e-12); // 2 flows / 10 s
        assert!((m.intensity(1, 0) - 0.2).abs() < 1e-12); // symmetric
        assert!((m.intensity(0, 2) - 0.1).abs() < 1e-12);
        assert_eq!(m.intensity(1, 2), 0.0);
        assert!((m.total() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn windowing_selects_flows() {
        let t = tiny_trace();
        let m = IntensityMatrix::from_trace_window(&t, 0, 1_500_000_000);
        assert_eq!(m.num_pairs(), 1);
        // One S0-S1 flow in 1.5 s.
        assert!((m.intensity(0, 1) - 1.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn to_graph_preserves_weights() {
        let m = IntensityMatrix::from_trace(&tiny_trace());
        let g = m.to_graph();
        assert_eq!(g.num_vertices(), 3);
        assert!((g.edge_weight(0, 1) - 0.2).abs() < 1e-12);
        assert!((g.total_edge_weight() - m.total()).abs() < 1e-12);
    }

    #[test]
    fn realistic_trace_matrix_is_localized() {
        // Tenant locality must show up as a sparse, clustered matrix.
        let trace = generate(&RealTraceConfig::small());
        let m = IntensityMatrix::from_trace(&trace);
        // Tenant locality concentrates the heavy pairs; the diffuse
        // background touches many switch pairs lightly, so assert on
        // weight concentration instead of raw pair count.
        let possible = 40 * 39 / 2;
        assert!(
            m.num_pairs() < possible,
            "every pair active: {}",
            m.num_pairs()
        );
        let mut weights: Vec<f64> = m.triplets().map(|(_, _, w)| w).collect();
        weights.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let top20: f64 = weights.iter().take(weights.len() / 5).sum();
        let total: f64 = weights.iter().sum();
        assert!(
            top20 / total > 0.6,
            "top-20% switch pairs carry only {:.2} of intensity",
            top20 / total
        );
        assert!(m.total() > 0.0);
    }
}
