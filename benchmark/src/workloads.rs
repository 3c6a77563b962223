//! The five workloads: names, rationale, and the letter the metric table
//! uses for applicability. What each one runs lives with the layer that
//! runs it (`layers::core` for the four simulations, `layers::mc`).

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LazyFlowSetup,
    OpenflowBaseline,
    ClusterStorm,
    DynamicRegroup,
    McExplore,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LazyFlowSetup,
        Workload::OpenflowBaseline,
        Workload::ClusterStorm,
        Workload::DynamicRegroup,
        Workload::McExplore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LazyFlowSetup => "lazy_flow_setup",
            Workload::OpenflowBaseline => "openflow_baseline",
            Workload::ClusterStorm => "cluster_storm",
            Workload::DynamicRegroup => "dynamic_regroup",
            Workload::McExplore => "mc_explore",
        }
    }

    /// The letter naming this workload in a metric's `on` set.
    pub fn letter(self) -> char {
        match self {
            Workload::LazyFlowSetup => 'A',
            Workload::OpenflowBaseline => 'B',
            Workload::ClusterStorm => 'C',
            Workload::DynamicRegroup => 'D',
            Workload::McExplore => 'E',
        }
    }

    /// One line on why the workload exists (mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LazyFlowSetup => {
                "Syn-A/8 under one lazy controller: the paper's operating point, where the event wheel and the switch datapath do most of the work and the controller little"
            }
            Workload::OpenflowBaseline => {
                "the same trace under plain OpenFlow: every fresh flow punts, so the baseline controller and ARP fan-out dominate and the lazy fast path is bypassed"
            }
            Workload::ClusterStorm => {
                "the same trace on 4 controllers with 100 kB/s control links, bounded ingress queues, a crash, migrations and a burst: the only one with queues, shedding and wire sizing"
            }
            Workload::DynamicRegroup => {
                "expanded real-trace surrogate under dynamic regrouping: partitioning, G-FIB rebuilds and GroupAssign fan-out dominate and the datapath does little"
            }
            Workload::McExplore => {
                "bounded model checking of the cluster plane: clone- and fingerprint-bound, runs no simulator or switch code, so it separates plane cost from datapath cost"
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}
