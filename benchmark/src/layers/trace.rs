//! Layer `trace`: input generation. The program under test only ever
//! sees what these functions return.

use lazyctrl::trace::expand::expand;
use lazyctrl::trace::realistic::{generate as generate_real, RealTraceConfig};
use lazyctrl::trace::synthetic::{generate as generate_syn, SyntheticConfig};
pub use lazyctrl::trace::Trace;

use crate::workloads::Workload;

/// Syn-A at one eighth of the paper's topology: 339 switches, 8 136
/// hosts, 62 500 flows over 24 h. Shared by workloads A–C, so those
/// differ only in the control plane.
fn syn_a_eighth(seed: u64) -> Trace {
    let mut cfg = SyntheticConfig::syn_a().scaled_down(8);
    cfg.seed = seed;
    generate_syn(&cfg)
}

/// The real-trace surrogate at 40 switches / 1 000 hosts with 240 k
/// flows, expanded by 30 % among fresh pairs in hours 8–24 (§V-D) — the
/// locality erosion that makes dynamic regrouping work for its living.
///
/// Do not swap in Syn-A here: `LazyDynamic` on Syn-A/8 did not finish in
/// ten minutes and 1.4 GB when this benchmark was defined.
fn expanded_real(seed: u64) -> Trace {
    let mut cfg = RealTraceConfig::small();
    cfg.num_flows = 240_000;
    cfg.seed = seed;
    expand(&generate_real(&cfg), 0.30, 8.0, 24.0, seed ^ 0xE0A)
}

/// The seeds of the days one run of `workload` replays. Workloads A–C
/// replay one day. `dynamic_regroup` replays three independently
/// generated ones back to back: which switch pairs cross the regrouping
/// thresholds first is chaotic, so a single day's host time moves by a
/// tenth with the seed alone, and three average that down to where a
/// real regression shows.
pub fn day_seeds(workload: Workload, seed: u64) -> Vec<u64> {
    match workload {
        Workload::DynamicRegroup => (0..3).map(|day| seed.wrapping_mul(3) + day).collect(),
        _ => vec![seed],
    }
}

/// One day's trace of a simulation workload.
///
/// # Panics
///
/// Panics for `mc_explore`, which replays no trace.
pub fn generate(workload: Workload, day_seed: u64) -> Trace {
    match workload {
        Workload::LazyFlowSetup | Workload::OpenflowBaseline | Workload::ClusterStorm => {
            syn_a_eighth(day_seed)
        }
        Workload::DynamicRegroup => expanded_real(day_seed),
        Workload::McExplore => panic!("mc_explore replays no trace"),
    }
}
