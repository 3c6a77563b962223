//! The cluster shape and initial state the checker tests explore.

use lazyctrl_cluster::{ClusterConfig, DisseminationStrategy};
use lazyctrl_mc::McState;

const SEC: u64 = 1_000_000_000;

fn mc_config(n: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::with_controllers(n);
    // Ring, not the flood default: relaying is what gives the checker a
    // forwarding protocol to falsify (flood has no relay path at all).
    cfg.dissemination = DisseminationStrategy::Ring;
    cfg.lazy.group_size_limit = 3;
    cfg.replica_flush_interval_ms = 1_000;
    cfg.heartbeat_interval_ms = 1_000;
    cfg.heartbeat_miss_factor = 3;
    cfg.anti_entropy_interval_ms = 3_000;
    cfg.delta_log_flushes = 10_000;
    cfg
}

/// `n` members with replication work seeded on two of them, rolled
/// through the first flush / heartbeat round.
pub fn initial(n: usize) -> McState {
    let mut state = McState::bootstrap(n, mc_config(n));
    state.seed_host(0, 1_001);
    state.seed_host(1, 2_001);
    state.advance_to(SEC);
    state
}
