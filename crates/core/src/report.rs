//! Experiment results in the shapes the paper plots.

use serde::{Deserialize, Serialize};

/// One point of a time series: (hour-of-trace, value).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// Start of the bucket, in hours since trace start.
    pub hour: f64,
    /// The bucket's value (rps, ms, updates, ...).
    pub value: f64,
}

/// Everything one run measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Label of the control mode ("openflow", "lazyctrl-static", ...).
    pub mode: String,
    /// Trace name.
    pub trace: String,
    /// Controller workload per bucket, requests/sec (Fig. 7's y-axis).
    pub workload_rps: Vec<SeriesPoint>,
    /// Mean first-packet forwarding latency per bucket, ms (Fig. 9).
    pub latency_ms: Vec<SeriesPoint>,
    /// Grouping updates per hour (Fig. 8).
    pub updates_per_hour: Vec<SeriesPoint>,
    /// Total messages the controller processed.
    pub controller_messages: u64,
    /// Total `PacketIn`s among them.
    pub packet_ins: u64,
    /// Flow arrivals driven.
    pub flows_started: u64,
    /// First packets confirmed delivered.
    pub delivered_flows: u64,
    /// Simulation events processed over the run — the benchmark's
    /// `sim.events`: scheduler pops, plus every delivery counted instead
    /// of scheduled (DESIGN §7.6: wheel keep-alives, and flooded
    /// `PacketOut` copies that reach no host, landing by the horizon).
    /// Either way the number is what scheduling every delivery would pop.
    pub events_processed: u64,
    /// Overall mean first-packet latency (ms).
    pub mean_latency_ms: f64,
    /// 99th-percentile first-packet latency (ms), from the log2 latency
    /// histogram (upper bucket edge — a conservative estimate).
    pub(crate) p99_latency_ms: f64,
    /// 99.9th-percentile first-packet latency (ms) — the tail the
    /// congestion scenarios bound.
    pub(crate) p999_latency_ms: f64,
    /// Final normalized inter-group intensity (lazy modes).
    pub final_winter: Option<f64>,
    /// Largest per-switch G-FIB footprint at end of run (bytes).
    pub max_gfib_bytes: u64,
    /// Number of local control groups at end of run (lazy modes).
    pub num_groups: Option<usize>,
    /// Switches the (single) lazy controller believes down at end of run
    /// (Table-I inference; empty for baseline and cluster runs).
    pub down_switches: Vec<u32>,
    /// Cluster-layer measurements (cluster runs only).
    pub cluster: Option<ClusterReport>,
}

/// What the `lazyctrl-cluster` layer measured during a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Number of controllers in the cluster.
    pub controllers: usize,
    /// The peer-sync dissemination strategy in force ("flood" or
    /// "ring").
    pub dissemination: String,
    /// Switch-originated requests handled per controller.
    pub requests_per_controller: Vec<u64>,
    /// Per-controller request rate over the measured horizon (req/sec).
    pub per_controller_rps: Vec<f64>,
    /// C-LIB shard size per controller at end of run.
    pub clib_sizes: Vec<usize>,
    /// Replica-store size per controller at end of run.
    pub replica_sizes: Vec<usize>,
    /// Ownership transfers for load rebalancing.
    pub rebalance_transfers: u64,
    /// Ownership transfers for failover takeover.
    pub failover_transfers: u64,
    /// Takeovers executed: `(dead controller, groups moved)`.
    pub takeovers: Vec<(u32, usize)>,
    /// Controllers believed dead at end of run.
    pub confirmed_dead: Vec<u32>,
    /// Controller-to-controller messages exchanged.
    pub ctrl_peer_messages: u64,
    /// Peer-sync wire messages sent per controller (direct syncs + relay
    /// bundles; the dissemination cost the strategy choice controls).
    pub peer_sync_messages: Vec<u64>,
    /// Estimated peer-sync wire bytes sent per controller.
    pub peer_sync_bytes: Vec<u64>,
    /// Delta chunks originated per controller (the dissemination
    /// workload; messages ÷ chunks is the per-delta fan-out cost).
    pub peer_sync_chunks: Vec<u64>,
    /// Anti-entropy digests sent per controller.
    pub anti_entropy_digests: Vec<u64>,
    /// Catch-up syncs served to digesting peers, per controller.
    pub anti_entropy_catchups: Vec<u64>,
    /// Groups moved by failover takeovers, in transfer order (the dead
    /// member's former shard).
    pub failover_groups: Vec<usize>,
    /// Final switch → group mapping (frozen at bootstrap in cluster runs).
    pub(crate) switch_groups: Vec<Option<usize>>,
    /// Ownership-transfer retransmissions per controller (unacked
    /// announcements re-sent under the capped backoff; nonzero means the
    /// first announcement was lost to a crash window or partition).
    pub transfer_retransmits: Vec<u64>,
    /// Expired synchronous-lookup deadlines per controller (each expiry
    /// either retried against the next replica or fell back to the
    /// scoped-ARP relay path).
    pub lookup_timeouts: Vec<u64>,
    /// Lease step-downs per controller: times a leader lost heartbeat
    /// contact with a voting majority and demoted itself to read-only
    /// (the split-brain guard firing).
    pub lease_step_downs: Vec<u64>,
    /// Flow-setup requests (`PacketIn`s) shed per controller by the
    /// bounded ingress queue. Zero whenever the queue is unbounded or the
    /// offered load stays under the drain rate.
    pub setups_shed: Vec<u64>,
    /// High-water mark of each controller's ingress queue, in admission
    /// slots (peak `queued_ns / cost_ns`).
    pub queue_highwater: Vec<u64>,
    /// ECN-style `CongestionNotice` messages sent per controller (rate
    /// limited, so this counts notice intervals under pressure, not sheds).
    pub congestion_signals: Vec<u64>,
    /// Times two distinct members led the same election term (cross-member
    /// ground truth from the plane's safety monitor). Must be zero; the
    /// partition scenarios fail on any other value.
    pub double_leader_events: u64,
    /// Canonical fingerprint of the plane's protocol state at end of run
    /// (see `ClusterControlPlane::state_fingerprint`): one number that
    /// must agree bit-for-bit between deterministic replays.
    pub state_fingerprint: u64,
    /// Fingerprints captured at each injected controller crash/recovery,
    /// in schedule order — determinism tests compare these to localize a
    /// divergence to the first differing checkpoint.
    pub fingerprint_checkpoints: Vec<u64>,
}

impl ClusterReport {
    /// Highest per-controller request rate — the quantity that must drop
    /// as controllers are added for the cluster to be *scaling*.
    pub fn max_controller_rps(&self) -> f64 {
        self.per_controller_rps.iter().copied().fold(0.0, f64::max)
    }

    /// Total peer-sync wire messages across the cluster.
    pub fn peer_sync_messages_total(&self) -> u64 {
        self.peer_sync_messages.iter().sum()
    }

    /// Total peer-sync wire bytes across the cluster.
    pub fn peer_sync_bytes_total(&self) -> u64 {
        self.peer_sync_bytes.iter().sum()
    }

    /// Total flow-setup requests shed across the cluster.
    pub fn setups_shed_total(&self) -> u64 {
        self.setups_shed.iter().sum()
    }

    /// Total congestion notices sent across the cluster.
    pub fn congestion_signals_total(&self) -> u64 {
        self.congestion_signals.iter().sum()
    }

    /// Peer-sync wire messages per originated delta chunk — the
    /// dissemination fan-out cost. Flood pays ≈ n−1 here (every chunk
    /// goes to every peer: O(n²) traffic per flush round); the ring
    /// bundles relays, amortizing towards O(1) per chunk (O(n) per round).
    pub fn messages_per_chunk(&self) -> f64 {
        let chunks: u64 = self.peer_sync_chunks.iter().sum();
        if chunks == 0 {
            return 0.0;
        }
        self.peer_sync_messages_total() as f64 / chunks as f64
    }
}

impl ExperimentReport {
    /// Mean controller workload over the run (requests/sec).
    pub fn mean_workload_rps(&self) -> f64 {
        if self.workload_rps.is_empty() {
            return 0.0;
        }
        self.workload_rps.iter().map(|p| p.value).sum::<f64>() / self.workload_rps.len() as f64
    }

    /// Workload reduction of `self` relative to `baseline`, in `[0, 1]`
    /// (the paper's headline 61–82%), averaged over the buckets both
    /// series have: a lazy run's periodic traffic leaves a nearly empty
    /// drain bucket past the trace's end that the baseline does not.
    pub fn workload_reduction_vs(&self, baseline: &ExperimentReport) -> f64 {
        let shared_sum = |of: &[SeriesPoint], with: &[SeriesPoint]| -> f64 {
            let shared = of.iter().filter(|p| with.iter().any(|q| q.hour == p.hour));
            shared.map(|p| p.value).sum()
        };
        let base = shared_sum(&baseline.workload_rps, &self.workload_rps);
        if base == 0.0 {
            return 0.0;
        }
        1.0 - shared_sum(&self.workload_rps, &baseline.workload_rps) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(vals: &[f64]) -> ExperimentReport {
        ExperimentReport {
            mode: "test".into(),
            trace: "t".into(),
            workload_rps: vals
                .iter()
                .enumerate()
                .map(|(i, &v)| SeriesPoint {
                    hour: i as f64 * 2.0,
                    value: v,
                })
                .collect(),
            latency_ms: vec![],
            updates_per_hour: vec![],
            controller_messages: 0,
            packet_ins: 0,
            flows_started: 0,
            delivered_flows: 0,
            events_processed: 0,
            mean_latency_ms: 0.0,
            p99_latency_ms: 0.0,
            p999_latency_ms: 0.0,
            final_winter: None,
            max_gfib_bytes: 0,
            num_groups: None,
            down_switches: vec![],
            cluster: None,
        }
    }

    #[test]
    fn mean_and_reduction() {
        let base = report(&[100.0, 200.0]);
        let lazy = report(&[30.0, 30.0]);
        assert_eq!(base.mean_workload_rps(), 150.0);
        assert!((lazy.workload_reduction_vs(&base) - 0.8).abs() < 1e-12);
        assert_eq!(report(&[]).mean_workload_rps(), 0.0);
    }

    #[test]
    fn a_trailing_drain_bucket_leaves_the_reduction_unchanged() {
        let base = report(&[100.0, 200.0]);
        let lazy = report(&[30.0, 30.0, 0.5]);
        assert!((lazy.workload_reduction_vs(&base) - 0.8).abs() < 1e-12);
    }
}
