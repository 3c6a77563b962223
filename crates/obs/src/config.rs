//! Observability configuration.

use serde::{Deserialize, Serialize};

/// Where a scenario whose verdict fails under tracing dumps its flight
/// recorder (`<scenario>.trace.jsonl`, `.chrome.json`, `.telemetry.json`).
pub const DUMP_DIR: &str = "target/obs";

/// Master switch + knobs for the observability layer.
///
/// The default is **fully off**: every hook in the hot path sees
/// `enabled == false` and returns immediately, so a run with the default
/// config behaves (and performs) exactly like a build without the layer.
/// An enabled run whose scenario verdict fails dumps to [`DUMP_DIR`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Master switch. When `false` no records are captured, no profiling
    /// samples are taken and no dumps are written.
    pub enabled: bool,
    /// Flight-recorder capacity in records. Rounded up to the next power of
    /// two; when full, the oldest records are overwritten (flight-recorder
    /// semantics: the *tail* of the run is what survives).
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            ring_capacity: 1 << 16,
        }
    }
}

impl ObsConfig {
    /// Everything on: tracing, sampling profiler, dump on a failed verdict.
    pub fn full() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Tracing on with a specific ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }
}
