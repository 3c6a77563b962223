//! Observability configuration.

use serde::{Deserialize, Serialize};

/// Master switch + knobs for the observability layer.
///
/// The default is **fully off**: every hook in the hot path sees
/// `enabled == false` and returns immediately, so a run with the default
/// config behaves (and performs) exactly like a build without the layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Master switch. When `false` no records are captured, no profiling
    /// samples are taken and no dumps are written.
    pub enabled: bool,
    /// Flight-recorder capacity in records. Rounded up to the next power of
    /// two; when full, the oldest records are overwritten (flight-recorder
    /// semantics: the *tail* of the run is what survives).
    pub ring_capacity: usize,
    /// Automatically dump the recorder (JSONL + chrome://tracing JSON) when
    /// a scenario verdict fails.
    pub dump_on_failure: bool,
    /// Directory for automatic dumps (`<scenario>.trace.jsonl`,
    /// `<scenario>.chrome.json`).
    pub dump_dir: String,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            ring_capacity: 1 << 16,
            dump_on_failure: true,
            dump_dir: "target/obs".to_string(),
        }
    }
}

impl ObsConfig {
    /// Everything on: tracing, sampling profiler, dump-on-failure.
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

    /// Override the automatic dump directory.
    pub fn with_dump_dir(mut self, dir: impl Into<String>) -> Self {
        self.dump_dir = dir.into();
        self
    }
}
