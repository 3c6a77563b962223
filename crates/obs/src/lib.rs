//! Observability for the LazyCtrl engine: flight-recorder tracing, sampled
//! self-profiling, and structured telemetry export.
//!
//! Three pillars (see `DESIGN.md` §8):
//!
//! * [`FlightRecorder`] — a preallocated overwrite-oldest ring of compact
//!   32-byte [`TraceRecord`]s with interned kind/subsystem IDs and a
//!   per-flow `trace_id`, so one flow setup's PacketIn → FlowMod → delivery
//!   causal chain can be reconstructed after the fact;
//! * [`EngineProfile`] — coarse wall-clock attribution per event kind and
//!   subsystem using a sampling countdown (one `Instant::now()` pair per N
//!   dispatches, never per event), plus [`PhaseTimings`] for build/run/report
//!   phase walls;
//! * [`json`]/`chrome` — a small self-contained JSON tree with writer *and*
//!   parser (the vendored serde is a no-op stub) backing `telemetry.json`,
//!   JSONL trace dumps and chrome://tracing exports.
//!
//! Everything hangs off [`ObsConfig`]; the default is off, and disabled hooks
//! cost one branch on a `None`/`false` check. The layer is strictly
//! read-only with respect to the simulation: it never touches RNG state,
//! scheduling order, or any quantity that feeds a report, so reports are
//! bit-identical with tracing on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod config;
pub mod intern;
pub mod json;
mod profile;
mod recorder;

pub use chrome::{chrome_trace_json, jsonl_dump};
pub use config::ObsConfig;
pub use profile::{EngineProfile, KindProfile, PhaseTimings};
pub use recorder::{
    dst_trace_id, pair_trace_id, trace_id_dst, FlightRecorder, RecorderStats, TraceRecord,
};
