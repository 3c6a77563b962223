//! Traffic traces for LazyCtrl experiments.
//!
//! The paper evaluates on a proprietary day-long trace from a European
//! production data center (272 edge switches, 6509 hosts, 271M flows,
//! average k=5 centrality 0.85) and three synthetic traces derived from it
//! by the (p, q) procedure of §V-B (Table II). Neither the real trace nor
//! the original synthetic derivations are available, so this crate builds
//! statistical surrogates that match every aggregate the paper reports
//! (see `DESIGN.md` for the substitution argument):
//!
//! * `TenantModel` — multi-tenant host placement: tenant sizes in the
//!   20–100 VM band (§II-B), hosts placed on a window of nearby switches;
//! * [`realistic`] — the "real" trace surrogate: skewed pair popularity
//!   (≈90% of flows from ≈10% of communicating pairs), strong tenant
//!   locality, diurnal rate profile;
//! * [`synthetic`] — the paper's own (p, q) generation procedure at ×10
//!   scale (Syn-A/B/C);
//! * [`expand`] — the "+30% flows among previously non-communicating hosts
//!   during hours 8–24" variant used in Fig. 7/8;
//! * [`IntensityMatrix`] — switch-pair intensity matrices (new flows/sec), the
//!   input to switch grouping;
//! * [`stats`] — Table II statistics (flow counts, centrality via k-way
//!   partitioning) computed *from the generated trace itself*.
//!
//! Everything is deterministic given the config seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expand;
mod intensity;
mod model;
pub mod realistic;
pub mod stats;
pub mod synthetic;
mod tenant;
mod zipf;

pub use intensity::IntensityMatrix;
pub use model::{FlowRecord, NominalParams, Topology, Trace};
pub use stats::TraceStats;
