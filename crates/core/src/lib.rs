//! End-to-end LazyCtrl experiments: the simulated data center that wires
//! edge switches, a controller, latency-modelled links and a traffic trace
//! into one deterministic discrete-event run.
//!
//! This crate is the equivalent of the paper's prototype testbed (§V-A):
//! where the authors replayed their trace across 272 virtual Open vSwitch
//! instances and a Floodlight controller, [`Experiment`] replays a
//! [`Trace`](lazyctrl_trace::Trace) through [`EdgeSwitch`] state machines
//! and a [`BaselineController`]/[`LazyController`], measuring exactly what
//! the paper measures:
//!
//! * controller workload over time (Fig. 7),
//! * grouping update frequency (Fig. 8),
//! * steady-state forwarding latency (Fig. 9),
//! * cold-cache latency (§V-E) via [`scenarios::cold_cache`],
//! * G-FIB storage (§V-D).
//!
//! Fault injection is first-class: an [`EventPlan`] on the
//! [`ExperimentConfig`] schedules controller/switch crashes, link
//! degradation, host migrations and traffic bursts through the ordinary
//! event queue, and the [`Scenario`] trait plus [`ScenarioRegistry`] make
//! canned workloads (crash-under-load, migration storms, brownouts, ...)
//! discoverable by name — see the [`scenarios`] module and the
//! `repro_scenario` binary.
//!
//! # Example
//!
//! ```
//! use lazyctrl_core::{ControlMode, Experiment, ExperimentConfig};
//! use lazyctrl_trace::realistic::{generate, RealTraceConfig};
//!
//! let mut cfg = RealTraceConfig::small();
//! cfg.num_flows = 2_000; // keep the doctest fast
//! let trace = generate(&cfg);
//! let report = Experiment::new(
//!     trace,
//!     ExperimentConfig::new(ControlMode::LazyDynamic).with_group_size_limit(10),
//! )
//! .run();
//! assert!(report.delivered_flows > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod experiment;
mod report;
mod scale;
pub mod scenarios;
mod shard;
pub mod telemetry;
mod world;

pub use config::{ControlMode, ExperimentConfig};
pub use experiment::{DetailedRun, Experiment, ObsSnapshot};
pub use report::{ClusterReport, ExperimentReport, SeriesPoint};
pub use scale::Scale;
pub use scenarios::{
    run_built, run_built_detailed, run_scenario, Scenario, ScenarioRegistry, ScenarioRun,
    ScenarioVerdict,
};
pub use world::{EVENT_KIND_NAMES, EVENT_KIND_SUBSYS};

pub use lazyctrl_cluster::DisseminationStrategy;
pub use lazyctrl_controller::{BaselineController, LazyController};
pub use lazyctrl_obs::ObsConfig;
pub use lazyctrl_proto::{EventPlan, InjectedEvent, ScheduledEvent};
pub use lazyctrl_sim::{BandwidthModel, ChannelClass};
pub use lazyctrl_switch::EdgeSwitch;
