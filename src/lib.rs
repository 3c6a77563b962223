//! # LazyCtrl — scalable hybrid network control for cloud data centers
//!
//! A full reproduction of *LazyCtrl: Scalable Network Control for Cloud
//! Data Centers* (Zheng, Wang, Yang, Sun, Zhang, Uhlig — ICDCS 2015) as a
//! Rust workspace. LazyCtrl clusters edge switches into **local control
//! groups** by traffic affinity, devolves frequent intra-group control to
//! distributed mechanisms near the datapath, and leaves only rare
//! inter-group events to a central controller — cutting controller
//! workload by 61–82% in the paper's evaluation.
//!
//! This crate is the facade: it re-exports every subsystem so downstream
//! users depend on one crate.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`net`] | `lazyctrl-net` | MAC/Ethernet/ARP/VLAN packet model, GRE-like encapsulation |
//! | [`proto`] | `lazyctrl-proto` | OpenFlow 1.0-style wire protocol + LazyCtrl vendor extensions |
//! | [`bloom`] | `lazyctrl-bloom` | Bloom filters (the G-FIB substrate) |
//! | [`cluster`] | `lazyctrl-cluster` | sharded multi-controller control plane: ownership, C-LIB replication, failover |
//! | [`partition`] | `lazyctrl-partition` | multilevel k-way partitioning, Stoer–Wagner, the SGI algorithm, Rubinstein bargaining |
//! | [`sim`] | `lazyctrl-sim` | deterministic discrete-event kernel, latency model, metrics |
//! | [`obs`] | `lazyctrl-obs` | flight-recorder tracing, sampling engine profiler, telemetry JSON |
//! | [`trace`] | `lazyctrl-trace` | real-trace surrogate, Syn-A/B/C generators, intensity matrices |
//! | [`switch`] | `lazyctrl-switch` | the edge switch: flow table, L-FIB, G-FIB, Fig. 5 forwarding, failure wheel |
//! | [`controller`] | `lazyctrl-controller` | baseline OpenFlow + LazyCtrl controllers, C-LIB, failover |
//! | [`core`] | `lazyctrl-core` | end-to-end experiments over traces |
//!
//! # Quickstart
//!
//! Run the same trace under standard OpenFlow and under LazyCtrl and
//! compare controller workload:
//!
//! ```
//! use lazyctrl::core::{ControlMode, Experiment, ExperimentConfig};
//! use lazyctrl::trace::realistic::{generate, RealTraceConfig};
//!
//! let mut tc = RealTraceConfig::small();
//! tc.num_flows = 3_000; // keep the doctest quick
//! let trace = generate(&tc);
//!
//! let baseline = Experiment::new(
//!     trace.clone(),
//!     ExperimentConfig::new(ControlMode::Baseline),
//! )
//! .run();
//! let lazy = Experiment::new(
//!     trace,
//!     ExperimentConfig::new(ControlMode::LazyDynamic).with_group_size_limit(10),
//! )
//! .run();
//!
//! assert!(lazy.controller_messages < baseline.controller_messages);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lazyctrl_bloom as bloom;
pub use lazyctrl_cluster as cluster;
pub use lazyctrl_controller as controller;
pub use lazyctrl_core as core;
pub use lazyctrl_mc as mc;
pub use lazyctrl_net as net;
pub use lazyctrl_obs as obs;
pub use lazyctrl_partition as partition;
pub use lazyctrl_proto as proto;
pub use lazyctrl_sim as sim;
pub use lazyctrl_switch as switch;
pub use lazyctrl_trace as trace;
