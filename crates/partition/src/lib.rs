//! Graph partitioning for LazyCtrl switch grouping.
//!
//! The controller clusters edge switches into Local Control Groups so that
//! "the size of each group is maximized under a given limit while the
//! inter-group traffic volume is minimized" (§III-C). This crate implements
//! the full algorithmic stack the paper builds on:
//!
//! * [`WeightedGraph`] — the intensity graph (vertices = switches, edge
//!   weights = new flows/sec between switch pairs);
//! * [`mlkp`] — Multi-Level k-way Partitioning (Karypis–Kumar style):
//!   heavy-edge-matching coarsening, greedy-graph-growing initial
//!   partitioning, boundary refinement — plus the paper's *size-constraint*
//!   wrapper (groups are capped, the number of groups is variable);
//! * [`mincut`] — the Stoer–Wagner global minimum cut used by the
//!   incremental update's merge-and-split step;
//! * `bisect` — size-capped minimum bisection (Stoer–Wagner when the cut
//!   is balanced enough, Fiduccia–Mattheyses-style refinement otherwise);
//! * [`Sgi`] — the paper's **SGI** algorithm (Fig. 3): `IniGroup` for the
//!   initial grouping and `IncUpdate` for threshold-driven incremental
//!   regrouping, with Appendix-B extensions (host exclusion, disjoint-pair
//!   merge/split);
//! * [`bargain`] — the Appendix-C modified Rubinstein bargaining model for
//!   dynamic group-size negotiation.
//!
//! # Example
//!
//! ```
//! use lazyctrl_partition::{mlkp, MlkpConfig, WeightedGraph};
//!
//! // Two natural clusters {0,1,2} and {3,4,5} with a weak bridge.
//! let mut g = WeightedGraph::new(6);
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
//!     g.add_edge(u, v, 10.0);
//! }
//! g.add_edge(2, 3, 0.1);
//!
//! let part = mlkp(&g, &MlkpConfig::new(2).with_max_part_weight(3.0));
//! assert_eq!(part.group_of(0), part.group_of(1));
//! assert_eq!(part.group_of(3), part.group_of(5));
//! assert_ne!(part.group_of(0), part.group_of(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bargain;
mod bisect;
mod coarsen;
mod graph;
mod initial;
mod matching;
pub mod metrics;
pub mod mincut;
mod mlkp;
mod partition;
mod refine;
mod sgi;

pub use graph::WeightedGraph;
pub use mlkp::{mlkp, MlkpConfig};
pub use partition::{Partition, CONTROLLER_GROUP};
pub use sgi::{IncUpdateReport, Sgi, SgiConfig};
