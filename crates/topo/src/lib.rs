//! # son-topo — graph algorithms for structured overlay routing
//!
//! The routing-level machinery of the paper's overlay node software
//! architecture, expressed as pure graph algorithms over a small overlay
//! topology:
//!
//! * [`graph`] — the overlay [`Graph`] and the unified source-route
//!   [`EdgeMask`] (one bit per overlay link, §II-B).
//! * [`csr`] — the frozen [`TopoSnapshot`] and the crate's one
//!   shortest-path engine; every tree anywhere in the crate is an [`Spt`].
//! * [`mod@dijkstra`] — [`Path`] and the `&Graph` entry points to that
//!   engine (link-state routing; a source-rooted multicast tree over the
//!   group's members is `dijkstra(g, source).tree_mask(members)`, §II-B).
//! * [`disjoint`] — minimum-cost k node-disjoint paths (intrusion-tolerant
//!   redundant dissemination, §IV-B).
//! * [`dissemination`] — dissemination graphs with targeted redundancy at
//!   the problematic ends (§V-A), and constrained flooding.
//! * [`kshortest`] — Yen's k loopless shortest paths, for "sets of
//!   potentially overlapping paths" \[13\] (related work).
//!
//! ## Example: stamping a packet with two disjoint paths
//!
//! ```
//! use son_topo::graph::{Graph, NodeId};
//! use son_topo::disjoint::k_node_disjoint_paths;
//!
//! let mut g = Graph::new(4);
//! g.add_edge(NodeId(0), NodeId(1), 10.0);
//! g.add_edge(NodeId(1), NodeId(3), 10.0);
//! g.add_edge(NodeId(0), NodeId(2), 12.0);
//! g.add_edge(NodeId(2), NodeId(3), 12.0);
//!
//! let dp = k_node_disjoint_paths(&g, NodeId(0), NodeId(3), 2);
//! assert_eq!(dp.len(), 2);
//! let stamp = dp.mask(); // goes into the packet header
//! assert_eq!(stamp.len(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod csr;
pub mod dijkstra;
pub mod disjoint;
pub mod dissemination;
pub mod graph;
pub mod kshortest;

pub use csr::{Spt, SptScratch, TopoSnapshot};
pub use dijkstra::{dijkstra, dijkstra_with, shortest_path, Path};
pub use disjoint::{are_node_disjoint, k_node_disjoint_paths, DisjointPaths};
pub use dissemination::{
    constrained_flooding, destination_problematic_graph, robust_dissemination_graph,
    source_problematic_graph,
};
pub use graph::{EdgeId, EdgeMask, Graph, NodeId};
pub use kshortest::{k_shortest_paths, overlapping_paths_mask};
