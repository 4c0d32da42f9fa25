//! # tc-graph — graph substrate for the triangle-counting application
//!
//! Section 5 of the paper motivates the `trace(A³) ≥ τ` circuit with social-network
//! analysis: counting triangles, computing the global clustering coefficient, and
//! picking a threshold `τ` from the wedge count.  This crate provides the graph-side
//! machinery needed to reproduce those experiments:
//!
//! * [`Graph`] — a simple undirected graph with adjacency-matrix and adjacency-list
//!   views;
//! * generators ([`generators`]): Erdős–Rényi `G(n, p)` and a BTER-like block two-level
//!   Erdős–Rényi model (the generative model of Seshadri–Kolda–Pinar cited by the
//!   paper) with controllable community structure, plus deterministic constructions
//!   (complete graph, cycle, star) used as test fixtures;
//! * exact triangle counting ([`triangles`]): a node-iterator reference algorithm and
//!   the `trace(A³)/6` identity, plus wedge counts and clustering coefficients
//!   ([`clustering`]);
//! * a compiled, batched triangle-threshold oracle ([`oracle::TriangleOracle`]) that
//!   builds the paper's trace circuit once and answers "≥ τ triangles?" for whole graph
//!   collections through the bit-sliced 64-lane batch evaluator.
//!
//! ```
//! use tc_graph::{generators, triangles, clustering};
//!
//! let g = generators::erdos_renyi(64, 0.1, 7);
//! let t = triangles::count_node_iterator(&g);
//! assert_eq!(t, triangles::count_via_trace(&g));
//! let cc = clustering::global_clustering_coefficient(&g);
//! assert!((0.0..=1.0).contains(&cc));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clustering;
pub mod generators;
mod graph;
pub mod oracle;
pub mod triangles;

pub use graph::Graph;
pub use oracle::TriangleOracle;
