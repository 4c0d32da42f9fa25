//! # tcmm — Constant-Depth and Subcubic-Size Threshold Circuits for Matrix Multiplication
//!
//! This is the umbrella crate of the workspace reproducing *Parekh, Phillips, James,
//! Aimone (SPAA 2018)*.  It re-exports the public API of every member crate so that
//! examples and downstream users can depend on a single crate:
//!
//! * [`circuit`] — threshold-gate circuits (build, validate, evaluate, measure);
//! * [`arith`] — the TC0 arithmetic blocks of Section 3 (Lemmas 3.1–3.3);
//! * [`fastmm`] — integer matrices and fast bilinear multiplication recipes;
//! * [`core`] — the paper's circuit constructions (naive baselines, trace circuits,
//!   matrix-product circuits, level schedules, analytic cost models);
//! * [`graph`] — graphs, generators, triangle counting and clustering coefficients;
//! * [`neuro`] — the neuromorphic-device simulator (mapping, energy, latency, fan-in
//!   partitioning);
//! * [`convnet`] — convolution-as-matmul workloads (im2col);
//! * [`runtime`] — the serving runtime (a closed set of scalar and wide
//!   bit-sliced backends, streaming batch scheduler, rule-picked backend
//!   choice).
//!
//! See `examples/` for runnable end-to-end scenarios, and the `expt_e*` binaries of
//! the `tcmm-bench` crate (listed in the README) for the reproduction of the paper's
//! quantitative claims.

#![warn(missing_docs)]

pub use fast_matmul as fastmm;
pub use neuro_sim as neuro;
pub use tc_arith as arith;
pub use tc_circuit as circuit;
pub use tc_convnet as convnet;
pub use tc_graph as graph;
pub use tc_runtime as runtime;
pub use tcmm_core as core;

/// A convenient prelude pulling in the types used by almost every program built on this
/// workspace.
pub mod prelude {
    pub use fast_matmul::{BilinearAlgorithm, Matrix, SparsityProfile};
    pub use tc_arith::InputAllocator;
    pub use tc_circuit::{Circuit, CircuitBuilder, CircuitStats, Wire};
    pub use tc_graph::Graph;
    pub use tc_runtime::Runtime;
    pub use tcmm_core::{
        matmul::MatmulCircuit, naive::NaiveTriangleCircuit, trace::TraceCircuit, CircuitConfig,
        LevelSchedule,
    };
}
