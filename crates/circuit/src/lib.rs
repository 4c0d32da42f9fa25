//! # tc-circuit — a threshold-gate circuit substrate
//!
//! This crate provides the data structures and algorithms for building, validating,
//! analysing and evaluating Boolean circuits made of *linear threshold gates* (the
//! classic McCulloch–Pitts neuron model).  A threshold gate with binary inputs
//! `y_1, …, y_m`, integer weights `w_1, …, w_m` and integer threshold `t` outputs `1`
//! if and only if `Σ w_i · y_i ≥ t`.
//!
//! The crate is the substrate on which the constructions of
//! *Parekh, Phillips, James, Aimone — "Constant-Depth and Subcubic-Size Threshold
//! Circuits for Matrix Multiplication" (SPAA 2018)* are implemented (see the
//! `tc-arith` and `tcmm-core` crates).
//!
//! ## Model
//!
//! * A [`Wire`] is either one of the circuit's primary inputs, the output of a
//!   previously-created gate, or the constant-one wire.
//! * A [`ThresholdGate`] owns its fan-in list of `(Wire, weight)` pairs and its
//!   threshold.
//! * A [`Circuit`] is a topologically-ordered list of gates over a fixed number of
//!   primary inputs, plus a list of designated output wires.
//! * The [`CircuitBuilder`] is the only way to construct circuits; it enforces
//!   topological order (gates may only reference already-existing wires) and can
//!   optionally deduplicate structurally identical gates.
//!
//! ## Complexity measures
//!
//! [`CircuitStats`] reports the measures used throughout the paper: *size* (number of
//! gates), *depth* (longest input→output path, counted in gates), *edges* (total number
//! of gate input connections) and *fan-in* (maximum number of inputs to any gate).
//!
//! ## Evaluation
//!
//! Evaluation runs on the compiled execution engine: [`Circuit::compile`]
//! lowers the builder-friendly gate list into flat CSR arrays once, and the
//! resulting [`CompiledCircuit`] hosts two evaluators behind one API — the
//! sequential scalar oracle ([`CompiledCircuit::evaluate`]) and the
//! bit-sliced kernel ([`CompiledCircuit::evaluate_rows_arena`]), which
//! evaluates up to `64·W` independent input assignments per pass in a
//! reusable [`PlaneArena`] (`W ∈ {1, 2, 4, 8}` lane words).  Both produce
//! identical results (evaluation of a threshold circuit is deterministic);
//! [`CompiledCircuit::evaluate_many`] loops the kernel over any batch size,
//! and [`Circuit::evaluate`] remains as a convenience wrapper that compiles
//! on the fly.
//!
//! ```
//! use tc_circuit::{CircuitBuilder, Wire};
//!
//! // A 2-input AND gate followed by a NOT gate, as threshold gates.
//! let mut b = CircuitBuilder::new(2);
//! let x = Wire::input(0);
//! let y = Wire::input(1);
//! let and = b.add_gate([(x, 1), (y, 1)], 2).unwrap();
//! let not = b.add_gate([(and, -1)], 0).unwrap();
//! b.mark_output(not);
//! let circuit = b.build();
//!
//! assert_eq!(circuit.evaluate(&[true, true]).unwrap().outputs(), &[false]);
//! assert_eq!(circuit.evaluate(&[true, false]).unwrap().outputs(), &[true]);
//! assert_eq!(circuit.stats().depth, 2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arena;
mod builder;
mod circuit;
mod compiled;
mod dot;
mod error;
mod eval;
mod gate;
mod kernel;
pub mod simd;
mod stats;
pub mod verify;
mod wire;

pub use arena::{ArenaEvaluation, PlaneArena};
pub use builder::{CircuitBuilder, DedupPolicy};
pub use circuit::Circuit;
pub use compiled::{CompiledCircuit, GateClass, ManyEvaluation, BATCH_LANES};
pub use error::CircuitError;
pub use eval::Evaluation;
pub use gate::ThresholdGate;
pub use stats::{CircuitStats, LayerStats};
pub use verify::{
    verify_against, verify_compiled, Bound, Finding, FindingKind, PaperBound, Severity,
    VerifyReport,
};
pub use wire::Wire;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CircuitError>;
