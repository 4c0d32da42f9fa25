//! Closed-form paper bounds for every constructor, packaged as
//! [`tc_circuit::PaperBound`] values for certification against compiled
//! artifacts.
//!
//! Each bound is derived from the paper's counting arguments, not from the
//! built circuit — [`PaperBound::certify`] then asserts the compiled artifact
//! against it, so a construction that silently grows deeper or larger than
//! the theorem allows fails verification.  The formulas, next to their
//! theorems:
//!
//! * **Naive triangle circuit** (Section 1): one gate per vertex triple plus
//!   one output gate — exactly `C(N,3) + 1` gates, depth 2, and
//!   `4·C(N,3)` edges (fan-in 3 per triple gate plus one edge into the
//!   output gate).
//! * **Naive trace circuit** (Lemma 3.3 baseline): one depth-1 product block
//!   of `8·b³` gates per vertex triple plus one output gate — exactly
//!   `C(N,3)·8·b³ + 1` gates, depth 2, `32·C(N,3)·b³` edges (fan-in 3 per
//!   product gate plus one edge into the output gate).
//! * **Naive matmul circuit** (definition-based, Section 1): `N³` signed
//!   scalar products of `4·b²` gates each followed by one binarisation per
//!   entry of `C` — depth 3, gate count given exactly by
//!   [`naive_matmul_gate_count`].
//! * **Trace circuit** (Theorems 4.4/4.5, Section 4.3): depth exactly
//!   `2t + 2` with `t` the number of selected levels (the paper states the
//!   looser `2d + 5`); gates at most the three tree phases of Lemma 4.2/4.3
//!   ([`tree_phase_cost`], exact for dense ±1 recipes, an upper bound for
//!   the masked coefficient tree) plus `r^l · 8·w_A·w_B·w_Q` for the
//!   Lemma 3.3 triple products over the leaf width profile, plus the single
//!   output gate.
//! * **Matmul circuit** (Theorems 4.8/4.9, Section 4.4): depth exactly
//!   `4t + 1`; gates at most the two top-down tree phases plus
//!   `r^l · 4·w_A·w_B` for the Lemma 3.3 leaf products plus the bottom-up
//!   `T_AB` phase (Lemma 4.6), costed by `combine_phase_gate_bound` via a
//!   worst-case weight-multiset recursion over the exact per-block
//!   contribution lists of the recipe's `W` table.
//!
//! The combine-phase model deliberately avoids the unit-weight
//! `weighted_sum_gate_count` shortcut: the representations flowing out of
//! the product layer carry power-of-two weights with multiplicity, whose
//! per-bit carry residues exceed the unit-weight model's.  Costing each
//! binarisation with [`repr_to_binary_gate_count`] over an explicit
//! superset weight multiset keeps the bound sound (the gate count of
//! `repr_to_binary` is monotone under multiset inclusion).

use crate::analysis::{naive_matmul_gate_count, tree_phase_cost};
use crate::schedule::LevelSchedule;
use crate::tree::{block_child_coefficients, TreeKind};
use crate::CircuitConfig;
use fast_matmul::BilinearAlgorithm;
use tc_arith::{bits_of, repr_to_binary_gate_count};
use tc_circuit::{Bound, PaperBound};

/// `C(n, 3)` without intermediate overflow for any practical `n`.
fn choose3(n: u128) -> u128 {
    if n < 3 {
        0
    } else {
        n * (n - 1) * (n - 2) / 6
    }
}

/// The bound of the naive depth-2 triangle circuit (Section 1):
/// `C(N,3) + 1` gates, `4·C(N,3)` edges.
pub fn naive_triangle_paper_bound(n: usize) -> PaperBound {
    let triples = choose3(n as u128);
    let (depth, gates, edges) = if triples == 0 {
        // Fewer than 3 vertices: a single constant gate reading the one-wire.
        (1, 1, 1)
    } else {
        (2, triples + 1, 4 * triples)
    };
    PaperBound {
        constructor: "NaiveTriangleCircuit",
        theorem: "Section 1 baseline",
        geometry: format!("n={n}"),
        depth: Bound::Exact(depth),
        gates: Bound::Exact(gates),
        edges: Some(Bound::Exact(edges)),
    }
}

/// The bound of the naive depth-2 trace circuit (Lemma 3.3 baseline):
/// `C(N,3)·8·b³ + 1` gates, `32·C(N,3)·b³` edges.
pub fn naive_trace_paper_bound(n: usize, entry_bits: usize) -> PaperBound {
    let triples = choose3(n as u128);
    let b = entry_bits as u128;
    let (depth, gates, edges) = if triples == 0 {
        (1, 1, 1)
    } else {
        let products = triples * 8 * b * b * b;
        // Each product gate has fan-in 3 and feeds one edge into the output.
        (2, products + 1, 4 * products)
    };
    PaperBound {
        constructor: "NaiveTraceCircuit",
        theorem: "Lemma 3.3 baseline",
        geometry: format!("n={n}, b={entry_bits}"),
        depth: Bound::Exact(depth),
        gates: Bound::Exact(gates),
        edges: Some(Bound::Exact(edges)),
    }
}

/// The bound of the naive depth-3 matmul circuit (definition-based):
/// gate count exactly [`naive_matmul_gate_count`].
pub fn naive_matmul_paper_bound(n: usize, entry_bits: usize) -> PaperBound {
    PaperBound {
        constructor: "NaiveMatmulCircuit",
        theorem: "Section 1 baseline",
        geometry: format!("n={n}, b={entry_bits}"),
        depth: Bound::Exact(3),
        gates: Bound::Exact(naive_matmul_gate_count(n as u64, entry_bits as u32)),
        edges: None,
    }
}

/// The bound of [`TraceCircuit`](crate::trace::TraceCircuit) for a given
/// schedule: depth exactly `2t + 2`, gates at most
/// `cost(T_A) + cost(T_B) + cost(T_Q) + r^l·8·w_A·w_B·w_Q + 1`.
pub fn trace_paper_bound(config: &CircuitConfig, n: usize, schedule: &LevelSchedule) -> PaperBound {
    let alg = config.algorithm();
    let b = config.entry_bits() as u32;
    let cost_a = tree_phase_cost(alg, TreeKind::OverA, n, b, schedule);
    let cost_b = tree_phase_cost(alg, TreeKind::OverB, n, b, schedule);
    let cost_q = tree_phase_cost(alg, TreeKind::OverCTransposed, n, b, schedule);
    let leaves = (alg.r() as u128).pow(schedule.total_levels());
    let products = leaves
        * 8
        * cost_a.max_leaf_width() as u128
        * cost_b.max_leaf_width() as u128
        * cost_q.max_leaf_width() as u128;
    let t = schedule.num_selected() as u128;
    let gates = cost_a.total_gates + cost_b.total_gates + cost_q.total_gates + products + 1;
    PaperBound {
        constructor: "TraceCircuit",
        theorem: "Theorems 4.4/4.5",
        geometry: format!("n={n}, b={b}, t={t}"),
        depth: Bound::Exact(2 * t + 2),
        gates: Bound::AtMost(gates),
        edges: None,
    }
}

/// The bound of [`MatmulCircuit`](crate::matmul::MatmulCircuit) for a given
/// schedule: depth exactly `4t + 1`, gates at most
/// `cost(T_A) + cost(T_B) + r^l·4·w_A·w_B + cost(T_AB)`.
pub fn matmul_paper_bound(
    config: &CircuitConfig,
    n: usize,
    schedule: &LevelSchedule,
) -> PaperBound {
    let alg = config.algorithm();
    let b = config.entry_bits() as u32;
    let cost_a = tree_phase_cost(alg, TreeKind::OverA, n, b, schedule);
    let cost_b = tree_phase_cost(alg, TreeKind::OverB, n, b, schedule);
    let leaves = (alg.r() as u128).pow(schedule.total_levels());
    let wa = cost_a.max_leaf_width();
    let wb = cost_b.max_leaf_width();
    let products = leaves * 4 * wa as u128 * wb as u128;
    // Worst-case weight multiset of one sign part of a leaf product
    // representation: the four unsigned sub-products contribute two `+2^(i+j)`
    // and two `-2^(i+j)` terms per bit pair, so each sign part holds at most
    // two copies of every `2^(i+j)`.
    let mut leaf_part = Vec::with_capacity(2 * wa as usize * wb as usize);
    for i in 0..wa {
        for j in 0..wb {
            let w = 1i64 << (i + j);
            leaf_part.push(w);
            leaf_part.push(w);
        }
    }
    let combine = combine_phase_gate_bound(alg, n, schedule, leaf_part);
    let t = schedule.num_selected() as u128;
    let gates = cost_a.total_gates + cost_b.total_gates + products + combine;
    PaperBound {
        constructor: "MatmulCircuit",
        theorem: "Theorems 4.8/4.9",
        geometry: format!("n={n}, b={b}, t={t}"),
        depth: Bound::Exact(4 * t + 1),
        gates: Bound::AtMost(gates),
        edges: None,
    }
}

/// Upper bound on the gates of the bottom-up `T_AB` phase (Lemma 4.6).
///
/// Mirrors `combine_product_tree` transition by transition.  The state
/// `part` is a weight multiset that is a superset of the weight multiset of
/// either sign part of **any** entry representation at the current level.
/// For each parent block the combined representation folds, per `(q, w)`
/// contribution, `|w|` times one sign part of a child — a sub-multiset of
/// `|w|·part` — so costing the two binarisations of `repr_to_signed` with
/// `repr_to_binary_gate_count` over the concatenation of those scaled
/// multisets is an upper bound on the gates actually emitted.
fn combine_phase_gate_bound(
    alg: &BilinearAlgorithm,
    n: usize,
    schedule: &LevelSchedule,
    leaf_part: Vec<i64>,
) -> u128 {
    let t = alg.t();
    let r = alg.r();
    let w_table: Vec<Vec<i64>> = (0..t * t).map(|pq| alg.w_row(pq).to_vec()).collect();
    let mut part = leaf_part;
    let mut level_count = (r as u128).pow(schedule.total_levels());
    let mut total: u128 = 0;
    let transitions: Vec<(u32, u32)> = schedule.transitions().collect();
    for &(h_parent, h_child) in transitions.iter().rev() {
        let delta = h_child - h_parent;
        let child_dim = (n / t.pow(h_child)) as u128;
        let num_parents = level_count / (r as u128).pow(delta);
        let blocks = block_child_coefficients(&w_table, t, delta, r);
        let mut widest: u32 = 0;
        let mut per_parent: u128 = 0;
        for contributions in &blocks {
            let mut merged: Vec<i64> = Vec::with_capacity(contributions.len() * part.len());
            for &(_, w) in contributions {
                let m = w.unsigned_abs() as i64;
                merged.extend(part.iter().map(|&x| x * m));
            }
            let max_value: u128 = merged.iter().map(|&x| x as u128).sum();
            widest = widest.max(bits_of(max_value));
            let per_entry = 2 * repr_to_binary_gate_count(&merged) as u128;
            per_parent += child_dim * child_dim * per_entry;
        }
        total += num_parents * per_parent;
        // After binarisation every entry is a plain signed number: each sign
        // part carries at most one term per power of two below `widest`.
        part = (0..widest).map(|i| 1i64 << i).collect();
        level_count = num_parents;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::MatmulCircuit;
    use crate::naive::{NaiveMatmulCircuit, NaiveTraceCircuit, NaiveTriangleCircuit};
    use crate::trace::TraceCircuit;
    use fast_matmul::BilinearAlgorithm;

    #[test]
    fn naive_bounds_certify_their_circuits() {
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
        for n in [3usize, 5, 8] {
            let tri = NaiveTriangleCircuit::new(n, 2).unwrap();
            assert!(
                tri.paper_bound().certify(tri.compiled()).is_valid(),
                "n={n}"
            );
            let tr = NaiveTraceCircuit::new(&config, n, 3).unwrap();
            assert!(tr.paper_bound().certify(tr.compiled()).is_valid(), "n={n}");
        }
        let mm = NaiveMatmulCircuit::new(&config, 3).unwrap();
        assert!(mm.paper_bound().certify(mm.compiled()).is_valid());
        // The degenerate tiny-graph case is covered too.
        let tiny = NaiveTriangleCircuit::new(2, 1).unwrap();
        assert!(tiny.paper_bound().certify(tiny.compiled()).is_valid());
    }

    #[test]
    fn trace_bounds_certify_across_schedules_and_recipes() {
        for alg in [BilinearAlgorithm::strassen(), BilinearAlgorithm::winograd()] {
            let config = CircuitConfig::new(alg, 2);
            for (n, d) in [(4usize, 1u32), (8, 1), (8, 2), (8, 3)] {
                let circuit = TraceCircuit::theorem_4_5(&config, n, d, 5).unwrap();
                let report = circuit.paper_bound().certify(circuit.compiled());
                assert!(report.is_valid(), "n={n} d={d}: {report}");
            }
            let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 3);
            let circuit = TraceCircuit::theorem_4_4(&config, 8, 5).unwrap();
            let report = circuit.paper_bound().certify(circuit.compiled());
            assert!(report.is_valid(), "theorem 4.4: {report}");
        }
    }

    #[test]
    fn matmul_bounds_certify_across_schedules_and_recipes() {
        for alg in [BilinearAlgorithm::strassen(), BilinearAlgorithm::winograd()] {
            let config = CircuitConfig::new(alg, 2);
            for (n, d) in [(4usize, 1u32), (4, 2), (8, 2)] {
                let circuit = MatmulCircuit::theorem_4_9(&config, n, d).unwrap();
                let report = circuit.paper_bound().certify(circuit.compiled());
                assert!(report.is_valid(), "n={n} d={d}: {report}");
            }
        }
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
        let circuit = MatmulCircuit::theorem_4_1(&config, 4, 2).unwrap();
        assert!(circuit.paper_bound().certify(circuit.compiled()).is_valid());
        let circuit = MatmulCircuit::theorem_4_8(&config, 4).unwrap();
        assert!(circuit.paper_bound().certify(circuit.compiled()).is_valid());
    }

    #[test]
    fn gate_bounds_are_not_vacuously_loose() {
        // The AtMost gate bounds must be within a moderate constant factor of
        // the built circuits — otherwise certification proves nothing.
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
        let trace = TraceCircuit::theorem_4_5(&config, 8, 2, 5).unwrap();
        let bound = trace.paper_bound().gates.value();
        let measured = trace.compiled().num_gates() as u128;
        assert!(bound <= measured * 12, "trace bound {bound} vs {measured}");
        let mm = MatmulCircuit::theorem_4_9(&config, 8, 2).unwrap();
        let bound = mm.paper_bound().gates.value();
        let measured = mm.compiled().num_gates() as u128;
        assert!(bound <= measured * 12, "matmul bound {bound} vs {measured}");
    }

    #[test]
    fn violated_bounds_are_reported() {
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
        let circuit = TraceCircuit::theorem_4_5(&config, 4, 1, 5).unwrap();
        let mut bound = circuit.paper_bound().clone();
        bound.depth = Bound::Exact(bound.depth.value() + 1);
        bound.gates = Bound::AtMost(1);
        let report = bound.certify(circuit.compiled());
        assert!(!report.is_valid());
        assert!(report.has(tc_circuit::FindingKind::DepthBound));
        assert!(report.has(tc_circuit::FindingKind::GateBound));
    }
}
