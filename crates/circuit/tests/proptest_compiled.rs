//! Differential property tests for the compiled CSR engine: the scalar
//! oracle and the bit-sliced arena kernel at every lane width (64, 128, 256
//! and 512 lanes) must agree gate-for-gate — values, outputs, and firing
//! counts — on randomly generated layered circuits, including negative
//! weights, `Wire::One`, ragged-tail lane counts, and empty batches.

mod common;

use common::{assert_arena_matches_scalar, build_circuit, random_rows, GateSpec};
use proptest::prelude::*;
use tc_circuit::{CircuitBuilder, Wire};

/// Strategy producing a random layered circuit spec: `(num_inputs, gates)`
/// where each gate is `(fan-in as (wire_ordinal, weight), threshold)`; see
/// [`build_circuit`] for how ordinals resolve to wires.
fn circuit_spec() -> impl Strategy<Value = (usize, Vec<GateSpec>)> {
    (
        1usize..7,
        prop::collection::vec(
            (
                prop::collection::vec((0usize..96, -10i64..11), 1..7),
                -8i64..9,
            ),
            1..48,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Batches of up to one 64-lane group: every lane width agrees with the
    /// scalar oracle on gate values, outputs, and firing counts.
    #[test]
    fn scalar_and_arena_agree_within_one_group((num_inputs, spec) in circuit_spec(),
                                               seed in any::<u64>(),
                                               width in 1usize..65) {
        let compiled = build_circuit(num_inputs, &spec, |w| w).compile().unwrap();
        let rows = random_rows(num_inputs, width, seed);
        assert_arena_matches_scalar(&compiled, &rows)?;
    }

    /// Batches up to 512 lanes: the 64/128/256/512-lane kernels agree
    /// gate-for-gate with scalar, including ragged-tail lane counts, several
    /// groups through one reused arena, and the empty batch (`width == 0`).
    #[test]
    fn wide_lanes_agree_with_scalar((num_inputs, spec) in circuit_spec(),
                                    seed in any::<u64>(),
                                    width in 0usize..513) {
        let compiled = build_circuit(num_inputs, &spec, |w| w).compile().unwrap();
        let rows = random_rows(num_inputs, width, seed);
        assert_arena_matches_scalar(&compiled, &rows)?;
    }

    /// The padded-tail `evaluate_many` path matches per-request scalar
    /// evaluation for any batch size, including empty.
    #[test]
    fn evaluate_many_handles_any_batch_size((num_inputs, spec) in circuit_spec(),
                                            seed in any::<u64>(),
                                            requests in 0usize..200) {
        let circuit = build_circuit(num_inputs, &spec, |w| w);
        let compiled = circuit.compile().unwrap();
        let rows = random_rows(num_inputs, requests, seed);
        let many = compiled.evaluate_many(&rows).unwrap();
        prop_assert_eq!(many.len(), requests);
        prop_assert_eq!(many.is_empty(), requests == 0);
        prop_assert!(many.outputs(requests).is_err(), "out-of-range request must error");
        for (i, row) in rows.iter().enumerate() {
            let scalar = compiled.evaluate(row).unwrap();
            prop_assert_eq!(
                scalar.outputs(),
                many.outputs(i).unwrap().as_slice(),
                "outputs disagree on request {}", i
            );
            prop_assert_eq!(
                scalar.firing_count(),
                many.firing_count(i).unwrap() as usize,
                "request {}", i
            );
        }
    }

    /// The compiled scalar evaluator is bit-identical to the legacy
    /// `Circuit::evaluate` entry point (which itself now lowers to CSR).
    #[test]
    fn compiled_matches_circuit_evaluate((num_inputs, spec) in circuit_spec(),
                                         seed in any::<u64>()) {
        let circuit = build_circuit(num_inputs, &spec, |w| w);
        let compiled = circuit.compile().unwrap();
        for row in random_rows(num_inputs, 8, seed) {
            let a = circuit.evaluate(&row).unwrap();
            let b = compiled.evaluate(&row).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    /// Compiled statistics match the circuit-derived aggregate measures.
    #[test]
    fn compiled_stats_are_consistent((num_inputs, spec) in circuit_spec()) {
        let circuit = build_circuit(num_inputs, &spec, |w| w);
        let compiled = circuit.compile().unwrap();
        let stats = compiled.stats();
        prop_assert_eq!(stats.size, circuit.num_gates());
        prop_assert_eq!(stats.depth, circuit.depth());
        prop_assert_eq!(stats.edges, circuit.num_edges());
        prop_assert_eq!(stats.max_fan_in, circuit.max_fan_in());
        prop_assert_eq!(stats.layers.iter().map(|l| l.gates).sum::<usize>(), stats.size);
        prop_assert_eq!(stats.layers.iter().map(|l| l.edges).sum::<usize>(), stats.edges);
        let layer_sum: usize = (0..compiled.depth() as usize)
            .map(|d| compiled.layer(d).len())
            .sum();
        prop_assert_eq!(layer_sum, compiled.num_gates());
    }
}

/// Zero-width rows: a circuit with no inputs (gates fed only by the
/// constant-one wire) must be servable through every batch entry point —
/// the arena packing path explicitly early-accepts empty rows instead of
/// relying on a vacuous packing loop — and a *non*-empty row against a
/// zero-input circuit must be rejected with the typed length mismatch, not
/// silently accepted.
#[test]
fn zero_input_circuits_accept_zero_width_rows_everywhere() {
    use tc_circuit::{CircuitError, PlaneArena};

    let mut b = CircuitBuilder::new(0);
    let g = b.add_gate([(Wire::one(), 1)], 1).unwrap();
    let h = b.add_gate([(Wire::one(), 1), (g, -1)], 1).unwrap();
    b.mark_output(g);
    b.mark_output(h);
    let compiled = b.build().compile().unwrap();

    let scalar = compiled.evaluate(&[]).unwrap();
    assert_eq!(scalar.outputs(), &[true, false]);

    // The arena path, at several widths and lane counts (incl. > 64).
    let mut arena = PlaneArena::new();
    for lanes in [1usize, 3, 64, 100] {
        let rows: Vec<&[bool]> = vec![&[]; lanes];
        let ev = compiled
            .evaluate_rows_arena::<2>(&rows, &mut arena)
            .unwrap();
        for lane in 0..lanes {
            assert_eq!(ev.outputs(lane).unwrap(), scalar.outputs());
            assert_eq!(
                ev.firing_count(lane).unwrap() as usize,
                scalar.firing_count()
            );
        }
    }

    // The padded-tail evaluate_many path.
    let rows: Vec<Vec<bool>> = vec![Vec::new(); 130];
    let many = compiled.evaluate_many(&rows).unwrap();
    assert_eq!(many.len(), 130);
    assert_eq!(many.outputs(129).unwrap(), scalar.outputs());

    // A non-empty row against a zero-input circuit is a typed error, not a
    // silent accept: the early-accept branch must keep the length check.
    let bad: Vec<&[bool]> = vec![&[], &[true]];
    assert!(matches!(
        compiled.evaluate_rows_arena::<1>(&bad, &mut arena),
        Err(CircuitError::InputLengthMismatch {
            expected: 0,
            actual: 1
        })
    ));
}
