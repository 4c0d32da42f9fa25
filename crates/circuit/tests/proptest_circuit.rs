//! Property-based tests for the threshold-circuit substrate.

mod common;

use common::{assert_arena_matches_scalar, random_rows};
use proptest::prelude::*;
use tc_circuit::{verify_against, verify_compiled, CircuitBuilder, DedupPolicy, Wire};

/// A generated circuit description: `(num_inputs, gates)` with each gate
/// given as `(fan-in (wire ordinal, weight) pairs, threshold)`.
type CircuitSpec = (usize, Vec<(Vec<(usize, i64)>, i64)>);

/// Strategy producing a random layered circuit description together with the number of
/// primary inputs.  Gates reference only earlier wires by construction.
fn random_circuit_spec() -> impl Strategy<Value = CircuitSpec> {
    // (num_inputs, gates); each gate = (fan-in as (wire_ordinal, weight)), threshold.
    // wire_ordinal w is interpreted as: w < num_inputs => input w, else gate (w - num_inputs)
    // modulo the number of gates available so far (ensuring topological order).
    (
        2usize..6,
        prop::collection::vec(
            (
                prop::collection::vec((0usize..64, -8i64..9), 1..6),
                -6i64..7,
            ),
            1..40,
        ),
    )
}

fn build(
    num_inputs: usize,
    spec: &[(Vec<(usize, i64)>, i64)],
    dedup: DedupPolicy,
) -> tc_circuit::Circuit {
    let mut b = CircuitBuilder::with_dedup(num_inputs, dedup);
    for (gate_idx, (fan_in, threshold)) in spec.iter().enumerate() {
        let mut resolved = Vec::new();
        let mut used = std::collections::HashSet::new();
        for &(ordinal, weight) in fan_in {
            let pool = num_inputs + gate_idx.min(b.num_gates());
            let o = ordinal % pool.max(1);
            let wire = if o < num_inputs {
                Wire::input(o)
            } else {
                Wire::gate(o - num_inputs)
            };
            if used.insert(wire) {
                resolved.push((wire, weight));
            }
        }
        if resolved.is_empty() {
            resolved.push((Wire::input(0), 1));
        }
        let w = b.add_gate(resolved, *threshold).unwrap();
        b.mark_output(w);
    }
    b.build()
}

proptest! {
    /// The arena kernel at every lane width must agree with the sequential
    /// evaluator on every circuit and every input.
    #[test]
    fn arena_kernel_equals_sequential((num_inputs, spec) in random_circuit_spec(),
                                      seed in any::<u64>()) {
        let circuit = build(num_inputs, &spec, DedupPolicy::KeepDuplicates);
        let rows = random_rows(num_inputs, 8, seed);
        assert_arena_matches_scalar(&circuit.compile().unwrap(), &rows)?;
    }

    /// Structural deduplication never changes the function computed on the designated
    /// outputs (it can only reduce the gate count).
    #[test]
    fn dedup_preserves_semantics((num_inputs, spec) in random_circuit_spec(),
                                 seed in any::<u64>()) {
        let plain = build(num_inputs, &spec, DedupPolicy::KeepDuplicates);
        let deduped = build(num_inputs, &spec, DedupPolicy::MergeStructural);
        prop_assert!(deduped.num_gates() <= plain.num_gates());
        let mut state = seed | 1;
        for _ in 0..8 {
            let inputs: Vec<bool> = (0..num_inputs).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state & 1 == 1
            }).collect();
            // Output k of the plain circuit is gate k; in the deduped circuit output k
            // may alias an earlier gate but must carry the same value.
            let a = plain.evaluate(&inputs).unwrap();
            let d = deduped.evaluate(&inputs).unwrap();
            prop_assert_eq!(a.outputs(), d.outputs());
        }
    }

    /// Every circuit built through the builder passes validation, and its per-layer gate
    /// counts sum to its size.
    #[test]
    fn builder_circuits_validate((num_inputs, spec) in random_circuit_spec()) {
        let circuit = build(num_inputs, &spec, DedupPolicy::KeepDuplicates);
        let report = circuit.validate();
        prop_assert!(report.is_valid());
        let stats = circuit.stats();
        prop_assert_eq!(stats.layers.iter().map(|l| l.gates).sum::<usize>(), stats.size);
        prop_assert_eq!(stats.layers.iter().map(|l| l.edges).sum::<usize>(), stats.edges);
        prop_assert!(stats.depth as usize <= stats.size);
    }

    /// Gate depths are consistent: a gate's depth is strictly greater than the depth of
    /// every gate it reads.
    #[test]
    fn depths_are_monotone_along_edges((num_inputs, spec) in random_circuit_spec()) {
        let circuit = build(num_inputs, &spec, DedupPolicy::KeepDuplicates);
        for (idx, gate) in circuit.gates().iter().enumerate() {
            for (wire, _) in gate.inputs() {
                if let Some(parent) = wire.as_gate() {
                    prop_assert!(circuit.gate_depth(parent) < circuit.gate_depth(idx));
                }
            }
        }
    }

    /// Translation validation holds on every compile: random circuits lower
    /// to artifacts the independent verifier certifies — structural CSR
    /// invariants standalone, and the translation check (wiring, weights,
    /// thresholds, binary bit-edge runs) against the source gates.
    #[test]
    fn compiled_circuits_pass_the_verifier((num_inputs, spec) in random_circuit_spec(),
                                           dedup in any::<bool>()) {
        let policy = if dedup { DedupPolicy::MergeStructural } else { DedupPolicy::KeepDuplicates };
        let circuit = build(num_inputs, &spec, policy);
        let compiled = circuit.compile().unwrap();
        let standalone = verify_compiled(&compiled);
        prop_assert!(standalone.is_valid(), "structural: {standalone}");
        let report = verify_against(&circuit, &compiled);
        prop_assert!(report.is_valid(), "against source: {report}");
        // Advisory findings never flip validity.
        prop_assert!(report.error_count() == 0);
    }
}
