//! Differential property tests against an independent raw-gate oracle: a
//! compiled circuit must match the builder's gate list gate-for-gate on
//! outputs AND observable firing counts, across the scalar evaluator, the
//! arena kernel at every lane width, and `evaluate_many`. The oracle walks
//! the raw builder gates with `i128` arithmetic and never touches the
//! compiled engine, so a lowering bug cannot cancel itself out. The weight
//! generators target the bit-edge lowering: shared magnitude factors,
//! multi-bit magnitudes, and i64-extreme gates on the wide fallback.

mod common;

use common::{assert_arena_matches_scalar, build_circuit, gate_spec, random_rows};
use proptest::prelude::*;
use tc_circuit::{Circuit, CircuitBuilder, CompiledCircuit, Wire};

/// Independent reference evaluation of the RAW gate list: returns per-gate
/// values (original ids), designated outputs, and the firing count.
fn oracle(circuit: &Circuit, row: &[bool]) -> (Vec<bool>, Vec<bool>, usize) {
    let mut vals: Vec<bool> = Vec::with_capacity(circuit.num_gates());
    for gate in circuit.gates() {
        let mut acc: i128 = 0;
        for &(wire, w) in gate.inputs() {
            let v = match wire {
                Wire::One => true,
                Wire::Input(i) => row[i as usize],
                Wire::Gate(g) => vals[g as usize],
            };
            if v {
                acc += w as i128;
            }
        }
        vals.push(acc >= gate.threshold() as i128);
    }
    let outputs = circuit
        .outputs()
        .iter()
        .map(|&wire| match wire {
            Wire::One => true,
            Wire::Input(i) => row[i as usize],
            Wire::Gate(g) => vals[g as usize],
        })
        .collect();
    let firing = vals.iter().filter(|&&v| v).count();
    (vals, outputs, firing)
}

/// Asserts every evaluator agrees with the raw-gate-list oracle on `rows`:
/// the scalar evaluator and `evaluate_many` directly, and — through the
/// scalar evaluator — the arena kernel at every lane width.
fn assert_matches_oracle(
    circuit: &Circuit,
    compiled: &CompiledCircuit,
    rows: &[Vec<bool>],
) -> Result<(), String> {
    let mev = compiled.evaluate_many(rows).unwrap();
    for (lane, row) in rows.iter().enumerate() {
        let (gates, outputs, firing) = oracle(circuit, row);
        let scalar = compiled.evaluate(row).unwrap();
        prop_assert_eq!(
            scalar.gate_values(),
            &gates[..],
            "scalar gates, lane {}",
            lane
        );
        prop_assert_eq!(
            scalar.outputs(),
            &outputs[..],
            "scalar outputs, lane {}",
            lane
        );
        prop_assert_eq!(
            scalar.firing_count(),
            firing,
            "scalar firing, lane {}",
            lane
        );
        prop_assert_eq!(mev.outputs(lane).unwrap(), outputs, "many lane {}", lane);
        prop_assert_eq!(
            mev.firing_count(lane).unwrap() as usize,
            firing,
            "many firing, lane {}",
            lane
        );
    }
    assert_arena_matches_scalar(compiled, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Weights drawn as `sign · multiplier · scale`, so gates routinely
    /// share a magnitude factor; thresholds span both divisible and
    /// non-divisible values. Every evaluator must match the raw-gate oracle.
    #[test]
    fn shared_factor_weights_match_the_raw_oracle(
        (num_inputs, spec) in gate_spec(-30i64..31),
        scale in 1i64..13,
        seed in any::<u64>(),
        width in 1usize..129,
    ) {
        let circuit = build_circuit(num_inputs, &spec, |s| {
            let mult = 1 + s.unsigned_abs() as i64 % 12;
            let w = mult * scale;
            if s < 0 { -w } else { w }
        });
        let compiled = circuit.compile().unwrap();
        let rows = random_rows(num_inputs, width, seed);
        assert_matches_oracle(&circuit, &compiled, &rows)?;
    }

    /// Odd multi-bit weights (runs of ones): many bit-edges per edge, all
    /// of which must stay output- and energy-equivalent.
    #[test]
    fn odd_multi_bit_weights_match_the_raw_oracle(
        (num_inputs, spec) in gate_spec(-30i64..31),
        seed in any::<u64>(),
        width in 1usize..129,
    ) {
        let circuit = build_circuit(num_inputs, &spec, |s| {
            // 3, 7, 15, 31, 63, ...
            let mag = (1i64 << (2 + s.unsigned_abs() % 9)) - 1;
            if s < 0 { -mag } else { mag }
        });
        let compiled = circuit.compile().unwrap();
        let rows = random_rows(num_inputs, width, seed);
        assert_matches_oracle(&circuit, &compiled, &rows)?;
    }
}

/// Deterministic extreme-weight cases: a gate that must fall back to the
/// wide per-lane path next to shared-factor and multi-bit gates in one
/// circuit.
#[test]
fn extreme_and_mixed_gates_match_the_raw_oracle() {
    let mut b = CircuitBuilder::new(3);
    let x = Wire::input(0);
    let y = Wire::input(1);
    let z = Wire::input(2);
    let wide = b
        .add_gate([(x, i64::MAX), (y, i64::MAX - 2), (z, i64::MIN)], 3)
        .unwrap();
    let shared5 = b.add_gate([(x, 10), (y, -15), (wide, 20)], 7).unwrap();
    let multi_bit = b.add_gate([(x, 127), (shared5, -255)], -100).unwrap();
    let shared9 = b.add_gate([(multi_bit, 9), (wide, 9), (z, -9)], 9).unwrap();
    b.mark_outputs([wide, shared5, multi_bit, shared9]);
    let circuit = b.build();
    let compiled = circuit.compile().unwrap();
    let rows: Vec<Vec<bool>> = (0..8u32)
        .map(|bits| (0..3).map(|i| bits & (1 << i) != 0).collect())
        .collect();
    assert_matches_oracle(&circuit, &compiled, &rows).unwrap();
}
