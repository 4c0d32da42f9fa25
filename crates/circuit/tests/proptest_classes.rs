//! Differential property tests per gate class: circuits forced to compile
//! entirely into one [`GateClass`] (`Unit`, `Pow2`, `General`) must evaluate
//! bit-identically — gate values, outputs, and firing counts — across the
//! scalar oracle and the arena kernel at every lane width `W ∈ {1, 2, 4,
//! 8}`. This pins each class-specialised kernel loop against the reference,
//! not just the mixed circuits `proptest_compiled.rs` generates.

mod common;

use common::{assert_arena_matches_scalar, build_circuit, gate_spec, random_rows};
use proptest::prelude::*;
use tc_circuit::GateClass;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// All weights forced to ±1: every gate must classify `Unit` and the
    /// raw-edge popcount loop must match scalar exactly.
    #[test]
    fn unit_class_matches_scalar((num_inputs, spec) in gate_spec(-9i64..10),
                                 seed in any::<u64>(),
                                 width in 1usize..97) {
        let circuit = build_circuit(num_inputs, &spec, |s| if s < 0 { -1 } else { 1 });
        let compiled = circuit.compile().unwrap();
        prop_assert_eq!(compiled.class_counts(), [compiled.num_gates(), 0, 0]);
        for g in 0..compiled.num_gates() {
            prop_assert_eq!(compiled.gate_class(g), GateClass::Unit);
        }
        // Unit gates emit no bit-edges at all.
        prop_assert_eq!(compiled.num_bit_edges(), 0);
        let rows = random_rows(num_inputs, width, seed);
        assert_arena_matches_scalar(&compiled, &rows)?;
    }

    /// All weight magnitudes forced to single set bits (with at least the
    /// possibility of >1 magnitudes): gates classify `Unit` or `Pow2`, and
    /// the shift-indexed plane loop must match scalar exactly.
    #[test]
    fn pow2_class_matches_scalar((num_inputs, spec) in gate_spec(-9i64..10),
                                 seed in any::<u64>(),
                                 width in 1usize..97) {
        // Map selector s to ±2^(|s| % 20): magnitude always a power of two.
        let circuit = build_circuit(num_inputs, &spec, |s| {
            let mag = 1i64 << (s.unsigned_abs() % 20);
            if s < 0 { -mag } else { mag }
        });
        let compiled = circuit.compile().unwrap();
        prop_assert_eq!(compiled.class_counts()[2], 0, "no General gates expected");
        for g in 0..compiled.num_gates() {
            let (_, weights) = compiled.fan_in(g);
            let expected = if weights.iter().all(|&w| w.unsigned_abs() == 1) {
                GateClass::Unit
            } else {
                GateClass::Pow2
            };
            prop_assert_eq!(compiled.gate_class(g), expected, "gate {}", g);
        }
        let rows = random_rows(num_inputs, width, seed);
        assert_arena_matches_scalar(&compiled, &rows)?;
    }

    /// Every gate given at least one multi-bit weight: all gates classify
    /// `General` and the bit-edge decomposition must match scalar exactly.
    #[test]
    fn general_class_matches_scalar((num_inputs, spec) in gate_spec(-9i64..10),
                                    seed in any::<u64>(),
                                    width in 1usize..97) {
        // Map selector s to a guaranteed multi-bit magnitude (3 + 2|s|
        // always has >= 2 set bits ruled in by construction below).
        let circuit = build_circuit(num_inputs, &spec, |s| {
            let mag = 3 + 2 * (s.unsigned_abs() as i64 % 40); // odd, >= 3
            let mag = if mag.count_ones() < 2 { mag + 2 } else { mag };
            if s < 0 { -mag } else { mag }
        });
        let compiled = circuit.compile().unwrap();
        prop_assert_eq!(compiled.class_counts(), [0, 0, compiled.num_gates()]);
        for g in 0..compiled.num_gates() {
            // Expected class from the raw builder weights.
            let raw = circuit.gates()[g].inputs().iter().map(|&(_, w)| w);
            let expected = if raw.clone().all(|w| w.unsigned_abs() == 1) {
                GateClass::Unit
            } else if raw.clone().all(|w| w != 0 && w.unsigned_abs().is_power_of_two()) {
                GateClass::Pow2
            } else {
                GateClass::General
            };
            prop_assert_eq!(compiled.gate_class(g), expected, "gate {}", g);
        }
        let rows = random_rows(num_inputs, width, seed);
        assert_arena_matches_scalar(&compiled, &rows)?;
    }

    /// A mixed circuit with all three classes interleaved across layers:
    /// the segment dispatch and the internal (depth, class) permutation must
    /// be invisible — public accessors and evaluations speak original ids.
    #[test]
    fn mixed_classes_and_permutation_are_invisible((num_inputs, spec) in gate_spec(-9i64..10),
                                                   seed in any::<u64>(),
                                                   width in 1usize..97) {
        // Selector picks the class per edge: ±1, ±2^k, or multi-bit.
        let circuit = build_circuit(num_inputs, &spec, |s| {
            let sign = if s < 0 { -1 } else { 1 };
            match s.unsigned_abs() % 3 {
                0 => sign,
                1 => sign * (1 << (s.unsigned_abs() % 16)),
                _ => sign * (3 + (s.unsigned_abs() as i64 % 37) * 2),
            }
        });
        let compiled = circuit.compile().unwrap();
        // Permutation consistency: per-gate accessors agree with the source
        // circuit (fan-in edges are reordered positives-first, so compare
        // as weight multisets).
        for g in 0..compiled.num_gates() {
            let mut want: Vec<i64> =
                circuit.gates()[g].inputs().iter().map(|&(_, w)| w).collect();
            let want_t = circuit.gates()[g].threshold();
            prop_assert_eq!(compiled.threshold(g), want_t, "gate {} threshold", g);
            prop_assert_eq!(compiled.gate_depth(g), circuit.gate_depth(g));
            let (_, weights) = compiled.fan_in(g);
            let mut got: Vec<i64> = weights.to_vec();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "gate {} weights", g);
        }
        // Layer view speaks original ids and covers every gate once.
        let mut seen = vec![false; compiled.num_gates()];
        for d in 0..compiled.depth() as usize {
            for &g in compiled.layer(d) {
                prop_assert_eq!(compiled.gate_depth(g as usize), d as u32 + 1);
                prop_assert!(!seen[g as usize], "gate {} scheduled twice", g);
                seen[g as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        let rows = random_rows(num_inputs, width, seed);
        assert_arena_matches_scalar(&compiled, &rows)?;
    }
}
