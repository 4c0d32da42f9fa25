//! Differential property tests for the SIMD dispatch: whatever vector level
//! the host CPU offers, every kernel width must produce bit-identical
//! results — gate values, outputs, firing counts — to the portable scalar
//! word loop, per gate class and on ragged-tail batch widths.
//!
//! The portable arm is selected through [`tc_circuit::simd::force_portable`],
//! a process-global switch, so the tests in this binary serialise on a mutex
//! and restore the default even when an assertion fails.

mod common;

use common::{arena_lanes, build_circuit, gate_spec, random_rows};
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};
use tc_circuit::{simd, Circuit, CircuitBuilder, Evaluation, Wire};

/// Serialises every test touching the global force-portable switch.
fn simd_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Restores the default dispatch when dropped, assertion failures included.
struct PortableGuard;
impl Drop for PortableGuard {
    fn drop(&mut self) {
        simd::force_portable(false);
    }
}

/// Weight mapper per class forced by the proptests below.
fn weight_of(class: usize, s: i64) -> i64 {
    let sign = if s < 0 { -1 } else { 1 };
    match class {
        0 => sign,                                            // Unit
        1 => sign * (1 << (s.unsigned_abs() % 16)),           // Pow2
        2 => sign * (3 + (s.unsigned_abs() as i64 % 37) * 2), // General (odd)
        _ => match s.unsigned_abs() % 3 {
            0 => sign,
            1 => sign * (1 << (s.unsigned_abs() % 16)),
            _ => sign * (3 + (s.unsigned_abs() as i64 % 37) * 2),
        },
    }
}

/// Evaluates `rows` through the arena kernel at every width `W ∈ {1, 2, 4,
/// 8}` on the CURRENT dispatch arm and returns each lane's full evaluation
/// and firing count, width after width.
fn digest(circuit: &Circuit, rows: &[Vec<bool>]) -> Result<Vec<(Evaluation, u32)>, String> {
    let compiled = circuit.compile().unwrap();
    let mut lanes = arena_lanes::<1>(&compiled, rows)?;
    lanes.extend(arena_lanes::<2>(&compiled, rows)?);
    lanes.extend(arena_lanes::<4>(&compiled, rows)?);
    lanes.extend(arena_lanes::<8>(&compiled, rows)?);
    Ok(lanes)
}

/// Runs `digest` on the active (possibly vector) arm and on the forced
/// portable arm, and asserts bit-identical results.
fn assert_arms_agree(circuit: &Circuit, rows: &[Vec<bool>]) -> Result<(), String> {
    // A panicking sibling test must not wedge the rest of the suite.
    let _serial = match simd_lock().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    simd::force_portable(false);
    let vectored = digest(circuit, rows)?;
    let _guard = PortableGuard;
    simd::force_portable(true);
    let portable = digest(circuit, rows)?;
    prop_assert_eq!(vectored.len(), portable.len());
    for (lane, (v, p)) in vectored.iter().zip(&portable).enumerate() {
        prop_assert_eq!(
            v,
            p,
            "lane {} (width-major) diverges between {} and portable",
            lane,
            simd::detected_level().name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Unit-class circuits: raw-edge popcount loops, both arms identical.
    #[test]
    fn unit_class_simd_matches_portable((num_inputs, spec) in gate_spec(-9i64..10),
                                        seed in any::<u64>(),
                                        width in 1usize..513) {
        let circuit = build_circuit(num_inputs, &spec, |s| weight_of(0, s));
        let rows = random_rows(num_inputs, width, seed);
        assert_arms_agree(&circuit, &rows)?;
    }

    /// Pow2-class circuits: shift-indexed plane additions.
    #[test]
    fn pow2_class_simd_matches_portable((num_inputs, spec) in gate_spec(-9i64..10),
                                        seed in any::<u64>(),
                                        width in 1usize..513) {
        let circuit = build_circuit(num_inputs, &spec, |s| weight_of(1, s));
        let rows = random_rows(num_inputs, width, seed);
        assert_arms_agree(&circuit, &rows)?;
    }

    /// General-class circuits: multi-digit bit-edge decompositions.
    #[test]
    fn general_class_simd_matches_portable((num_inputs, spec) in gate_spec(-9i64..10),
                                           seed in any::<u64>(),
                                           width in 1usize..513) {
        let circuit = build_circuit(num_inputs, &spec, |s| weight_of(2, s));
        let rows = random_rows(num_inputs, width, seed);
        assert_arms_agree(&circuit, &rows)?;
    }

    /// Mixed-class circuits on deliberately ragged batch widths (partial
    /// final lane groups for every kernel width).
    #[test]
    fn ragged_tails_simd_matches_portable((num_inputs, spec) in gate_spec(-9i64..10),
                                          seed in any::<u64>(),
                                          tail in 1usize..64,
                                          groups in 0usize..8) {
        let circuit = build_circuit(num_inputs, &spec, |s| weight_of(3, s));
        let rows = random_rows(num_inputs, groups * 64 + tail, seed);
        assert_arms_agree(&circuit, &rows)?;
    }
}

/// The wide (per-lane `i128`) fallback must agree across arms too.
#[test]
fn wide_gates_simd_matches_portable() {
    let mut b = CircuitBuilder::new(2);
    let g = b
        .add_gate(
            [(Wire::input(0), i64::MAX), (Wire::input(1), i64::MAX - 2)],
            1,
        )
        .unwrap();
    let h = b.add_gate([(Wire::input(0), i64::MIN), (g, 1)], 0).unwrap();
    b.mark_outputs([g, h]);
    let circuit = b.build();
    let rows = random_rows(2, 300, 0xDEADBEEF);
    assert_arms_agree(&circuit, &rows).unwrap();
}

/// On x86_64 hosts the harness actually exercises a vector arm (SSE2 is
/// baseline), so a dispatch regression cannot silently pass as portable ==
/// portable.
#[cfg(target_arch = "x86_64")]
#[test]
fn x86_64_detects_a_vector_level() {
    if std::env::var_os("TCMM_SIMD").is_some() {
        // The environment pinned a level (e.g. the portable-fallback CI
        // job); detection is deliberately overridden there.
        return;
    }
    assert_ne!(simd::detected_level(), simd::SimdLevel::Portable);
}
