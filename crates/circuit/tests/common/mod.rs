//! Fixtures shared by the differential suites: random layered circuits,
//! deterministic input rows, and the check that pins the bit-sliced arena
//! kernel to the scalar oracle at every lane width.

// Each test binary compiles this module and uses a different subset.
#![allow(dead_code)]

use proptest::prelude::*;
use tc_circuit::{
    Circuit, CircuitBuilder, CircuitError, CompiledCircuit, Evaluation, PlaneArena, Wire,
};

/// One gate: fan-in as (wire ordinal, weight selector), plus a threshold.
pub type GateSpec = (Vec<(usize, i64)>, i64);

/// Strategy for `(num_inputs, gates)`: up to 39 gates of fan-in 1–6 with
/// weight selectors in `-40..=40` and thresholds drawn from `thresholds`.
pub fn gate_spec(
    thresholds: std::ops::Range<i64>,
) -> impl Strategy<Value = (usize, Vec<GateSpec>)> {
    (
        1usize..7,
        prop::collection::vec(
            (
                prop::collection::vec((0usize..96, -40i64..41), 1..7),
                thresholds,
            ),
            1..40,
        ),
    )
}

/// Builds a layered circuit from `spec`, mapping every weight selector
/// through `weight_of` and marking every gate — plus the constant-one wire
/// and the last input — as an output. A wire ordinal
/// `o` resolves to the constant-one wire when `o == 0`, input `o - 1` when
/// `o <= num_inputs`, otherwise an earlier gate (modulo the gates available
/// so far, preserving topological order).
pub fn build_circuit(
    num_inputs: usize,
    spec: &[GateSpec],
    weight_of: impl Fn(i64) -> i64,
) -> Circuit {
    let mut b = CircuitBuilder::new(num_inputs);
    for (gate_idx, (fan_in, threshold)) in spec.iter().enumerate() {
        let mut resolved = Vec::new();
        let mut used = std::collections::HashSet::new();
        for &(ordinal, selector) in fan_in {
            let pool = 1 + num_inputs + gate_idx;
            let o = ordinal % pool;
            let wire = if o == 0 {
                Wire::One
            } else if o <= num_inputs {
                Wire::input(o - 1)
            } else {
                Wire::gate(o - 1 - num_inputs)
            };
            if used.insert(wire) {
                resolved.push((wire, weight_of(selector)));
            }
        }
        if resolved.is_empty() {
            resolved.push((Wire::One, weight_of(1)));
        }
        let w = b.add_gate(resolved, *threshold).unwrap();
        b.mark_output(w);
    }
    // Also exercise non-gate outputs.
    b.mark_output(Wire::One);
    if num_inputs > 0 {
        b.mark_output(Wire::input(num_inputs - 1));
    }
    b.build()
}

/// Deterministic pseudo-random input rows (xorshift64).
pub fn random_rows(num_inputs: usize, rows: usize, mut state: u64) -> Vec<Vec<bool>> {
    state |= 1;
    (0..rows)
        .map(|_| {
            (0..num_inputs)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state & 1 == 1
                })
                .collect()
        })
        .collect()
}

/// Evaluates `rows` through `evaluate_rows_arena::<W>` in `64·W`-lane
/// groups sharing one arena (an empty `rows` still runs one empty pass) and
/// returns every lane's full evaluation and firing count, in row order.
/// Fails if a group's lane count is off, a dead lane past its end is
/// reachable, or a batch one row wider than `64·W` is not rejected.
pub fn arena_lanes<const W: usize>(
    compiled: &CompiledCircuit,
    rows: &[Vec<bool>],
) -> Result<Vec<(Evaluation, u32)>, String> {
    let groups: Vec<&[Vec<bool>]> = if rows.is_empty() {
        vec![rows]
    } else {
        rows.chunks(64 * W).collect()
    };
    let mut arena = PlaneArena::new();
    let mut lanes = Vec::with_capacity(rows.len());
    for group in groups {
        let refs: Vec<&[bool]> = group.iter().map(Vec::as_slice).collect();
        let ev = compiled
            .evaluate_rows_arena::<W>(&refs, &mut arena)
            .map_err(|e| e.to_string())?;
        prop_assert_eq!(ev.lanes(), group.len());
        prop_assert_eq!(ev.firing_counts().len(), group.len());
        prop_assert!(
            ev.evaluation(group.len()).is_err(),
            "dead lanes must be unreachable"
        );
        for lane in 0..group.len() {
            lanes.push((ev.evaluation(lane).unwrap(), ev.firing_count(lane).unwrap()));
        }
    }
    let too_wide: Vec<&[bool]> = vec![&[]; 64 * W + 1];
    prop_assert!(matches!(
        compiled.evaluate_rows_arena::<W>(&too_wide, &mut arena),
        Err(CircuitError::BatchTooWide { rows }) if rows == 64 * W + 1
    ));
    Ok(lanes)
}

/// Asserts `evaluate_rows_arena::<W>` for every `W ∈ {1, 2, 4, 8}` is
/// bit-identical to the scalar oracle on `rows` (any count, including
/// zero): gate values, outputs, and per-lane firing counts.
pub fn assert_arena_matches_scalar(
    compiled: &CompiledCircuit,
    rows: &[Vec<bool>],
) -> Result<(), String> {
    let want: Vec<(Evaluation, u32)> = rows
        .iter()
        .map(|row| {
            let ev = compiled.evaluate(row).unwrap();
            let fired = ev.firing_count() as u32;
            (ev, fired)
        })
        .collect();
    let widths = [
        (1, arena_lanes::<1>(compiled, rows)?),
        (2, arena_lanes::<2>(compiled, rows)?),
        (4, arena_lanes::<4>(compiled, rows)?),
        (8, arena_lanes::<8>(compiled, rows)?),
    ];
    for (w, got) in &widths {
        prop_assert_eq!(got.len(), want.len(), "W={} lane count", w);
        for (lane, (got, want)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(got, want, "W={} lane {}", w, lane);
        }
    }
    Ok(())
}
