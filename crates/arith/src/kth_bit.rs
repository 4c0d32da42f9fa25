//! Lemma 3.1: the k-th most significant bit of a weighted sum of bits, in depth 2.

use crate::{ArithError, Result};
use tc_circuit::{CircuitBuilder, Wire};

/// Lemma 3.1 (Muroga 1959 / Siu et al. 1991, as stated in the paper).
///
/// Let `s = Σ_i w_i·x_i` be an integer-weighted sum of bits with `s ∈ [0, 2^l)`.
/// For `1 ≤ k ≤ l`, this adds a **depth-2** sub-circuit with exactly **`2^k + 1`
/// gates** whose output wire carries the k-th most significant bit of `s`
/// (bit position `l − k`, 0-based from the least significant bit).
///
/// Construction (verbatim from the paper's proof):
///
/// * first layer: gates `y_i := [s ≥ i·2^(l−k)]` for `1 ≤ i ≤ 2^k`;
/// * output layer: `[Σ_{i odd}(y_i − y_{i+1}) ≥ 1]`, which fires exactly when `s` lies
///   in an interval `[i·2^(l−k), (i+1)·2^(l−k))` for some odd `i`.
///
/// If the caller's promise `s ∈ [0, 2^l)` is violated the circuit outputs 0 (as noted in
/// the paper).
///
/// # Errors
///
/// * [`ArithError::InvalidBitIndex`] if `k = 0` or `k > l`;
/// * [`ArithError::BoundTooWide`] if `l > 62` (thresholds would overflow `i64`) or
///   `k > 26` (guard against accidentally requesting circuits with more than ~10⁸
///   gates — the constructions in this workspace never need `k` anywhere near this);
/// * [`ArithError::EmptyOperands`] if `terms` is empty.
pub fn kth_most_significant_bit(
    builder: &mut CircuitBuilder,
    terms: &[(Wire, i64)],
    l: u32,
    k: u32,
) -> Result<Wire> {
    if terms.is_empty() {
        return Err(ArithError::EmptyOperands);
    }
    if k == 0 || k > l {
        return Err(ArithError::InvalidBitIndex { k, l });
    }
    if l > 62 {
        return Err(ArithError::BoundTooWide { required_bits: l });
    }
    if k > 26 {
        return Err(ArithError::BoundTooWide { required_bits: k });
    }

    let step = 1i64 << (l - k);
    let count = 1u64 << k;

    // First layer: y_i = [s >= i * 2^(l-k)].
    let mut y = Vec::with_capacity(count as usize);
    for i in 1..=count {
        let threshold = (i as i64) * step;
        let wire = builder.add_gate_merged(terms.iter().copied(), threshold)?;
        y.push(wire);
    }

    // Output: [ Σ_{i odd} (y_i - y_{i+1}) >= 1 ].  Odd i range over 1, 3, ..., 2^k - 1;
    // y is 0-indexed so y_i = y[i-1].
    let mut out_terms = Vec::with_capacity(count as usize);
    let mut i = 1u64;
    while i < count {
        out_terms.push((y[(i - 1) as usize], 1i64));
        out_terms.push((y[i as usize], -1i64));
        i += 2;
    }
    if count == 1 {
        // k = 0 is rejected above, so count >= 2 always; this branch is unreachable but
        // kept for safety: with a single interval the bit equals y_1.
        out_terms.push((y[0], 1));
    }
    let out = builder.add_gate_merged(out_terms, 1)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kth_bit_gate_count, InputAllocator};

    /// Exhaustively checks the construction for a plain binary number (weights 2^i).
    #[test]
    fn extracts_every_bit_of_a_binary_number() {
        let l = 5u32;
        for k in 1..=l {
            let mut alloc = InputAllocator::new();
            let x = alloc.alloc_uint(l as usize);
            let mut b = CircuitBuilder::new(alloc.num_inputs());
            let terms: Vec<(Wire, i64)> = x.to_repr().terms().to_vec();
            let before = b.num_gates();
            let bit = kth_most_significant_bit(&mut b, &terms, l, k).unwrap();
            assert_eq!(
                b.num_gates() - before,
                kth_bit_gate_count(k) as usize,
                "gate count for k={k}"
            );
            b.mark_output(bit);
            let c = b.build();
            assert_eq!(c.depth(), 2);
            let mut bits = vec![false; c.num_inputs()];
            for v in 0..(1u64 << l) {
                x.assign(v, &mut bits).unwrap();
                let ev = c.evaluate(&bits).unwrap();
                let expected = (v >> (l - k)) & 1 == 1;
                assert_eq!(ev.outputs()[0], expected, "v={v} k={k}");
            }
        }
    }

    /// The sum here is a weighted sum with repeated weights (not a positional encoding).
    #[test]
    fn works_for_general_weighted_sums() {
        let mut alloc = InputAllocator::new();
        let xs: Vec<Wire> = (0..4).map(|_| alloc.alloc_bit()).collect();
        let weights = [3i64, 5, 6, 1];
        // Max sum = 15 < 16, so l = 4.
        let l = 4u32;
        let terms: Vec<(Wire, i64)> = xs.iter().copied().zip(weights).collect();
        for k in 1..=l {
            let mut b = CircuitBuilder::new(alloc.num_inputs());
            let bit = kth_most_significant_bit(&mut b, &terms, l, k).unwrap();
            b.mark_output(bit);
            let c = b.build();
            for assignment in 0..16u32 {
                let bits: Vec<bool> = (0..4).map(|i| assignment >> i & 1 == 1).collect();
                let s: i64 = (0..4).map(|i| if bits[i] { weights[i] } else { 0 }).sum();
                let expected = (s >> (l - k)) & 1 == 1;
                let ev = c.evaluate(&bits).unwrap();
                assert_eq!(
                    ev.outputs()[0],
                    expected,
                    "assignment={assignment:04b} k={k}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_sum_outputs_zero() {
        // Promise l = 3 (s < 8) but drive the sum to 9: the circuit must output 0 for
        // any k (as stated after Lemma 3.1 in the paper).
        let mut alloc = InputAllocator::new();
        let x = alloc.alloc_bit();
        let terms = [(x, 9i64)];
        for k in 1..=3 {
            let mut b = CircuitBuilder::new(alloc.num_inputs());
            let bit = kth_most_significant_bit(&mut b, &terms, 3, k).unwrap();
            b.mark_output(bit);
            let c = b.build();
            let ev = c.evaluate(&[true]).unwrap();
            assert!(!ev.outputs()[0], "k={k}");
        }
    }

    #[test]
    fn parameter_validation() {
        let mut alloc = InputAllocator::new();
        let x = alloc.alloc_bit();
        let mut b = CircuitBuilder::new(alloc.num_inputs());
        assert!(matches!(
            kth_most_significant_bit(&mut b, &[], 3, 1),
            Err(ArithError::EmptyOperands)
        ));
        assert!(matches!(
            kth_most_significant_bit(&mut b, &[(x, 1)], 3, 0),
            Err(ArithError::InvalidBitIndex { .. })
        ));
        assert!(matches!(
            kth_most_significant_bit(&mut b, &[(x, 1)], 3, 4),
            Err(ArithError::InvalidBitIndex { .. })
        ));
        assert!(matches!(
            kth_most_significant_bit(&mut b, &[(x, 1)], 63, 1),
            Err(ArithError::BoundTooWide { .. })
        ));
        assert!(matches!(
            kth_most_significant_bit(&mut b, &[(x, 1)], 40, 30),
            Err(ArithError::BoundTooWide { .. })
        ));
    }

    /// Builds Lemma 3.1 blocks with `l = 8` for each `k` in `ks` over one
    /// 9-bit number `x`, evaluates all 512 values of `x` in one 512-lane
    /// arena pass, and checks each lane — gate values, outputs, firing
    /// count — against the scalar oracle. Output `j` must be bit `l − k_j`
    /// of `x` while `x < 2^l`, and 0 once `x` breaks that promise; there the
    /// top threshold `2^k·2^(l−k)` fires too.
    fn check_every_sum_value_in_one_wide_pass(ks: &[u32]) {
        const L: u32 = 8;
        let mut alloc = InputAllocator::new();
        let x = alloc.alloc_uint(L as usize + 1);
        let mut b = CircuitBuilder::new(alloc.num_inputs());
        let terms: Vec<(Wire, i64)> = x.to_repr().terms().to_vec();
        for &k in ks {
            let bit = kth_most_significant_bit(&mut b, &terms, L, k).unwrap();
            b.mark_output(bit);
        }
        let compiled = b.build().compile().unwrap();
        // Every block's first layer reads one sum: one decoded bank.
        let members: usize = ks.iter().map(|&k| 1usize << k).sum();
        assert_eq!(compiled.num_decoded_gates(), members);

        let rows: Vec<Vec<bool>> = (0..2u64 << L)
            .map(|v| {
                let mut bits = vec![false; compiled.num_inputs()];
                x.assign(v, &mut bits).unwrap();
                bits
            })
            .collect();
        let refs: Vec<&[bool]> = rows.iter().map(Vec::as_slice).collect();
        let mut arena = tc_circuit::PlaneArena::new();
        let ev = compiled
            .evaluate_rows_arena::<8>(&refs, &mut arena)
            .unwrap();
        for (v, row) in rows.iter().enumerate() {
            let want = compiled.evaluate(row).unwrap();
            assert_eq!(ev.evaluation(v).unwrap(), want, "x={v}");
            assert_eq!(
                ev.firing_count(v).unwrap() as usize,
                want.firing_count(),
                "x={v}"
            );
            for (j, &k) in ks.iter().enumerate() {
                let bit = v >> L == 0 && (v >> (L - k)) & 1 == 1;
                assert_eq!(ev.output(v, j).unwrap(), bit, "x={v} k={k}");
            }
        }
    }

    /// Exhaustive over every `k = 1..=l` and every sum value: each block on
    /// its own, and all of them in one circuit, where their first layers
    /// share one bank of repeated thresholds.
    #[test]
    fn every_block_and_sum_value_decode_in_one_512_lane_pass() {
        for k in 1..=8 {
            check_every_sum_value_in_one_wide_pass(&[k]);
        }
        check_every_sum_value_in_one_wide_pass(&[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn duplicate_wires_in_terms_are_merged() {
        // Passing the same wire twice (weights 1 and 2) is equivalent to weight 3.
        let mut alloc = InputAllocator::new();
        let x = alloc.alloc_bit();
        let mut b = CircuitBuilder::new(alloc.num_inputs());
        let bit = kth_most_significant_bit(&mut b, &[(x, 1), (x, 2)], 2, 1).unwrap();
        b.mark_output(bit);
        let c = b.build();
        // s = 3 when x=1, so the 1st MSB of a 2-bit value is 1.
        assert!(c.evaluate(&[true]).unwrap().outputs()[0]);
        assert!(!c.evaluate(&[false]).unwrap().outputs()[0]);
    }
}
