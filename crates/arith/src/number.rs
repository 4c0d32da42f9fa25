//! Number encodings used inside threshold circuits.

use crate::{ArithError, Result};
use tc_circuit::{CircuitBuilder, Evaluation, Wire};

/// Resolves the value carried by a wire, given the circuit inputs and an evaluation.
pub(crate) fn wire_value(wire: Wire, inputs: &[bool], ev: &Evaluation) -> bool {
    match wire {
        Wire::Input(i) => inputs[i as usize],
        Wire::Gate(g) => ev.gate_values()[g as usize],
        Wire::One => true,
    }
}

/// A nonnegative integer stored as a little-endian vector of wires (bit 0 first).
///
/// The value of a `UInt` with bits `b_0, …, b_{w−1}` is `Σ 2^i · b_i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UInt {
    bits: Vec<Wire>,
}

impl UInt {
    /// Maximum supported width in bits (keeps `2^i` weights inside `i64`).
    pub const MAX_WIDTH: usize = 62;

    /// Wraps an existing little-endian list of wires.
    ///
    /// # Panics
    /// Panics if the width exceeds [`UInt::MAX_WIDTH`].
    pub fn from_wires(bits: Vec<Wire>) -> Self {
        assert!(
            bits.len() <= Self::MAX_WIDTH,
            "UInt width {} exceeds the supported maximum {}",
            bits.len(),
            Self::MAX_WIDTH
        );
        UInt { bits }
    }

    /// Width in bits.
    #[inline]
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The bit wires, least significant first.
    #[inline]
    pub fn bits(&self) -> &[Wire] {
        &self.bits
    }

    /// Largest value this width can hold (`2^width − 1`).
    #[inline]
    pub fn max_value(&self) -> i128 {
        (1i128 << self.bits.len()) - 1
    }

    /// The number as a [`Repr`]: bit `i` with weight `2^i`.
    pub fn to_repr(&self) -> Repr {
        Repr::from_terms(
            self.bits
                .iter()
                .enumerate()
                .map(|(i, &w)| (w, 1i64 << i))
                .collect(),
        )
    }

    /// Reads the value of this number from an evaluated circuit.
    pub fn value(&self, inputs: &[bool], ev: &Evaluation) -> u64 {
        let mut v = 0u64;
        for (i, &w) in self.bits.iter().enumerate() {
            if wire_value(w, inputs, ev) {
                v |= 1 << i;
            }
        }
        v
    }

    /// Writes the bits of `value` into the input-bit vector `into`.
    ///
    /// Only valid for numbers whose wires are all primary inputs (e.g. those returned by
    /// [`InputAllocator`](crate::InputAllocator)).
    pub fn assign(&self, value: u64, into: &mut [bool]) -> Result<()> {
        if self.width() < 64 && value >= (1u64 << self.width()) {
            return Err(ArithError::ValueOutOfRange {
                value: value as i128,
                bits: self.width(),
            });
        }
        for (i, &w) in self.bits.iter().enumerate() {
            let idx = w.as_input().ok_or(ArithError::NotAnInputNumber)?;
            into[idx] = (value >> i) & 1 == 1;
        }
        Ok(())
    }

    /// Marks every bit of this number as a circuit output (LSB first).
    pub fn mark_as_outputs(&self, builder: &mut CircuitBuilder) {
        builder.mark_outputs(self.bits.iter().copied());
    }

    /// Reads this number from a circuit's designated output values, in the
    /// order [`UInt::mark_as_outputs`] marks them: consumes the first
    /// `width()` values of `outputs` (LSB first) and advances the slice past
    /// them.
    ///
    /// # Panics
    /// Panics if fewer than `width()` values remain.
    pub fn read_outputs(&self, outputs: &mut &[bool]) -> u64 {
        let (bits, rest) = outputs.split_at(self.width());
        *outputs = rest;
        bits.iter().rev().fold(0, |v, &b| v << 1 | u64::from(b))
    }
}

/// A (possibly negative) integer in the paper's `x = x⁺ − x⁻` encoding: a pair of
/// nonnegative numbers, each stored as a [`UInt`].
///
/// The paper (Section 3, "Negative numbers") chooses this encoding for its simplicity;
/// it costs a constant factor in gates and wires.  A value is *not* required to have a
/// canonical encoding: `5` may be stored as `(5, 0)` or `(8, 3)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedInt {
    pos: UInt,
    neg: UInt,
}

impl SignedInt {
    /// Builds a signed number from its positive and negative parts.
    pub fn new(pos: UInt, neg: UInt) -> Self {
        SignedInt { pos, neg }
    }

    /// The positive part `x⁺`.
    #[inline]
    pub fn pos(&self) -> &UInt {
        &self.pos
    }

    /// The negative part `x⁻`.
    #[inline]
    pub fn neg(&self) -> &UInt {
        &self.neg
    }

    /// Width in bits of the wider of the two parts ("a number requires at most b bits"
    /// in the paper means each of `x⁺`, `x⁻` requires at most `b` bits).
    #[inline]
    pub fn width(&self) -> usize {
        self.pos.width().max(self.neg.width())
    }

    /// Bound on the magnitude of the value: `max(x⁺) `.
    #[inline]
    pub fn magnitude_bound(&self) -> i128 {
        self.pos.max_value().max(self.neg.max_value())
    }

    /// The number as a signed [`Repr`]: positive-part bits with weights `+2^i`,
    /// negative-part bits with weights `−2^i`.
    pub fn to_repr(&self) -> Repr {
        let mut terms: Vec<(Wire, i64)> = self
            .pos
            .bits()
            .iter()
            .enumerate()
            .map(|(i, &w)| (w, 1i64 << i))
            .collect();
        terms.extend(
            self.neg
                .bits()
                .iter()
                .enumerate()
                .map(|(i, &w)| (w, -(1i64 << i))),
        );
        Repr::from_terms(terms)
    }

    /// Reads the signed value from an evaluated circuit.
    pub fn value(&self, inputs: &[bool], ev: &Evaluation) -> i64 {
        self.pos.value(inputs, ev) as i64 - self.neg.value(inputs, ev) as i64
    }

    /// Writes `value` into the input-bit vector: positive values go to the positive
    /// part, negative values to the negative part (the other part is zeroed).
    pub fn assign(&self, value: i64, into: &mut [bool]) -> Result<()> {
        if value >= 0 {
            self.pos.assign(value as u64, into)?;
            self.neg.assign(0, into)
        } else {
            self.pos.assign(0, into)?;
            self.neg.assign(value.unsigned_abs(), into)
        }
    }

    /// Marks both parts as circuit outputs (positive part first, each LSB first).
    pub fn mark_as_outputs(&self, builder: &mut CircuitBuilder) {
        self.pos.mark_as_outputs(builder);
        self.neg.mark_as_outputs(builder);
    }

    /// Number of designated outputs [`SignedInt::mark_as_outputs`] marks:
    /// both parts' widths.
    #[inline]
    pub fn output_width(&self) -> usize {
        self.pos.width() + self.neg.width()
    }

    /// Reads the signed value from a circuit's designated output values, in
    /// the order [`SignedInt::mark_as_outputs`] marks them: consumes
    /// [`SignedInt::output_width`] values from the front of `outputs` and
    /// advances the slice past them.
    ///
    /// # Panics
    /// Panics if fewer than `output_width()` values remain.
    pub fn read_outputs(&self, outputs: &mut &[bool]) -> i64 {
        let pos = self.pos.read_outputs(outputs);
        let neg = self.neg.read_outputs(outputs);
        pos as i64 - neg as i64
    }
}

/// An integer written as an integer-weighted sum of binary wires — the paper's
/// *representation* of a number (Section 3, before Lemma 3.3).
///
/// Unlike [`UInt`] / [`SignedInt`] this is not a positional encoding; different terms
/// may carry the same power of two, and weights may be negative.  Representations are
/// produced by the product circuits (Lemma 3.3) and consumed either by further threshold
/// gates (e.g. the final comparison of the trace circuit) or by
/// [`repr_to_binary`](crate::repr_to_binary) / [`repr_to_signed`](crate::repr_to_signed).
///
/// Combining representations by addition or scaling by a constant is free: it costs no
/// gates, only bookkeeping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Repr {
    terms: Vec<(Wire, i64)>,
}

impl Repr {
    /// The empty representation (value 0).
    pub fn zero() -> Self {
        Repr { terms: Vec::new() }
    }

    /// A constant representation: `value · 1` on the constant-one wire.
    pub fn constant(value: i64) -> Self {
        if value == 0 {
            Repr::zero()
        } else {
            Repr {
                terms: vec![(Wire::One, value)],
            }
        }
    }

    /// Builds a representation from raw `(wire, weight)` terms.
    pub fn from_terms(terms: Vec<(Wire, i64)>) -> Self {
        Repr { terms }
    }

    /// The `(wire, weight)` terms.
    #[inline]
    pub fn terms(&self) -> &[(Wire, i64)] {
        &self.terms
    }

    /// Number of terms.
    #[inline]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// `true` when the representation has no terms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Upper bound on the represented value (sum of positive weights).
    pub fn max_value(&self) -> i128 {
        self.terms
            .iter()
            .map(|&(_, w)| if w > 0 { w as i128 } else { 0 })
            .sum()
    }

    /// Lower bound on the represented value (sum of negative weights).
    pub fn min_value(&self) -> i128 {
        self.terms
            .iter()
            .map(|&(_, w)| if w < 0 { w as i128 } else { 0 })
            .sum()
    }

    /// Adds another representation (no gates are created).
    pub fn add(&mut self, other: &Repr) {
        self.terms.extend_from_slice(&other.terms);
    }

    /// Returns `self + other` (no gates are created).
    #[must_use]
    pub fn plus(&self, other: &Repr) -> Repr {
        let mut r = self.clone();
        r.add(other);
        r
    }

    /// Scales every weight by `factor`, checking for `i64` overflow.
    pub fn scale(&self, factor: i64) -> Result<Repr> {
        if factor == 0 {
            return Ok(Repr::zero());
        }
        let mut terms = Vec::with_capacity(self.terms.len());
        for &(w, c) in &self.terms {
            let scaled = c
                .checked_mul(factor)
                .ok_or(ArithError::BoundTooWide { required_bits: 64 })?;
            terms.push((w, scaled));
        }
        Ok(Repr { terms })
    }

    /// Merges terms that reference the same wire and drops zero weights.  Optional —
    /// semantics are unchanged — but it reduces the fan-in of gates that consume the
    /// representation.
    #[must_use]
    pub fn compacted(&self) -> Repr {
        let mut map: std::collections::HashMap<Wire, i64> = std::collections::HashMap::new();
        for &(w, c) in &self.terms {
            *map.entry(w).or_insert(0) += c;
        }
        let mut terms: Vec<(Wire, i64)> = map.into_iter().filter(|&(_, c)| c != 0).collect();
        terms.sort_unstable_by_key(|&(w, _)| w);
        Repr { terms }
    }

    /// Reads the represented value from an evaluated circuit.
    pub fn value(&self, inputs: &[bool], ev: &Evaluation) -> i128 {
        self.terms
            .iter()
            .map(|&(w, c)| {
                if wire_value(w, inputs, ev) {
                    c as i128
                } else {
                    0
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InputAllocator;
    use tc_circuit::CircuitBuilder;

    #[test]
    fn uint_value_roundtrip() {
        let mut alloc = InputAllocator::new();
        let x = alloc.alloc_uint(6);
        let b = CircuitBuilder::new(alloc.num_inputs());
        let c = b.build();
        let mut bits = vec![false; c.num_inputs()];
        for v in [0u64, 1, 5, 33, 63] {
            x.assign(v, &mut bits).unwrap();
            let ev = c.evaluate(&bits).unwrap();
            assert_eq!(x.value(&bits, &ev), v);
        }
        assert!(x.assign(64, &mut bits).is_err());
    }

    #[test]
    fn signed_value_roundtrip() {
        let mut alloc = InputAllocator::new();
        let x = alloc.alloc_signed(5);
        let c = CircuitBuilder::new(alloc.num_inputs()).build();
        let mut bits = vec![false; c.num_inputs()];
        for v in [-31i64, -1, 0, 1, 17, 31] {
            x.assign(v, &mut bits).unwrap();
            let ev = c.evaluate(&bits).unwrap();
            assert_eq!(x.value(&bits, &ev), v);
        }
        assert!(x.assign(32, &mut bits).is_err());
        assert!(x.assign(-32, &mut bits).is_err());
    }

    #[test]
    fn read_outputs_follows_the_marking_order() {
        // Parts of different widths, marked back to back: every value must
        // come back from the output slice exactly as from the wires.
        let mut alloc = InputAllocator::new();
        let x = SignedInt::new(alloc.alloc_uint(3), alloc.alloc_uint(5));
        let y = alloc.alloc_signed(2);
        let mut b = CircuitBuilder::new(alloc.num_inputs());
        x.mark_as_outputs(&mut b);
        y.mark_as_outputs(&mut b);
        let c = b.build();
        assert_eq!(c.outputs().len(), x.output_width() + y.output_width());
        let mut bits = vec![false; c.num_inputs()];
        for (vx, vy) in [(-31i64, 3i64), (7, -3), (0, 0), (-1, 1)] {
            x.assign(vx, &mut bits).unwrap();
            y.assign(vy, &mut bits).unwrap();
            let ev = c.evaluate(&bits).unwrap();
            let mut outputs = ev.outputs();
            assert_eq!(x.read_outputs(&mut outputs), vx);
            assert_eq!(y.read_outputs(&mut outputs), vy);
            assert!(outputs.is_empty());
            assert_eq!(
                x.pos().read_outputs(&mut ev.outputs()),
                x.pos().value(&bits, &ev)
            );
        }
    }

    #[test]
    fn repr_bounds_and_value() {
        let mut alloc = InputAllocator::new();
        let x = alloc.alloc_uint(3);
        let c = CircuitBuilder::new(alloc.num_inputs()).build();
        let mut bits = vec![false; c.num_inputs()];
        x.assign(5, &mut bits).unwrap();
        let ev = c.evaluate(&bits).unwrap();

        let r = x.to_repr();
        assert_eq!(r.value(&bits, &ev), 5);
        assert_eq!(r.max_value(), 7);
        assert_eq!(r.min_value(), 0);

        let s = r.scale(-3).unwrap();
        assert_eq!(s.value(&bits, &ev), -15);
        assert_eq!(s.max_value(), 0);
        assert_eq!(s.min_value(), -21);

        let both = r.plus(&s);
        assert_eq!(both.value(&bits, &ev), 5 - 15);

        let constant = Repr::constant(11);
        assert_eq!(constant.value(&bits, &ev), 11);
        assert!(Repr::constant(0).is_empty());
    }

    #[test]
    fn signed_to_repr_matches_value() {
        let mut alloc = InputAllocator::new();
        let x = alloc.alloc_signed(4);
        let c = CircuitBuilder::new(alloc.num_inputs()).build();
        let mut bits = vec![false; c.num_inputs()];
        for v in [-15i64, -7, 0, 9, 15] {
            x.assign(v, &mut bits).unwrap();
            let ev = c.evaluate(&bits).unwrap();
            assert_eq!(x.to_repr().value(&bits, &ev), v as i128);
        }
    }

    #[test]
    fn compaction_merges_duplicate_wires() {
        let w = Wire::input(0);
        let r = Repr::from_terms(vec![(w, 3), (w, -1), (Wire::One, 2), (Wire::input(1), 0)]);
        let c = r.compacted();
        assert_eq!(c.len(), 2);
        assert!(c.terms().contains(&(w, 2)));
        assert!(c.terms().contains(&(Wire::One, 2)));
    }

    #[test]
    fn scale_detects_overflow() {
        let r = Repr::from_terms(vec![(Wire::input(0), i64::MAX / 2 + 1)]);
        assert!(r.scale(2).is_err());
        assert!(r.scale(1).is_ok());
        assert!(r.scale(0).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the supported maximum")]
    fn uint_width_limit_enforced() {
        let _ = UInt::from_wires((0..63).map(Wire::input).collect());
    }
}
