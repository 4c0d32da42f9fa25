//! The linear threshold gate.

use crate::Wire;

/// A linear threshold gate, as a borrowed view into a [`Circuit`](crate::Circuit).
///
/// The gate computes the Boolean function
/// `fire(y) = [ Σ_i w_i · y_i ≥ t ]`
/// over the bits carried by its input wires, where the integer weights `w_i` and the
/// integer threshold `t` are fixed at construction time (they are *parameters of the
/// circuit*, not data).
///
/// This is exactly the McCulloch–Pitts neuron model used by the paper; rational weights
/// can always be scaled to integers, so integer weights lose no generality.
///
/// A circuit stores each weighted sum once, as a shared row, and every gate as a row
/// plus a threshold; a `ThresholdGate` pairs the two. Members of one bank (see
/// [`CircuitBuilder::add_bank`](crate::CircuitBuilder::add_bank)) borrow the same
/// fan-in slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThresholdGate<'a> {
    /// Fan-in: `(wire, weight)` pairs.  Wires are unique within a gate.
    inputs: &'a [(Wire, i64)],
    /// The firing threshold `t`.
    threshold: i64,
}

impl<'a> ThresholdGate<'a> {
    /// Creates a gate view over a fan-in list and a threshold.
    ///
    /// This does not check wire validity against a circuit; use
    /// [`CircuitBuilder::add_gate`](crate::CircuitBuilder::add_gate) for checked
    /// construction.
    pub fn new(inputs: &'a [(Wire, i64)], threshold: i64) -> Self {
        ThresholdGate { inputs, threshold }
    }

    /// The gate's fan-in list as `(wire, weight)` pairs.
    #[inline]
    pub fn inputs(&self) -> &'a [(Wire, i64)] {
        self.inputs
    }

    /// The gate's threshold `t`.
    #[inline]
    pub fn threshold(&self) -> i64 {
        self.threshold
    }

    /// Number of inputs (the gate's fan-in).
    #[inline]
    pub fn fan_in(&self) -> usize {
        self.inputs.len()
    }

    /// The largest absolute weight used by this gate.
    ///
    /// Returned as `u64` so the weight `i64::MIN` (absolute value `2^63`) is
    /// reported exactly instead of being clamped.
    #[inline]
    pub fn max_abs_weight(&self) -> u64 {
        self.inputs
            .iter()
            .map(|(_, w)| w.unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the gate given a resolver from wires to bit values.
    ///
    /// Returns `None` on (extremely unlikely) accumulator overflow.
    #[inline]
    pub fn fire_with<F>(&self, mut value_of: F) -> Option<bool>
    where
        F: FnMut(Wire) -> bool,
    {
        let mut sum: i128 = 0;
        for &(wire, weight) in self.inputs {
            if value_of(wire) {
                sum = sum.checked_add(weight as i128)?;
            }
        }
        Some(sum >= self.threshold as i128)
    }

    /// The sum of all positive weights (the maximum achievable weighted sum).
    pub fn max_sum(&self) -> i128 {
        self.inputs
            .iter()
            .map(|&(_, w)| if w > 0 { w as i128 } else { 0 })
            .sum()
    }

    /// The sum of all negative weights (the minimum achievable weighted sum).
    pub fn min_sum(&self) -> i128 {
        self.inputs
            .iter()
            .map(|&(_, w)| if w < 0 { w as i128 } else { 0 })
            .sum()
    }

    /// Returns `true` if the gate's output is constant (it either always fires or never
    /// fires, regardless of its inputs).
    pub fn is_constant(&self) -> bool {
        self.min_sum() >= self.threshold as i128 || self.max_sum() < self.threshold as i128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn and2() -> ThresholdGate<'static> {
        ThresholdGate::new(&[(Wire::Input(0), 1), (Wire::Input(1), 1)], 2)
    }

    #[test]
    fn and_gate_truth_table() {
        let g = and2();
        let cases = [
            ([false, false], false),
            ([false, true], false),
            ([true, false], false),
            ([true, true], true),
        ];
        for (bits, expected) in cases {
            let out = g
                .fire_with(|w| bits[w.as_input().unwrap()])
                .expect("no overflow");
            assert_eq!(out, expected, "inputs {bits:?}");
        }
    }

    #[test]
    fn or_and_majority_gates() {
        let or = ThresholdGate::new(&[(Wire::Input(0), 1), (Wire::Input(1), 1)], 1);
        assert!(or.fire_with(|w| w == Wire::Input(0)).unwrap());
        assert!(!or.fire_with(|_| false).unwrap());

        let maj3 = ThresholdGate::new(
            &[
                (Wire::Input(0), 1),
                (Wire::Input(1), 1),
                (Wire::Input(2), 1),
            ],
            2,
        );
        assert!(maj3.fire_with(|w| w.as_input().unwrap() < 2).unwrap());
        assert!(!maj3.fire_with(|w| w.as_input().unwrap() < 1).unwrap());
    }

    #[test]
    fn negative_weights_model_not() {
        // NOT(x) = [ -x >= 0 ]
        let not = ThresholdGate::new(&[(Wire::Input(0), -1)], 0);
        assert!(not.fire_with(|_| false).unwrap());
        assert!(!not.fire_with(|_| true).unwrap());
    }

    #[test]
    fn accessors_and_bounds() {
        let g = ThresholdGate::new(&[(Wire::Input(0), 3), (Wire::Input(1), -5)], 2);
        assert_eq!(g.fan_in(), 2);
        assert_eq!(g.threshold(), 2);
        assert_eq!(g.max_abs_weight(), 5);
        assert_eq!(g.max_sum(), 3);
        assert_eq!(g.min_sum(), -5);
        assert!(!g.is_constant());
    }

    #[test]
    fn max_abs_weight_reports_i64_min_exactly() {
        let g = ThresholdGate::new(&[(Wire::Input(0), i64::MIN)], 0);
        assert_eq!(g.max_abs_weight(), 1u64 << 63);
        let g = ThresholdGate::new(&[(Wire::Input(0), i64::MIN), (Wire::Input(1), 7)], 0);
        assert_eq!(g.max_abs_weight(), 1u64 << 63);
    }

    #[test]
    fn constant_gate_detection() {
        // Threshold lower than any achievable sum: always fires.
        let g = ThresholdGate::new(&[(Wire::Input(0), 1)], -1);
        assert!(g.is_constant());
        // Threshold above max sum: never fires.
        let g = ThresholdGate::new(&[(Wire::Input(0), 1)], 2);
        assert!(g.is_constant());
        // Reachable threshold: not constant.
        let g = ThresholdGate::new(&[(Wire::Input(0), 1)], 1);
        assert!(!g.is_constant());
    }
}
