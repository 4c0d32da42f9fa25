//! Evaluation results.
//!
//! The evaluators themselves live in [`crate::compiled`] and `arena.rs`:
//! the scalar oracle and the bit-sliced arena kernel both run off the CSR
//! form produced by [`Circuit::compile`](crate::Circuit::compile). The
//! convenience method [`Circuit::evaluate`](crate::Circuit::evaluate)
//! compiles on the fly; callers that evaluate the same circuit repeatedly
//! should compile once and reuse the
//! [`CompiledCircuit`](crate::CompiledCircuit).

use crate::{CircuitError, Result};

/// The result of evaluating a circuit on a concrete input assignment.
///
/// Holds the value of every gate (useful for energy accounting — a gate "fires" exactly
/// when its value is `1`) as well as the values on the designated output wires.
///
/// An empty (default) evaluation is a valid *shell*: response pools recycle
/// shells and refill them in place via
/// [`ArenaEvaluation::evaluation_into`](crate::ArenaEvaluation::evaluation_into),
/// reusing the buffers' capacity instead of reallocating per request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Evaluation {
    gate_values: Vec<bool>,
    outputs: Vec<bool>,
}

impl Evaluation {
    pub(crate) fn from_parts(gate_values: Vec<bool>, outputs: Vec<bool>) -> Self {
        Evaluation {
            gate_values,
            outputs,
        }
    }

    /// Mutable access to `(gate_values, outputs)` for in-place refills of a
    /// recycled shell (the arena writer clears and re-extends both, keeping
    /// their capacity).
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<bool>, &mut Vec<bool>) {
        (&mut self.gate_values, &mut self.outputs)
    }

    /// The values of the designated outputs, in marking order.
    #[inline]
    pub fn outputs(&self) -> &[bool] {
        &self.outputs
    }

    /// The value of output `i`.
    pub fn output(&self, i: usize) -> Result<bool> {
        self.outputs
            .get(i)
            .copied()
            .ok_or(CircuitError::OutputIndexOutOfRange {
                index: i,
                len: self.outputs.len(),
            })
    }

    /// The value computed by every gate, indexed by gate number.
    #[inline]
    pub fn gate_values(&self) -> &[bool] {
        &self.gate_values
    }

    /// Number of gates that fired (output value 1).
    ///
    /// This is the *energy* of the evaluation under the model of Uchizawa, Douglas and
    /// Maass (cited in the paper's open problems): one unit of energy per firing gate.
    pub fn firing_count(&self) -> usize {
        self.gate_values.iter().filter(|&&v| v).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::assert_arena_matches_scalar;
    use crate::{Circuit, CircuitBuilder, Wire};

    /// Builds a layer of pairwise OR gates feeding one majority gate.
    fn build_mixed_circuit(width: usize) -> Circuit {
        let mut b = CircuitBuilder::new(width);
        let mut layer1 = Vec::new();
        for i in 0..width {
            let g = b
                .add_gate([(Wire::input(i), 1), (Wire::input((i + 1) % width), 1)], 1)
                .unwrap();
            layer1.push(g);
        }
        // A single output gate: majority over the first layer.
        let maj = b
            .add_gate(
                layer1.iter().map(|&w| (w, 1)).collect::<Vec<_>>(),
                (width as i64 + 1) / 2,
            )
            .unwrap();
        b.mark_output(maj);
        b.build()
    }

    #[test]
    fn scalar_and_arena_agree_on_random_inputs() {
        let width = 40;
        let c = build_mixed_circuit(width);
        // Deterministic pseudo-random inputs (xorshift) — no rand dependency needed.
        let mut state: u64 = 0x2545F4914F6CDD1D;
        let rows: Vec<Vec<bool>> = (0..50)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state & 1 == 1
                    })
                    .collect()
            })
            .collect();
        assert_arena_matches_scalar(&c.compile().unwrap(), &rows);
    }

    #[test]
    fn firing_count_counts_ones() {
        let mut b = CircuitBuilder::new(1);
        let x = Wire::input(0);
        let fires = b.add_gate([(x, 1)], 1).unwrap(); // = x
        let never = b.add_gate([(x, 1)], 2).unwrap(); // constant 0
        let always = b.add_gate([(x, 1)], 0).unwrap(); // constant 1
        b.mark_outputs([fires, never, always]);
        let c = b.build();
        let ev = c.evaluate(&[true]).unwrap();
        assert_eq!(ev.firing_count(), 2);
        let ev = c.evaluate(&[false]).unwrap();
        assert_eq!(ev.firing_count(), 1);
    }

    #[test]
    fn output_accessor_bounds_check() {
        let mut b = CircuitBuilder::new(1);
        let g = b.add_gate([(Wire::input(0), 1)], 1).unwrap();
        b.mark_output(g);
        let c = b.build();
        let ev = c.evaluate(&[true]).unwrap();
        assert!(ev.output(0).unwrap());
        assert!(matches!(
            ev.output(1),
            Err(CircuitError::OutputIndexOutOfRange { index: 1, len: 1 })
        ));
    }

    #[test]
    fn outputs_may_reference_inputs_directly() {
        let mut b = CircuitBuilder::new(2);
        b.mark_output(Wire::input(1));
        b.mark_output(Wire::One);
        let c = b.build();
        let ev = c.evaluate(&[false, true]).unwrap();
        assert_eq!(ev.outputs(), &[true, true]);
    }
}
