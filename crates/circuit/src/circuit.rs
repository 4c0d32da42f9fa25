//! The immutable, topologically-ordered threshold circuit.

use crate::compiled::CompiledCircuit;
use crate::eval::Evaluation;
use crate::stats::CircuitStats;
use crate::verify::VerifyReport;
use crate::{CircuitError, Result, ThresholdGate, Wire};

/// A feed-forward circuit of [`ThresholdGate`]s over a fixed set of primary inputs.
///
/// Invariants (enforced by [`CircuitBuilder`](crate::CircuitBuilder) and checked by
/// [`Circuit::validate`]):
///
/// * gate `i` only references primary inputs, the constant-one wire, or gates `< i`
///   (the gate list is a topological order);
/// * every designated output wire exists.
///
/// Storage is row-shared: each weighted sum is one CSR *row* of `(Wire, i64)` edges,
/// stored once, and each gate is a `(row, threshold)` pair. The `2^k` thresholds of a
/// Lemma 3.1 block (see [`CircuitBuilder::add_bank`](crate::CircuitBuilder::add_bank))
/// are one row and `2^k` pairs. Every measure reports the source form all the same:
/// [`Circuit::num_edges`], [`Circuit::max_fan_in`] and [`ThresholdGate::fan_in`] count
/// a shared row once per member gate, as if every gate owned its fan-in;
/// [`Circuit::num_stored_edges`] counts the rows once.
///
/// The circuit also stores, for each gate, its *depth*: primary inputs and the
/// constant-one wire have depth 0, and a gate's depth is one more than the maximum
/// depth of its fan-in.  The circuit's depth is the maximum gate depth, which matches
/// the paper's notion of depth (number of gate layers on the longest path).
#[derive(Debug, Clone)]
pub struct Circuit {
    pub(crate) num_inputs: usize,
    /// Row fan-in offsets: the edges of row `r` are
    /// `edges[row_offsets[r]..row_offsets[r + 1]]`.
    pub(crate) row_offsets: Vec<usize>,
    /// Every row's `(wire, weight)` edges, contiguous; sorted by wire and
    /// duplicate-free inside each row.
    pub(crate) edges: Vec<(Wire, i64)>,
    /// `gate_rows[i]` is the row gate `i` sums.
    pub(crate) gate_rows: Vec<u32>,
    /// `thresholds[i]` is gate `i`'s threshold.
    pub(crate) thresholds: Vec<i64>,
    pub(crate) outputs: Vec<Wire>,
    /// `depth[i]` is the depth of gate `i` (1-based from the inputs).
    pub(crate) depths: Vec<u32>,
}

impl Circuit {
    /// Number of primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of gates (the circuit's *size* in the paper's terminology).
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.thresholds.len()
    }

    /// Gate `i` (original id), as a view of its row and threshold.
    ///
    /// # Panics
    /// Panics if `i >= self.num_gates()`.
    #[inline]
    pub fn gate(&self, i: usize) -> ThresholdGate<'_> {
        ThresholdGate::new(self.row(self.gate_rows[i]), self.thresholds[i])
    }

    /// The gates, in topological (creation) order.
    pub fn gates(&self) -> impl ExactSizeIterator<Item = ThresholdGate<'_>> + '_ {
        (0..self.num_gates()).map(|i| self.gate(i))
    }

    /// The edges of row `r`.
    #[inline]
    pub(crate) fn row(&self, r: u32) -> &[(Wire, i64)] {
        let r = r as usize;
        &self.edges[self.row_offsets[r]..self.row_offsets[r + 1]]
    }

    /// Number of stored rows: each distinct weighted sum a bank shares once.
    #[inline]
    pub(crate) fn num_rows(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// The designated output wires, in the order they were marked.
    #[inline]
    pub fn outputs(&self) -> &[Wire] {
        &self.outputs
    }

    /// The depth of a single gate (1 = the gate reads only primary inputs / constants).
    #[inline]
    pub fn gate_depth(&self, gate_index: usize) -> u32 {
        self.depths[gate_index]
    }

    /// The depth of the circuit: the maximum gate depth (0 for a gate-free circuit).
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depths.iter().copied().max().unwrap_or(0)
    }

    /// Total number of edges (sum of all gate fan-ins), a measure of wiring cost.
    /// A row a bank shares counts once per member gate.
    pub fn num_edges(&self) -> usize {
        self.gates().map(|g| g.fan_in()).sum()
    }

    /// Number of `(wire, weight)` edges actually stored: each row once, however
    /// many gates share it. At most [`Circuit::num_edges`], and equal to it when
    /// no two gates share a row.
    #[inline]
    pub fn num_stored_edges(&self) -> usize {
        self.edges.len()
    }

    /// The maximum fan-in over all gates.
    pub fn max_fan_in(&self) -> usize {
        self.gates().map(|g| g.fan_in()).max().unwrap_or(0)
    }

    /// Computes the full set of complexity statistics for this circuit.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats::from_circuit(self)
    }

    /// Checks the structural invariants and reports any violations.
    ///
    /// For circuits that lower cleanly this includes the full compiled-IR
    /// verification of [`crate::verify`] — structural CSR invariants plus
    /// the translation check against this gate list — along with advisory
    /// constant- and dead-gate findings; invalid circuits fall back to
    /// gate-list analyses.
    pub fn validate(&self) -> VerifyReport {
        crate::verify::validate_circuit(self)
    }

    /// Lowers the circuit into its compiled CSR form (see [`CompiledCircuit`]).
    ///
    /// Compilation costs one pass over the edges; callers evaluating the same
    /// circuit more than once should compile once and keep the result.
    ///
    /// Debug builds re-verify every compiled artifact against its source
    /// (translation validation; see [`crate::verify`]) and panic on any
    /// violated invariant — a miscompilation never escapes a debug run.
    pub fn compile(&self) -> Result<CompiledCircuit> {
        let compiled = CompiledCircuit::new(self)?;
        #[cfg(debug_assertions)]
        {
            let report = crate::verify::verify_against(self, &compiled);
            debug_assert!(
                report.is_valid(),
                "compiled-IR verification failed:\n{report}"
            );
        }
        Ok(compiled)
    }

    /// Evaluates the circuit sequentially on the given input bits.
    ///
    /// `inputs[i]` is the value of [`Wire::Input(i)`](Wire).  Returns the values of
    /// every gate plus the designated outputs.
    ///
    /// This compiles on the fly; for repeated evaluation use
    /// [`Circuit::compile`] and [`CompiledCircuit::evaluate`].
    pub fn evaluate(&self, inputs: &[bool]) -> Result<Evaluation> {
        self.check_inputs(inputs)?;
        self.compile()?.evaluate(inputs)
    }

    /// Groups gate indices by depth: element `d` holds the indices of all gates with
    /// depth `d + 1`.  Used by the neuromorphic core mapper.
    pub fn layers(&self) -> Vec<Vec<usize>> {
        let depth = self.depth() as usize;
        let mut layers: Vec<Vec<usize>> = vec![Vec::new(); depth];
        for (i, &d) in self.depths.iter().enumerate() {
            layers[(d - 1) as usize].push(i);
        }
        layers
    }

    fn check_inputs(&self, inputs: &[bool]) -> Result<()> {
        if inputs.len() != self.num_inputs {
            return Err(CircuitError::InputLengthMismatch {
                expected: self.num_inputs,
                actual: inputs.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::assert_arena_matches_scalar;
    use crate::CircuitBuilder;

    /// Builds a full adder (sum and carry of three input bits) out of threshold gates.
    fn full_adder() -> Circuit {
        let mut b = CircuitBuilder::new(3);
        let x = Wire::input(0);
        let y = Wire::input(1);
        let z = Wire::input(2);
        // carry = majority(x, y, z)
        let carry = b.add_gate([(x, 1), (y, 1), (z, 1)], 2).unwrap();
        // sum = x + y + z - 2*carry >= 1  (i.e. the low bit of x+y+z)
        let sum = b
            .add_gate([(x, 1), (y, 1), (z, 1), (carry, -2)], 1)
            .unwrap();
        b.mark_output(sum);
        b.mark_output(carry);
        b.build()
    }

    #[test]
    fn full_adder_is_correct_for_all_inputs() {
        let c = full_adder();
        for bits in 0..8u32 {
            let x = bits & 1 != 0;
            let y = bits & 2 != 0;
            let z = bits & 4 != 0;
            let expected = (x as u32) + (y as u32) + (z as u32);
            let ev = c.evaluate(&[x, y, z]).unwrap();
            let sum = ev.outputs()[0] as u32;
            let carry = ev.outputs()[1] as u32;
            assert_eq!(2 * carry + sum, expected, "inputs {bits:03b}");
        }
    }

    #[test]
    fn depth_and_size_measures() {
        let c = full_adder();
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.depth(), 2);
        assert_eq!(c.gate_depth(0), 1);
        assert_eq!(c.gate_depth(1), 2);
        assert_eq!(c.num_edges(), 3 + 4);
        assert_eq!(c.max_fan_in(), 4);
        assert_eq!(c.num_inputs(), 3);
    }

    #[test]
    fn layers_group_gates_by_depth() {
        let c = full_adder();
        let layers = c.layers();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0], vec![0]);
        assert_eq!(layers[1], vec![1]);
    }

    #[test]
    fn evaluate_rejects_wrong_input_length() {
        let c = full_adder();
        let err = c.evaluate(&[true, false]).unwrap_err();
        assert_eq!(
            err,
            CircuitError::InputLengthMismatch {
                expected: 3,
                actual: 2
            }
        );
    }

    #[test]
    fn arena_kernel_matches_sequential_on_full_adder() {
        let rows: Vec<[bool; 3]> = (0..8u32)
            .map(|bits| [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0])
            .collect();
        assert_arena_matches_scalar(&full_adder().compile().unwrap(), &rows);
    }

    #[test]
    fn empty_circuit_has_zero_depth() {
        let b = CircuitBuilder::new(4);
        let c = b.build();
        assert_eq!(c.depth(), 0);
        assert_eq!(c.num_gates(), 0);
        assert!(c.layers().is_empty());
        assert!(c.evaluate(&[false; 4]).unwrap().outputs().is_empty());
    }
}
