//! Checked, incremental construction of threshold circuits.

use crate::{Circuit, CircuitError, Result, Wire};
use std::collections::HashMap;

/// Whether the builder should merge structurally identical gates.
///
/// Two gates are structurally identical when they have the same (wire, weight) fan-in
/// list (order-insensitive; the builder canonicalises by sorting) and the same
/// threshold.  Deduplication never changes the function computed by the circuit, only
/// its size, and is disabled by default so that gate counts match the paper's
/// constructions exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupPolicy {
    /// Keep every gate that is added (paper-faithful gate counts).
    #[default]
    KeepDuplicates,
    /// Return the existing wire when an identical gate has already been added.
    MergeStructural,
}

/// Incremental builder for [`Circuit`]s.
///
/// The builder enforces the topological-order invariant: a gate can only reference
/// primary inputs, the constant-one wire, and gates added before it.
///
/// Every call stores its weighted sum once, as one row of the circuit, and each gate
/// as that row plus a threshold: [`CircuitBuilder::add_bank`] puts many thresholds on
/// one row, and [`CircuitBuilder::add_gate`] / [`CircuitBuilder::add_gate_merged`]
/// are one-member banks.
///
/// ```
/// use tc_circuit::{CircuitBuilder, Wire};
/// let mut b = CircuitBuilder::new(2);
/// let or = b.add_gate([(Wire::input(0), 1), (Wire::input(1), 1)], 1).unwrap();
/// b.mark_output(or);
/// let circuit = b.build();
/// assert_eq!(circuit.num_gates(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    /// The circuit under construction; rows and gates are appended in place.
    circuit: Circuit,
    dedup: DedupPolicy,
    /// The row being added, before it is checked and stored.
    staged: Vec<(Wire, i64)>,
    /// `MergeStructural` only: row contents → row id.
    seen_rows: HashMap<Vec<(Wire, i64)>, u32>,
    /// `MergeStructural` only: (row, threshold) → gate id.
    seen_gates: HashMap<(u32, i64), u32>,
}

impl CircuitBuilder {
    /// Creates a builder for a circuit over `num_inputs` primary inputs.
    pub fn new(num_inputs: usize) -> Self {
        CircuitBuilder {
            circuit: Circuit {
                num_inputs,
                row_offsets: vec![0],
                edges: Vec::new(),
                gate_rows: Vec::new(),
                thresholds: Vec::new(),
                outputs: Vec::new(),
                depths: Vec::new(),
            },
            dedup: DedupPolicy::KeepDuplicates,
            staged: Vec::new(),
            seen_rows: HashMap::new(),
            seen_gates: HashMap::new(),
        }
    }

    /// Creates a builder with an explicit deduplication policy.
    pub fn with_dedup(num_inputs: usize, dedup: DedupPolicy) -> Self {
        CircuitBuilder {
            dedup,
            ..CircuitBuilder::new(num_inputs)
        }
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.circuit.num_inputs
    }

    /// Number of gates added so far.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.circuit.num_gates()
    }

    /// Depth of the (partial) circuit built so far.
    #[inline]
    pub fn current_depth(&self) -> u32 {
        self.circuit.depth()
    }

    /// Depth of an arbitrary wire: 0 for inputs and the constant-one wire, the gate's
    /// depth for gate wires.
    pub fn wire_depth(&self, wire: Wire) -> u32 {
        match wire {
            Wire::Input(_) | Wire::One => 0,
            Wire::Gate(i) => self.circuit.depths.get(i as usize).copied().unwrap_or(0),
        }
    }

    /// Adds a threshold gate with the given fan-in and threshold and returns its output
    /// wire.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::EmptyFanIn`] if `inputs` is empty;
    /// * [`CircuitError::DanglingWire`] if any referenced wire does not exist yet;
    /// * [`CircuitError::DuplicateFanIn`] if the same wire appears twice (callers should
    ///   combine weights instead).
    ///
    /// On error the builder is left unchanged.
    pub fn add_gate<I>(&mut self, inputs: I, threshold: i64) -> Result<Wire>
    where
        I: IntoIterator<Item = (Wire, i64)>,
    {
        let staged = &mut self.staged;
        staged.clear();
        staged.extend(inputs);
        if staged.is_empty() {
            return Err(CircuitError::EmptyFanIn);
        }
        // Canonical order, also used for duplicate detection and structural dedup.
        staged.sort_unstable_by_key(|&(w, _)| w);
        if let Some(pair) = staged.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(CircuitError::DuplicateFanIn { wire: pair[0].0 });
        }
        let mut out = Wire::One;
        self.add_staged(Some(threshold), |w| out = w)?;
        Ok(out)
    }

    /// Adds a gate that combines weighted *wire sums*: convenience wrapper that accepts
    /// weights accumulated in a map-like slice and merges duplicate wires by summing
    /// their weights (dropping zero weights). A one-member
    /// [`CircuitBuilder::add_bank`].
    ///
    /// This is the entry point used by the arithmetic constructions, where the same wire
    /// naturally appears several times in a linear combination.
    pub fn add_gate_merged<I>(&mut self, inputs: I, threshold: i64) -> Result<Wire>
    where
        I: IntoIterator<Item = (Wire, i64)>,
    {
        self.stage_merged(inputs);
        let mut out = Wire::One;
        self.add_staged(Some(threshold), |w| out = w)?;
        Ok(out)
    }

    /// Adds a *bank*: one gate `[S ≥ t]` per threshold `t`, all over the one weighted
    /// sum `S = Σ terms`, and returns their output wires in threshold order. The
    /// paper's Lemma 3.1/3.2 blocks are banks.
    ///
    /// The terms are merged as in [`CircuitBuilder::add_gate_merged`] (duplicate
    /// wires summed, zero weights dropped), sorted and checked once, and stored once
    /// as a row every member shares. Terms that merge to nothing make every member a
    /// constant gate `[0 ≥ t]` over the constant-one wire. An empty threshold list
    /// adds nothing and returns no wires.
    ///
    /// # Errors
    ///
    /// [`CircuitError::DanglingWire`] if any referenced wire does not exist yet; the
    /// builder is then left unchanged.
    pub fn add_bank<I, T>(&mut self, terms: I, thresholds: T) -> Result<Vec<Wire>>
    where
        I: IntoIterator<Item = (Wire, i64)>,
        T: IntoIterator<Item = i64>,
    {
        self.stage_merged(terms);
        let mut out = Vec::new();
        self.add_staged(thresholds, |w| out.push(w))?;
        Ok(out)
    }

    /// Marks a wire as a circuit output.  Outputs may be marked multiple times and in
    /// any order; they are reported in marking order.
    pub fn mark_output(&mut self, wire: Wire) {
        self.circuit.outputs.push(wire);
    }

    /// Marks several output wires at once.
    pub fn mark_outputs<I: IntoIterator<Item = Wire>>(&mut self, wires: I) {
        self.circuit.outputs.extend(wires);
    }

    /// Finishes construction and returns the immutable circuit.
    pub fn build(self) -> Circuit {
        self.circuit
    }

    /// Stages `terms` merged: sorted by wire, duplicate wires summed, zero
    /// weights dropped, and `(One, 0)` if nothing is left.
    fn stage_merged<I>(&mut self, terms: I)
    where
        I: IntoIterator<Item = (Wire, i64)>,
    {
        let staged = &mut self.staged;
        staged.clear();
        staged.extend(terms);
        staged.sort_unstable_by_key(|&(w, _)| w);
        staged.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        staged.retain(|&(_, w)| w != 0);
        if staged.is_empty() {
            // The linear form is identically zero; the gate fires iff 0 >= threshold,
            // which is a constant.  Represent it with the constant-one wire so the
            // result is still a valid gate.
            staged.push((Wire::One, 0));
        }
    }

    /// Checks the staged row (sorted, duplicate-free) and adds one gate per
    /// threshold on it, reporting each gate's wire to `emit`. The row is stored
    /// once, and only if some gate reads it; on error nothing is added.
    fn add_staged<T>(&mut self, thresholds: T, mut emit: impl FnMut(Wire)) -> Result<()>
    where
        T: IntoIterator<Item = i64>,
    {
        let c = &mut self.circuit;
        let mut depth = 0u32;
        for &(wire, _) in &self.staged {
            let wire_depth = match wire {
                Wire::Input(i) if (i as usize) < c.num_inputs => Some(0),
                Wire::Gate(i) => c.depths.get(i as usize).copied(),
                Wire::One => Some(0),
                Wire::Input(_) => None,
            };
            match wire_depth {
                Some(d) => depth = depth.max(d),
                None => {
                    return Err(CircuitError::DanglingWire {
                        wire,
                        num_inputs: c.num_inputs,
                        num_gates: c.num_gates(),
                    })
                }
            }
        }

        let merge = self.dedup == DedupPolicy::MergeStructural;
        let fresh = c.num_rows() as u32;
        let row = if merge {
            self.seen_rows.get(&self.staged).copied().unwrap_or(fresh)
        } else {
            fresh
        };
        let gates_before = c.num_gates();
        for threshold in thresholds {
            if merge {
                if let Some(&g) = self.seen_gates.get(&(row, threshold)) {
                    emit(Wire::Gate(g));
                    continue;
                }
            }
            let g = c.num_gates() as u32;
            c.gate_rows.push(row);
            c.thresholds.push(threshold);
            c.depths.push(depth + 1);
            if merge {
                self.seen_gates.insert((row, threshold), g);
            }
            emit(Wire::Gate(g));
        }
        if row == fresh && c.num_gates() > gates_before {
            c.edges.extend_from_slice(&self.staged);
            c.row_offsets.push(c.edges.len());
            if merge {
                self.seen_rows.insert(self.staged.clone(), fresh);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_fan_in() {
        let mut b = CircuitBuilder::new(1);
        assert_eq!(b.add_gate([], 0).unwrap_err(), CircuitError::EmptyFanIn);
    }

    #[test]
    fn rejects_unknown_input_wire() {
        let mut b = CircuitBuilder::new(2);
        let err = b.add_gate([(Wire::input(2), 1)], 1).unwrap_err();
        assert!(matches!(err, CircuitError::DanglingWire { .. }));
    }

    #[test]
    fn rejects_forward_gate_reference() {
        let mut b = CircuitBuilder::new(1);
        let err = b.add_gate([(Wire::gate(0), 1)], 1).unwrap_err();
        assert!(matches!(err, CircuitError::DanglingWire { .. }));
    }

    #[test]
    fn rejects_duplicate_wire_in_fan_in() {
        let mut b = CircuitBuilder::new(1);
        let err = b
            .add_gate([(Wire::input(0), 1), (Wire::input(0), 2)], 1)
            .unwrap_err();
        assert_eq!(
            err,
            CircuitError::DuplicateFanIn {
                wire: Wire::input(0)
            }
        );
    }

    #[test]
    fn merged_gate_combines_weights() {
        let mut b = CircuitBuilder::new(1);
        let w = b
            .add_gate_merged([(Wire::input(0), 1), (Wire::input(0), 2)], 3)
            .unwrap();
        let c = {
            let mut b = b;
            b.mark_output(w);
            b.build()
        };
        // merged weight 3 with threshold 3: fires iff x = 1.
        assert_eq!(c.evaluate(&[true]).unwrap().outputs(), &[true]);
        assert_eq!(c.evaluate(&[false]).unwrap().outputs(), &[false]);
        assert_eq!(c.gate(0).fan_in(), 1);
    }

    #[test]
    fn merged_gate_with_all_zero_weights_becomes_constant() {
        let mut b = CircuitBuilder::new(1);
        let w = b
            .add_gate_merged([(Wire::input(0), 1), (Wire::input(0), -1)], 0)
            .unwrap();
        b.mark_output(w);
        let c = b.build();
        // 0 >= 0 is always true.
        assert_eq!(c.evaluate(&[false]).unwrap().outputs(), &[true]);
        assert_eq!(c.evaluate(&[true]).unwrap().outputs(), &[true]);
    }

    #[test]
    fn depth_tracking_follows_longest_path() {
        let mut b = CircuitBuilder::new(1);
        let x = Wire::input(0);
        let g1 = b.add_gate([(x, 1)], 1).unwrap();
        let g2 = b.add_gate([(g1, 1)], 1).unwrap();
        let g3 = b.add_gate([(x, 1), (g2, 1)], 1).unwrap();
        assert_eq!(b.wire_depth(x), 0);
        assert_eq!(b.wire_depth(g1), 1);
        assert_eq!(b.wire_depth(g2), 2);
        assert_eq!(b.wire_depth(g3), 3);
        assert_eq!(b.current_depth(), 3);
    }

    #[test]
    fn dedup_merges_identical_gates_only_when_enabled() {
        let make = |policy| {
            let mut b = CircuitBuilder::with_dedup(2, policy);
            let g1 = b
                .add_gate([(Wire::input(0), 1), (Wire::input(1), 1)], 2)
                .unwrap();
            // Same gate, fan-in given in the opposite order.
            let g2 = b
                .add_gate([(Wire::input(1), 1), (Wire::input(0), 1)], 2)
                .unwrap();
            (g1, g2, b.num_gates())
        };
        let (g1, g2, n) = make(DedupPolicy::MergeStructural);
        assert_eq!(g1, g2);
        assert_eq!(n, 1);
        let (g1, g2, n) = make(DedupPolicy::KeepDuplicates);
        assert_ne!(g1, g2);
        assert_eq!(n, 2);
    }

    #[test]
    fn constant_one_wire_is_always_available() {
        let mut b = CircuitBuilder::new(0);
        let g = b.add_gate([(Wire::One, 1)], 1).unwrap();
        b.mark_output(g);
        let c = b.build();
        assert_eq!(c.evaluate(&[]).unwrap().outputs(), &[true]);
    }
    #[test]
    fn bank_shares_one_row_among_its_members() {
        let mut b = CircuitBuilder::new(2);
        let (x, y) = (Wire::input(0), Wire::input(1));
        // x + 2y with x listed twice: merged to 2x + 2y.
        let bank = b.add_bank([(x, 1), (y, 2), (x, 1)], [2, 4]).unwrap();
        assert_eq!(bank, vec![Wire::gate(0), Wire::gate(1)]);
        b.mark_outputs(bank);
        let c = b.build();
        assert_eq!(c.num_stored_edges(), 2);
        assert_eq!(c.num_edges(), 4);
        assert_eq!(c.gate(0).inputs(), c.gate(1).inputs());
        assert_eq!(c.gate(1).inputs(), &[(x, 2), (y, 2)]);
        for (bits, want) in [
            ([false, false], [false, false]),
            ([true, false], [true, false]),
            ([true, true], [true, true]),
        ] {
            assert_eq!(c.evaluate(&bits).unwrap().outputs(), &want);
        }
    }

    #[test]
    fn empty_threshold_list_adds_nothing() {
        let mut b = CircuitBuilder::new(1);
        let wires = b.add_bank([(Wire::input(0), 1)], []).unwrap();
        assert!(wires.is_empty());
        assert_eq!(b.num_gates(), 0);
        assert_eq!(b.build().num_stored_edges(), 0);
    }

    #[test]
    fn dangling_bank_is_a_typed_error_and_leaves_the_builder_unchanged() {
        let mut b = CircuitBuilder::new(2);
        let g = b.add_bank([(Wire::input(0), 1)], [1, 2]).unwrap();
        let before = format!("{:?}", b.clone().build());
        for bad in [Wire::input(2), Wire::gate(2)] {
            let err = b
                .add_bank([(Wire::input(1), 1), (bad, 1), (g[0], 1)], [1, 2])
                .unwrap_err();
            assert_eq!(
                err,
                CircuitError::DanglingWire {
                    wire: bad,
                    num_inputs: 2,
                    num_gates: 2
                }
            );
            assert_eq!(format!("{:?}", b.clone().build()), before);
        }
    }

    #[test]
    fn bank_whose_terms_merge_to_nothing_is_constant() {
        let mut b = CircuitBuilder::new(1);
        let x = Wire::input(0);
        let bank = b.add_bank([(x, 3), (x, -3)], [0, 1]).unwrap();
        b.mark_outputs(bank);
        let c = b.build();
        assert_eq!(c.gate(0).inputs(), &[(Wire::One, 0)]);
        for bits in [[false], [true]] {
            assert_eq!(c.evaluate(&bits).unwrap().outputs(), &[true, false]);
        }
    }

    #[test]
    fn stored_edges_count_shared_rows_once() {
        // Unshared: one row per gate, so the two counts agree.
        let mut b = CircuitBuilder::new(3);
        let (x, y, z) = (Wire::input(0), Wire::input(1), Wire::input(2));
        let g = b.add_gate([(x, 1), (y, 1)], 1).unwrap();
        b.add_gate_merged([(g, 1), (z, 1), (z, 1)], 2).unwrap();
        let unshared = b.clone().build();
        assert_eq!(unshared.num_stored_edges(), unshared.num_edges());
        assert_eq!(unshared.num_edges(), 4);
        // A bank stores its row once for all its members.
        b.add_bank([(x, 1), (y, 1), (z, 1)], 1..=3).unwrap();
        let shared = b.build();
        assert_eq!(shared.num_stored_edges(), 4 + 3);
        assert_eq!(shared.num_edges(), 4 + 3 * 3);
        assert!(shared.num_stored_edges() <= shared.num_edges());
    }

    #[test]
    fn merge_structural_dedups_banks_by_row_and_threshold() {
        let mut b = CircuitBuilder::with_dedup(2, DedupPolicy::MergeStructural);
        let (x, y) = (Wire::input(0), Wire::input(1));
        let first = b.add_bank([(x, 1), (y, 1)], [1, 2]).unwrap();
        // The same sum, terms reordered: the row is reused, threshold 2 is
        // the existing gate, threshold 3 a new member.
        let second = b.add_bank([(y, 1), (x, 1)], [2, 3]).unwrap();
        assert_eq!(second[0], first[1]);
        assert_eq!(second[1], Wire::gate(2));
        assert_eq!(b.add_gate([(x, 1), (y, 1)], 1).unwrap(), first[0]);
        let c = b.build();
        assert_eq!(c.num_gates(), 3);
        assert_eq!(c.num_stored_edges(), 2);
    }
}
