//! The compiled execution engine: CSR-lowered circuits with one scalar
//! oracle and one bit-sliced batch kernel.
//!
//! [`Circuit`] is builder-friendly: every gate owns a `Vec<(Wire, i64)>`, so
//! evaluating it chases pointers and re-resolves wires through an enum on
//! every edge. [`CompiledCircuit`] lowers that form once into flat
//! compressed-sparse-row (CSR) arrays:
//!
//! * one contiguous *slot* space — slot `0` is the constant-one wire, slots
//!   `1..=I` the primary inputs, slots `I+1..` the gates — so every evaluator
//!   reads values from a single flat array with `u32` indices;
//! * per-gate fan-in offsets into contiguous `wires` / `weights` arrays;
//! * an internal gate numbering sorted by `(depth, gate class)` so each depth
//!   layer occupies a contiguous slot range and the batch kernel runs
//!   straight-line loops per [`GateClass`] segment (public accessors keep
//!   speaking original gate ids; the permutation is invisible outside);
//! * per-gate *bit-edges* — each weight decomposed into its set bits — for
//!   [`GateClass::Pow2`] and [`GateClass::General`] gates only;
//!   [`GateClass::Unit`] gates (all weights ±1, the majority-style gates that
//!   dominate the paper's constructions) are evaluated straight off the raw
//!   CSR edges with their positive edges ordered first.
//!
//! The scalar oracle [`CompiledCircuit::evaluate`] and the width-generic
//! bit-sliced kernel behind [`CompiledCircuit::evaluate_rows_arena`] (see
//! `kernel.rs` and `arena.rs`) produce bit-identical [`Evaluation`]s (and
//! firing counts) for the same inputs; the differential proptest suites in
//! `tests/proptest_compiled.rs` and `tests/proptest_classes.rs` assert this
//! gate-for-gate at every lane width.
//!
//! ## Compile once, evaluate many
//!
//! ```
//! use tc_circuit::{CircuitBuilder, PlaneArena, Wire};
//!
//! let mut b = CircuitBuilder::new(2);
//! let g = b.add_gate([(Wire::input(0), 1), (Wire::input(1), 1)], 2).unwrap();
//! b.mark_output(g);
//! let compiled = b.build().compile().unwrap();
//!
//! // 4 assignments ride in one 64-lane pass.
//! let rows: [&[bool]; 4] = [&[false, false], &[false, true], &[true, false], &[true, true]];
//! let mut arena = PlaneArena::new();
//! let ev = compiled.evaluate_rows_arena::<1>(&rows, &mut arena).unwrap();
//! assert_eq!((0..4).map(|l| ev.output(l, 0).unwrap() as u32).sum::<u32>(), 1);
//! ```

use crate::eval::Evaluation;
use crate::stats::CircuitStats;
use crate::{Circuit, CircuitError, Result, Wire};

/// Bit-sliced batch width: one `u64` lane per input assignment.
pub const BATCH_LANES: usize = 64;

/// Planes of the bit-sliced firing counter (supports circuits of up to
/// `2^FIRING_PLANES` gates).
pub(crate) const FIRING_PLANES: usize = 40;

/// Sentinel in `batch_planes` marking a gate that needs the wide (per-lane
/// `i128`) fallback instead of the carry-save plane kernel.
pub(crate) const WIDE_GATE: u8 = u8::MAX;

/// Kernel dispatch class of a compiled gate.
///
/// Classification is decided once at compile time from the gate's weights
/// (and its plane budget) and drives which straight-line loop of the batch
/// kernel evaluates the gate:
///
/// * [`GateClass::Unit`] — every weight is `+1` or `-1` (the majority-style
///   gates that dominate the paper's Lemma 3.1 dot-product blocks and MAJ
///   reductions). Evaluated by popcount-style carry-save addition over the
///   raw CSR lane words: no bit-edge expansion, no per-edge shift decode.
/// * [`GateClass::Pow2`] — every weight magnitude has a single set bit, so
///   each edge is exactly one shift-indexed plane addition.
/// * [`GateClass::General`] — everything else: weights decompose into
///   multiple bit-edges (or the gate's weight reach exceeds the plane budget
///   and it takes the per-lane `i128` fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateClass {
    /// All weights ±1: raw-lane carry-save addition, no bit-edges.
    Unit,
    /// All weight magnitudes are powers of two: one bit-edge per edge.
    Pow2,
    /// Arbitrary weights: full bit-edge decomposition (or wide fallback).
    General,
}

impl GateClass {
    /// Classifies a gate from its weights and plane budget. `planes` is the
    /// gate's `batch_planes` entry ([`WIDE_GATE`] demotes to `General`).
    pub(crate) fn classify<I: Iterator<Item = i64> + Clone>(weights: I, planes: u8) -> Self {
        if planes == WIDE_GATE {
            return GateClass::General;
        }
        if weights.clone().all(|w| w == 1 || w == -1) {
            GateClass::Unit
        } else if weights
            .clone()
            .all(|w| w != 0 && w.unsigned_abs().is_power_of_two())
        {
            GateClass::Pow2
        } else {
            GateClass::General
        }
    }

    /// Index into per-class arrays (`[Unit, Pow2, General]`).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            GateClass::Unit => 0,
            GateClass::Pow2 => 1,
            GateClass::General => 2,
        }
    }
}

/// A [`Circuit`] lowered to flat CSR arrays with a precomputed layer
/// schedule, hosting the scalar oracle and the bit-sliced batch kernel
/// behind one API.
///
/// Internally gates are renumbered so that each depth layer is a contiguous
/// slot range and, inside a layer, gates of the same [`GateClass`] are
/// adjacent. Every public accessor and every returned [`Evaluation`] speaks
/// *original* gate ids; `perm`/`inv` translate at the boundary.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    pub(crate) num_inputs: usize,
    /// Gate fan-in offsets (internal order): edges of internal gate `g` are
    /// `offsets[g]..offsets[g+1]`.
    pub(crate) offsets: Vec<u32>,
    /// Slot-encoded fan-in wires, contiguous across gates. Within each gate
    /// the non-negative-weight edges come first (see `pos_counts`).
    pub(crate) wires: Vec<u32>,
    /// Fan-in weights, parallel to `wires`.
    pub(crate) weights: Vec<i64>,
    /// Per-gate count of leading non-negative-weight edges (internal order);
    /// the `Unit` kernel splits its pos/neg accumulation at this point.
    pub(crate) pos_counts: Vec<u32>,
    /// Per-gate firing thresholds (internal order).
    pub(crate) thresholds: Vec<i64>,
    /// Per-gate depth (1-based), in ORIGINAL gate order.
    pub(crate) depths: Vec<u32>,
    /// ORIGINAL gate ids grouped by depth layer; `layer_ranges[d]` indexes
    /// into it (the public [`CompiledCircuit::layer`] view).
    pub(crate) schedule: Vec<u32>,
    /// Half-open ranges, one per depth layer. Because the internal numbering
    /// is depth-major, `layer_ranges[d]` is *also* the internal gate-id range
    /// of layer `d`.
    pub(crate) layer_ranges: Vec<(u32, u32)>,
    /// Slot-encoded designated outputs.
    pub(crate) outputs: Vec<u32>,
    /// Per-gate flag (internal order): the weighted sum provably fits `i64`.
    pub(crate) narrow: Vec<bool>,
    /// Bit-edge offsets (internal order; `Unit` gates span zero bit-edges).
    pub(crate) bit_offsets: Vec<u32>,
    /// Slot of each bit-edge.
    pub(crate) bit_slots: Vec<u32>,
    /// Packed bit-edge descriptor: low 6 bits = shift, bit 7 = negative sign.
    pub(crate) bit_shifts: Vec<u8>,
    /// Planes needed by the batch kernel per gate, or [`WIDE_GATE`].
    pub(crate) batch_planes: Vec<u8>,
    /// Per-gate class (internal order).
    pub(crate) classes: Vec<GateClass>,
    /// Maximal runs of equal class in internal order: `(class, lo, hi)`.
    pub(crate) segments: Vec<(GateClass, u32, u32)>,
    /// Gates per class (`[Unit, Pow2, General]`) — the mix the kernel runs.
    pub(crate) class_counts: [usize; 3],
    /// Plane-addition operations one batch pass performs per class:
    /// raw edges for `Unit`, bit-edges for `Pow2`/`General`.
    pub(crate) class_plane_ops: [u64; 3],
    /// ORIGINAL gate id → internal gate id. Shared (`Arc`) so evaluations
    /// that must translate slots back to original ids borrow it for free.
    pub(crate) perm: std::sync::Arc<[u32]>,
    /// Internal gate id → ORIGINAL gate id.
    pub(crate) inv: Vec<u32>,
}

/// Appends one bit-edge descriptor per set bit of `weight`'s magnitude to
/// `out`: the shift in the low 6 bits, the weight's sign in bit 7.
fn binary_digits(weight: i64, out: &mut Vec<u8>) {
    let sign_bit = if weight < 0 { 0x80u8 } else { 0 };
    let mut bits = weight.unsigned_abs();
    while bits != 0 {
        // lint:allow(narrowing-cast): trailing_zeros of a nonzero u64 is ≤ 63
        out.push(bits.trailing_zeros() as u8 | sign_bit);
        bits &= bits - 1;
    }
}

#[inline]
fn slot_of(wire: Wire, num_inputs: usize, perm: &[u32]) -> usize {
    match wire {
        Wire::One => 0,
        Wire::Input(i) => 1 + i as usize,
        Wire::Gate(g) => 1 + num_inputs + perm[g as usize] as usize,
    }
}

impl CompiledCircuit {
    /// Lowers a circuit into its compiled form.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::DanglingWire`] if the circuit violates the
    ///   topological invariant (possible for hand-assembled or deserialised
    ///   circuits; builder output always lowers cleanly);
    /// * [`CircuitError::CircuitTooLarge`] if inputs + gates exceed the
    ///   `u32` slot space.
    pub fn new(circuit: &Circuit) -> Result<Self> {
        let num_inputs = circuit.num_inputs();
        let num_gates = circuit.num_gates();
        let slots = 1usize + num_inputs + num_gates;
        if slots > u32::MAX as usize {
            return Err(CircuitError::CircuitTooLarge {
                inputs: num_inputs,
                gates: num_gates,
            });
        }

        // Planes so that POS, NEG and POS - NEG - t all fit a signed
        // `planes`-bit two's-complement integer, given the reach (sum of all
        // accumulated digit magnitudes plus |t|).
        let planes_for = |reach: i128| -> u8 {
            let needed = 128 - (reach + 1).leading_zeros() + 2;
            if (needed as usize) < BATCH_LANES {
                // lint:allow(narrowing-cast): guarded below BATCH_LANES = 64
                needed as u8
            } else {
                WIDE_GATE
            }
        };

        // ── Pass 1 (original order): validate fan-in wires, recompute
        // depths from the fan-ins (authoritative even for hand-assembled
        // circuits), and classify every gate from its weights and reach.
        let mut depths = vec![0u32; num_gates];
        let mut per_gate_planes = Vec::with_capacity(num_gates);
        let mut per_gate_narrow = Vec::with_capacity(num_gates);
        let mut per_gate_class = Vec::with_capacity(num_gates);
        for (idx, gate) in circuit.gates().iter().enumerate() {
            let mut pos_sum: i128 = 0;
            let mut neg_sum: i128 = 0;
            let mut depth_in = 0u32;
            for &(wire, weight) in gate.inputs() {
                let valid = match wire {
                    Wire::Input(i) => (i as usize) < num_inputs,
                    Wire::Gate(g) => (g as usize) < idx,
                    Wire::One => true,
                };
                if !valid {
                    return Err(CircuitError::DanglingWire {
                        wire,
                        num_inputs,
                        num_gates: idx,
                    });
                }
                if let Wire::Gate(g) = wire {
                    depth_in = depth_in.max(depths[g as usize]);
                }
                if weight >= 0 {
                    pos_sum += weight as i128;
                } else {
                    neg_sum += -(weight as i128);
                }
            }
            depths[idx] = depth_in + 1;
            per_gate_narrow.push(pos_sum <= i64::MAX as i128 && neg_sum <= i64::MAX as i128);
            let planes = planes_for(pos_sum + neg_sum + (gate.threshold().unsigned_abs() as i128));
            per_gate_planes.push(planes);
            let weights = gate.inputs().iter().map(|&(_, w)| w);
            per_gate_class.push(GateClass::classify(weights, planes));
        }

        // ── Layer schedule: ORIGINAL gate ids grouped by depth, ascending
        // inside each layer (counting sort over depths).
        let depth = depths.iter().copied().max().unwrap_or(0) as usize;
        let mut layer_sizes = vec![0u32; depth];
        for &d in &depths {
            layer_sizes[(d - 1) as usize] += 1;
        }
        let mut layer_ranges = Vec::with_capacity(depth);
        let mut start = 0u32;
        for &sz in &layer_sizes {
            layer_ranges.push((start, start + sz));
            start += sz;
        }
        let mut cursor: Vec<u32> = layer_ranges.iter().map(|&(lo, _)| lo).collect();
        let mut schedule = vec![0u32; num_gates];
        for (g, &d) in depths.iter().enumerate() {
            let c = &mut cursor[(d - 1) as usize];
            // lint:allow(narrowing-cast): gate ids fit the u32 slot space checked at entry
            schedule[*c as usize] = g as u32;
            *c += 1;
        }

        // ── Internal numbering: depth-major (so every layer is a contiguous
        // internal range — `layer_ranges` doubles as the internal ranges),
        // class-sorted inside each layer so the batch kernel's class
        // segments are maximal straight-line runs. Topological soundness
        // holds because a fan-in gate always has strictly smaller depth.
        let mut inv = schedule.clone();
        for &(lo, hi) in &layer_ranges {
            inv[lo as usize..hi as usize].sort_by_key(|&g| (per_gate_class[g as usize].index(), g));
        }
        let mut perm = vec![0u32; num_gates];
        for (internal, &orig) in inv.iter().enumerate() {
            // lint:allow(narrowing-cast): internal ids fit the u32 slot space checked at entry
            perm[orig as usize] = internal as u32;
        }

        // ── Pass 2 (internal order): build the CSR arrays. Edges are
        // reordered non-negative-weight first (the sum is order-invariant;
        // the `Unit` kernel needs the split point), and bit-edges are only
        // emitted for `Pow2`/`General` gates — `Unit` gates are evaluated
        // straight off the raw edges.
        let num_edges = circuit.num_edges();
        let mut offsets = Vec::with_capacity(num_gates + 1);
        let mut wires = Vec::with_capacity(num_edges);
        let mut weights = Vec::with_capacity(num_edges);
        let mut pos_counts = Vec::with_capacity(num_gates);
        let mut thresholds = Vec::with_capacity(num_gates);
        let mut narrow = Vec::with_capacity(num_gates);
        let mut bit_offsets = Vec::with_capacity(num_gates + 1);
        let mut bit_slots = Vec::new();
        let mut bit_shifts = Vec::new();
        let mut batch_planes = Vec::with_capacity(num_gates);
        let mut classes = Vec::with_capacity(num_gates);
        let mut class_counts = [0usize; 3];
        let mut class_plane_ops = [0u64; 3];

        offsets.push(0u32);
        bit_offsets.push(0u32);
        for &orig in &inv {
            let gate = &circuit.gates()[orig as usize];
            let class = per_gate_class[orig as usize];
            let mut emit = |sign: bool| {
                let mut count = 0u32;
                for &(wire, weight) in gate.inputs() {
                    if (weight < 0) != sign {
                        continue;
                    }
                    count += 1;
                    // lint:allow(narrowing-cast): slots fit the u32 space checked at entry
                    let slot = slot_of(wire, num_inputs, &perm) as u32;
                    wires.push(slot);
                    weights.push(weight);
                    if class == GateClass::Unit {
                        continue;
                    }
                    // One bit-edge per set bit of |weight| for the batch kernel.
                    binary_digits(weight, &mut bit_shifts);
                    bit_slots.resize(bit_shifts.len(), slot);
                }
                count
            };
            let pos = emit(false);
            emit(true);
            pos_counts.push(pos);
            thresholds.push(gate.threshold());
            narrow.push(per_gate_narrow[orig as usize]);
            batch_planes.push(per_gate_planes[orig as usize]);
            classes.push(class);
            class_counts[class.index()] += 1;
            class_plane_ops[class.index()] += match class {
                // lint:allow(narrowing-cast): usize → u64 never truncates on supported targets
                GateClass::Unit => gate.fan_in() as u64,
                // lint:allow(narrowing-cast): bit-edge counts share the u32 CSR index space; the difference widens to u64
                _ => (bit_slots.len() as u32 - *bit_offsets.last().unwrap()) as u64,
            };
            // lint:allow(narrowing-cast): edge counts share the u32 CSR index space
            offsets.push(wires.len() as u32);
            // lint:allow(narrowing-cast): bit-edge counts share the u32 CSR index space
            bit_offsets.push(bit_slots.len() as u32);
        }

        // Maximal same-class runs in internal order.
        let mut segments: Vec<(GateClass, u32, u32)> = Vec::new();
        for (i, &class) in classes.iter().enumerate() {
            match segments.last_mut() {
                // lint:allow(narrowing-cast): segment ends are gate counts within the u32 slot space
                Some((c, _, hi)) if *c == class => *hi = (i + 1) as u32,
                // lint:allow(narrowing-cast): segment ends are gate counts within the u32 slot space
                _ => segments.push((class, i as u32, (i + 1) as u32)),
            }
        }

        let mut outputs = Vec::with_capacity(circuit.outputs().len());
        for &wire in circuit.outputs() {
            let valid = match wire {
                Wire::Input(i) => (i as usize) < num_inputs,
                Wire::Gate(g) => (g as usize) < num_gates,
                Wire::One => true,
            };
            if !valid {
                return Err(CircuitError::DanglingWire {
                    wire,
                    num_inputs,
                    num_gates,
                });
            }
            // lint:allow(narrowing-cast): slots fit the u32 space checked at entry
            outputs.push(slot_of(wire, num_inputs, &perm) as u32);
        }

        Ok(CompiledCircuit {
            num_inputs,
            offsets,
            wires,
            weights,
            pos_counts,
            thresholds,
            depths,
            schedule,
            layer_ranges,
            outputs,
            narrow,
            bit_offsets,
            bit_slots,
            bit_shifts,
            batch_planes,
            classes,
            segments,
            class_counts,
            class_plane_ops,
            perm: perm.into(),
            inv,
        })
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of gates.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.thresholds.len()
    }

    /// Total number of edges (sum of all fan-ins).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.wires.len()
    }

    /// Total number of *bit-edges* — weights decomposed into set bits — held
    /// for the [`GateClass::Pow2`] and [`GateClass::General`] gates.
    /// [`GateClass::Unit`] gates are evaluated straight off the raw CSR
    /// edges and emit none; see [`CompiledCircuit::class_plane_ops`] for the
    /// full per-pass work accounting.
    #[inline]
    pub fn num_bit_edges(&self) -> usize {
        self.bit_slots.len()
    }

    /// The kernel dispatch class of gate `gate_index` (original gate id).
    #[inline]
    pub fn gate_class(&self, gate_index: usize) -> GateClass {
        self.classes[self.perm[gate_index] as usize]
    }

    /// Gates per class, as `[Unit, Pow2, General]` counts — the mix the
    /// batch kernel dispatches on.
    #[inline]
    pub fn class_counts(&self) -> [usize; 3] {
        self.class_counts
    }

    /// Plane-addition operations one bit-sliced batch pass performs per
    /// class (`[Unit, Pow2, General]`): raw edges for `Unit` gates,
    /// bit-edges for the rest. The unit of work of the batch kernels — cost
    /// models weight these instead of guessing from `num_bit_edges`.
    #[inline]
    pub fn class_plane_ops(&self) -> [u64; 3] {
        self.class_plane_ops
    }

    /// The ORIGINAL gate id occupying `slot`, or `None` for the constant-one
    /// wire and the primary inputs. The inverse of the internal `(depth,
    /// class)`-sorted slot numbering.
    #[inline]
    pub fn gate_of_slot(&self, slot: usize) -> Option<usize> {
        slot.checked_sub(1 + self.num_inputs)
            .map(|internal| self.inv[internal] as usize)
    }

    /// The slot holding gate `gate_index`'s value (original gate id).
    #[inline]
    pub(crate) fn slot_of_gate(&self, gate_index: usize) -> usize {
        1 + self.num_inputs + self.perm[gate_index] as usize
    }

    /// The maximum fan-in over all gates.
    pub fn max_fan_in(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Circuit depth in gate layers.
    #[inline]
    pub fn depth(&self) -> u32 {
        // lint:allow(narrowing-cast): depth ≤ gate count, which fits the u32 slot space
        self.layer_ranges.len() as u32
    }

    /// The depth of gate `gate_index` (1-based from the inputs).
    #[inline]
    pub fn gate_depth(&self, gate_index: usize) -> u32 {
        self.depths[gate_index]
    }

    /// Per-gate fan-in `(slot-encoded wires, weights)` of gate `g` (original
    /// gate id). Edges are stored non-negative-weight first; the weighted
    /// sum is order-invariant.
    #[inline]
    pub fn fan_in(&self, g: usize) -> (&[u32], &[i64]) {
        let i = self.perm[g] as usize;
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        (&self.wires[lo..hi], &self.weights[lo..hi])
    }

    /// Per-gate threshold (original gate id).
    #[inline]
    pub fn threshold(&self, g: usize) -> i64 {
        self.thresholds[self.perm[g] as usize]
    }

    /// Number of designated outputs.
    #[inline]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Slot index of designated output `i` (slot 0 is the constant-one wire,
    /// slots `1..=num_inputs` the primary inputs, then the gates in order).
    #[inline]
    pub fn output_slot(&self, i: usize) -> usize {
        self.outputs[i] as usize
    }

    /// Gate ids of depth layer `d` (0-based layer index).
    pub fn layer(&self, d: usize) -> &[u32] {
        let (lo, hi) = self.layer_ranges[d];
        &self.schedule[lo as usize..hi as usize]
    }

    /// The largest absolute weight used anywhere in the compiled circuit.
    pub fn max_abs_weight(&self) -> u64 {
        self.weights
            .iter()
            .map(|w| w.unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// Complexity statistics, computed from the CSR arrays.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats::from_compiled(self)
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

    /// Evaluates one INTERNAL gate from the flat value array (scalar
    /// fast/wide path).
    #[inline]
    fn fire_scalar(&self, g: usize, vals: &[bool]) -> bool {
        debug_assert_eq!(vals.len(), self.len_slots());
        let lo = self.offsets[g] as usize;
        let hi = self.offsets[g + 1] as usize;
        if self.narrow[g] {
            let mut acc: i64 = 0;
            for e in lo..hi {
                // SAFETY: `CompiledCircuit::new` rejects dangling fan-in
                // wires and emits only slots below `len_slots()`, and
                // `evaluate` sizes `vals` to exactly `len_slots()`.
                let bit = unsafe { *vals.get_unchecked(self.wires[e] as usize) };
                // Branchless: mask the weight by the input bit.
                // lint:allow(narrowing-cast): a bool is exactly 0 or 1
                acc += self.weights[e] & -(bit as i64);
            }
            acc >= self.thresholds[g]
        } else {
            let mut acc: i128 = 0;
            for e in lo..hi {
                // SAFETY: same bound as the narrow arm — `wires[e]` is below
                // `len_slots()` and `vals` covers that range.
                if unsafe { *vals.get_unchecked(self.wires[e] as usize) } {
                    acc += self.weights[e] as i128;
                }
            }
            acc >= self.thresholds[g] as i128
        }
    }

    fn finish(&self, vals: Vec<bool>) -> Evaluation {
        // The slot array is in internal (depth, class) order; the exposed
        // evaluation speaks original gate ids.
        let gate_values = self
            .perm
            .iter()
            .map(|&i| vals[1 + self.num_inputs + i as usize])
            .collect();
        let outputs = self.outputs.iter().map(|&s| vals[s as usize]).collect();
        Evaluation::from_parts(gate_values, outputs)
    }

    /// Evaluates the circuit sequentially on one input assignment.
    ///
    /// Produces exactly the same [`Evaluation`] as [`Circuit::evaluate`].
    pub fn evaluate(&self, inputs: &[bool]) -> Result<Evaluation> {
        self.check_inputs(inputs)?;
        let mut vals = vec![false; 1 + self.num_inputs + self.num_gates()];
        vals[0] = true;
        vals[1..=self.num_inputs].copy_from_slice(inputs);
        for g in 0..self.num_gates() {
            vals[1 + self.num_inputs + g] = self.fire_scalar(g, &vals);
        }
        Ok(self.finish(vals))
    }

    #[inline]
    pub(crate) fn len_slots(&self) -> usize {
        1 + self.num_inputs + self.num_gates()
    }

    /// Evaluates any number of independent input assignments, riding the
    /// bit-sliced 64-lane kernel in full lane groups with a single ragged-tail
    /// path for the final partial group.
    ///
    /// Callers no longer hand-chunk batches of exactly 64: any batch size
    /// (including empty) is accepted, and the returned [`ManyEvaluation`]
    /// addresses results by request index. Request `i`'s outputs and firing
    /// count are bit-identical to `evaluate(&rows[i])`. All per-gate state
    /// lives in one [`crate::PlaneArena`] reused across lane groups — the
    /// input masks are packed straight into the arena once per group — so
    /// the whole call performs a constant number of allocations regardless
    /// of batch size.
    pub fn evaluate_many<R: AsRef<[bool]>>(&self, rows: &[R]) -> Result<ManyEvaluation> {
        let num_outputs = self.outputs.len();
        let mut output_masks = Vec::with_capacity(rows.len().div_ceil(BATCH_LANES) * num_outputs);
        let mut firing_counts = Vec::with_capacity(rows.len());
        let mut arena = crate::PlaneArena::new();
        let mut refs: Vec<&[bool]> = Vec::with_capacity(BATCH_LANES);
        for chunk in rows.chunks(BATCH_LANES) {
            refs.clear();
            refs.extend(chunk.iter().map(|r| r.as_ref()));
            let ev = self.evaluate_rows_arena::<1>(&refs, &mut arena)?;
            for i in 0..num_outputs {
                output_masks.push(ev.output_lane_mask(i, 0));
            }
            firing_counts.extend_from_slice(ev.firing_counts());
        }
        Ok(ManyEvaluation {
            requests: rows.len(),
            num_outputs,
            output_masks,
            firing_counts,
        })
    }
}

/// The result of [`CompiledCircuit::evaluate_many`]: any number of requests
/// evaluated through full 64-lane groups plus one ragged tail, addressed by
/// request index.
///
/// Holds only the designated-output lane masks and per-request firing
/// counts — the serving payload — never the per-gate state, so memory is
/// proportional to requests × outputs rather than requests × gates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManyEvaluation {
    requests: usize,
    num_outputs: usize,
    /// Group-major output lane masks: group `g`'s masks occupy
    /// `output_masks[g*num_outputs..(g+1)*num_outputs]`.
    output_masks: Vec<u64>,
    firing_counts: Vec<u32>,
}

impl ManyEvaluation {
    /// Number of requests evaluated.
    #[inline]
    pub fn len(&self) -> usize {
        self.requests
    }

    /// `true` when the batch held no requests at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.requests == 0
    }

    fn check_request(&self, request: usize) -> Result<()> {
        if request >= self.requests {
            return Err(CircuitError::LaneOutOfRange {
                lane: request,
                lanes: self.requests,
            });
        }
        Ok(())
    }

    #[inline]
    fn mask_bit(&self, request: usize, i: usize) -> bool {
        let mask = self.output_masks[(request / BATCH_LANES) * self.num_outputs + i];
        (mask >> (request % BATCH_LANES)) & 1 == 1
    }

    /// The value of output `i` for request `request`.
    pub fn output(&self, request: usize, i: usize) -> Result<bool> {
        self.check_request(request)?;
        if i >= self.num_outputs {
            return Err(CircuitError::OutputIndexOutOfRange {
                index: i,
                len: self.num_outputs,
            });
        }
        Ok(self.mask_bit(request, i))
    }

    /// All designated output values for request `request`.
    pub fn outputs(&self, request: usize) -> Result<Vec<bool>> {
        self.check_request(request)?;
        Ok((0..self.num_outputs)
            .map(|i| self.mask_bit(request, i))
            .collect())
    }

    /// Number of gates that fired for request `request`.
    pub fn firing_count(&self, request: usize) -> Result<u32> {
        self.check_request(request)?;
        Ok(self.firing_counts[request])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::assert_arena_matches_scalar;
    use crate::{CircuitBuilder, PlaneArena};

    fn mixed_circuit() -> Circuit {
        let mut b = CircuitBuilder::new(3);
        let x = Wire::input(0);
        let y = Wire::input(1);
        let z = Wire::input(2);
        let carry = b.add_gate([(x, 1), (y, 1), (z, 1)], 2).unwrap();
        let sum = b
            .add_gate([(x, 1), (y, 1), (z, 1), (carry, -2)], 1)
            .unwrap();
        let not = b.add_gate([(sum, -3)], 0).unwrap();
        let constish = b.add_gate([(Wire::One, 5), (not, -5)], 5).unwrap();
        b.mark_output(sum);
        b.mark_output(carry);
        b.mark_output(constish);
        b.mark_output(Wire::One);
        b.mark_output(Wire::input(2));
        b.build()
    }

    #[test]
    fn compiled_matches_legacy_layout() {
        let c = mixed_circuit();
        let cc = c.compile().unwrap();
        assert_eq!(cc.num_inputs(), 3);
        assert_eq!(cc.num_gates(), 4);
        assert_eq!(cc.num_edges(), c.num_edges());
        assert_eq!(cc.depth(), c.depth());
        assert_eq!(cc.max_fan_in(), c.max_fan_in());
        assert_eq!(cc.num_outputs(), 5);
    }

    #[test]
    fn scalar_and_arena_agree_exhaustively() {
        let cc = mixed_circuit().compile().unwrap();
        let rows: Vec<[bool; 3]> = (0..8u32)
            .map(|bits| [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0])
            .collect();
        assert_arena_matches_scalar(&cc, &rows);
    }

    #[test]
    fn extreme_weights_take_the_wide_path() {
        // Near-extreme weights exceed the plane budget.
        let mut b = CircuitBuilder::new(2);
        let g = b
            .add_gate(
                [(Wire::input(0), i64::MAX), (Wire::input(1), i64::MAX - 2)],
                1,
            )
            .unwrap();
        let h = b.add_gate([(Wire::input(0), i64::MIN), (g, 1)], 0).unwrap();
        b.mark_outputs([g, h]);
        let c = b.build();
        let cc = c.compile().unwrap();
        assert_eq!(cc.gate_class(0), GateClass::General);
        let rows = [[false, false], [false, true], [true, false], [true, true]];
        assert_arena_matches_scalar(&cc, &rows);
    }

    #[test]
    fn classes_and_bit_edges_follow_the_raw_weights() {
        let mut b = CircuitBuilder::new(2);
        let x = Wire::input(0);
        let y = Wire::input(1);
        let unit = b.add_gate([(x, 1), (y, -1)], 1).unwrap();
        let pow = b.add_gate([(x, 4), (y, -2)], 2).unwrap();
        let gen = b.add_gate([(x, 3), (y, 7)], 7).unwrap();
        // Weights are lowered as built: {+5, -5} is General.
        let shared = b.add_gate([(x, 5), (y, -5)], 3).unwrap();
        b.mark_outputs([unit, pow, gen, shared]);
        let c = b.build();
        let cc = c.compile().unwrap();
        assert_eq!(cc.gate_class(0), GateClass::Unit);
        assert_eq!(cc.gate_class(1), GateClass::Pow2);
        assert_eq!(cc.gate_class(2), GateClass::General);
        assert_eq!(cc.gate_class(3), GateClass::General);
        assert_eq!(cc.class_counts(), [1, 1, 2]);
        assert_eq!(cc.threshold(3), 3);
        assert_eq!(cc.fan_in(3).1, &[5, -5]);
        assert_eq!(cc.max_abs_weight(), 7);
        // One bit-edge per set bit: Unit 0, Pow2 {4, -2} 2, General {3, 7}
        // 2 + 3, General {5, -5} 2 + 2.
        assert_eq!(cc.num_bit_edges(), 2 + 5 + 4);
        let rows = [[false, false], [false, true], [true, false], [true, true]];
        for row in &rows {
            assert_eq!(c.evaluate(row).unwrap(), cc.evaluate(row).unwrap());
        }
        assert_arena_matches_scalar(&cc, &rows);
    }

    #[test]
    fn arena_rejects_bad_shapes() {
        let cc = mixed_circuit().compile().unwrap();
        let mut arena = PlaneArena::new();
        let too_many: Vec<&[bool]> = vec![&[false; 3]; 65];
        assert!(matches!(
            cc.evaluate_rows_arena::<1>(&too_many, &mut arena),
            Err(CircuitError::BatchTooWide { rows: 65 })
        ));
        let wrong_width: [&[bool]; 1] = [&[false, true]];
        assert!(matches!(
            cc.evaluate_rows_arena::<1>(&wrong_width, &mut arena),
            Err(CircuitError::InputLengthMismatch {
                expected: 3,
                actual: 2
            })
        ));
        let empty = cc.evaluate_rows_arena::<1>(&[], &mut arena).unwrap();
        assert_eq!(empty.lanes(), 0);
        assert!(empty.firing_counts().is_empty());
    }

    #[test]
    fn lane_accessors_are_bounds_checked() {
        let cc = mixed_circuit().compile().unwrap();
        let mut arena = PlaneArena::new();
        let rows: [&[bool]; 1] = [&[true, false, true]];
        let ev = cc.evaluate_rows_arena::<1>(&rows, &mut arena).unwrap();
        assert!(ev.output(0, 0).is_ok());
        assert!(matches!(
            ev.output(1, 0),
            Err(CircuitError::LaneOutOfRange { lane: 1, lanes: 1 })
        ));
        assert!(matches!(
            ev.output(0, 99),
            Err(CircuitError::OutputIndexOutOfRange { index: 99, .. })
        ));
    }

    #[test]
    fn dangling_wire_fails_compilation() {
        // Assemble an invalid circuit directly through serde-style surgery:
        // builder forbids this, so synthesise via Circuit::from_parts.
        let mut b = CircuitBuilder::new(1);
        let g = b.add_gate([(Wire::input(0), 1)], 1).unwrap();
        b.mark_output(g);
        let mut c = b.build();
        // Point the output at a gate that does not exist.
        c = Circuit::from_parts(
            c.num_inputs(),
            c.gates().to_vec(),
            vec![Wire::gate(7)],
            (0..c.num_gates()).map(|g| c.gate_depth(g)).collect(),
        );
        assert!(matches!(
            c.compile(),
            Err(CircuitError::DanglingWire { .. })
        ));
    }

    #[test]
    fn negative_thresholds_and_constant_one_lanes() {
        let mut b = CircuitBuilder::new(1);
        let always = b.add_gate([(Wire::input(0), 1)], i64::MIN + 1).unwrap();
        let negate = b.add_gate([(Wire::One, -4), (always, 2)], -2).unwrap();
        b.mark_outputs([always, negate]);
        let cc = b.build().compile().unwrap();
        assert_arena_matches_scalar(&cc, &[[false], [true]]);
    }
}
