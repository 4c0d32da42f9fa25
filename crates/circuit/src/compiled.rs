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
//! * one CSR *row* per distinct weighted sum. Each gate's fan-in is put in
//!   canonical order (non-negative weights first, then ascending slot), and
//!   gates of one [`GateClass`] whose fan-in is the same `(slot, weight)`
//!   multiset share a row: together they form a *bank*, many thresholds
//!   `[S ≥ t_j]` on one sum `S` — the shape of the paper's Lemma 3.1/3.2
//!   blocks. Rows hold `wires`/`weights`, the non-negative edge count, the
//!   narrow (i64-safe) flag, the bank's plane budget (the largest its
//!   members need) and, for [`GateClass::Pow2`] and [`GateClass::General`]
//!   rows only, the *bit-edges* (each weight decomposed into its set bits);
//!   [`GateClass::Unit`] rows (all weights ±1) are evaluated straight off the
//!   raw edges;
//! * per gate only a threshold, a class and a row index, in an internal
//!   numbering sorted by `(depth, class, row, original id)`: each depth layer
//!   is a contiguous slot range, each class a straight-line kernel segment,
//!   and each bank a contiguous run of gates. Public accessors keep speaking
//!   original gate ids; the permutation is invisible outside.
//!
//! ## Source form and evaluated work
//!
//! Banks change what a pass *computes*, not what the circuit *is*: gate ids,
//! outputs, firing counts and the per-gate accessors ([`CompiledCircuit::fan_in`],
//! [`CompiledCircuit::num_edges`], [`CompiledCircuit::max_fan_in`],
//! [`CompiledCircuit::class_plane_ops`]) report the source circuit, as if
//! every gate summed its own fan-in — which the scalar oracle
//! [`CompiledCircuit::evaluate`] still does. The stored arrays
//! ([`CompiledCircuit::num_banks`], [`CompiledCircuit::num_evaluated_edges`],
//! [`CompiledCircuit::num_bit_edges`]) and
//! [`CompiledCircuit::evaluated_plane_ops`] report what the bit-sliced
//! kernel does per pass: each bank's row once.
//!
//! ## Thermometer banks
//!
//! Lemma 3.1 emits `y_i = [S ≥ i·2^(l−k)]` for `i = 1..2^k` on one sum, so
//! its first layer is a bank whose members form a thermometer code of the
//! sum's top planes. Every bank with at least two members, no negative
//! weight and a finite plane budget gets a plan (`Thermometers`), found
//! from its thresholds and weights alone: the largest power of two `2^s`
//! dividing every threshold, the distinct values `i = t / 2^s` split into
//! *decode runs* of consecutive values (each value a *group*: the members
//! with that threshold), and the member multiset split into *count runs*
//! `{a..=b}`, one per Lemma 3.1 block (two instances sharing a sum give
//! two equal runs). The kernel decodes each group once and adds each count
//! run's firings as one number (see `kernel.rs`);
//! [`CompiledCircuit::num_decoded_gates`] reports how many gates it decodes,
//! and the verifier checks every plan against its bank's thresholds.
//!
//! The scalar oracle and the width-generic bit-sliced kernel behind
//! [`CompiledCircuit::evaluate_rows_arena`] (see `kernel.rs` and `arena.rs`)
//! produce bit-identical [`Evaluation`]s (and firing counts) for the same
//! inputs; the differential proptest suites under `tests/` assert this
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
/// slot range and, inside a layer, gates sort by ([`GateClass`], row,
/// original id): same-class gates are adjacent and every bank (the gates
/// sharing one fan-in row) is a contiguous run. Every public accessor and
/// every returned [`Evaluation`] speaks *original* gate ids; `perm`/`inv`
/// translate at the boundary.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    pub(crate) num_inputs: usize,
    /// Row fan-in offsets: the edges of row `r` are
    /// `offsets[r]..offsets[r+1]`.
    pub(crate) offsets: Vec<u32>,
    /// Slot-encoded fan-in wires, contiguous across rows. Each row is in
    /// canonical order: non-negative weights first (see `pos_counts`), then
    /// ascending slot.
    pub(crate) wires: Vec<u32>,
    /// Fan-in weights, parallel to `wires`.
    pub(crate) weights: Vec<i64>,
    /// Per-row count of leading non-negative-weight edges; the `Unit`
    /// kernel splits its pos/neg accumulation at this point.
    pub(crate) pos_counts: Vec<u32>,
    /// Per-row flag: the weighted sum provably fits `i64`.
    pub(crate) narrow: Vec<bool>,
    /// Per-row bit-edge offsets (`Unit` rows span zero bit-edges).
    pub(crate) bit_offsets: Vec<u32>,
    /// Slot of each bit-edge.
    pub(crate) bit_slots: Vec<u32>,
    /// Packed bit-edge descriptor: low 6 bits = shift, bit 7 = negative sign.
    pub(crate) bit_shifts: Vec<u8>,
    /// Per-row plane budget of the batch kernel — the largest any member of
    /// the row's bank needs — or [`WIDE_GATE`].
    pub(crate) batch_planes: Vec<u8>,
    /// Per-gate row index (internal order); non-decreasing inside each
    /// class segment, so a bank is a maximal run of equal entries.
    pub(crate) gate_rows: Vec<u32>,
    /// Per-gate firing thresholds (internal order).
    pub(crate) thresholds: Vec<i64>,
    /// Per-gate class (internal order).
    pub(crate) classes: Vec<GateClass>,
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
    /// Maximal runs of equal class in internal order: `(class, lo, hi)`.
    pub(crate) segments: Vec<(GateClass, u32, u32)>,
    /// Gates per class (`[Unit, Pow2, General]`) — the mix the kernel runs.
    pub(crate) class_counts: [usize; 3],
    /// Source-form plane-addition operations per class, as if every gate
    /// summed its own row: raw edges for `Unit`, bit-edges for
    /// `Pow2`/`General`.
    pub(crate) class_plane_ops: [u64; 3],
    /// Plane-addition operations one batch pass performs per class: the
    /// same units, counted once per bank.
    pub(crate) evaluated_plane_ops: [u64; 3],
    /// ORIGINAL gate id → internal gate id. Shared (`Arc`) so evaluations
    /// that must translate slots back to original ids borrow it for free.
    pub(crate) perm: std::sync::Arc<[u32]>,
    /// Internal gate id → ORIGINAL gate id.
    pub(crate) inv: Vec<u32>,
    /// The thermometer plans of the banks the kernel decodes.
    pub(crate) thermo: Thermometers,
}

/// No thermometer plan (an unset `Thermometers::row_plans` entry).
pub(crate) const NO_PLAN: u32 = u32::MAX;

/// How the kernel evaluates one bank as a thermometer code.
///
/// Every member threshold is `i·2^shift`, so with `x = ⌊S / 2^shift⌋` —
/// planes `[shift, p)` of the bank's non-negative sum `S` — a member fires
/// iff `x ≥ i`. The distinct values `i` are listed in decode runs of
/// consecutive values, each value a *group* of the members with that
/// threshold; the member multiset is split into count runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BankPlan {
    /// The power of two every member threshold is a multiple of.
    pub(crate) shift: u8,
    /// This plan's `Thermometers::decode_runs` range.
    pub(crate) decode: (u32, u32),
    /// The first decode group; the runs' groups follow in run order.
    pub(crate) first_group: u32,
    /// This plan's `Thermometers::count_runs` range.
    pub(crate) counts: (u32, u32),
}

/// The `n` consecutive values `a, a + 1, …, a + n − 1` of a decode run:
/// its groups hold the members with thresholds `(a + j)·2^shift`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DecodeRun {
    pub(crate) a: i64,
    pub(crate) n: u32,
}

/// Members with thresholds `a·2^shift, …, (a + n − 1)·2^shift`, one each
/// — one Lemma 3.1 block. Together they fire `clamp(x − a + 1, 0, n)`
/// times: `n` where `last` fired, none where `first` did not, else
/// `x − (a − 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CountRun {
    pub(crate) a: i64,
    pub(crate) n: u32,
    /// Internal id of a member with threshold `a·2^shift` (`y_a`).
    pub(crate) first: u32,
    /// Internal id of a member with threshold `(a + n − 1)·2^shift`
    /// (`y_b`).
    pub(crate) last: u32,
}

/// The thermometer plans of a compiled circuit: one per bank with at least
/// two members, no negative weight and a finite plane budget.
#[derive(Debug, Clone, Default)]
pub(crate) struct Thermometers {
    /// Per-row index into `plans`, or [`NO_PLAN`].
    pub(crate) row_plans: Vec<u32>,
    pub(crate) plans: Vec<BankPlan>,
    pub(crate) decode_runs: Vec<DecodeRun>,
    /// Decode group `k` holds `group_gates[group_offsets[k]..group_offsets[k + 1]]`.
    pub(crate) group_offsets: Vec<u32>,
    /// Internal ids of the decoded members, grouped by threshold.
    pub(crate) group_gates: Vec<u32>,
    pub(crate) count_runs: Vec<CountRun>,
}

impl Thermometers {
    /// Plans every bank that has at least two members, no negative weight
    /// and a finite plane budget. Banks are the maximal runs of equal
    /// `gate_rows` entries in internal order.
    fn plan(gate_rows: &[u32], thresholds: &[i64], rows: &RowCsr) -> Self {
        let mut t = Thermometers {
            row_plans: vec![NO_PLAN; rows.len()],
            group_offsets: vec![0],
            ..Thermometers::default()
        };
        let mut members: Vec<(i64, u32)> = Vec::new();
        let mut left: Vec<(i64, u32, u32)> = Vec::new();
        let mut lo = 0;
        for bank in gate_rows.chunk_by(|a, b| a == b) {
            let (r, hi) = (bank[0] as usize, lo + bank.len());
            let edges = rows.offsets[r + 1] - rows.offsets[r];
            if bank.len() >= 2 && rows.batch_planes[r] != WIDE_GATE && rows.pos_counts[r] == edges {
                members.clear();
                // lint:allow(narrowing-cast): internal ids fit the u32 slot space checked at entry
                members.extend((lo..hi).map(|g| (thresholds[g], g as u32)));
                t.row_plans[r] = t.push_plan(&mut members, &mut left);
            }
            lo = hi;
        }
        t
    }

    /// Plans one bank from its members' `(threshold, internal id)` pairs;
    /// returns the plan's index. `left` is a reused work buffer.
    fn push_plan(&mut self, members: &mut [(i64, u32)], left: &mut Vec<(i64, u32, u32)>) -> u32 {
        let shift = members
            .iter()
            .filter(|&&(t, _)| t != 0)
            .map(|(t, _)| t.trailing_zeros())
            .min()
            .unwrap_or(0);
        for m in members.iter_mut() {
            m.0 >>= shift;
        }
        members.sort_unstable();
        // lint:allow(narrowing-cast): plan tables are no longer than the gate list, which fits u32
        let len32 = |len: usize| len as u32;
        let (runs_lo, counts_lo) = (self.decode_runs.len(), self.count_runs.len());
        let first_group = len32(self.group_offsets.len() - 1);

        // Decode: one group per distinct value, runs of consecutive values.
        left.clear();
        for group in members.chunk_by(|a, b| a.0 == b.0) {
            let (v, gate) = group[0];
            match self.decode_runs[runs_lo..].last_mut() {
                Some(run) if run.a + i64::from(run.n) == v => run.n += 1,
                _ => self.decode_runs.push(DecodeRun { a: v, n: 1 }),
            }
            self.group_gates.extend(group.iter().map(|&(_, g)| g));
            self.group_offsets.push(len32(self.group_gates.len()));
            left.push((v, len32(group.len()), gate));
        }

        // Count: peel maximal runs of consecutive values off the multiset,
        // one member of each value per pass, until every member is counted.
        while !left.is_empty() {
            for run in left.chunk_by(|a, b| a.0 + 1 == b.0) {
                let (first, last) = (run[0], run[run.len() - 1]);
                self.count_runs.push(CountRun {
                    a: first.0,
                    n: len32(run.len()),
                    first: first.2,
                    last: last.2,
                });
            }
            left.retain_mut(|e| {
                e.1 -= 1;
                e.1 > 0
            });
        }

        self.plans.push(BankPlan {
            // lint:allow(narrowing-cast): a trailing-zero count of a nonzero i64 is ≤ 63
            shift: shift as u8,
            decode: (len32(runs_lo), len32(self.decode_runs.len())),
            first_group,
            counts: (len32(counts_lo), len32(self.count_runs.len())),
        });
        len32(self.plans.len() - 1)
    }
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

/// The per-row CSR arrays [`CompiledCircuit::new`] emits, one row per bank
/// (see the fields of the same names on [`CompiledCircuit`]).
struct RowCsr {
    offsets: Vec<u32>,
    wires: Vec<u32>,
    weights: Vec<i64>,
    pos_counts: Vec<u32>,
    narrow: Vec<bool>,
    bit_offsets: Vec<u32>,
    bit_slots: Vec<u32>,
    bit_shifts: Vec<u8>,
    batch_planes: Vec<u8>,
}

impl Default for RowCsr {
    fn default() -> Self {
        RowCsr {
            offsets: vec![0],
            wires: Vec::new(),
            weights: Vec::new(),
            pos_counts: Vec::new(),
            narrow: Vec::new(),
            bit_offsets: vec![0],
            bit_slots: Vec::new(),
            bit_shifts: Vec::new(),
            batch_planes: Vec::new(),
        }
    }
}

impl RowCsr {
    fn len(&self) -> usize {
        self.pos_counts.len()
    }

    /// `true` when row `r` holds exactly the canonical edge list `canon`.
    fn holds(&self, r: u32, canon: &[(bool, u32, i64)]) -> bool {
        let (lo, hi) = (
            self.offsets[r as usize] as usize,
            self.offsets[r as usize + 1] as usize,
        );
        canon.len() == hi - lo
            && canon
                .iter()
                .zip(&self.wires[lo..hi])
                .zip(&self.weights[lo..hi])
                .all(|((&(_, slot, w), &s), &v)| slot == s && w == v)
    }

    /// Appends the canonical edge list `canon` as a new row of `class`
    /// (bit-edges only for `Pow2`/`General`) with a zero plane budget, which
    /// its members raise; returns the row id.
    fn push(&mut self, canon: &[(bool, u32, i64)], class: GateClass) -> u32 {
        // lint:allow(narrowing-cast): rows never outnumber gates, which fit the u32 slot space
        let r = self.len() as u32;
        let (mut pos, mut pos_sum, mut neg_sum) = (0u32, 0i128, 0i128);
        for &(neg, slot, w) in canon {
            self.wires.push(slot);
            self.weights.push(w);
            if neg {
                neg_sum -= w as i128;
            } else {
                pos += 1;
                pos_sum += w as i128;
            }
            if class != GateClass::Unit {
                // One bit-edge per set bit of |w|.
                binary_digits(w, &mut self.bit_shifts);
                self.bit_slots.resize(self.bit_shifts.len(), slot);
            }
        }
        self.pos_counts.push(pos);
        self.narrow
            .push(pos_sum <= i64::MAX as i128 && neg_sum <= i64::MAX as i128);
        self.batch_planes.push(0);
        // lint:allow(narrowing-cast): edge counts share the u32 CSR index space
        self.offsets.push(self.wires.len() as u32);
        // lint:allow(narrowing-cast): bit-edge counts share the u32 CSR index space
        self.bit_offsets.push(self.bit_slots.len() as u32);
        r
    }

    /// Plane additions row `r` costs one pass: its raw edges when `Unit`,
    /// its bit-edges otherwise.
    fn plane_ops(&self, class: GateClass, r: u32) -> u64 {
        let r = r as usize;
        let (lo, hi) = match class {
            GateClass::Unit => (self.offsets[r], self.offsets[r + 1]),
            _ => (self.bit_offsets[r], self.bit_offsets[r + 1]),
        };
        u64::from(hi - lo)
    }
}

/// Dedup table of one (layer, class) group, chained through flat arrays:
/// `buckets[hash & mask]` holds the newest row of that bucket and
/// `chain[row]` the next older one. Candidates are compared against the
/// CSR already written, so no row is held twice.
#[derive(Default)]
struct RowTable {
    buckets: Vec<u32>,
    chain: Vec<u32>,
    mask: usize,
}

impl RowTable {
    /// Empties the table for a group of `gates` gates (at most one new row
    /// each), keeping the load factor at or below one half.
    fn reset(&mut self, gates: usize) {
        self.mask = (2 * gates).next_power_of_two() - 1;
        self.buckets.clear();
        self.buckets.resize(self.mask + 1, NO_ROW);
    }

    fn bucket(&self, hash: u64) -> usize {
        // lint:allow(narrowing-cast): masked to a bucket index within the table
        hash as usize & self.mask
    }

    /// The row of this group holding `canon`, if any.
    fn find(&self, rows: &RowCsr, hash: u64, canon: &[(bool, u32, i64)]) -> Option<u32> {
        let mut r = self.buckets[self.bucket(hash)];
        while r != NO_ROW {
            if rows.holds(r, canon) {
                return Some(r);
            }
            r = self.chain[r as usize];
        }
        None
    }

    /// Records the newly pushed row `r` (rows are pushed in id order, so
    /// `chain` is indexed by row id).
    fn insert(&mut self, hash: u64, r: u32) {
        let bucket = self.bucket(hash);
        debug_assert_eq!(self.chain.len(), r as usize);
        self.chain.push(self.buckets[bucket]);
        self.buckets[bucket] = r;
    }
}

/// An empty dedup bucket, or the end of a bucket's chain.
const NO_ROW: u32 = u32::MAX;

/// Multiply-rotate hash of a canonical row (the FxHash step), cheap enough
/// to run on every unshared gate of a paper-scale circuit. A multiply only
/// carries upward, so the final fold moves the mixed high bits into the low
/// bits the dedup buckets are indexed by.
fn row_hash(row: &[(bool, u32, i64)]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let h = row.iter().fold(0, |h, &(_, slot, w)| {
        // The weight's sign is `neg`, so (slot, weight) is the whole edge.
        // lint:allow(narrowing-cast): reinterprets the weight's bits for hashing only
        step(step(h, u64::from(slot)), w as u64)
    });
    h ^ (h >> 32)
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
        let mut gate_planes = Vec::with_capacity(num_gates);
        let mut gate_class = Vec::with_capacity(num_gates);
        for (idx, gate) in circuit.gates().iter().enumerate() {
            let mut reach: i128 = 0;
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
                reach += weight.unsigned_abs() as i128;
            }
            depths[idx] = depth_in + 1;
            let planes = planes_for(reach + (gate.threshold().unsigned_abs() as i128));
            gate_planes.push(planes);
            let weights = gate.inputs().iter().map(|&(_, w)| w);
            gate_class.push(GateClass::classify(weights, planes));
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

        // ── Pass 2, one layer at a time: bank the gates and emit the rows.
        // Every fan-in sits in an earlier layer, whose slots are final by
        // then. A layer's gates are visited in (class, original id) order;
        // each gate's fan-in is put in canonical order and looked up among
        // the rows of its (layer, class) group — a match joins that row's
        // bank, a miss appends a new row. Rows are numbered in visiting
        // order, so sorting the layer by (row, original id) yields the
        // (class, row, original id) internal order with every bank
        // contiguous. Topological soundness holds because a fan-in gate
        // always has strictly smaller depth.
        let mut perm = vec![0u32; num_gates];
        let mut inv = Vec::with_capacity(num_gates);
        let mut gate_rows = Vec::with_capacity(num_gates);
        let mut thresholds = Vec::with_capacity(num_gates);
        let mut classes = Vec::with_capacity(num_gates);
        let mut rows = RowCsr::default();
        let mut table = RowTable::default();
        let mut class_counts = [0usize; 3];
        let mut class_plane_ops = [0u64; 3];
        let mut evaluated_plane_ops = [0u64; 3];
        let mut canon: Vec<(bool, u32, i64)> = Vec::new();
        let mut visit: Vec<u32> = Vec::new();
        let mut banked: Vec<(u32, u32)> = Vec::new();
        for &(lo, hi) in &layer_ranges {
            let layer = &schedule[lo as usize..hi as usize];
            visit.clear();
            for class in [GateClass::Unit, GateClass::Pow2, GateClass::General] {
                visit.extend(layer.iter().filter(|&&g| gate_class[g as usize] == class));
            }
            banked.clear();
            for group in visit.chunk_by(|&a, &b| gate_class[a as usize] == gate_class[b as usize]) {
                let class = gate_class[group[0] as usize];
                table.reset(group.len());
                let mut prev: Option<(&[(Wire, i64)], u32)> = None;
                for &g in group {
                    let inputs = circuit.gates()[g as usize].inputs();
                    let row = match prev {
                        // Bank members are usually emitted back to back with
                        // the very same edge list: that is the previous
                        // gate's row, with no sort or hash.
                        Some((prev_inputs, row)) if prev_inputs == inputs => row,
                        _ => {
                            canon.clear();
                            canon.extend(inputs.iter().map(|&(wire, w)| {
                                // lint:allow(narrowing-cast): slots fit the u32 space checked at entry
                                (w < 0, slot_of(wire, num_inputs, &perm) as u32, w)
                            }));
                            canon.sort_unstable();
                            let hash = row_hash(&canon);
                            table.find(&rows, hash, &canon).unwrap_or_else(|| {
                                let r = rows.push(&canon, class);
                                evaluated_plane_ops[class.index()] += rows.plane_ops(class, r);
                                table.insert(hash, r);
                                r
                            })
                        }
                    };
                    // A bank's plane budget is the largest any member needs.
                    let budget = &mut rows.batch_planes[row as usize];
                    *budget = (*budget).max(gate_planes[g as usize]);
                    class_counts[class.index()] += 1;
                    class_plane_ops[class.index()] += rows.plane_ops(class, row);
                    banked.push((row, g));
                    prev = Some((inputs, row));
                }
            }
            banked.sort_unstable();
            for &(row, g) in &banked {
                // lint:allow(narrowing-cast): internal ids fit the u32 slot space checked at entry
                perm[g as usize] = inv.len() as u32;
                inv.push(g);
                gate_rows.push(row);
                thresholds.push(circuit.gates()[g as usize].threshold());
                classes.push(gate_class[g as usize]);
            }
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

        let thermo = Thermometers::plan(&gate_rows, &thresholds, &rows);
        let RowCsr {
            offsets,
            wires,
            weights,
            pos_counts,
            narrow,
            bit_offsets,
            bit_slots,
            bit_shifts,
            batch_planes,
        } = rows;
        Ok(CompiledCircuit {
            num_inputs,
            offsets,
            wires,
            weights,
            pos_counts,
            narrow,
            bit_offsets,
            bit_slots,
            bit_shifts,
            batch_planes,
            gate_rows,
            thresholds,
            classes,
            depths,
            schedule,
            layer_ranges,
            outputs,
            segments,
            class_counts,
            class_plane_ops,
            evaluated_plane_ops,
            perm: perm.into(),
            inv,
            thermo,
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

    /// Total number of edges (sum of all fan-ins) of the source circuit,
    /// counting a shared row once per gate that reads it.
    pub fn num_edges(&self) -> usize {
        self.gate_rows
            .iter()
            .map(|&r| self.row_len(r as usize))
            .sum()
    }

    /// Number of banks: the distinct `(fan-in row, class)` pairs, each
    /// stored as one CSR row and summed once per batch pass.
    #[inline]
    pub fn num_banks(&self) -> usize {
        self.pos_counts.len()
    }

    /// Edges the batch kernel sums per pass: each bank's row once (the
    /// stored CSR edges). Compare [`CompiledCircuit::num_edges`], the
    /// source-form count.
    #[inline]
    pub fn num_evaluated_edges(&self) -> usize {
        self.wires.len()
    }

    /// Number of stored *bit-edges* — weights decomposed into set bits — of
    /// the [`GateClass::Pow2`] and [`GateClass::General`] rows, each bank's
    /// row once. [`GateClass::Unit`] rows are evaluated straight off the raw
    /// CSR edges and emit none; see [`CompiledCircuit::evaluated_plane_ops`]
    /// for the full per-pass work accounting.
    #[inline]
    pub fn num_bit_edges(&self) -> usize {
        self.bit_slots.len()
    }

    /// Gates the batch kernel decodes from a thermometer plan instead of
    /// comparing their own threshold: every member of each bank that has at
    /// least two members, no negative weight and a finite plane budget.
    #[inline]
    pub fn num_decoded_gates(&self) -> usize {
        self.thermo.group_gates.len()
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

    /// Source-form plane-addition operations per class (`[Unit, Pow2,
    /// General]`), as if every gate summed its own fan-in: raw edges for
    /// `Unit` gates, bit-edges for the rest. Sharing never changes it; see
    /// [`CompiledCircuit::evaluated_plane_ops`] for the work a pass does.
    #[inline]
    pub fn class_plane_ops(&self) -> [u64; 3] {
        self.class_plane_ops
    }

    /// Plane-addition operations one bit-sliced batch pass actually
    /// performs per class (`[Unit, Pow2, General]`): the units of
    /// [`CompiledCircuit::class_plane_ops`], counted once per bank. The
    /// unit of work of the batch kernel — cost models weight these.
    #[inline]
    pub fn evaluated_plane_ops(&self) -> [u64; 3] {
        self.evaluated_plane_ops
    }

    /// The ORIGINAL gate id occupying `slot`, or `None` for the constant-one
    /// wire and the primary inputs. The inverse of the internal `(depth,
    /// class, row)`-sorted slot numbering.
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

    #[inline]
    fn row_len(&self, r: usize) -> usize {
        (self.offsets[r + 1] - self.offsets[r]) as usize
    }

    /// The maximum fan-in over all gates (every row has a member gate).
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
    /// gate id): its bank's row, in canonical order — non-negative weights
    /// first, then ascending slot. The weighted sum is order-invariant.
    #[inline]
    pub fn fan_in(&self, g: usize) -> (&[u32], &[i64]) {
        let r = self.gate_rows[self.perm[g] as usize] as usize;
        let lo = self.offsets[r] as usize;
        let hi = self.offsets[r + 1] as usize;
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
    /// fast/wide path). Every gate sums its own row: the oracle shares
    /// nothing, so it pins the kernel's banks to per-gate semantics.
    #[inline]
    fn fire_scalar(&self, g: usize, vals: &[bool]) -> bool {
        debug_assert_eq!(vals.len(), self.len_slots());
        let r = self.gate_rows[g] as usize;
        let lo = self.offsets[r] as usize;
        let hi = self.offsets[r + 1] as usize;
        if self.narrow[r] {
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
        // The slot array is in internal (depth, class, row) order; the exposed
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
    fn thermometer_plans_cover_non_negative_multi_member_banks_only() {
        let mut b = CircuitBuilder::new(3);
        let (x, y, z) = (Wire::input(0), Wire::input(1), Wire::input(2));
        let mut gates = Vec::new();
        // Decoded: a Unit bank and a General bank, both non-negative, the
        // latter with a zero and a negative threshold.
        for t in [1, 2] {
            gates.push(b.add_gate([(x, 1), (y, 1)], t).unwrap());
        }
        for t in [3, 8, 0, -2] {
            gates.push(b.add_gate([(x, 3), (y, 5)], t).unwrap());
        }
        // Kept on the compare: a negative weight, a one-member bank, and
        // a bank beyond the plane budget.
        for t in [0, 1] {
            gates.push(b.add_gate([(x, 1), (y, -1)], t).unwrap());
        }
        gates.push(b.add_gate([(x, 1), (z, 1)], 1).unwrap());
        for t in [1, 2] {
            gates.push(b.add_gate([(x, i64::MAX), (y, i64::MAX - 2)], t).unwrap());
        }
        b.mark_outputs(gates);
        let cc = b.build().compile().unwrap();
        assert_eq!(cc.num_decoded_gates(), 6);
        let planned = |g: usize| {
            let row = cc.gate_rows[cc.perm[g] as usize] as usize;
            cc.thermo.row_plans[row] != NO_PLAN
        };
        let expected = [
            true, true, true, true, true, true, false, false, false, false, false,
        ];
        assert_eq!(
            (0..cc.num_gates()).map(planned).collect::<Vec<_>>(),
            expected
        );
        let rows: Vec<[bool; 3]> = (0..8u32)
            .map(|v| [v & 1 != 0, v & 2 != 0, v & 4 != 0])
            .collect();
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
