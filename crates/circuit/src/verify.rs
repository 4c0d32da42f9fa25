//! Independent static verification of circuits and their compiled CSR form.
//!
//! The compile pipeline (`compiled.rs`) classifies, renumbers and lowers a
//! [`Circuit`] in one tightly-coupled pass. Its correctness was
//! previously backed by sampled differential tests alone; this module adds a
//! *translation-validation* layer in the tradition of Pnueli/Necula: instead
//! of proving the compiler correct once, every compiled artifact is checked
//! against a set of machine-verifiable rules after the fact.
//!
//! Three families of rules live here:
//!
//! 1. **Structural invariants** ([`verify_compiled`]) — CSR well-formedness
//!    (monotone row offsets, in-bounds slot ids, no self or forward edges
//!    violating the layer schedule), the (depth, class, row)-sorted
//!    internal renumbering with a bijective `perm`/`inv` pair, bank shape
//!    (each row's member gates are one contiguous run of one class in one
//!    layer, and the row's plane budget is the largest its members need),
//!    per-class segment tables exactly matching what the batch kernel
//!    dispatches, and plane-op accounting reconciling row and bit-edge
//!    counts against `class_plane_ops` (each gate charged its row) and
//!    `evaluated_plane_ops` (each row once), and every thermometer plan
//!    against its bank: a non-negative row within the plane budget, decode
//!    groups partitioning the members at the thresholds their runs assign,
//!    and count runs partitioning the threshold multiset with end members
//!    at the runs' end thresholds.
//! 2. **Translation check** ([`verify_against`]) — for every gate, the
//!    compiled row must hold exactly the source gate's `(slot, weight)`
//!    multiset and the threshold must equal the source's; structurally,
//!    each row's bit-edge run must be the binary digits of its weights.
//!    The compiled gate then computes the source gate's sum against the
//!    source threshold, so it fires on exactly the same inputs — proved per
//!    gate rather than on sampled inputs only.
//! 3. **Paper-bound certification** ([`PaperBound`]) — constructors attach
//!    closed-form depth/size bounds from the source paper's theorems, and
//!    [`PaperBound::certify`] asserts them against the measured artifact.
//!
//! Everything is reported through one typed [`VerifyReport`] shared with the
//! pre-compile checks of [`Circuit::validate`], so pre- and post-compile
//! findings speak the same [`FindingKind`]/[`Severity`] vocabulary.

use crate::compiled::{CompiledCircuit, GateClass, BATCH_LANES, NO_PLAN, WIDE_GATE};
use crate::{Circuit, Wire};
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// A violated invariant: the artifact must not be evaluated.
    Error,
    /// A quality observation (dead or constant gates); the circuit is valid.
    Advice,
}

/// The typed vocabulary of everything the verifier can report.
///
/// Each variant corresponds to exactly one rule; the mutation harness in the
/// test module proves each rule fires on a correspondingly corrupted IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A wire references a nonexistent input or a not-yet-defined gate.
    DanglingWire,
    /// A gate with no fan-in edges at all.
    EmptyFanIn,
    /// A CSR array has the wrong length or a wrong terminal value.
    CsrShape,
    /// Row offsets (`offsets` or `bit_offsets`) are not monotone.
    OffsetMonotonicity,
    /// A fan-in or bit-edge slot id is outside the slot space.
    WireBounds,
    /// A fan-in edge reads a gate in the same or a later layer (self or
    /// forward edge): the layer schedule would evaluate it too early.
    EdgeOrder,
    /// The non-negative-first edge split disagrees with `pos_counts`.
    PosCountSplit,
    /// `perm`/`inv` are not inverse bijections over the gate ids.
    Renumbering,
    /// Layer ranges do not partition the gates, or the depth-grouped
    /// schedule disagrees with the recorded per-gate depths.
    LayerSchedule,
    /// Gates inside a layer are not sorted by (class, row, original id), so
    /// the class segments the kernel dispatches would not be maximal runs.
    InternalOrder,
    /// The per-class segment table does not match the recomputed maximal
    /// same-class runs.
    SegmentTable,
    /// A gate's stored [`GateClass`] disagrees with reclassification from
    /// its compiled weights and plane budget.
    ClassLabel,
    /// The per-class census `class_counts` is wrong.
    ClassCensus,
    /// A gate needs more planes — recomputed from its row's weight reach
    /// and its own threshold — than its bank's `batch_planes` budget.
    PlaneBudget,
    /// `class_plane_ops` does not reconcile with the per-gate row counts
    /// (each gate charged its whole row), or `evaluated_plane_ops` with the
    /// per-bank counts (each row once).
    PlaneOps,
    /// A row's narrow (i64-safe) flag disagrees with its weight sums.
    NarrowFlag,
    /// A bank is malformed: its members are not one contiguous run, mix
    /// classes or layers, or its row's plane budget is not the largest its
    /// members need (or a row has no member at all).
    BankRow,
    /// An output slot is out of bounds or does not match the source wire.
    OutputSlot,
    /// A bit-edge run does not reproduce the binary digits (one per set
    /// bit) of its row's weights.
    BitEdgeCertificate,
    /// A bank's thermometer plan does not decode its members: the row has
    /// a negative weight or an unbounded plane budget, the decode groups do
    /// not partition the members at the thresholds their runs assign, the
    /// count runs do not partition the members' threshold multiset, or a
    /// count run's end members do not carry its end thresholds.
    ThermometerPlan,
    /// A compiled artifact disagrees with its source circuit (gate/input
    /// counts, recomputed depths, a gate's fan-in multiset or its
    /// threshold).
    SourceMismatch,
    /// Measured depth violates the constructor's paper bound.
    DepthBound,
    /// Measured gate count violates the constructor's paper bound.
    GateBound,
    /// Measured edge count violates the constructor's paper bound.
    EdgeBound,
    /// A gate whose output is provably constant (advice).
    ConstantGate,
    /// A gate not reachable backwards from any designated output (advice).
    DeadGate,
}

impl FindingKind {
    /// Stable lowercase name used in rendered reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FindingKind::DanglingWire => "dangling-wire",
            FindingKind::EmptyFanIn => "empty-fan-in",
            FindingKind::CsrShape => "csr-shape",
            FindingKind::OffsetMonotonicity => "offset-monotonicity",
            FindingKind::WireBounds => "wire-bounds",
            FindingKind::EdgeOrder => "edge-order",
            FindingKind::PosCountSplit => "pos-count-split",
            FindingKind::Renumbering => "renumbering",
            FindingKind::LayerSchedule => "layer-schedule",
            FindingKind::InternalOrder => "internal-order",
            FindingKind::SegmentTable => "segment-table",
            FindingKind::ClassLabel => "class-label",
            FindingKind::ClassCensus => "class-census",
            FindingKind::PlaneBudget => "plane-budget",
            FindingKind::PlaneOps => "plane-ops",
            FindingKind::NarrowFlag => "narrow-flag",
            FindingKind::BankRow => "bank-row",
            FindingKind::OutputSlot => "output-slot",
            FindingKind::BitEdgeCertificate => "bit-edge-certificate",
            FindingKind::ThermometerPlan => "thermometer-plan",
            FindingKind::SourceMismatch => "source-mismatch",
            FindingKind::DepthBound => "depth-bound",
            FindingKind::GateBound => "gate-bound",
            FindingKind::EdgeBound => "edge-bound",
            FindingKind::ConstantGate => "constant-gate",
            FindingKind::DeadGate => "dead-gate",
        }
    }
}

/// One verification finding: a rule, its severity, the gate it concerns
/// (original gate id, when applicable) and a human-readable message.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub kind: FindingKind,
    /// Whether this invalidates the artifact or is advisory.
    pub severity: Severity,
    /// Original gate id the finding concerns, if gate-specific.
    pub gate: Option<usize>,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Advice => "advice",
        };
        match self.gate {
            Some(g) => write!(
                f,
                "{sev}[{}] gate {g}: {}",
                self.kind.as_str(),
                self.message
            ),
            None => write!(f, "{sev}[{}]: {}", self.kind.as_str(), self.message),
        }
    }
}

/// The result of verifying a circuit and/or its compiled form.
///
/// This is the shared report type of [`Circuit::validate`] (pre-compile),
/// [`verify_compiled`]/[`verify_against`] (post-compile) and
/// [`PaperBound::certify`]; all speak the same [`FindingKind`] vocabulary.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Every finding, in rule order.
    pub findings: Vec<Finding>,
}

impl VerifyReport {
    fn error(&mut self, kind: FindingKind, gate: Option<usize>, message: String) {
        self.findings.push(Finding {
            kind,
            severity: Severity::Error,
            gate,
            message,
        });
    }

    fn advice(&mut self, kind: FindingKind, gate: Option<usize>, message: String) {
        self.findings.push(Finding {
            kind,
            severity: Severity::Advice,
            gate,
            message,
        });
    }

    /// `true` when no [`Severity::Error`] finding was recorded (advisory
    /// findings — constant or dead gates — do not make a circuit invalid).
    pub fn is_valid(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// `true` if any finding of `kind` was recorded.
    pub fn has(&self, kind: FindingKind) -> bool {
        self.findings.iter().any(|f| f.kind == kind)
    }

    /// Original ids of gates whose output is provably constant.
    pub fn constant_gates(&self) -> Vec<usize> {
        self.gates_of(FindingKind::ConstantGate)
    }

    /// Original ids of gates unreachable from every designated output.
    pub fn dead_gates(&self) -> Vec<usize> {
        self.gates_of(FindingKind::DeadGate)
    }

    fn gates_of(&self, kind: FindingKind) -> Vec<usize> {
        self.findings
            .iter()
            .filter(|f| f.kind == kind)
            .filter_map(|f| f.gate)
            .collect()
    }

    /// Appends every finding of `other` to this report.
    pub fn merge(&mut self, other: VerifyReport) {
        self.findings.extend(other.findings);
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return write!(f, "verified: no findings");
        }
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        write!(
            f,
            "{} finding(s), {} error(s)",
            self.findings.len(),
            self.error_count()
        )
    }
}

/// Planes so that POS, NEG and POS − NEG − t all fit a signed `planes`-bit
/// two's-complement integer, given the reach. Independent re-statement of
/// the compile-time budget (`compiled.rs` keeps its own copy on purpose:
/// the verifier must not share the code it checks).
fn planes_for(reach: i128) -> u8 {
    let needed = 128 - (reach + 1).leading_zeros() + 2;
    if (needed as usize) < BATCH_LANES {
        needed as u8
    } else {
        WIDE_GATE
    }
}

/// No gate (an unset per-row entry).
const NONE: usize = usize::MAX;

fn slot_of(wire: Wire, num_inputs: usize, perm: &[u32]) -> Option<usize> {
    match wire {
        Wire::One => Some(0),
        Wire::Input(i) => Some(1 + i as usize),
        Wire::Gate(g) => perm.get(g as usize).map(|&p| 1 + num_inputs + p as usize),
    }
}

/// Verifies every structural invariant of a compiled circuit on its own —
/// no source [`Circuit`] required. See the module docs for the rule list.
///
/// The verifier never panics on corrupt input: shape violations are
/// recorded and dependent checks are skipped.
pub fn verify_compiled(c: &CompiledCircuit) -> VerifyReport {
    let mut r = VerifyReport::default();
    verify_compiled_into(c, &mut r);
    r
}

/// Returns `false` when the artifact is too structurally broken for the
/// per-gate cross-checks of [`verify_against`] to chase its indices.
fn verify_compiled_into(c: &CompiledCircuit, r: &mut VerifyReport) -> bool {
    let g_count = c.classes.len();
    let rows = c.pos_counts.len();
    let slots = 1 + c.num_inputs + g_count;

    // ── Array shapes. Everything after this section may index freely up to
    // `g_count` (per gate) and `rows` (per row), but offset *values* are
    // still validated before use.
    let shape_checks = [
        (c.offsets.len() == rows + 1, "offsets length"),
        (c.bit_offsets.len() == rows + 1, "bit_offsets length"),
        (c.wires.len() == c.weights.len(), "wires/weights parallel"),
        (
            c.bit_slots.len() == c.bit_shifts.len(),
            "bit_slots/bit_shifts parallel",
        ),
        (c.narrow.len() == rows, "narrow length"),
        (c.batch_planes.len() == rows, "batch_planes length"),
        (c.gate_rows.len() == g_count, "gate_rows length"),
        (c.thresholds.len() == g_count, "thresholds length"),
        (c.depths.len() == g_count, "depths length"),
        (c.schedule.len() == g_count, "schedule length"),
        (c.perm.len() == g_count, "perm length"),
        (c.inv.len() == g_count, "inv length"),
    ];
    let mut shapes_ok = true;
    for (ok, what) in shape_checks {
        if !ok {
            r.error(FindingKind::CsrShape, None, format!("bad {what}"));
            shapes_ok = false;
        }
    }
    if let Some(g) = c.gate_rows.iter().position(|&row| row as usize >= rows) {
        r.error(
            FindingKind::CsrShape,
            None,
            format!(
                "internal gate {g} points at row {} of {rows}",
                c.gate_rows[g]
            ),
        );
        shapes_ok = false;
    }
    if !shapes_ok {
        return false;
    }
    if c.offsets.first() != Some(&0) || *c.offsets.last().unwrap() as usize != c.wires.len() {
        r.error(
            FindingKind::CsrShape,
            None,
            format!("offsets must run from 0 to wires.len()={}", c.wires.len()),
        );
        return false;
    }
    if c.bit_offsets.first() != Some(&0)
        || *c.bit_offsets.last().unwrap() as usize != c.bit_slots.len()
    {
        r.error(
            FindingKind::CsrShape,
            None,
            format!(
                "bit_offsets must run from 0 to bit_slots.len()={}",
                c.bit_slots.len()
            ),
        );
        return false;
    }

    // ── perm/inv bijection.
    let mut perm_ok = true;
    let mut seen = vec![false; g_count];
    for (internal, &orig) in c.inv.iter().enumerate() {
        let o = orig as usize;
        if o >= g_count || seen[o] {
            r.error(
                FindingKind::Renumbering,
                Some(o.min(g_count.saturating_sub(1))),
                format!("inv[{internal}]={o} is out of range or repeated"),
            );
            perm_ok = false;
            continue;
        }
        seen[o] = true;
        if c.perm[o] as usize != internal {
            r.error(
                FindingKind::Renumbering,
                Some(o),
                format!(
                    "perm[{o}]={} does not invert inv[{internal}]={o}",
                    c.perm[o]
                ),
            );
            perm_ok = false;
        }
    }

    // ── Layer ranges partition [0, g_count) and the schedule groups the
    // ORIGINAL ids by recorded depth, ascending inside each layer.
    let mut layers_ok = true;
    let mut cursor = 0u32;
    for (d, &(lo, hi)) in c.layer_ranges.iter().enumerate() {
        if lo != cursor || hi <= lo || hi as usize > g_count {
            r.error(
                FindingKind::LayerSchedule,
                None,
                format!("layer {d} range {lo}..{hi} does not continue the partition"),
            );
            layers_ok = false;
            break;
        }
        cursor = hi;
    }
    if layers_ok && cursor as usize != g_count {
        r.error(
            FindingKind::LayerSchedule,
            None,
            format!("layer ranges cover {cursor} of {g_count} gates"),
        );
        layers_ok = false;
    }
    if layers_ok {
        let mut sched_seen = vec![false; g_count];
        for (d, &(lo, hi)) in c.layer_ranges.iter().enumerate() {
            let mut prev: Option<u32> = None;
            for &orig in &c.schedule[lo as usize..hi as usize] {
                let o = orig as usize;
                if o >= g_count || sched_seen[o] {
                    r.error(
                        FindingKind::LayerSchedule,
                        None,
                        format!("schedule entry {o} out of range or repeated in layer {d}"),
                    );
                    layers_ok = false;
                    continue;
                }
                sched_seen[o] = true;
                if c.depths[o] as usize != d + 1 {
                    r.error(
                        FindingKind::LayerSchedule,
                        Some(o),
                        format!(
                            "scheduled in layer {d} but recorded depth is {}",
                            c.depths[o]
                        ),
                    );
                    layers_ok = false;
                }
                if let Some(p) = prev {
                    if orig <= p {
                        r.error(
                            FindingKind::LayerSchedule,
                            Some(o),
                            format!("layer {d} schedule not ascending ({p} then {orig})"),
                        );
                        layers_ok = false;
                    }
                }
                prev = Some(orig);
            }
        }
    }
    if !(perm_ok && layers_ok) {
        return false;
    }

    // Layer of each internal id, and the depth-major cross-check: internal
    // gate g in layer d must be an original gate of depth d + 1.
    let mut internal_layer = vec![0u32; g_count];
    for (d, &(lo, hi)) in c.layer_ranges.iter().enumerate() {
        // The index addresses two arrays (`internal_layer`, `c.inv`); a
        // range loop reads better than a zipped iterator chain here.
        #[allow(clippy::needless_range_loop)]
        for g in lo as usize..hi as usize {
            internal_layer[g] = d as u32;
            let orig = c.inv[g] as usize;
            if c.depths[orig] as usize != d + 1 {
                r.error(
                    FindingKind::LayerSchedule,
                    Some(orig),
                    format!(
                        "internal id {g} sits in layer {d} but has depth {}",
                        c.depths[orig]
                    ),
                );
            }
        }
        // Within a layer the internal order must be (class, row, original
        // id) ascending: that is what makes the class segments maximal runs
        // and every bank one run inside them.
        for g in lo as usize + 1..hi as usize {
            let a = (c.classes[g - 1].index(), c.gate_rows[g - 1], c.inv[g - 1]);
            let b = (c.classes[g].index(), c.gate_rows[g], c.inv[g]);
            if a >= b {
                r.error(
                    FindingKind::InternalOrder,
                    Some(c.inv[g] as usize),
                    format!("layer {d} not sorted by (class, row, original id) at internal id {g}"),
                );
            }
        }
    }

    // ── Banks: the members of each row form one contiguous run of gates of
    // one class in one layer, and every row has at least one member.
    let mut first_member = vec![NONE; rows];
    for g in 0..g_count {
        let row = c.gate_rows[g] as usize;
        if g > 0 && c.gate_rows[g - 1] as usize == row {
            if c.classes[g] != c.classes[g - 1] || internal_layer[g] != internal_layer[g - 1] {
                r.error(
                    FindingKind::BankRow,
                    Some(c.inv[g] as usize),
                    format!("bank of row {row} mixes classes or layers at internal id {g}"),
                );
            }
        } else if first_member[row] != NONE {
            r.error(
                FindingKind::BankRow,
                Some(c.inv[g] as usize),
                format!("bank of row {row} is not contiguous: it resumes at internal id {g}"),
            );
        } else {
            first_member[row] = g;
        }
    }

    // ── Per-row pass: offsets, edge bounds and ordering, pos split,
    // narrow flag, class label, bit-edge reproduction, evaluated work.
    let mut row_reach = vec![0i128; rows];
    let mut row_class = vec![None; rows];
    let mut row_ops = vec![(0u64, 0u64); rows];
    let mut evaluated_ops = [0u64; 3];
    let mut offsets_ok = true;
    for row in 0..rows {
        let first = first_member[row];
        let gate = (first != NONE).then(|| c.inv[first] as usize);
        if first == NONE {
            r.error(
                FindingKind::BankRow,
                None,
                format!("row {row} has no member gate"),
            );
        }
        let (lo, hi) = (c.offsets[row] as usize, c.offsets[row + 1] as usize);
        if lo > hi || hi > c.wires.len() {
            r.error(
                FindingKind::OffsetMonotonicity,
                gate,
                format!("row {row} edge range {lo}..{hi} is not monotone/in-bounds"),
            );
            offsets_ok = false;
            continue;
        }
        let (blo, bhi) = (c.bit_offsets[row] as usize, c.bit_offsets[row + 1] as usize);
        if blo > bhi || bhi > c.bit_slots.len() {
            r.error(
                FindingKind::OffsetMonotonicity,
                gate,
                format!("row {row} bit-edge range {blo}..{bhi} is not monotone/in-bounds"),
            );
            offsets_ok = false;
            continue;
        }
        row_ops[row] = ((hi - lo) as u64, (bhi - blo) as u64);

        let pos = c.pos_counts[row] as usize;
        if pos > hi - lo {
            r.error(
                FindingKind::PosCountSplit,
                gate,
                format!("row {row} pos_counts={pos} exceeds its {} edges", hi - lo),
            );
        }
        let (mut pos_sum, mut neg_sum) = (0i128, 0i128);
        let mut edges_ok = true;
        for e in lo..hi {
            let slot = c.wires[e] as usize;
            if slot >= slots {
                r.error(
                    FindingKind::WireBounds,
                    gate,
                    format!("row {row} fan-in slot {slot} outside slot space {slots}"),
                );
                edges_ok = false;
                continue;
            }
            if slot > c.num_inputs && first != NONE {
                let p = slot - 1 - c.num_inputs;
                if internal_layer[p] >= internal_layer[first] {
                    r.error(
                        FindingKind::EdgeOrder,
                        gate,
                        format!(
                            "row {row} reads internal gate {p} (layer {}) from layer {}",
                            internal_layer[p], internal_layer[first]
                        ),
                    );
                    edges_ok = false;
                }
            }
            let w = c.weights[e];
            if (e - lo < pos) != (w >= 0) {
                r.error(
                    FindingKind::PosCountSplit,
                    gate,
                    format!(
                        "row {row} edge {} (weight {w}) on the wrong side of the split",
                        e - lo
                    ),
                );
            }
            if w >= 0 {
                pos_sum += w as i128;
            } else {
                neg_sum += -(w as i128);
            }
        }
        row_reach[row] = pos_sum + neg_sum;
        let narrow = pos_sum <= i64::MAX as i128 && neg_sum <= i64::MAX as i128;
        if c.narrow[row] != narrow {
            r.error(
                FindingKind::NarrowFlag,
                gate,
                format!(
                    "row {row} narrow flag {} but weight sums say {narrow}",
                    c.narrow[row]
                ),
            );
        }

        // Reclassify from the row's weights and its bank's plane budget;
        // the per-gate pass compares every member's label against it.
        let weights = &c.weights[lo..hi];
        let class = GateClass::classify(weights.iter().copied(), c.batch_planes[row]);
        row_class[row] = Some(class);
        if first == NONE {
            continue;
        }
        evaluated_ops[class.index()] += if class == GateClass::Unit {
            (hi - lo) as u64
        } else {
            (bhi - blo) as u64
        };

        // Unit rows must span zero bit-edges; every other row's run must
        // be one digit per set bit of each weight magnitude, in edge order:
        // the shift in the low 6 bits, the weight's sign in bit 7.
        if class == GateClass::Unit {
            if bhi != blo {
                r.error(
                    FindingKind::BitEdgeCertificate,
                    gate,
                    format!("Unit row {row} spans {} bit-edges (must be 0)", bhi - blo),
                );
            }
            continue;
        }
        if !edges_ok {
            continue;
        }
        let expected = (lo..hi).flat_map(|e| {
            let (slot, w) = (c.wires[e], c.weights[e]);
            let sign = if w < 0 { 0x80u8 } else { 0 };
            let mut bits = w.unsigned_abs();
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let k = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                Some((slot, k | sign))
            })
        });
        let stored = c.bit_slots[blo..bhi]
            .iter()
            .copied()
            .zip(c.bit_shifts[blo..bhi].iter().copied());
        if !stored.eq(expected) {
            r.error(
                FindingKind::BitEdgeCertificate,
                gate,
                format!(
                    "row {row} bit-edge run ({} edges) does not reproduce the binary digits of the weights",
                    bhi - blo
                ),
            );
        }
    }

    // ── Per-gate pass: class label, plane budget, census and source-form
    // plane-ops (each gate charged its whole row, row × member).
    let mut class_counts = [0usize; 3];
    let mut plane_ops = [0u64; 3];
    let mut largest_need = vec![0u8; rows];
    for g in 0..g_count {
        let orig = c.inv[g] as usize;
        let row = c.gate_rows[g] as usize;
        let class = c.classes[g];
        class_counts[class.index()] += 1;
        let (edges, bits) = row_ops[row];
        plane_ops[class.index()] += if class == GateClass::Unit {
            edges
        } else {
            bits
        };
        if let Some(reclassified) = row_class[row] {
            if reclassified != class {
                r.error(
                    FindingKind::ClassLabel,
                    Some(orig),
                    format!("stored class {class:?} disagrees with reclassification {reclassified:?} of row {row}"),
                );
            }
        }
        let need = planes_for(row_reach[row] + c.thresholds[g].unsigned_abs() as i128);
        largest_need[row] = largest_need[row].max(need);
        if need > c.batch_planes[row] {
            r.error(
                FindingKind::PlaneBudget,
                Some(orig),
                format!(
                    "needs {need} planes but its bank's budget is {}",
                    c.batch_planes[row]
                ),
            );
        }
    }
    for (row, (&need, &budget)) in largest_need.iter().zip(&c.batch_planes).enumerate() {
        if first_member[row] != NONE && need != budget {
            r.error(
                FindingKind::BankRow,
                Some(c.inv[first_member[row]] as usize),
                format!("row {row} plane budget {budget} is not its members' largest need {need}"),
            );
        }
    }

    // ── Per-class census, plane-op reconciliation, segment table.
    if class_counts != c.class_counts {
        r.error(
            FindingKind::ClassCensus,
            None,
            format!(
                "class_counts {:?} != recount {class_counts:?}",
                c.class_counts
            ),
        );
    }
    if plane_ops != c.class_plane_ops {
        r.error(
            FindingKind::PlaneOps,
            None,
            format!(
                "class_plane_ops {:?} does not reconcile with per-gate row counts {plane_ops:?}",
                c.class_plane_ops
            ),
        );
    }
    if evaluated_ops != c.evaluated_plane_ops {
        r.error(
            FindingKind::PlaneOps,
            None,
            format!(
                "evaluated_plane_ops {:?} does not reconcile with per-bank row counts {evaluated_ops:?}",
                c.evaluated_plane_ops
            ),
        );
    }
    let mut segments: Vec<(GateClass, u32, u32)> = Vec::new();
    for (i, &class) in c.classes.iter().enumerate() {
        match segments.last_mut() {
            Some((cl, _, hi)) if *cl == class => *hi = (i + 1) as u32,
            _ => segments.push((class, i as u32, (i + 1) as u32)),
        }
    }
    if segments != c.segments {
        r.error(
            FindingKind::SegmentTable,
            None,
            format!(
                "segment table {:?} != recomputed maximal runs {segments:?}",
                c.segments
            ),
        );
    }

    if offsets_ok {
        verify_thermometers(c, r, &first_member);
    }

    // ── Outputs stay inside the slot space.
    for (i, &slot) in c.outputs.iter().enumerate() {
        if slot as usize >= slots {
            r.error(
                FindingKind::OutputSlot,
                None,
                format!("output {i} slot {slot} outside slot space {slots}"),
            );
        }
    }

    offsets_ok
}

/// Checks every thermometer plan against the bank it decodes, so that the
/// kernel's decode and run counts equal per-member threshold compares:
///
/// * the planned row has no negative weight (its sum is the `pos` planes
///   alone) and a finite plane budget;
/// * the decode groups, read in run order, partition the bank's members,
///   and every gate of a run's `j`-th group has threshold `(a + j)·2^shift`;
/// * the count runs' values `(a + j)·2^shift` partition the members'
///   threshold multiset;
/// * each count run's end members lie in the bank and carry thresholds
///   `a·2^shift` and `(a + n − 1)·2^shift`.
///
/// All arithmetic is `i128`, so a forged run cannot overflow it.
fn verify_thermometers(c: &CompiledCircuit, r: &mut VerifyReport, first_member: &[usize]) {
    let t = &c.thermo;
    let g_count = c.gate_rows.len();
    let kind = FindingKind::ThermometerPlan;
    let offsets_ok = t.group_offsets.first() == Some(&0)
        && t.group_offsets.last().map(|&o| o as usize) == Some(t.group_gates.len())
        && t.group_offsets.windows(2).all(|w| w[0] <= w[1]);
    if t.row_plans.len() != c.pos_counts.len() || !offsets_ok {
        r.error(kind, None, "plan tables are malformed".to_string());
        return;
    }
    let mut decoded = vec![false; g_count];
    let mut want: Vec<i128> = Vec::new();
    let mut got: Vec<i128> = Vec::new();
    for (row, &k) in t.row_plans.iter().enumerate() {
        if k == NO_PLAN || first_member[row] == NONE {
            continue;
        }
        let first = first_member[row];
        let gate = Some(c.inv[first] as usize);
        let mut end = first + 1;
        while end < g_count && c.gate_rows[end] as usize == row {
            end += 1;
        }
        let bank = first..end;
        let Some(plan) = t.plans.get(k as usize) else {
            r.error(kind, gate, format!("row {row} names missing plan {k}"));
            continue;
        };
        let (lo, hi) = (c.offsets[row] as usize, c.offsets[row + 1] as usize);
        if c.weights[lo..hi].iter().any(|&w| w < 0) {
            r.error(kind, gate, format!("row {row} has a negative weight"));
        }
        if c.batch_planes[row] == WIDE_GATE {
            r.error(kind, gate, format!("row {row} has no finite plane budget"));
        }
        let shift = u32::from(plan.shift);
        let in_range = |(a, b): (u32, u32), len: usize| a <= b && b as usize <= len;
        if shift >= 64
            || !in_range(plan.decode, t.decode_runs.len())
            || !in_range(plan.counts, t.count_runs.len())
        {
            r.error(
                kind,
                gate,
                format!("row {row} plan {plan:?} is out of range"),
            );
            continue;
        }
        let threshold = |g: usize| i128::from(c.thresholds[g]);

        // Decode groups: in run order, each group holds the members whose
        // threshold is the run's next value.
        let mut group = plan.first_group as usize;
        let mut covered = 0usize;
        'runs: for run in &t.decode_runs[plan.decode.0 as usize..plan.decode.1 as usize] {
            for j in 0..run.n {
                let value = (i128::from(run.a) + i128::from(j)) << shift;
                if group + 1 >= t.group_offsets.len() {
                    r.error(
                        kind,
                        gate,
                        format!("row {row} decode runs outrun the groups"),
                    );
                    break 'runs;
                }
                let (glo, ghi) = (t.group_offsets[group], t.group_offsets[group + 1]);
                let members = &t.group_gates[glo as usize..ghi as usize];
                if members.is_empty() {
                    r.error(
                        kind,
                        gate,
                        format!("row {row} decode group {group} is empty"),
                    );
                }
                for &g in members {
                    let g = g as usize;
                    if !bank.contains(&g) || std::mem::replace(&mut decoded[g], true) {
                        r.error(
                            kind,
                            gate,
                            format!("row {row} group {group} holds internal gate {g}, not an undecoded member"),
                        );
                    } else if threshold(g) != value {
                        r.error(
                            kind,
                            Some(c.inv[g] as usize),
                            format!(
                                "threshold {} but group {group} assigns {value}",
                                threshold(g)
                            ),
                        );
                    }
                    covered += 1;
                }
                group += 1;
            }
        }
        if covered != bank.len() {
            r.error(
                kind,
                gate,
                format!(
                    "row {row} groups hold {covered} gates, not its {} members",
                    bank.len()
                ),
            );
        }

        // Count runs: their values partition the threshold multiset, and
        // their end members carry the end values.
        want.clear();
        want.extend(bank.clone().map(threshold));
        want.sort_unstable();
        got.clear();
        for run in &t.count_runs[plan.counts.0 as usize..plan.counts.1 as usize] {
            if run.n == 0 || got.len() + run.n as usize > bank.len() {
                got.clear();
                break;
            }
            let a = i128::from(run.a);
            got.extend((0..run.n).map(|j| (a + i128::from(j)) << shift));
            let b = a + i128::from(run.n) - 1;
            for (end_gate, value) in [(run.first, a << shift), (run.last, b << shift)] {
                let g = end_gate as usize;
                if !bank.contains(&g) || threshold(g) != value {
                    r.error(
                        kind,
                        gate,
                        format!("row {row} count run {run:?}: end member {g} is not a member with threshold {value}"),
                    );
                }
            }
        }
        got.sort_unstable();
        if got != want {
            r.error(
                kind,
                gate,
                format!(
                    "row {row} count runs do not partition its {} member thresholds",
                    bank.len()
                ),
            );
        }
    }
}

/// Verifies a compiled circuit *against its source*: all of
/// [`verify_compiled`] plus the recomputed depth schedule and, per gate, the
/// fan-in multiset of its row and its threshold.
pub fn verify_against(circuit: &Circuit, c: &CompiledCircuit) -> VerifyReport {
    let mut r = VerifyReport::default();
    let structural = verify_compiled_into(c, &mut r);

    let num_inputs = circuit.num_inputs();
    let g_count = circuit.num_gates();
    if c.num_inputs != num_inputs || c.classes.len() != g_count {
        r.error(
            FindingKind::SourceMismatch,
            None,
            format!(
                "compiled shape ({} inputs, {} gates) != source ({num_inputs} inputs, {g_count} gates)",
                c.num_inputs,
                c.classes.len()
            ),
        );
        return r;
    }
    if !structural {
        // Structural wreckage: the per-gate cross-checks below would chase
        // broken indices.
        return r;
    }

    // Recompute depths from the raw fan-ins, independently of `compiled.rs`.
    let mut depths = vec![0u32; g_count];
    for (idx, gate) in circuit.gates().iter().enumerate() {
        let mut d = 0u32;
        for &(wire, _) in gate.inputs() {
            if let Wire::Gate(p) = wire {
                if (p as usize) < idx {
                    d = d.max(depths[p as usize]);
                }
            }
        }
        depths[idx] = d + 1;
        if c.depths[idx] != depths[idx] {
            r.error(
                FindingKind::SourceMismatch,
                Some(idx),
                format!(
                    "recorded depth {} != depth {} recomputed from the source",
                    c.depths[idx], depths[idx]
                ),
            );
        }
    }
    // ── Per-gate translation check: the compiled gate reads a row holding
    // exactly the source gate's (slot, weight) multiset — the weighted sum
    // is order-invariant — and keeps the source threshold, so it fires on
    // the same inputs. Once a row is proven against one source gate, a
    // member whose source edge list is identical to that gate's is proven
    // by comparing the two lists.
    let mut proven_by = vec![NONE; c.pos_counts.len()];
    let mut want: Vec<(Option<usize>, i64)> = Vec::new();
    let mut got: Vec<(Option<usize>, i64)> = Vec::new();
    for (idx, gate) in circuit.gates().iter().enumerate() {
        let g = c.perm[idx] as usize;
        let row = c.gate_rows[g] as usize;
        let (lo, hi) = (c.offsets[row] as usize, c.offsets[row + 1] as usize);
        let proven =
            proven_by[row] != NONE && circuit.gates()[proven_by[row]].inputs() == gate.inputs();
        if !proven {
            want.clear();
            want.extend(
                gate.inputs()
                    .iter()
                    .map(|&(wire, w)| (slot_of(wire, num_inputs, &c.perm), w)),
            );
            got.clear();
            got.extend((lo..hi).map(|e| (Some(c.wires[e] as usize), c.weights[e])));
            want.sort_unstable();
            got.sort_unstable();
            if want == got {
                proven_by[row] = idx;
            } else {
                r.error(
                    FindingKind::SourceMismatch,
                    Some(idx),
                    format!(
                        "row {row} ({} edges) is not the source fan-in multiset ({} edges)",
                        hi - lo,
                        gate.fan_in()
                    ),
                );
            }
        }
        if c.thresholds[g] != gate.threshold() {
            r.error(
                FindingKind::SourceMismatch,
                Some(idx),
                format!(
                    "compiled threshold {} != source threshold {}",
                    c.thresholds[g],
                    gate.threshold()
                ),
            );
        }
    }

    // ── Outputs map back to the source output wires.
    if c.outputs.len() != circuit.outputs().len() {
        r.error(
            FindingKind::OutputSlot,
            None,
            format!(
                "{} compiled outputs != {} source outputs",
                c.outputs.len(),
                circuit.outputs().len()
            ),
        );
    } else {
        for (i, &wire) in circuit.outputs().iter().enumerate() {
            if slot_of(wire, num_inputs, &c.perm) != Some(c.outputs[i] as usize) {
                r.error(
                    FindingKind::OutputSlot,
                    None,
                    format!("output {i} slot {} does not encode {wire:?}", c.outputs[i]),
                );
            }
        }
    }

    r
}

/// The pre-compile checks behind [`Circuit::validate`]: raw-gate-list
/// structural errors, then — whenever the circuit lowers cleanly — the full
/// compiled verification plus the constant/dead-gate analyses.
pub(crate) fn validate_circuit(circuit: &Circuit) -> VerifyReport {
    let mut r = VerifyReport::default();
    let num_inputs = circuit.num_inputs();
    let num_gates = circuit.num_gates();

    for (idx, gate) in circuit.gates().iter().enumerate() {
        if gate.fan_in() == 0 {
            r.error(
                FindingKind::EmptyFanIn,
                Some(idx),
                "gate has no fan-in edges".to_string(),
            );
        }
        for &(wire, _) in gate.inputs() {
            let ok = match wire {
                Wire::Input(i) => (i as usize) < num_inputs,
                Wire::Gate(g) => (g as usize) < idx,
                Wire::One => true,
            };
            if !ok {
                r.error(
                    FindingKind::DanglingWire,
                    Some(idx),
                    format!("fan-in wire {wire:?} does not exist yet"),
                );
            }
        }
    }
    for &out in circuit.outputs() {
        let ok = match out {
            Wire::Input(i) => (i as usize) < num_inputs,
            Wire::Gate(g) => (g as usize) < num_gates,
            Wire::One => true,
        };
        if !ok {
            r.error(
                FindingKind::DanglingWire,
                None,
                format!("output wire {out:?} does not exist"),
            );
        }
    }

    match circuit.compile() {
        Ok(compiled) => {
            r.merge(verify_against(circuit, &compiled));
            for g in constant_gates_csr(&compiled) {
                r.advice(
                    FindingKind::ConstantGate,
                    Some(g),
                    "output is provably constant".to_string(),
                );
            }
            for g in dead_gates_csr(&compiled) {
                r.advice(
                    FindingKind::DeadGate,
                    Some(g),
                    "not reachable from any designated output".to_string(),
                );
            }
        }
        Err(_) => {
            // Invalid circuits keep the (slower) gate-list analyses so the
            // report stays complete.
            for (idx, gate) in circuit.gates().iter().enumerate() {
                if gate.is_constant() {
                    r.advice(
                        FindingKind::ConstantGate,
                        Some(idx),
                        "output is provably constant".to_string(),
                    );
                }
            }
            for g in dead_gates_list(circuit) {
                r.advice(
                    FindingKind::DeadGate,
                    Some(g),
                    "not reachable from any designated output".to_string(),
                );
            }
        }
    }
    r
}

/// Gates whose output is provably constant, computed from the CSR weights:
/// a gate is constant when even the most favourable input assignment cannot
/// cross (or avoid crossing) the threshold.
fn constant_gates_csr(compiled: &CompiledCircuit) -> Vec<usize> {
    (0..compiled.num_gates())
        .filter(|&g| {
            let (_, weights) = compiled.fan_in(g);
            let max_sum: i128 = weights.iter().filter(|&&w| w > 0).map(|&w| w as i128).sum();
            let min_sum: i128 = weights.iter().filter(|&&w| w < 0).map(|&w| w as i128).sum();
            let t = compiled.threshold(g) as i128;
            min_sum >= t || max_sum < t
        })
        .collect()
}

/// Gates not reachable (backwards) from any designated output, traversing
/// the compiled CSR adjacency. Slots are internally (depth, class, row)-sorted,
/// so every slot met during the walk is translated back to its ORIGINAL
/// gate id through [`CompiledCircuit::gate_of_slot`] before indexing.
fn dead_gates_csr(compiled: &CompiledCircuit) -> Vec<usize> {
    let n = compiled.num_gates();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = (0..compiled.num_outputs())
        .filter_map(|i| compiled.gate_of_slot(compiled.output_slot(i)))
        .collect();
    while let Some(g) = stack.pop() {
        if live[g] {
            continue;
        }
        live[g] = true;
        let (wires, _) = compiled.fan_in(g);
        for &slot in wires {
            if let Some(p) = compiled.gate_of_slot(slot as usize) {
                if !live[p] {
                    stack.push(p);
                }
            }
        }
    }
    (0..n).filter(|&g| !live[g]).collect()
}

/// Gates not reachable (backwards) from any designated output, on the raw
/// gate list (fallback for circuits the compiled engine rejects).
fn dead_gates_list(circuit: &Circuit) -> Vec<usize> {
    let n = circuit.num_gates();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = circuit
        .outputs()
        .iter()
        .filter_map(|w| w.as_gate())
        .filter(|&g| g < n)
        .collect();
    while let Some(g) = stack.pop() {
        if live[g] {
            continue;
        }
        live[g] = true;
        for &(wire, _) in circuit.gates()[g].inputs() {
            if let Some(p) = wire.as_gate() {
                if p < n && !live[p] {
                    stack.push(p);
                }
            }
        }
    }
    (0..n).filter(|&g| !live[g]).collect()
}

/// A closed-form bound on one measured quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The measurement must equal this value exactly.
    Exact(u128),
    /// The measurement must not exceed this value.
    AtMost(u128),
}

impl Bound {
    /// Whether `measured` satisfies the bound.
    pub fn admits(self, measured: u128) -> bool {
        match self {
            Bound::Exact(v) => measured == v,
            Bound::AtMost(v) => measured <= v,
        }
    }

    /// The bound's numeric value (the target of `=` or `≤`).
    pub fn value(self) -> u128 {
        match self {
            Bound::Exact(v) | Bound::AtMost(v) => v,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Exact(v) => write!(f, "= {v}"),
            Bound::AtMost(v) => write!(f, "<= {v}"),
        }
    }
}

/// A constructor's closed-form paper bound: depth and gate count (and,
/// where the construction admits a clean formula, edge count), tied to the
/// theorem it instantiates.
///
/// Constructors in `tcmm-core` (and its dependents) expose `paper_bound()`
/// methods returning one of these; [`PaperBound::certify`] asserts the
/// bounds against the compiled artifact and reports violations with the
/// [`FindingKind::DepthBound`]/[`GateBound`](FindingKind::GateBound)/
/// [`EdgeBound`](FindingKind::EdgeBound) kinds.
#[derive(Debug, Clone)]
pub struct PaperBound {
    /// The constructor the bound describes (e.g. `TraceCircuit`).
    pub constructor: &'static str,
    /// The paper theorem the formula comes from (e.g. `Theorem 4.5`).
    pub theorem: &'static str,
    /// Human-readable geometry, e.g. `n=8, b=2, t=2`.
    pub geometry: String,
    /// Bound on circuit depth (layers of gates on the longest path).
    pub depth: Bound,
    /// Bound on gate count (the paper's *size*).
    pub gates: Bound,
    /// Bound on edge count (wiring cost), where a clean formula exists.
    pub edges: Option<Bound>,
}

impl PaperBound {
    /// Asserts the bound against a compiled artifact.
    pub fn certify(&self, compiled: &CompiledCircuit) -> VerifyReport {
        let mut r = VerifyReport::default();
        let ctx = format!("{} ({}, {})", self.constructor, self.theorem, self.geometry);
        let depth = compiled.depth() as u128;
        if !self.depth.admits(depth) {
            r.error(
                FindingKind::DepthBound,
                None,
                format!(
                    "{ctx}: measured depth {depth} violates bound {}",
                    self.depth
                ),
            );
        }
        let gates = compiled.num_gates() as u128;
        if !self.gates.admits(gates) {
            r.error(
                FindingKind::GateBound,
                None,
                format!(
                    "{ctx}: measured {gates} gates violates bound {}",
                    self.gates
                ),
            );
        }
        if let Some(edges) = self.edges {
            let measured = compiled.num_edges() as u128;
            if !edges.admits(measured) {
                r.error(
                    FindingKind::EdgeBound,
                    None,
                    format!("{ctx}: measured {measured} edges violates bound {edges}"),
                );
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::DecodeRun;
    use crate::{CircuitBuilder, Wire};

    fn mixed_circuit() -> Circuit {
        // Unit, Pow2 and General gates across three layers, with a shared
        // weight factor (kept as built) and multi-digit weights.
        let mut b = CircuitBuilder::new(3);
        let x = Wire::input(0);
        let y = Wire::input(1);
        let z = Wire::input(2);
        let unit = b.add_gate([(x, 1), (y, -1), (z, 1)], 1).unwrap();
        let pow2 = b.add_gate([(x, 4), (y, -2)], 2).unwrap();
        let shared = b.add_gate([(x, 6), (y, 9), (unit, -3)], 7).unwrap();
        let gen = b.add_gate([(unit, 7), (pow2, -5), (shared, 1)], 3).unwrap();
        let top = b.add_gate([(gen, 1), (shared, 1)], 1).unwrap();
        b.mark_output(top);
        b.mark_output(Wire::input(2));
        b.build()
    }

    fn compiled() -> (Circuit, CompiledCircuit) {
        let c = mixed_circuit();
        let compiled = c.compile().unwrap();
        (c, compiled)
    }

    /// Two banks of two Unit gates, thresholds 1 and 2 on `x + y` (listed
    /// in both orders) and on `x + z`, read by one top gate.
    fn banked() -> (Circuit, CompiledCircuit) {
        let mut b = CircuitBuilder::new(3);
        let (x, y, z) = (Wire::input(0), Wire::input(1), Wire::input(2));
        let a1 = b.add_gate([(x, 1), (y, 1)], 1).unwrap();
        let a2 = b.add_gate([(y, 1), (x, 1)], 2).unwrap();
        let b1 = b.add_gate([(x, 1), (z, 1)], 1).unwrap();
        let b2 = b.add_gate([(x, 1), (z, 1)], 2).unwrap();
        let top = b.add_gate([(a1, 1), (a2, 1), (b1, 1), (b2, 1)], 2).unwrap();
        b.mark_output(top);
        let c = b.build();
        let compiled = c.compile().unwrap();
        (c, compiled)
    }

    #[test]
    fn banks_share_rows_and_verify() {
        let (c, m) = banked();
        assert_eq!(m.num_banks(), 3);
        assert_eq!(m.gate_rows, [0, 0, 1, 1, 2]);
        assert_eq!(m.num_edges(), c.num_edges());
        assert_eq!(m.num_evaluated_edges(), 2 + 2 + 4);
        assert_eq!(m.class_plane_ops(), [12, 0, 0]);
        assert_eq!(m.evaluated_plane_ops(), [8, 0, 0]);
        let r = verify_against(&c, &m);
        assert!(r.is_valid(), "{r}");
    }

    #[test]
    fn clean_compile_verifies() {
        let (c, compiled) = compiled();
        let r = verify_against(&c, &compiled);
        assert!(r.is_valid(), "{r}");
        assert!(verify_compiled(&compiled).is_valid());
    }

    #[test]
    fn wide_and_extreme_weight_circuits_verify() {
        // Near-extreme weights exceed the plane budget: the gate takes the
        // wide path.
        let mut b = CircuitBuilder::new(2);
        let x = Wire::input(0);
        let y = Wire::input(1);
        let wide = b.add_gate([(x, i64::MAX), (y, i64::MAX - 2)], 1).unwrap();
        let top = b.add_gate([(wide, 1), (x, 1)], 1).unwrap();
        b.mark_output(top);
        let c = b.build();
        let compiled = c.compile().unwrap();
        assert_eq!(compiled.gate_class(0), GateClass::General);
        let r = verify_against(&c, &compiled);
        assert!(r.is_valid(), "{r}");
    }

    // ── Mutation harness: every corruption shape must be rejected with its
    // typed finding kind. The corruptions below poke pub(crate) fields the
    // way a miscompilation would.

    #[test]
    fn mutation_nonmonotone_offsets_are_caught() {
        let (_, mut m) = compiled();
        m.offsets[1] = m.offsets[2] + 1;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::OffsetMonotonicity), "{r}");
    }

    #[test]
    fn mutation_nonmonotone_offsets_do_not_panic_the_source_check() {
        let (c, mut m) = compiled();
        m.offsets[1] = m.offsets[2] + 1;
        let r = verify_against(&c, &m);
        assert!(r.has(FindingKind::OffsetMonotonicity), "{r}");
    }

    #[test]
    fn mutation_truncated_offsets_are_caught() {
        let (_, mut m) = compiled();
        m.offsets.pop();
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::CsrShape), "{r}");
    }

    #[test]
    fn mutation_out_of_bounds_wire_is_caught() {
        let (_, mut m) = compiled();
        let slots = 1 + m.num_inputs + m.classes.len();
        m.wires[0] = slots as u32 + 7;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::WireBounds), "{r}");
    }

    #[test]
    fn mutation_forward_edge_is_caught() {
        let (_, mut m) = compiled();
        // Rewire the first gate's first edge to the last gate's slot: a
        // forward reference the layer schedule would evaluate too early.
        let last_slot = (1 + m.num_inputs + m.classes.len() - 1) as u32;
        m.wires[0] = last_slot;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::EdgeOrder), "{r}");
    }

    #[test]
    fn mutation_swapped_permutation_is_caught() {
        let (_, mut m) = compiled();
        let mut perm = m.perm.to_vec();
        perm.swap(0, 1);
        m.perm = perm.into();
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::Renumbering), "{r}");
    }

    #[test]
    fn mutation_flipped_class_label_is_caught() {
        let (_, mut m) = compiled();
        let g = m
            .classes
            .iter()
            .position(|&c| c == GateClass::Unit)
            .unwrap();
        m.classes[g] = GateClass::General;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::ClassLabel), "{r}");
    }

    #[test]
    fn mutation_tampered_segment_table_is_caught() {
        let (_, mut m) = compiled();
        assert!(m.segments.len() >= 2, "fixture needs multiple segments");
        let (_, lo, _) = m.segments[0];
        let (cl1, _, hi1) = m.segments[1];
        m.segments[0] = (cl1, lo, hi1);
        m.segments.remove(1);
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::SegmentTable), "{r}");
    }

    #[test]
    fn mutation_wrong_plane_ops_are_caught() {
        let (_, mut m) = compiled();
        m.class_plane_ops[0] += 1;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::PlaneOps), "{r}");

        let (_, mut m) = banked();
        // Charging the shared row once per member is the source form, not
        // the work a pass does.
        m.evaluated_plane_ops = m.class_plane_ops;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::PlaneOps), "{r}");
    }

    #[test]
    fn mutation_forged_compiled_threshold_is_caught() {
        let (c, mut m) = compiled();
        // Gate 2 [6, 9, -3] keeps its source threshold 7. Forging it to 6
        // leaves the plane budget, and so every structural invariant,
        // intact: only the check against the source gate can see it.
        let g = m.perm[2] as usize;
        assert_eq!(m.thresholds[g], 7);
        m.thresholds[g] = 6;
        assert!(verify_compiled(&m).is_valid());
        let r = verify_against(&c, &m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::SourceMismatch), "{r}");
    }

    #[test]
    fn mutation_forged_compiled_weight_is_caught() {
        let (c, mut m) = compiled();
        // Rewrite gate 2's weight 6 (bits 1, 2) to 5 (bits 0, 2) together
        // with its bit-edge run: a self-consistent miscompile that only the
        // check against the source gate can see.
        let row = m.gate_rows[m.perm[2] as usize] as usize;
        let lo = m.offsets[row] as usize;
        let blo = m.bit_offsets[row] as usize;
        assert_eq!((m.weights[lo], m.bit_shifts[blo]), (6, 1));
        m.weights[lo] = 5;
        m.bit_shifts[blo] = 0;
        assert!(verify_compiled(&m).is_valid());
        let r = verify_against(&c, &m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::SourceMismatch), "{r}");
    }

    #[test]
    fn mutation_gate_pointed_at_a_sibling_row_is_caught() {
        let (c, mut m) = banked();
        // Gate 1 (x + y >= 2) now reads the sibling row x + z. Every bank
        // stays contiguous, one class, and within its plane budget, and the
        // banks drop their thermometer plans (which no bank needs), so only
        // the check against the source can see it.
        let g = m.perm[1] as usize;
        m.gate_rows[g] = m.gate_rows[m.perm[2] as usize];
        m.thermo.row_plans.fill(NO_PLAN);
        assert!(verify_compiled(&m).is_valid(), "{}", verify_compiled(&m));
        let r = verify_against(&c, &m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::SourceMismatch), "{r}");
    }

    #[test]
    fn mutation_forged_bank_shape_is_caught() {
        // A bank split in two: row 0, row 1, row 0, row 1.
        let (_, mut m) = banked();
        m.gate_rows.swap(1, 2);
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::BankRow), "{r}");

        // A bank mixing classes.
        let (_, mut m) = banked();
        m.classes[1] = GateClass::Pow2;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::BankRow), "{r}");

        // A bank whose plane budget exceeds every member's need.
        let (_, mut m) = banked();
        m.batch_planes[1] += 1;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::BankRow), "{r}");
    }

    #[test]
    fn mutation_corrupted_bit_digit_is_caught() {
        let (_, mut m) = compiled();
        assert!(!m.bit_shifts.is_empty());
        m.bit_shifts[0] ^= 1;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::BitEdgeCertificate), "{r}");
    }

    #[test]
    fn mutation_wrong_pos_split_is_caught() {
        let (_, mut m) = compiled();
        // The Unit gate [1, -1, 1] compiles to a row with pos_counts = 2.
        let g = m
            .classes
            .iter()
            .position(|&c| c == GateClass::Unit)
            .unwrap();
        m.pos_counts[m.gate_rows[g] as usize] = 1;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::PosCountSplit), "{r}");
    }

    #[test]
    fn mutation_wrong_plane_budget_is_caught() {
        let (_, mut m) = compiled();
        // One plane too few: the member's sum would overflow its planes.
        m.batch_planes[0] -= 1;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::PlaneBudget), "{r}");
        // One plane too many is sound but not the bank's largest need.
        let (_, mut m) = compiled();
        m.batch_planes[0] += 1;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::BankRow), "{r}");
    }

    #[test]
    fn mutation_flipped_narrow_flag_is_caught() {
        let (_, mut m) = compiled();
        m.narrow[0] = !m.narrow[0];
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::NarrowFlag), "{r}");
    }

    #[test]
    fn mutation_out_of_bounds_output_is_caught() {
        let (_, mut m) = compiled();
        m.outputs[0] = u32::MAX;
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::OutputSlot), "{r}");
    }

    #[test]
    fn mutation_wrong_depth_record_is_caught() {
        let (c, mut m) = compiled();
        m.depths[4] += 1;
        // The layer schedule no longer matches the recorded depth...
        let r = verify_compiled(&m);
        assert!(!r.is_valid());
        assert!(r.has(FindingKind::LayerSchedule), "{r}");
        // ...and the source cross-check rejects the record as well.
        let r = verify_against(&c, &m);
        assert!(!r.is_valid());
    }

    /// Thermometer banks: `x + 2y + 4z` read at the thresholds of a Lemma
    /// 3.1 block `{2, 4, 6, 8}` and of a second block `{4, 8}` (one bank:
    /// values `{1, 2, 3, 4}` and `{2, 4}` at shift 1), and the Unit sum
    /// `x + w` read at thresholds 1 and 2; one top gate reads all eight.
    fn thermometer() -> (Circuit, CompiledCircuit) {
        let mut b = CircuitBuilder::new(4);
        let (x, y, z, w) = (
            Wire::input(0),
            Wire::input(1),
            Wire::input(2),
            Wire::input(3),
        );
        let mut members = Vec::new();
        for t in [2, 4, 6, 8, 4, 8] {
            members.push(b.add_gate([(x, 1), (y, 2), (z, 4)], t).unwrap());
        }
        for t in [1, 2] {
            members.push(b.add_gate([(x, 1), (w, 1)], t).unwrap());
        }
        let top = b.add_gate(members.iter().map(|&g| (g, 1)), 4).unwrap();
        b.mark_output(top);
        let c = b.build();
        let compiled = c.compile().unwrap();
        (c, compiled)
    }

    /// The plan index of original gate `g`'s bank.
    fn plan_of(m: &CompiledCircuit, g: usize) -> usize {
        let row = m.gate_rows[m.perm[g] as usize] as usize;
        m.thermo.row_plans[row] as usize
    }

    /// `true` when `m` fails verification with thermometer-plan findings
    /// only: every other rule passes the forged artifact.
    fn only_the_plan_check_fails(m: &CompiledCircuit) -> bool {
        let r = verify_compiled(m);
        !r.is_valid()
            && r.findings
                .iter()
                .all(|f| f.kind == FindingKind::ThermometerPlan)
    }

    #[test]
    fn thermometer_banks_are_planned_and_verify() {
        let (c, m) = thermometer();
        assert_eq!(m.num_decoded_gates(), 8);
        let t = &m.thermo;
        let plan = t.plans[plan_of(&m, 0)];
        assert_eq!(plan.shift, 1);
        let runs = &t.decode_runs[plan.decode.0 as usize..plan.decode.1 as usize];
        assert_eq!(runs, [DecodeRun { a: 1, n: 4 }]);
        let counts: Vec<(i64, u32)> = t.count_runs[plan.counts.0 as usize..plan.counts.1 as usize]
            .iter()
            .map(|run| (run.a, run.n))
            .collect();
        assert_eq!(counts, [(1, 4), (2, 1), (4, 1)]);
        assert_eq!(t.plans[plan_of(&m, 6)].shift, 0);
        // The top gate is a one-member bank: it keeps the compare.
        assert_eq!(
            t.row_plans[m.gate_rows[m.perm[8] as usize] as usize],
            NO_PLAN
        );
        let r = verify_against(&c, &m);
        assert!(r.is_valid(), "{r}");
        let rows: Vec<[bool; 4]> = (0..16u32)
            .map(|v| [v & 1 != 0, v & 2 != 0, v & 4 != 0, v & 8 != 0])
            .collect();
        crate::arena::assert_arena_matches_scalar(&m, &rows);
    }

    #[test]
    fn thermometer_mutation_forged_shift_is_caught() {
        let (_, mut m) = thermometer();
        let k = plan_of(&m, 0);
        m.thermo.plans[k].shift = 2;
        assert!(only_the_plan_check_fails(&m), "{}", verify_compiled(&m));
        m.thermo.plans[k].shift = 64;
        assert!(only_the_plan_check_fails(&m), "{}", verify_compiled(&m));
    }

    #[test]
    fn thermometer_mutation_forged_decode_run_is_caught() {
        let (_, mut m) = thermometer();
        let run = m.thermo.plans[plan_of(&m, 0)].decode.0 as usize;
        m.thermo.decode_runs[run].a = 2;
        assert!(only_the_plan_check_fails(&m), "{}", verify_compiled(&m));
        let (_, mut m) = thermometer();
        m.thermo.decode_runs[run].n = 3;
        assert!(only_the_plan_check_fails(&m), "{}", verify_compiled(&m));
    }

    #[test]
    fn thermometer_mutation_forged_count_run_is_caught() {
        let (_, mut m) = thermometer();
        let run = m.thermo.plans[plan_of(&m, 0)].counts.0 as usize;
        assert_eq!(m.thermo.count_runs[run].n, 4);
        m.thermo.count_runs[run].a = 0;
        assert!(only_the_plan_check_fails(&m), "{}", verify_compiled(&m));
        let (_, mut m) = thermometer();
        m.thermo.count_runs[run].n = 3;
        assert!(only_the_plan_check_fails(&m), "{}", verify_compiled(&m));
    }

    #[test]
    fn thermometer_mutation_forged_group_gate_is_caught() {
        // Swap the members of thresholds 2 and 6 between their groups: the
        // groups still partition the bank, at the wrong thresholds.
        let (_, mut m) = thermometer();
        let plan = m.thermo.plans[plan_of(&m, 0)];
        let group = |k: u32| m.thermo.group_offsets[(plan.first_group + k) as usize] as usize;
        let (g2, g6) = (group(0), group(2));
        assert_eq!(m.thermo.group_gates[g2], m.perm[0]);
        assert_eq!(m.thermo.group_gates[g6], m.perm[2]);
        m.thermo.group_gates.swap(g2, g6);
        assert!(only_the_plan_check_fails(&m), "{}", verify_compiled(&m));
        // A group naming a gate of another bank.
        let (_, mut m) = thermometer();
        m.thermo.group_gates[g2] = m.perm[6];
        assert!(only_the_plan_check_fails(&m), "{}", verify_compiled(&m));
    }

    #[test]
    fn thermometer_mutation_forged_end_members_are_caught() {
        // y_a of run 1..=4 replaced by the member at threshold 4.
        let (_, mut m) = thermometer();
        let run = m.thermo.plans[plan_of(&m, 0)].counts.0 as usize;
        m.thermo.count_runs[run].first = m.perm[1];
        assert!(only_the_plan_check_fails(&m), "{}", verify_compiled(&m));
        // y_b of run 1..=4 replaced by the member at threshold 6.
        let (_, mut m) = thermometer();
        m.thermo.count_runs[run].last = m.perm[2];
        assert!(only_the_plan_check_fails(&m), "{}", verify_compiled(&m));
    }

    #[test]
    fn thermometer_mutation_plan_on_a_negative_weight_row_is_caught() {
        // Flip the Unit row x + w to x − w, keeping the row canonical
        // (non-negative weights first) and its plan in place.
        let (_, mut m) = thermometer();
        let row = m.gate_rows[m.perm[6] as usize] as usize;
        let hi = m.offsets[row + 1] as usize;
        m.weights[hi - 1] = -1;
        m.pos_counts[row] -= 1;
        assert!(only_the_plan_check_fails(&m), "{}", verify_compiled(&m));
    }

    // ── Paper-bound certification plumbing.

    #[test]
    fn paper_bounds_certify_and_reject() {
        let (_, m) = compiled();
        let good = PaperBound {
            constructor: "mixed_circuit",
            theorem: "fixture",
            geometry: "n=3".to_string(),
            depth: Bound::Exact(m.depth() as u128),
            gates: Bound::AtMost(m.num_gates() as u128),
            edges: Some(Bound::Exact(m.num_edges() as u128)),
        };
        assert!(good.certify(&m).is_valid());

        let bad = PaperBound {
            depth: Bound::Exact(m.depth() as u128 + 1),
            gates: Bound::AtMost(m.num_gates() as u128 - 1),
            edges: Some(Bound::AtMost(0)),
            ..good
        };
        let r = bad.certify(&m);
        assert!(r.has(FindingKind::DepthBound));
        assert!(r.has(FindingKind::GateBound));
        assert!(r.has(FindingKind::EdgeBound));
        assert_eq!(r.error_count(), 3);
    }

    // ── Migrated `Circuit::validate` behaviour (the old ValidationReport).

    #[test]
    fn builder_output_is_valid() {
        let mut b = CircuitBuilder::new(2);
        let g = b
            .add_gate([(Wire::input(0), 1), (Wire::input(1), 1)], 1)
            .unwrap();
        b.mark_output(g);
        let report = b.build().validate();
        assert!(report.is_valid());
        assert!(report.dead_gates().is_empty());
        assert!(report.constant_gates().is_empty());
    }

    #[test]
    fn detects_dead_gates() {
        let mut b = CircuitBuilder::new(2);
        let used = b.add_gate([(Wire::input(0), 1)], 1).unwrap();
        let _unused = b.add_gate([(Wire::input(1), 1)], 1).unwrap();
        b.mark_output(used);
        let report = b.build().validate();
        assert!(report.is_valid());
        assert_eq!(report.dead_gates(), vec![1]);
    }

    #[test]
    fn detects_constant_gates() {
        let mut b = CircuitBuilder::new(1);
        let g = b.add_gate([(Wire::input(0), 1)], 5).unwrap(); // never fires
        b.mark_output(g);
        let report = b.build().validate();
        assert!(report.is_valid());
        assert_eq!(report.constant_gates(), vec![0]);
    }

    #[test]
    fn dead_gate_analysis_survives_class_renumbering() {
        // Gate 0 is General-class (multi-bit weight) and the designated
        // output; gate 1 is Unit-class and dead. The internal (depth, class)
        // sort orders gate 1 before gate 0, so any id-space mixup between
        // internal slots and original ids would report gate 0 dead and
        // gate 1 live.
        let mut b = CircuitBuilder::new(2);
        let live = b.add_gate([(Wire::input(0), 3)], 2).unwrap();
        let _dead = b.add_gate([(Wire::input(1), 1)], 1).unwrap();
        b.mark_output(live);
        let report = b.build().validate();
        assert!(report.is_valid());
        assert_eq!(report.dead_gates(), vec![1]);

        // Same shape one layer deeper: liveness must flow through the
        // permuted fan-in slots, not raw slot arithmetic.
        let mut b = CircuitBuilder::new(2);
        let keep = b.add_gate([(Wire::input(0), 3)], 2).unwrap();
        let drop = b.add_gate([(Wire::input(1), 1)], 1).unwrap();
        let top = b.add_gate([(keep, 5), (Wire::input(1), 1)], 2).unwrap();
        let _ = drop;
        b.mark_output(top);
        let report = b.build().validate();
        assert_eq!(report.dead_gates(), vec![1]);
    }

    #[test]
    fn transitive_liveness_through_intermediate_gates() {
        let mut b = CircuitBuilder::new(1);
        let g0 = b.add_gate([(Wire::input(0), 1)], 1).unwrap();
        let g1 = b.add_gate([(g0, 1)], 1).unwrap();
        let g2 = b.add_gate([(g1, 1)], 1).unwrap();
        b.mark_output(g2);
        let report = b.build().validate();
        assert!(report.dead_gates().is_empty());
    }

    #[test]
    fn output_referencing_input_is_valid() {
        let mut b = CircuitBuilder::new(1);
        b.mark_output(Wire::input(0));
        assert!(b.build().validate().is_valid());
    }

    #[test]
    fn report_renders_findings() {
        let (_, mut m) = compiled();
        m.class_plane_ops[1] += 3;
        let r = verify_compiled(&m);
        let rendered = format!("{r}");
        assert!(rendered.contains("error[plane-ops]"), "{rendered}");
        assert!(rendered.contains("error(s)"), "{rendered}");
    }
}
