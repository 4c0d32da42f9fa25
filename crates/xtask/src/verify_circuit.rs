//! The `verify-circuit` sweep (`cargo run -p tcmm-xtask -- verify-circuit`).
//!
//! Builds every constructor geometry the repository ships — the naive
//! baselines, the trace and matmul circuits of Theorems 4.1/4.4/4.5/4.8/4.9,
//! the triangle oracle, and the circuit the convnet's threshold backend
//! plans for an im2col product — then, for each:
//!
//! 1. runs the independent checker ([`tc_circuit::verify_against`]):
//!    structural CSR and bank invariants plus the translation check of
//!    every gate's fan-in multiset and threshold against the source;
//! 2. certifies the constructor's closed-form paper bound
//!    ([`tc_circuit::PaperBound::certify`]) against the compiled artifact.
//!
//! The table also reports the edges the builder form stores
//! ([`Circuit::num_stored_edges`]: each bank's shared row once) and the
//! gates the kernel decodes from thermometer plans
//! ([`CompiledCircuit::num_decoded_gates`]).
//!
//! The per-constructor bound table goes to stdout (and, with
//! `--output <path>`, to a file the CI job archives); any error-severity
//! finding makes the process exit non-zero.

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;

use fast_matmul::BilinearAlgorithm;
use tc_circuit::{
    verify_against, Circuit, CompiledCircuit, GateClass, PaperBound, Severity, VerifyReport,
};
use tc_convnet::{ConvLayerSpec, MatmulBackend};
use tc_graph::TriangleOracle;
use tcmm_core::matmul::MatmulCircuit;
use tcmm_core::naive::{NaiveMatmulCircuit, NaiveTraceCircuit, NaiveTriangleCircuit};
use tcmm_core::trace::TraceCircuit;
use tcmm_core::CircuitConfig;

/// One certified sweep entry: the constructor's bound next to what the
/// compiled artifact actually measures, plus the full verifier report.
struct Row {
    /// The constructor column: the bound's constructor, prefixed with the
    /// public surface that built it when that surface wraps another
    /// constructor (e.g. `TriangleOracle → TraceCircuit`).
    label: String,
    bound: PaperBound,
    depth: u32,
    gates: usize,
    edges: usize,
    /// Edges the builder form stores: each bank's shared row once.
    stored_edges: usize,
    /// Edges the kernel sums per pass: each bank's row once.
    evaluated_edges: usize,
    /// Gates the kernel decodes from a thermometer plan.
    decoded_gates: usize,
    /// Independent recount of the gates that should be decoded; the row
    /// fails when it differs from `decoded_gates`.
    decodable_gates: usize,
    report: VerifyReport,
}

impl Row {
    /// Verified, and decoding exactly the gates the plan rule names.
    fn ok(&self) -> bool {
        self.report.is_valid() && self.decoded_gates == self.decodable_gates
    }

    /// Labels a row built through `surface`, a wrapper around the bound's
    /// own constructor, so it cannot be mistaken for a direct build of the
    /// same geometry.
    fn via(mut self, surface: &str) -> Row {
        self.label = format!("{surface} → {}", self.bound.constructor);
        self
    }

    fn status(&self) -> String {
        let advice = self
            .report
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Advice)
            .count();
        if self.decoded_gates != self.decodable_gates {
            return format!(
                "decodes {} of {} gates",
                self.decoded_gates, self.decodable_gates
            );
        }
        match (self.report.error_count(), advice) {
            (0, 0) => "ok".to_string(),
            (0, a) => format!("ok ({a} advice)"),
            (e, _) => format!("{e} error(s)"),
        }
    }
}

/// Runs the full checker + bound certification for one compiled geometry.
fn check(circuit: &Circuit, compiled: &CompiledCircuit, bound: PaperBound) -> Row {
    let mut report = verify_against(circuit, compiled);
    report.merge(bound.certify(compiled));
    Row {
        label: bound.constructor.to_string(),
        bound,
        depth: compiled.depth(),
        gates: compiled.num_gates(),
        edges: compiled.num_edges(),
        stored_edges: circuit.num_stored_edges(),
        evaluated_edges: compiled.num_evaluated_edges(),
        decoded_gates: compiled.num_decoded_gates(),
        decodable_gates: decodable_gates(compiled),
        report,
    }
}

/// Recounts, through the public per-gate accessors, the gates the kernel
/// should decode: every member of each bank (the gates sharing depth,
/// class and canonical fan-in row) that has at least two members, no
/// negative weight, and every member's reach plus |threshold| within the
/// 64-plane budget.
fn decodable_gates(compiled: &CompiledCircuit) -> usize {
    type Bank<'a> = (u32, GateClass, &'a [u32], &'a [i64]);
    let mut banks: HashMap<Bank<'_>, (usize, bool)> = HashMap::new();
    for g in 0..compiled.num_gates() {
        let (wires, weights) = compiled.fan_in(g);
        let reach: i128 = weights.iter().map(|w| i128::from(w.unsigned_abs())).sum();
        let need = reach + i128::from(compiled.threshold(g).unsigned_abs());
        let fits = 128 - (need + 1).leading_zeros() + 2 < 64;
        let key = (
            compiled.gate_depth(g),
            compiled.gate_class(g),
            wires,
            weights,
        );
        let bank = banks.entry(key).or_insert((0, true));
        bank.0 += 1;
        bank.1 &= fits && weights.iter().all(|&w| w >= 0);
    }
    banks
        .values()
        .filter(|&&(members, ok)| members >= 2 && ok)
        .map(|&(members, _)| members)
        .sum()
}

/// Builds every sweep geometry. Kept deliberately exhaustive over the
/// constructor surface rather than large in `n`: each entry must exercise a
/// distinct theorem/recipe/schedule path, and the bounds are closed-form in
/// the geometry, so small instances certify the same formulas CI can afford
/// to re-check on every push.
fn build_rows() -> Result<Vec<Row>, String> {
    let strassen = BilinearAlgorithm::strassen();
    let winograd = BilinearAlgorithm::winograd();
    let binary = CircuitConfig::binary(strassen.clone());
    let two_bit = CircuitConfig::new(strassen.clone(), 2);
    let wino_two_bit = CircuitConfig::new(winograd, 2);
    let err = |name: &str, e: &dyn std::fmt::Display| format!("building {name}: {e}");

    let mut rows = Vec::new();

    let c = NaiveTriangleCircuit::new(6, 2).map_err(|e| err("NaiveTriangle n=6", &e))?;
    rows.push(check(c.circuit(), c.compiled(), c.paper_bound()));

    let c = NaiveTraceCircuit::new(&binary, 4, 6).map_err(|e| err("NaiveTrace n=4", &e))?;
    rows.push(check(c.circuit(), c.compiled(), c.paper_bound()));

    let c = NaiveMatmulCircuit::new(&two_bit, 3).map_err(|e| err("NaiveMatmul n=3", &e))?;
    rows.push(check(c.circuit(), c.compiled(), c.paper_bound()));

    let trace_geometries = [
        (
            "TraceCircuit 4.4 n=4",
            TraceCircuit::theorem_4_4(&binary, 4, 6),
        ),
        (
            "TraceCircuit 4.5 n=8 d=2",
            TraceCircuit::theorem_4_5(&binary, 8, 2, 6),
        ),
        (
            "TraceCircuit 4.5 winograd n=4 d=1",
            TraceCircuit::theorem_4_5(&wino_two_bit, 4, 1, 6),
        ),
    ];
    for (name, built) in trace_geometries {
        let c = built.map_err(|e| err(name, &e))?;
        rows.push(check(c.circuit(), c.compiled(), c.paper_bound().clone()));
    }

    let matmul_geometries = [
        (
            "MatmulCircuit 4.8 n=4",
            MatmulCircuit::theorem_4_8(&binary, 4),
        ),
        (
            "MatmulCircuit 4.9 n=4 d=1 b=2",
            MatmulCircuit::theorem_4_9(&two_bit, 4, 1),
        ),
        (
            "MatmulCircuit 4.9 n=8 d=2",
            MatmulCircuit::theorem_4_9(&binary, 8, 2),
        ),
        (
            "MatmulCircuit 4.1 n=4 d=2",
            MatmulCircuit::theorem_4_1(&binary, 4, 2),
        ),
    ];
    for (name, built) in matmul_geometries {
        let c = built.map_err(|e| err(name, &e))?;
        rows.push(check(c.circuit(), c.compiled(), c.paper_bound().clone()));
    }

    let oracle =
        TriangleOracle::new(&binary, 6, 2, 3).map_err(|e| err("TriangleOracle v=6 d=2", &e))?;
    let trace = oracle.circuit();
    rows.push(
        check(
            trace.circuit(),
            trace.compiled(),
            oracle.paper_bound().clone(),
        )
        .via("TriangleOracle"),
    );

    // The circuit the convnet's threshold backend would build for a
    // 3×3 one-channel image under 2×2 kernels: im2col shape (4, 4, 2),
    // padded to the recipe's power.
    let spec = ConvLayerSpec {
        image_size: 3,
        channels: 1,
        kernel_size: 2,
        num_kernels: 2,
        stride: 1,
    };
    let backend = MatmulBackend::ThresholdCircuit {
        algorithm: strassen,
        depth_parameter: 1,
    };
    let (p, q, k) = spec.matmul_shape();
    let planned = backend
        .plan_circuit(p.max(q).max(k), 2)
        .expect("the threshold backend always plans a circuit")
        .map_err(|e| err("convnet im2col (4,4,2)", &e))?;
    rows.push(
        check(
            planned.circuit(),
            planned.compiled(),
            planned.paper_bound().clone(),
        )
        .via("convnet plan_circuit"),
    );

    Ok(rows)
}

/// Renders the bound table: measured values side by side with the
/// closed-form bounds they must satisfy, plus the edges the builder form
/// stores, the edges the kernel actually sums once gates sharing a fan-in
/// row are banked, and the gates it decodes from thermometer plans.
fn render_table(rows: &[Row]) -> String {
    let mut cells: Vec<[String; 10]> = vec![[
        "constructor".into(),
        "theorem".into(),
        "geometry".into(),
        "depth".into(),
        "gates".into(),
        "edges".into(),
        "stored edges".into(),
        "evaluated edges".into(),
        "decoded gates".into(),
        "status".into(),
    ]];
    for row in rows {
        let edges = match row.bound.edges {
            Some(b) => format!("{} ({b})", row.edges),
            None => format!("{} (unbounded)", row.edges),
        };
        cells.push([
            row.label.clone(),
            row.bound.theorem.to_string(),
            row.bound.geometry.clone(),
            format!("{} ({})", row.depth, row.bound.depth),
            format!("{} ({})", row.gates, row.bound.gates),
            edges,
            row.stored_edges.to_string(),
            row.evaluated_edges.to_string(),
            row.decoded_gates.to_string(),
            row.status(),
        ]);
    }
    let mut widths = [0usize; 10];
    for row in &cells {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for row in &cells {
        let line: Vec<String> = row
            .iter()
            .zip(widths)
            .map(|(cell, w)| format!("{cell:<w$}"))
            .collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
    }
    out
}

/// Entry point for the `verify-circuit` subcommand.
pub fn run(output: Option<&Path>) -> ExitCode {
    let rows = match build_rows() {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("verify-circuit: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = render_table(&rows);
    print!("{table}");
    if let Some(path) = output {
        if let Err(e) = std::fs::write(path, &table) {
            eprintln!("verify-circuit: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let failed: Vec<&Row> = rows.iter().filter(|r| !r.ok()).collect();
    for row in &failed {
        eprintln!(
            "\n{} ({}, {}) failed verification ({}):\n{}",
            row.label,
            row.bound.theorem,
            row.bound.geometry,
            row.status(),
            row.report
        );
    }
    if failed.is_empty() {
        eprintln!(
            "verify-circuit: {} geometries certified (structural + translation + paper bounds)",
            rows.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nverify-circuit: {} of {} geometries failed",
            failed.len(),
            rows.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The sweep, built once for every test of this module.
    fn sweep() -> &'static [Row] {
        static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
        ROWS.get_or_init(|| build_rows().expect("all sweep geometries build"))
    }

    #[test]
    fn every_sweep_geometry_certifies() {
        let rows = sweep();
        assert!(rows.len() >= 12, "sweep covers every constructor surface");
        let mut seen = std::collections::HashSet::new();
        for row in rows {
            assert!(
                row.ok(),
                "{} ({}) failed:\n{}",
                row.label,
                row.bound.geometry,
                row.report
            );
            assert!(
                seen.insert((row.label.as_str(), row.bound.geometry.as_str())),
                "duplicate table row: {} {}",
                row.label,
                row.bound.geometry
            );
        }
        let table = render_table(rows);
        assert!(table.contains("constructor"));
        assert!(table.contains("stored edges"));
        assert!(table.contains("evaluated edges"));
        assert!(table.contains("decoded gates"));
        assert!(table.lines().count() == rows.len() + 1);
    }

    /// On every geometry the kernel decodes exactly the members of the
    /// non-negative multi-member banks (and so no one-member bank), and
    /// every Theorem 4.x circuit, built on Lemma 3.1 blocks, has some.
    #[test]
    fn every_sweep_geometry_decodes_its_non_negative_multi_member_banks() {
        for row in sweep() {
            assert_eq!(
                row.decoded_gates, row.decodable_gates,
                "{} ({})",
                row.label, row.bound.geometry
            );
            if row.bound.theorem.starts_with("Theorem") {
                assert!(row.decoded_gates > 0, "{}", row.label);
            }
        }
    }

    /// The builder form stores at most the source edges, and every
    /// Theorem 4.x circuit, whose Lemma 3.1 blocks are banks, stores fewer.
    #[test]
    fn every_sweep_geometry_stores_its_bank_rows_once() {
        for row in sweep() {
            assert!(row.stored_edges <= row.edges, "{}", row.label);
            if row.bound.theorem.starts_with("Theorem") {
                assert!(row.stored_edges < row.edges, "{}", row.label);
            }
        }
    }
}
