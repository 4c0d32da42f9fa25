//! # tcmm-bench — experiment harness and Criterion benchmarks
//!
//! This crate hosts two things:
//!
//! * the **Criterion benches** under `benches/` (construction and evaluation speed of
//!   the arithmetic blocks, the circuit generators, the host-side fast multiplication
//!   and the graph substrate);
//! * the **experiment binaries** under `src/bin/` — one `expt_e*` binary per
//!   experiment.  Each binary prints the table or series for the corresponding figure,
//!   lemma or theorem of the paper (the README lists the entry points).
//!
//! The library part of the crate only provides small presentation helpers shared by the
//! experiment binaries: an aligned plain-text [`Table`] writer and a couple of workload
//! constructors reused across experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use fast_matmul::Matrix;
use tc_graph::{generators, Graph};

/// A minimal aligned plain-text table writer used by every `expt_e*` binary.
///
/// Columns are right-aligned except the first, which is left-aligned.  The output
/// format is deliberately stable so documentation can quote it verbatim.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; the number of cells must match the number of headers.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "table row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Number of data rows currently in the table.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table to a `String` with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c == 0 {
                    line.push_str(&format!("{:<width$}", cell, width = widths[c]));
                } else {
                    line.push_str(&format!("  {:>width$}", cell, width = widths[c]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints a section banner used to separate the parts of an experiment's output.
pub fn banner(title: &str) {
    println!();
    println!("== {} ==", title);
}

/// Formats a floating-point number with a fixed, compact precision.
pub fn f(x: f64) -> String {
    if x.abs() >= 1e6 {
        format!("{:.3e}", x)
    } else {
        format!("{:.4}", x)
    }
}

/// A deterministic random square matrix with entries in `[-magnitude, magnitude]`,
/// shared by the experiments that need "random integer matrices".
pub fn workload_matrix(n: usize, magnitude: i64, seed: u64) -> Matrix {
    fast_matmul::random_matrix(n, magnitude, seed)
}

/// A deterministic Erdős–Rényi graph used by the triangle-counting experiments.
pub fn workload_graph(n: usize, p: f64, seed: u64) -> Graph {
    generators::erdos_renyi(n, p, seed)
}

/// Drives the contended two-tenant fairness scenario shared by
/// `expt_e15_serving` (workload 4, which asserts on the result) and
/// `bench_runtime`'s fairness report: a *steady* tenant (`TenantId(1)`,
/// weight 2) submits `steady_n` rows concurrently with a *bursty* tenant
/// (`TenantId(2)`, weight 1) submitting `bursty_n`, through ONE session on
/// `runtime`. Each producer flushes its final partial group when done (so
/// neither tenant's tail latency is charged to the other's runtime), and a
/// finisher thread closes the session once both have submitted.
///
/// Returns each tenant's client-side latency samples (submit accepted →
/// response taken), ascending, in seconds. Queue-wait aggregates land in
/// the runtime's telemetry as usual.
pub fn drive_contended_tenants(
    runtime: &tc_runtime::Runtime,
    cc: &tc_circuit::CompiledCircuit,
    rows: &[Vec<bool>],
    steady_n: usize,
    bursty_n: usize,
) -> (Vec<f64>, Vec<f64>) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;
    use tc_runtime::{SessionOptions, TenantId};

    let (steady, bursty) = (TenantId(1), TenantId(2));
    let submit_times: Mutex<std::collections::HashMap<u64, Instant>> =
        Mutex::new(std::collections::HashMap::new());
    let submitted = AtomicU64::new(0);
    let total = (steady_n + bursty_n) as u64;
    let (mut steady_lat, mut bursty_lat) =
        runtime.open_session(cc, SessionOptions::default().unordered(), |session| {
            session.register_tenant(steady, 2).unwrap();
            if bursty_n > 0 {
                session.register_tenant(bursty, 1).unwrap();
            }
            std::thread::scope(|s| {
                let submit_loop = |tenant: TenantId, n: usize| {
                    for i in 0..n {
                        let id = session.submit_for(tenant, &rows[i % rows.len()]).unwrap();
                        submit_times.lock().unwrap().insert(id, Instant::now());
                        submitted.fetch_add(1, Ordering::Relaxed);
                    }
                    // Dispatch this tenant's final packed group now: without
                    // the flush it would sit in the packing lane until the
                    // OTHER tenant finishes and `finish()` runs — charging
                    // the bursty tenant's whole runtime to the steady
                    // tenant's tail latency.
                    session.flush().unwrap();
                };
                s.spawn(move || submit_loop(steady, steady_n));
                if bursty_n > 0 {
                    s.spawn(move || submit_loop(bursty, bursty_n));
                }
                s.spawn(|| {
                    while submitted.load(Ordering::Relaxed) < total {
                        std::thread::yield_now();
                    }
                    session.finish();
                });
                let mut steady_lat = Vec::new();
                let mut bursty_lat = Vec::new();
                for resp in session.responses() {
                    let resp = resp.unwrap();
                    let arrived = Instant::now();
                    let t0 = loop {
                        // The producer records the timestamp just after
                        // submit returns; under heavy interleaving the
                        // response can beat the bookkeeping by a hair.
                        if let Some(t0) = submit_times.lock().unwrap().remove(&resp.request_id()) {
                            break t0;
                        }
                        std::thread::yield_now();
                    };
                    let lat = arrived.saturating_duration_since(t0).as_secs_f64();
                    if resp.tenant() == steady {
                        steady_lat.push(lat);
                    } else {
                        bursty_lat.push(lat);
                    }
                }
                (steady_lat, bursty_lat)
            })
        });
    steady_lat.sort_by(f64::total_cmp);
    bursty_lat.sort_by(f64::total_cmp);
    (steady_lat, bursty_lat)
}

/// What [`drive_overload_shedding`] measured: per-tenant served/shed row
/// counts plus the steady tenant's client-side latency samples
/// (ascending, seconds; successfully served rows only).
#[derive(Debug, Default)]
pub struct OverloadReport {
    /// Steady-tenant rows answered with a payload.
    pub steady_served: usize,
    /// Steady-tenant rows answered with [`tc_runtime::RuntimeError::Shed`].
    pub steady_shed: usize,
    /// Overload-tenant rows answered with a payload.
    pub overload_served: usize,
    /// Overload-tenant rows answered with `Shed`.
    pub overload_shed: usize,
    /// Steady-tenant submit→response latencies, ascending, seconds.
    pub steady_latencies: Vec<f64>,
}

/// The overload/shedding scenario: a steady tenant (weight 2) and an
/// overload tenant (weight 1) firehose rows into one `ShedNewest` session
/// on the given `runtime` (build it with a small `queue_capacity` so the
/// overload tenant actually saturates its queue). Every accepted row is
/// still answered — either with a payload or with the typed
/// [`tc_runtime::RuntimeError::Shed`] — so the report's four counters sum
/// to `steady_n + overload_n`.
pub fn drive_overload_shedding(
    runtime: &tc_runtime::Runtime,
    cc: &tc_circuit::CompiledCircuit,
    rows: &[Vec<bool>],
    steady_n: usize,
    overload_n: usize,
) -> OverloadReport {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;
    use tc_runtime::{AdmissionPolicy, RuntimeError, SessionOptions, TenantId};

    let (steady, overload) = (TenantId(1), TenantId(2));
    let submit_times: Mutex<std::collections::HashMap<u64, Instant>> =
        Mutex::new(std::collections::HashMap::new());
    let submitted = AtomicU64::new(0);
    let total = (steady_n + overload_n) as u64;
    let opts = SessionOptions::default()
        .unordered()
        .admission(AdmissionPolicy::ShedNewest);
    let mut report = runtime.open_session(cc, opts, |session| {
        session.register_tenant(steady, 2).unwrap();
        session.register_tenant(overload, 1).unwrap();
        std::thread::scope(|s| {
            let submit_loop = |tenant: TenantId, n: usize| {
                for i in 0..n {
                    let id = session.submit_for(tenant, &rows[i % rows.len()]).unwrap();
                    submit_times.lock().unwrap().insert(id, Instant::now());
                    submitted.fetch_add(1, Ordering::Relaxed);
                }
                session.flush().unwrap();
            };
            s.spawn(move || submit_loop(steady, steady_n));
            s.spawn(move || submit_loop(overload, overload_n));
            s.spawn(|| {
                while submitted.load(Ordering::Relaxed) < total {
                    std::thread::yield_now();
                }
                session.finish();
            });
            let mut report = OverloadReport::default();
            for resp in session.responses() {
                let resp = resp.unwrap();
                let arrived = Instant::now();
                let t0 = loop {
                    if let Some(t0) = submit_times.lock().unwrap().remove(&resp.request_id()) {
                        break t0;
                    }
                    std::thread::yield_now();
                };
                let is_steady = resp.tenant() == steady;
                match resp.outcome() {
                    Ok(_) => {
                        if is_steady {
                            report.steady_served += 1;
                            report
                                .steady_latencies
                                .push(arrived.saturating_duration_since(t0).as_secs_f64());
                        } else {
                            report.overload_served += 1;
                        }
                    }
                    Err(RuntimeError::Shed) => {
                        if is_steady {
                            report.steady_shed += 1;
                        } else {
                            report.overload_shed += 1;
                        }
                    }
                    Err(other) => panic!("unexpected row error under overload: {other}"),
                }
            }
            report
        })
    });
    report.steady_latencies.sort_by(f64::total_cmp);
    report
}

/// A quantile of an ascending-sorted sample set computed through the
/// runtime's shared [`tc_runtime::Histogram`] (same unit as the samples,
/// which are taken as seconds and bucketed at nanosecond resolution; 0.0
/// for an empty set).
///
/// Using the histogram here — rather than indexing the sorted vector —
/// keeps the bench harness and the runtime's in-process telemetry on ONE
/// quantile implementation, so the e15 experiment can assert the two sides
/// agree within [`tc_runtime::RELATIVE_ERROR`]. The exact sorted-vector
/// computation survives as [`quantile_exact`], the test oracle.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let h = tc_runtime::Histogram::new();
    for &s in sorted {
        h.record((s * 1e9) as u64);
    }
    h.snapshot().quantile(q) as f64 / 1e9
}

/// The p99 of an ascending-sorted sample set (histogram-backed; see
/// [`quantile`]).
pub fn p99(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.99)
}

/// The exact rank-selected quantile of an ascending-sorted sample set —
/// the oracle the histogram-backed [`quantile`] is validated against (and
/// the client-side reference e15 compares the runtime's histograms to).
pub fn quantile_exact(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The exact sorted-vector p99 (see [`quantile_exact`]).
pub fn p99_exact(sorted: &[f64]) -> f64 {
    quantile_exact(sorted, 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(["name", "count"]);
        t.row(["short", "1"]);
        t.row(["a-much-longer-name", "123456"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // Every rendered line has the same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].contains("123456"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn float_formatter_switches_to_scientific() {
        assert_eq!(f(1.5), "1.5000");
        assert!(f(2.0e7).contains('e'));
    }

    #[test]
    fn histogram_quantiles_track_the_exact_oracle() {
        // Mixed magnitudes, microseconds to seconds, like real latencies.
        let mut samples: Vec<f64> = (0..500)
            .map(|i| 1e-6 * (1.5f64.powi(i % 40)) + 1e-9 * i as f64)
            .collect();
        samples.sort_by(f64::total_cmp);
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            let exact = quantile_exact(&samples, q);
            let approx = quantile(&samples, q);
            // Histogram reports a bucket upper edge: never below the true
            // sample (modulo the f64→ns truncation), at most
            // RELATIVE_ERROR above it.
            assert!(
                approx >= exact - 2e-9,
                "q={q}: approx {approx} below exact {exact}"
            );
            assert!(
                approx <= exact * (1.0 + tc_runtime::RELATIVE_ERROR) + 2e-9,
                "q={q}: approx {approx} exceeds error bound over {exact}"
            );
        }
        assert_eq!(p99(&[]), 0.0);
        assert_eq!(p99_exact(&[]), 0.0);
    }

    #[test]
    fn workload_helpers_are_deterministic() {
        assert_eq!(workload_matrix(8, 3, 7), workload_matrix(8, 3, 7));
        let g1 = workload_graph(16, 0.3, 5);
        let g2 = workload_graph(16, 0.3, 5);
        assert_eq!(g1.num_edges(), g2.num_edges());
    }
}
