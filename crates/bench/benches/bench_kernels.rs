//! Gate-class kernel bench: gate-evals/sec and edge-evals/sec per
//! [`tc_circuit::GateClass`] per lane width, plus a regression gate against
//! the recorded sliced64 baseline.
//!
//! Three synthetic multi-layer circuits with identical topology but forced
//! weight classes — `unit` (all ±1, majority-style), `pow2` (single-set-bit
//! magnitudes) and `general` (odd multi-bit magnitudes) — are served through
//! every bit-sliced lane width (64/128/256/512). Results land in
//! `BENCH_kernels.json`, each entry carrying the class counts the circuit
//! compiled to.
//!
//! The regression gate re-measures the unified `W = 1` kernel on the same
//! Theorem 4.5 trace workload `bench_runtime` records, and compares against
//! the `sliced64`/batch-256 gate-evals/sec stored in the committed
//! `BENCH_runtime.json`. A drop below 90% of that baseline prints a warning
//! — or panics when `BENCH_ENFORCE_BASELINE=1` (set in CI, where the
//! baseline file was produced on the same runner class).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fast_matmul::BilinearAlgorithm;
use tc_circuit::{CircuitBuilder, CompiledCircuit, Wire};
use tc_graph::generators;
use tc_runtime::Runtime;
use tcmm_core::{trace::TraceCircuit, CircuitConfig};

/// Weight class of a synthetic circuit.
#[derive(Clone, Copy)]
enum WeightClass {
    Unit,
    Pow2,
    General,
}

impl WeightClass {
    fn name(self) -> &'static str {
        match self {
            WeightClass::Unit => "unit",
            WeightClass::Pow2 => "pow2",
            WeightClass::General => "general",
        }
    }

    /// Maps a raw xorshift draw to a weight of this class.
    fn weight(self, draw: u64) -> i64 {
        let sign = if draw & 1 == 1 { -1i64 } else { 1 };
        match self {
            WeightClass::Unit => sign,
            WeightClass::Pow2 => sign * (1i64 << ((draw >> 1) % 12).max(1)),
            WeightClass::General => sign * (3 + 2 * ((draw >> 1) % 40) as i64),
        }
    }

    /// Checks the compiled class mix matches what this class forces.
    fn check(self, compiled: &CompiledCircuit) {
        let gates = compiled.num_gates();
        let [unit, pow2, general] = compiled.class_counts();
        let pure = match self {
            WeightClass::Unit => unit == gates,
            WeightClass::Pow2 => pow2 == gates,
            WeightClass::General => general == gates,
        };
        assert!(
            pure,
            "forced {} circuit compiled to class mix {:?}",
            self.name(),
            compiled.class_counts()
        );
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A layered majority-style circuit: `layers` layers of `width` gates with
/// fan-in `fan_in` each, wired pseudo-randomly to the previous layer, all
/// weights drawn from `class`.
fn class_circuit(
    class: WeightClass,
    inputs: usize,
    layers: usize,
    width: usize,
) -> CompiledCircuit {
    let fan_in = 24usize;
    let mut state = 0x2545f4914f6cdd1du64 ^ class.name().len() as u64;
    let mut b = CircuitBuilder::new(inputs);
    let mut prev: Vec<Wire> = (0..inputs).map(Wire::input).collect();
    for _ in 0..layers {
        let mut next = Vec::with_capacity(width);
        for _ in 0..width {
            let mut fan = Vec::with_capacity(fan_in);
            let mut used = std::collections::HashSet::new();
            while fan.len() < fan_in.min(prev.len()) {
                let pick = (xorshift(&mut state) as usize) % prev.len();
                if used.insert(pick) {
                    fan.push((prev[pick], class.weight(xorshift(&mut state))));
                }
            }
            // A roughly-balanced threshold keeps firing activity mixed.
            let total: i64 = fan.iter().map(|&(_, w)| w.max(0)).sum();
            next.push(b.add_gate(fan, total / 2).unwrap());
        }
        prev = next;
    }
    for &w in prev.iter().take(64) {
        b.mark_output(w);
    }
    let compiled = b.build().compile().unwrap();
    class.check(&compiled);
    compiled
}

const CLASSES: [WeightClass; 3] = [WeightClass::Unit, WeightClass::Pow2, WeightClass::General];

fn random_rows(inputs: usize, n: usize) -> Vec<Vec<bool>> {
    let mut state = 0x9e3779b97f4a7c15u64;
    (0..n)
        .map(|_| (0..inputs).map(|_| xorshift(&mut state) & 1 == 1).collect())
        .collect()
}

fn time(f: &mut dyn FnMut()) -> f64 {
    f(); // warm up
    let reps = 3;
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / reps as f64
}

const LANE_BACKENDS: [&str; 4] = ["sliced64", "wide128", "wide256", "wide512"];

/// Criterion view of the class × width matrix (smoke-sized).
fn bench_class_kernels(c: &mut Criterion) {
    for class in CLASSES {
        let compiled = class_circuit(class, 256, 4, 4096);
        let rows = random_rows(256, 512);
        let gates = compiled.num_gates() as u64;
        let mut group = c.benchmark_group(format!("class_{}", class.name()));
        group.throughput(Throughput::Elements(gates * rows.len() as u64));
        for backend in LANE_BACKENDS {
            let runtime = Runtime::builder().fixed_backend(backend).workers(1).build();
            group.bench_function(backend, |bench| {
                bench.iter(|| runtime.serve_batch(&compiled, &rows).unwrap());
            });
        }
        group.finish();
    }
}

/// Reads the recorded `sliced64`/batch-256 gate-evals/sec out of the
/// committed `BENCH_runtime.json` (cargo bench runs with CWD = the bench
/// package root, where the file lives).
fn recorded_sliced64_baseline() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_runtime.json").ok()?;
    for line in text.lines() {
        if line.contains("\"sliced64\"") && line.contains("\"batch\": 256") {
            let tail = line.split("\"gate_evals_per_sec\":").nth(1)?;
            let digits: String = tail
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            return digits.parse().ok();
        }
    }
    None
}

/// Measures the class × width matrix directly, emits `BENCH_kernels.json`,
/// and gates the unified kernel against the recorded sliced64 baseline.
fn kernel_report(_c: &mut Criterion) {
    let mut json_entries = String::new();
    for class in CLASSES {
        let compiled = class_circuit(class, 256, 4, 4096);
        let rows = random_rows(256, 512);
        let gates = compiled.num_gates();
        let edges = compiled.num_edges();
        let [unit, pow2, general] = compiled.class_counts();
        println!(
            "kernel_report: {} circuit, {gates} gates, {edges} edges, class mix {:?} (simd {})",
            class.name(),
            compiled.class_counts(),
            tc_circuit::simd::active_level().name()
        );
        for backend in LANE_BACKENDS {
            let runtime = Runtime::builder().fixed_backend(backend).workers(1).build();
            let secs = time(&mut || {
                std::hint::black_box(runtime.serve_batch(&compiled, &rows).unwrap());
            });
            let geps = rows.len() as f64 * gates as f64 / secs;
            let eeps = rows.len() as f64 * edges as f64 / secs;
            println!("  {backend:>9}: {geps:>14.0} gate-evals/sec {eeps:>16.0} edge-evals/sec");
            if !json_entries.is_empty() {
                json_entries.push(',');
            }
            json_entries.push_str(&format!(
                "\n    {{\"class\": \"{}\", \"backend\": \"{backend}\", \
                 \"gates\": {gates}, \"edges\": {edges}, \"batch\": {}, \
                 \"classes\": [{unit}, {pow2}, {general}], \
                 \"gate_evals_per_sec\": {geps:.0}, \"edge_evals_per_sec\": {eeps:.0}, \
                 \"seconds\": {secs:.6}}}",
                class.name(),
                rows.len()
            ));
        }
    }

    // Regression gate: the unified W = 1 kernel on the recorded trace
    // workload must hold >= 90% of the sliced64 baseline in
    // BENCH_runtime.json.
    let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
    let trace = TraceCircuit::theorem_4_5(&config, 16, 2, 500).unwrap();
    let trace_rows: Vec<Vec<bool>> = (0..256u64)
        .map(|seed| {
            let g = generators::erdos_renyi(16, 0.3, 1 + seed);
            let mut bits = vec![false; trace.circuit().num_inputs()];
            trace
                .input()
                .assign(&g.adjacency_matrix(), &mut bits)
                .unwrap();
            bits
        })
        .collect();
    let runtime = Runtime::builder()
        .fixed_backend("sliced64")
        .workers(1)
        .build();
    let secs = time(&mut || {
        std::hint::black_box(runtime.serve_batch(trace.compiled(), &trace_rows).unwrap());
    });
    let measured = trace_rows.len() as f64 * trace.circuit().num_gates() as f64 / secs;
    let enforce = std::env::var("BENCH_ENFORCE_BASELINE").as_deref() == Ok("1");
    let fail_or_warn = |message: String| {
        if enforce {
            panic!("{message}");
        }
        println!("WARNING (not enforced without BENCH_ENFORCE_BASELINE=1): {message}");
    };
    let (baseline, ratio) = match recorded_sliced64_baseline() {
        Some(baseline) => (baseline, measured / baseline),
        None => {
            // An unreadable baseline must not let a regression slip through
            // an enforced run.
            fail_or_warn(
                "no sliced64/batch-256 baseline readable from BENCH_runtime.json; \
                 regression gate cannot run"
                    .to_string(),
            );
            (0.0, f64::INFINITY)
        }
    };
    println!(
        "kernel_report: trace sliced64 {measured:.0} gate-evals/sec \
         vs recorded baseline {baseline:.0} ({ratio:.2}x)"
    );

    let json = format!(
        "{{\n  \"simd_level\": \"{}\",\n  \
         \"trace_batch\": {},\n  \"trace_sliced64_gate_evals_per_sec\": {measured:.0},\n  \
         \"recorded_sliced64_baseline_batch256\": {baseline:.0},\n  \
         \"vs_recorded_baseline\": {ratio:.3},\n  \"kernels\": [{json_entries}\n  ]\n}}\n",
        tc_circuit::simd::active_level().name(),
        trace_rows.len()
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("wrote BENCH_kernels.json");

    if ratio < 0.9 {
        fail_or_warn(format!(
            "unified kernel regression: sliced64 at {measured:.0} gate-evals/sec is \
             {ratio:.2}x the recorded baseline ({baseline:.0})"
        ));
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_class_kernels, kernel_report
}
criterion_main!(benches);
