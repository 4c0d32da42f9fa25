//! Criterion bench for the compiled CSR engine: per-call versus bit-sliced
//! batched evaluation throughput (gate-evals/sec) on a Theorem 4.5 trace
//! circuit with ≥ 10^5 gates.
//!
//! Three evaluation strategies are compared on the same 64 input assignments:
//!
//! * `rebuild_per_call_x64` — the pre-compile workflow: `Circuit::evaluate`
//!   lowers to CSR on every call;
//! * `compiled_scalar_x64` — compile once, 64 sequential scalar evaluations;
//! * `arena64` — compile once, one bit-sliced `evaluate_rows_arena::<1>`
//!   pass over all 64 lanes in a reused `PlaneArena`.
//!
//! `batch_speedup_report` prints the measured batched-vs-scalar ratio
//! explicitly (the acceptance target is ≥ 8x over 64 sequential scalar
//! evaluations).
//!
//! `matmul_n4_d2_evaluate_many` times the served product path end to end:
//! 1,024 seeded pairs through `MatmulCircuit::evaluate_many_with` (Theorem
//! 4.9, binary Strassen, N = 4, d = 2) on a runtime pinned to `wide512`,
//! reported as products/sec.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fast_matmul::{random_matrix, BilinearAlgorithm, Matrix};
use tc_circuit::PlaneArena;
use tc_graph::generators;
use tc_runtime::Runtime;
use tcmm_core::{matmul::MatmulCircuit, trace::TraceCircuit, CircuitConfig};

/// Builds a trace circuit with at least 10^5 gates and encodes 64 random
/// graph adjacency matrices into input rows.
fn workload() -> (TraceCircuit, Vec<Vec<bool>>) {
    let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
    // N = 16, d = 2 gives ~881k gates for the binary Strassen recipe —
    // comfortably above the 10^5-gate floor while keeping the bench quick.
    let n = 16usize;
    let circuit = TraceCircuit::theorem_4_5(&config, n, 2, 500).unwrap();
    assert!(
        circuit.circuit().num_gates() >= 100_000,
        "bench workload shrank below 10^5 gates ({})",
        circuit.circuit().num_gates()
    );
    let rows: Vec<Vec<bool>> = (0..64u64)
        .map(|seed| {
            let g = generators::erdos_renyi(n, 0.3, 1 + seed);
            let mut bits = vec![false; circuit.circuit().num_inputs()];
            circuit
                .input()
                .assign(&g.adjacency_matrix(), &mut bits)
                .unwrap();
            bits
        })
        .collect();
    (circuit, rows)
}

fn bench_batch_eval(c: &mut Criterion) {
    let (circuit, rows) = workload();
    let refs: Vec<&[bool]> = rows.iter().map(Vec::as_slice).collect();
    let mut arena = PlaneArena::new();
    let compiled = circuit.compiled();
    let gate_evals = 64 * circuit.circuit().num_gates() as u64;

    let mut group = c.benchmark_group("trace_n16_d2_batch");
    group.throughput(Throughput::Elements(gate_evals));
    group.bench_function("rebuild_per_call_x64", |bench| {
        bench.iter(|| {
            for row in &rows {
                circuit.circuit().evaluate(row).unwrap();
            }
        });
    });
    group.bench_function("compiled_scalar_x64", |bench| {
        bench.iter(|| {
            for row in &rows {
                compiled.evaluate(row).unwrap();
            }
        });
    });
    group.bench_function("arena64", |bench| {
        bench.iter(|| {
            let ev = compiled
                .evaluate_rows_arena::<1>(&refs, &mut arena)
                .unwrap();
            std::hint::black_box(ev.firing_counts());
        });
    });
    group.finish();
}

/// Times scalar-x64 versus one batched pass directly and prints the ratio.
fn batch_speedup_report(_c: &mut Criterion) {
    let (circuit, rows) = workload();
    let refs: Vec<&[bool]> = rows.iter().map(Vec::as_slice).collect();
    let mut arena = PlaneArena::new();
    let compiled = circuit.compiled();
    let gates = circuit.circuit().num_gates();

    let time = |f: &mut dyn FnMut()| {
        f(); // warm up
        let reps = 3;
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed().as_secs_f64() / reps as f64
    };

    let scalar = time(&mut || {
        for row in &rows {
            std::hint::black_box(compiled.evaluate(row).unwrap());
        }
    });
    let batched = time(&mut || {
        let ev = compiled
            .evaluate_rows_arena::<1>(&refs, &mut arena)
            .unwrap();
        std::hint::black_box(ev.firing_counts());
    });

    let ge_scalar = 64.0 * gates as f64 / scalar;
    let ge_batched = 64.0 * gates as f64 / batched;
    println!(
        "\nbatch_speedup_report: trace circuit with {gates} gates, 64 assignments\n\
           64x compiled scalar : {:>12.0} gate-evals/sec\n\
           one arena64 pass    : {:>12.0} gate-evals/sec\n\
           speedup             : {:.2}x\n",
        ge_scalar,
        ge_batched,
        ge_batched / ge_scalar
    );
}

/// Products/sec through `evaluate_many_with`: encode, one runtime call on
/// the outputs-only path, decode. Every product of the batch is checked
/// against `multiply_naive` once before timing.
fn bench_matmul_evaluate_many(c: &mut Criterion) {
    const PAIRS: u64 = 1024;
    let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
    let mm = MatmulCircuit::theorem_4_9(&config, 4, 2).unwrap();
    let runtime = Runtime::builder().fixed_backend("wide512").build();
    let pairs: Vec<(Matrix, Matrix)> = (0..PAIRS)
        .map(|s| {
            (
                random_matrix(4, 1, 2 * s + 1),
                random_matrix(4, 1, 2 * s + 2),
            )
        })
        .collect();
    let products = mm.evaluate_many_with(&runtime, &pairs).unwrap();
    for ((a, b), product) in pairs.iter().zip(&products) {
        assert_eq!(product, &a.multiply_naive(b).unwrap());
    }

    let mut group = c.benchmark_group("matmul_n4_d2_evaluate_many");
    group.throughput(Throughput::Elements(PAIRS));
    group.bench_function("wide512_x1024", |bench| {
        bench.iter(|| mm.evaluate_many_with(&runtime, &pairs).unwrap());
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_batch_eval, batch_speedup_report, bench_matmul_evaluate_many
}
criterion_main!(benches);
