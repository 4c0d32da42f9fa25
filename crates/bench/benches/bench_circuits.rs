//! Criterion benches for the circuit substrate itself: builder throughput, statistics,
//! validation, and scalar versus single-lane arena-kernel evaluation on the circuits
//! the paper's constructions actually produce (experiments E7/E11 report their sizes).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fast_matmul::{random_matrix, BilinearAlgorithm};
use tc_circuit::{CircuitBuilder, PlaneArena, Wire};
use tcmm_core::{matmul::MatmulCircuit, CircuitConfig};

/// Raw builder throughput: a chain of simple gates.
fn bench_builder(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_builder");
    for gates in [1_000usize, 10_000, 50_000] {
        group.bench_with_input(
            BenchmarkId::from_parameter(gates),
            &gates,
            |bench, &gates| {
                bench.iter(|| {
                    let mut b = CircuitBuilder::new(8);
                    let mut prev = Wire::input(0);
                    for i in 0..gates {
                        // Offset the second operand so it never aliases `prev` (which is
                        // input 0 on the first iteration and a gate wire afterwards).
                        prev = b
                            .add_gate([(prev, 1), (Wire::input(1 + (i % 7)), 1)], 1)
                            .unwrap();
                    }
                    b.mark_output(prev);
                    b.build()
                });
            },
        );
    }
    group.finish();
}

/// Construction of the Theorem 4.9 matmul circuit (the paper's main object).
fn bench_matmul_circuit_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_circuit_build");
    group.sample_size(10);
    let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 3);
    for (n, d) in [(4usize, 1u32), (4, 2)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_d{d}")),
            &(n, d),
            |bench, &(n, d)| {
                bench.iter(|| MatmulCircuit::theorem_4_9(&config, n, d).unwrap());
            },
        );
    }
    group.finish();
}

/// Scalar versus one-row arena-kernel evaluation of a matmul circuit.
fn bench_evaluation(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_evaluation");
    let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 3);
    let mm = MatmulCircuit::theorem_4_9(&config, 4, 2).unwrap();
    let a = random_matrix(4, 3, 1);
    let b = random_matrix(4, 3, 2);
    group.bench_function("matmul_n4_sequential", |bench| {
        bench.iter(|| mm.evaluate(&a, &b).unwrap());
    });

    // Raw Circuit::evaluate (compiles per call) vs the pre-compiled engine.
    let circuit = mm.circuit();
    let mut bits = vec![false; circuit.num_inputs()];
    mm.input_a().assign(&a, &mut bits).unwrap();
    mm.input_b().assign(&b, &mut bits).unwrap();
    group.bench_function("raw_compile_per_call", |bench| {
        bench.iter(|| circuit.evaluate(&bits).unwrap());
    });
    let compiled = mm.compiled();
    group.bench_function("compiled_sequential", |bench| {
        bench.iter(|| compiled.evaluate(&bits).unwrap());
    });
    let mut arena = PlaneArena::new();
    group.bench_function("compiled_arena_one_row", |bench| {
        bench.iter(|| {
            let ev = compiled
                .evaluate_rows_arena::<1>(&[bits.as_slice()], &mut arena)
                .unwrap();
            std::hint::black_box(ev.evaluation(0).unwrap())
        });
    });
    group.finish();
}

/// Statistics and validation passes over a generated circuit.
fn bench_analysis_passes(c: &mut Criterion) {
    let mut group = c.benchmark_group("circuit_analysis");
    let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 3);
    let mm = MatmulCircuit::theorem_4_9(&config, 4, 2).unwrap();
    let circuit = mm.circuit();
    group.bench_function("compile", |bench| bench.iter(|| circuit.compile().unwrap()));
    group.bench_function("stats", |bench| bench.iter(|| circuit.stats()));
    group.bench_function("validate", |bench| bench.iter(|| circuit.validate()));
    group.bench_function("layers", |bench| bench.iter(|| circuit.layers()));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    targets = bench_builder, bench_matmul_circuit_build, bench_evaluation, bench_analysis_passes
}
criterion_main!(benches);
