//! Criterion benches for the trace / triangle-threshold circuits: construction and
//! evaluation of the naive depth-2 baseline versus the Theorem 4.4 / 4.5 constructions
//! (the circuits whose sizes experiments E9/E10 report).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fast_matmul::BilinearAlgorithm;
use tc_circuit::PlaneArena;
use tc_graph::generators;
use tcmm_core::{naive::NaiveTriangleCircuit, trace::TraceCircuit, CircuitConfig};

fn bench_trace_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_circuit_build");
    let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
    for (n, d) in [(8usize, 1u32), (8, 2), (16, 1)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("theorem45_n{n}_d{d}")),
            &(n, d),
            |bench, &(n, d)| {
                bench.iter(|| TraceCircuit::theorem_4_5(&config, n, d, 6).unwrap());
            },
        );
    }
    for n in [16usize, 32] {
        group.bench_with_input(BenchmarkId::new("naive_triangle", n), &n, |bench, &n| {
            bench.iter(|| NaiveTriangleCircuit::new(n, 5).unwrap());
        });
    }
    group.finish();
}

fn bench_trace_evaluate(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_circuit_evaluate");
    let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
    let n = 16usize;
    let g = generators::erdos_renyi(n, 0.3, 21);
    let adjacency = g.adjacency_matrix();

    let subcubic = TraceCircuit::theorem_4_5(&config, n, 2, 30).unwrap();
    group.bench_function("theorem45_n16_d2_sequential", |bench| {
        bench.iter(|| subcubic.evaluate(&adjacency).unwrap());
    });
    let mut bits = vec![false; subcubic.circuit().num_inputs()];
    subcubic.input().assign(&adjacency, &mut bits).unwrap();
    let mut arena = PlaneArena::new();
    group.bench_function("theorem45_n16_d2_arena_one_row", |bench| {
        bench.iter(|| {
            let ev = subcubic
                .compiled()
                .evaluate_rows_arena::<1>(&[bits.as_slice()], &mut arena)
                .unwrap();
            ev.output(0, 0).unwrap()
        });
    });

    let naive = NaiveTriangleCircuit::new(n, 5).unwrap();
    group.bench_function("naive_triangle_n16", |bench| {
        bench.iter(|| naive.evaluate(&adjacency).unwrap());
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    targets = bench_trace_build, bench_trace_evaluate
}
criterion_main!(benches);
