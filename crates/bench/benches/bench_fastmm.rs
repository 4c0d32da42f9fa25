//! Criterion benches for the host-side (non-circuit) matrix-multiplication substrate:
//! naive versus recursive Strassen/Winograd/Laderman products, matching the operation
//! counts reproduced by experiment E1.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fast_matmul::{random_matrix, recursive::multiply_recursive, BilinearAlgorithm};

/// Naive cubic product.
fn bench_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("host_matmul_naive");
    for n in [32usize, 64, 128] {
        let a = random_matrix(n, 100, 1);
        let b = random_matrix(n, 100, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| a.multiply_naive(&b).unwrap());
        });
    }
    group.finish();
}

/// Recursive fast multiplication with the three built-in subcubic recipes.
fn bench_recursive(c: &mut Criterion) {
    let mut group = c.benchmark_group("host_matmul_recursive");
    for n in [64usize, 128] {
        let a = random_matrix(n, 100, 3);
        let b = random_matrix(n, 100, 4);
        for alg in [BilinearAlgorithm::strassen(), BilinearAlgorithm::winograd()] {
            group.bench_with_input(
                BenchmarkId::new(alg.name().to_string(), n),
                &n,
                |bench, _| {
                    bench.iter(|| multiply_recursive(&alg, &a, &b, 16).unwrap());
                },
            );
        }
    }
    // Laderman works on powers of 3.
    let n = 81usize;
    let a = random_matrix(n, 100, 5);
    let b = random_matrix(n, 100, 6);
    let laderman = BilinearAlgorithm::laderman();
    group.bench_with_input(BenchmarkId::new("laderman", n), &n, |bench, _| {
        bench.iter(|| multiply_recursive(&laderman, &a, &b, 27).unwrap());
    });
    group.finish();
}

/// One application of a T×T recipe (the Figure 1 building block).
fn bench_apply_once(c: &mut Criterion) {
    let mut group = c.benchmark_group("recipe_apply_once");
    for alg in [
        BilinearAlgorithm::strassen(),
        BilinearAlgorithm::winograd(),
        BilinearAlgorithm::laderman(),
        BilinearAlgorithm::strassen().tensor_power(2).unwrap(),
    ] {
        let t = alg.t();
        let a = random_matrix(t, 100, 7);
        let b = random_matrix(t, 100, 8);
        group.bench_function(alg.name().to_string(), |bench| {
            bench.iter(|| alg.apply_once(&a, &b).unwrap());
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    targets = bench_naive, bench_recursive, bench_apply_once
}
criterion_main!(benches);
