//! Criterion benches for the graph substrate used by the Section 5 social-network
//! experiments: generators, exact triangle counting, and clustering coefficients.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tc_graph::{clustering, generators, triangles};

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_generators");
    for n in [128usize, 512, 1024] {
        group.bench_with_input(BenchmarkId::new("erdos_renyi", n), &n, |bench, &n| {
            bench.iter(|| generators::erdos_renyi(n, 0.05, 7));
        });
        group.bench_with_input(BenchmarkId::new("bter_like", n), &n, |bench, &n| {
            let params = generators::BterParams {
                n,
                community_size: 16,
                p_within: 0.5,
                p_between: 0.01,
            };
            bench.iter(|| generators::bter_like(params, 7));
        });
    }
    group.finish();
}

fn bench_triangle_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("triangle_counting");
    for n in [128usize, 512] {
        let g = generators::erdos_renyi(n, 0.05, 11);
        group.bench_with_input(BenchmarkId::new("node_iterator", n), &n, |bench, _| {
            bench.iter(|| triangles::count_node_iterator(&g));
        });
        group.bench_with_input(BenchmarkId::new("via_trace", n), &n, |bench, _| {
            bench.iter(|| triangles::count_via_trace(&g));
        });
    }
    group.finish();
}

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering_coefficients");
    let g = generators::erdos_renyi(512, 0.05, 13);
    group.bench_function("wedge_count", |bench| {
        bench.iter(|| clustering::wedge_count(&g))
    });
    group.bench_function("global_clustering", |bench| {
        bench.iter(|| clustering::global_clustering_coefficient(&g))
    });
    group.bench_function("local_clustering", |bench| {
        bench.iter(|| clustering::local_clustering_coefficients(&g))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    targets = bench_generators, bench_triangle_counting, bench_clustering
}
criterion_main!(benches);
