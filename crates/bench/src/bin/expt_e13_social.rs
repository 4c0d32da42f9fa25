//! E13 — Section 5 (social network analysis): triangle thresholds and clustering.
//!
//! The paper motivates the `trace(A³) ≥ τ` circuit with community detection: the global
//! clustering coefficient is `3·∆ / W` (∆ triangles, W wedges), so "does the graph have
//! clustering at least some target?" reduces to "is `trace(A³) = 6·∆` at least
//! `τ = 2·target·W`?", where the wedge count W is computable in `O(N)` host time.
//!
//! This experiment generates BTER-like community graphs (the generative model the paper
//! cites) and Erdős–Rényi controls, computes wedges, triangles and clustering
//! coefficients, derives τ from a target clustering value, and answers the threshold
//! question three ways — exact counting, the naive depth-2 triangle circuit and the
//! Theorem 4.5 subcubic trace circuit — checking that all three agree and reporting the
//! circuit sizes.
//!
//! Run with `cargo run --release -p tcmm-bench --bin expt_e13_social`.

use std::time::Instant;

use fast_matmul::BilinearAlgorithm;
use tc_graph::{clustering, generators, triangles, Graph, TriangleOracle};
use tc_runtime::Runtime;
use tcmm_bench::{banner, f, Table};
use tcmm_core::{naive::NaiveTriangleCircuit, trace::TraceCircuit, CircuitConfig};

/// Smallest power of two at least `n` (the circuits need N to be a power of T = 2).
fn pad_to_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

fn main() {
    println!("E13: social-network triangle thresholds and clustering coefficients (Section 5)");

    banner("graph statistics for BTER-like community graphs and Erdős–Rényi controls");
    let mut graphs: Vec<(String, Graph)> = Vec::new();
    for &(n, csize, p_in, p_out) in &[(16usize, 4usize, 0.8f64, 0.05f64), (16, 8, 0.7, 0.1)] {
        let params = generators::BterParams {
            n,
            community_size: csize,
            p_within: p_in,
            p_between: p_out,
        };
        graphs.push((
            format!("BTER n={n} communities of {csize}"),
            generators::bter_like(params, 900 + n as u64),
        ));
    }
    for &(n, p) in &[(16usize, 0.25f64), (16, 0.45)] {
        graphs.push((
            format!("ER n={n} p={p}"),
            generators::erdos_renyi(n, p, 40 + n as u64),
        ));
    }

    let mut t = Table::new([
        "graph",
        "vertices",
        "edges",
        "wedges",
        "triangles",
        "global clustering",
    ]);
    for (name, g) in &graphs {
        t.row([
            name.clone(),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            clustering::wedge_count(g).to_string(),
            triangles::count_node_iterator(g).to_string(),
            f(clustering::global_clustering_coefficient(g)),
        ]);
    }
    t.print();
    println!(
        "the BTER-like graphs show the community structure the paper associates with high\n\
         clustering; the Erdős–Rényi controls sit much lower."
    );

    banner("answering \"clustering >= target?\" through the circuits");
    let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
    let mut t = Table::new([
        "graph",
        "target",
        "tau = 2*target*W",
        "exact answer",
        "naive circuit (gates)",
        "Theorem 4.5 d=2 (gates)",
        "all agree",
    ]);
    for (name, g) in &graphs {
        let n_pad = pad_to_pow2(g.num_vertices());
        let adjacency = g.padded_adjacency_matrix(n_pad);
        let exact_trace = triangles::trace_of_cube(g);
        for target in [0.1f64, 0.3, 0.6] {
            let tau = clustering::tau_for_clustering_target(g, target);
            let exact_answer = exact_trace >= tau as i128;

            let naive = NaiveTriangleCircuit::new(n_pad, (tau + 5) / 6).unwrap();
            let naive_answer = naive.evaluate(&adjacency).unwrap();

            let subcubic = TraceCircuit::theorem_4_5(&config, n_pad, 2, tau).unwrap();
            let subcubic_answer = subcubic.evaluate(&adjacency).unwrap();

            t.row([
                name.clone(),
                f(target),
                tau.to_string(),
                exact_answer.to_string(),
                format!("{} ({})", naive_answer, naive.circuit().num_gates()),
                format!("{} ({})", subcubic_answer, subcubic.circuit().num_gates()),
                (naive_answer == exact_answer && subcubic_answer == exact_answer).to_string(),
            ]);
        }
    }
    t.print();
    println!(
        "\nnote on tau: trace(A^3) = 6*triangles and clustering = 3*triangles/wedges, so\n\
         \"clustering >= target\" is \"trace(A^3) >= 2*target*wedges\" = tau; the naive circuit\n\
         thresholds on triangle count so it uses ceil(tau/6)."
    );

    banner("high-traffic serving: one compiled oracle answering 10k triangle queries");
    // The compile-once / evaluate-many path: a single TriangleOracle compiles
    // the Theorem 4.5 circuit once; 10k graphs then route through a serving
    // runtime (rule-picked bit-sliced lane groups, worker-sharded).
    let oracle = TriangleOracle::new(&config, 16, 2, 8).unwrap();
    let runtime = Runtime::new();
    let queries: Vec<Graph> = (0..10_000u64)
        .map(|s| generators::erdos_renyi(16, 0.3, 10_000 + s))
        .collect();

    let t0 = Instant::now();
    let answers = oracle.query_many_with(&runtime, &queries).unwrap();
    let batched_s = t0.elapsed().as_secs_f64();

    let sample = 256usize; // per-call serving cost, extrapolated
    let t0 = Instant::now();
    for g in &queries[..sample] {
        oracle.query(g).unwrap();
    }
    let per_call_s = t0.elapsed().as_secs_f64() / sample as f64 * queries.len() as f64;

    let mut mismatches = 0usize;
    for (g, &got) in queries.iter().zip(&answers).take(512) {
        if got != (triangles::count_node_iterator(g) >= oracle.tau_triangles()) {
            mismatches += 1;
        }
    }
    let yes = answers.iter().filter(|&&b| b).count();
    println!(
        "oracle: {} gates, compiled once; {} queries answered ({} yes / {} no)\n\
         batched (runtime lane groups): {:.2}s total   per-call scalar: {:.2}s (extrapolated from {})\n\
         batched speedup: {:.1}x   answer mismatches vs exact counting (512 sampled): {}",
        oracle.circuit().circuit().num_gates(),
        queries.len(),
        yes,
        queries.len() - yes,
        batched_s,
        per_call_s,
        sample,
        per_call_s / batched_s,
        mismatches
    );
}
