//! Property-based tests for the graph substrate: counting identities that must hold on
//! every graph, exercised over random Erdős–Rényi and BTER-like instances.

use proptest::prelude::*;
use tc_graph::{clustering, generators, triangles, Graph};

/// Strategy: a random graph described by (n, edge probability, seed).
fn graph_strategy() -> impl Strategy<Value = Graph> {
    (3usize..40, 0.0f64..1.0, any::<u64>())
        .prop_map(|(n, p, seed)| generators::erdos_renyi(n, p, seed))
}

fn bter_strategy() -> impl Strategy<Value = Graph> {
    (2usize..6, 2usize..6, 0.2f64..1.0, 0.0f64..0.3, any::<u64>()).prop_map(
        |(communities, size, p_in, p_out, seed)| {
            generators::bter_like(
                generators::BterParams {
                    n: communities * size,
                    community_size: size,
                    p_within: p_in,
                    p_between: p_out,
                },
                seed,
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The three triangle-counting algorithms agree on every graph.
    #[test]
    fn triangle_counters_agree(g in graph_strategy()) {
        let reference = triangles::count_node_iterator(&g);
        prop_assert_eq!(reference, triangles::count_via_trace(&g));
        prop_assert_eq!(triangles::trace_of_cube(&g), 6 * reference as i128);
    }

    /// Per-vertex triangle counts sum to three times the global count (each triangle is
    /// seen from its three corners).
    #[test]
    fn per_vertex_counts_sum_to_three_times_total(g in graph_strategy()) {
        let total = triangles::count_node_iterator(&g);
        let per_vertex: u64 = triangles::per_vertex_triangles(&g).iter().sum();
        prop_assert_eq!(per_vertex, 3 * total);
    }

    /// The global clustering coefficient is a ratio in [0, 1] and is exactly
    /// 3·triangles / wedges whenever the graph has wedges.
    #[test]
    fn clustering_coefficient_is_a_valid_ratio(g in graph_strategy()) {
        let cc = clustering::global_clustering_coefficient(&g);
        prop_assert!((0.0..=1.0).contains(&cc), "cc = {cc}");
        let wedges = clustering::wedge_count(&g);
        if wedges > 0 {
            let expected = 3.0 * triangles::count_node_iterator(&g) as f64 / wedges as f64;
            prop_assert!((cc - expected).abs() < 1e-9);
        } else {
            prop_assert_eq!(cc, 0.0);
        }
    }

    /// Local clustering coefficients are in [0, 1] and there is one per vertex.
    #[test]
    fn local_clustering_is_bounded(g in graph_strategy()) {
        let local = clustering::local_clustering_coefficients(&g);
        prop_assert_eq!(local.len(), g.num_vertices());
        prop_assert!(local.iter().all(|&c| (0.0..=1.0).contains(&c)));
    }

    /// The adjacency matrix round-trips through Graph::from_adjacency.
    #[test]
    fn adjacency_matrix_round_trip(g in graph_strategy()) {
        let m = g.adjacency_matrix();
        let back = Graph::from_adjacency(&m);
        prop_assert_eq!(back.num_vertices(), g.num_vertices());
        prop_assert_eq!(back.num_edges(), g.num_edges());
        prop_assert_eq!(back.adjacency_matrix(), m);
    }

    /// Padding the adjacency matrix with isolated vertices changes neither the trace of
    /// the cube nor the triangle count.
    #[test]
    fn padding_preserves_triangle_structure(g in graph_strategy(), extra in 0usize..10) {
        let padded = g.padded_adjacency_matrix(g.num_vertices() + extra);
        let padded_graph = Graph::from_adjacency(&padded);
        prop_assert_eq!(
            triangles::count_node_iterator(&padded_graph),
            triangles::count_node_iterator(&g)
        );
    }

    /// The degree sum equals twice the edge count (handshake lemma) and wedge counts
    /// follow the C(deg, 2) formula.
    #[test]
    fn handshake_and_wedge_formulas(g in graph_strategy()) {
        let degree_sum: usize = (0..g.num_vertices()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        let wedges: u64 = (0..g.num_vertices())
            .map(|v| {
                let d = g.degree(v) as u64;
                d * d.saturating_sub(1) / 2
            })
            .sum();
        prop_assert_eq!(wedges, clustering::wedge_count(&g));
    }

    /// BTER-like generation always produces a simple graph of the requested size.
    #[test]
    fn bter_generates_simple_graphs(g in bter_strategy()) {
        let m = g.adjacency_matrix();
        for i in 0..g.num_vertices() {
            prop_assert_eq!(m.get(i, i), 0, "no self loops");
            for j in 0..g.num_vertices() {
                prop_assert_eq!(m.get(i, j), m.get(j, i), "symmetry");
                prop_assert!(m.get(i, j) == 0 || m.get(i, j) == 1);
            }
        }
    }

    /// Structured fixtures: complete graphs have C(n,3) triangles and clustering 1;
    /// stars and cycles (n >= 4) have none.
    #[test]
    fn structured_graph_counts(n in 3usize..30) {
        let complete = generators::complete(n);
        let expected = (n * (n - 1) * (n - 2) / 6) as u64;
        prop_assert_eq!(triangles::count_node_iterator(&complete), expected);
        prop_assert!((clustering::global_clustering_coefficient(&complete) - 1.0).abs() < 1e-12);

        let star = generators::star(n);
        prop_assert_eq!(triangles::count_node_iterator(&star), 0);
        if n >= 4 {
            let cycle = generators::cycle(n);
            prop_assert_eq!(triangles::count_node_iterator(&cycle), 0);
        }
    }
}
