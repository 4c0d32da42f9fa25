//! Exact triangle counting — host-side reference algorithms for the circuits.

use crate::Graph;

/// Counts triangles with the node-iterator algorithm: for every vertex, count adjacent
/// pairs of neighbours that are themselves adjacent.  `O(Σ deg(v)²)` time.
pub fn count_node_iterator(g: &Graph) -> u64 {
    let mut count = 0u64;
    for v in 0..g.num_vertices() {
        let nbrs = g.neighbors(v);
        for (idx, &a) in nbrs.iter().enumerate() {
            if a < v {
                continue;
            }
            for &b in &nbrs[idx + 1..] {
                if b > a && g.has_edge(a, b) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Counts triangles via the identity `Δ = trace(A³)/6` (Section 2.3 of the paper),
/// using exact integer matrix arithmetic.
pub fn count_via_trace(g: &Graph) -> u64 {
    let a = g.adjacency_matrix();
    let a2 = a.multiply_naive(&a).expect("square");
    let a3 = a2.multiply_naive(&a).expect("square");
    (a3.trace() / 6) as u64
}

/// `trace(A³)` of the graph's adjacency matrix (`= 6·Δ`).
pub fn trace_of_cube(g: &Graph) -> i128 {
    let a = g.adjacency_matrix();
    let a2 = a.multiply_naive(&a).expect("square");
    let a3 = a2.multiply_naive(&a).expect("square");
    a3.trace()
}

/// Counts triangles containing each vertex (needed for local clustering coefficients).
pub fn per_vertex_triangles(g: &Graph) -> Vec<u64> {
    let mut counts = vec![0u64; g.num_vertices()];
    for (v, count) in counts.iter_mut().enumerate() {
        let nbrs = g.neighbors(v);
        for (idx, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[idx + 1..] {
                if g.has_edge(a, b) {
                    *count += 1;
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn known_counts() {
        assert_eq!(count_node_iterator(&generators::complete(4)), 4);
        assert_eq!(count_node_iterator(&generators::complete(6)), 20);
        assert_eq!(count_node_iterator(&generators::cycle(5)), 0);
        assert_eq!(count_node_iterator(&generators::star(10)), 0);
        let paw = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(count_node_iterator(&paw), 1);
    }

    #[test]
    fn all_counting_methods_agree() {
        for seed in 0..5u64 {
            let g = generators::erdos_renyi(40, 0.25, seed);
            let ni = count_node_iterator(&g);
            assert_eq!(ni, count_via_trace(&g), "seed={seed}");
            assert_eq!(trace_of_cube(&g), 6 * ni as i128);
        }
    }

    #[test]
    fn per_vertex_counts_sum_to_three_times_total() {
        let g = generators::erdos_renyi(30, 0.3, 11);
        let per = per_vertex_triangles(&g);
        let total: u64 = per.iter().sum();
        assert_eq!(total, 3 * count_node_iterator(&g));
    }
}
