//! A compiled, batched triangle-threshold oracle backed by the paper's
//! trace circuit.
//!
//! Section 5 motivates `trace(A³) ≥ τ` with social-network queries of the
//! form "does this graph have at least τ triangles?".  Serving such queries
//! at volume means the circuit must be built **once** and then evaluated
//! many times; [`TriangleOracle`] wraps a [`TraceCircuit`] (already lowered
//! to its compiled CSR form) and routes whole graph collections through a
//! caller's `tc_runtime` serving runtime — rule-picked bit-sliced lane groups
//! sharded across worker threads.

use crate::Graph;
use tc_runtime::Runtime;
use tcmm_core::trace::TraceCircuit;
use tcmm_core::{CircuitConfig, CoreError};

/// A reusable "≥ τ triangles?" oracle for graphs of bounded size.
///
/// The oracle pads every adjacency matrix to the circuit's dimension (a
/// power of the bilinear recipe's base), which preserves the triangle count,
/// so one compiled circuit serves every graph with at most `max_vertices`
/// vertices.
#[derive(Debug)]
pub struct TriangleOracle {
    circuit: TraceCircuit,
    padded_n: usize,
    max_vertices: usize,
    tau_triangles: u64,
}

impl TriangleOracle {
    /// Builds (and compiles) the oracle for graphs with up to `max_vertices`
    /// vertices, answering "at least `tau_triangles` triangles?" with `d`
    /// selected recursion levels (Theorem 4.5).
    pub fn new(
        config: &CircuitConfig,
        max_vertices: usize,
        d: u32,
        tau_triangles: u64,
    ) -> Result<Self, CoreError> {
        let t = config.algorithm().t();
        let mut padded_n = 1usize;
        while padded_n < max_vertices.max(t) {
            padded_n *= t;
        }
        // trace(A³) = 6·Δ for simple graphs.
        let tau = i64::try_from(tau_triangles)
            .ok()
            .and_then(|t| t.checked_mul(6))
            .ok_or(CoreError::InputMismatch {
                reason: "triangle threshold overflows the trace threshold",
            })?;
        let circuit = TraceCircuit::theorem_4_5(config, padded_n, d, tau)?;
        Ok(TriangleOracle {
            circuit,
            padded_n,
            max_vertices,
            tau_triangles,
        })
    }

    /// The triangle threshold τ the oracle answers against.
    pub fn tau_triangles(&self) -> u64 {
        self.tau_triangles
    }

    /// The largest graph (in vertices) the oracle accepts.
    pub fn max_vertices(&self) -> usize {
        self.max_vertices
    }

    /// The underlying (compiled) trace circuit.
    pub fn circuit(&self) -> &TraceCircuit {
        &self.circuit
    }

    /// The closed-form paper bound of the wrapped trace circuit at the
    /// oracle's padded dimension.
    pub fn paper_bound(&self) -> &tc_circuit::PaperBound {
        self.circuit.paper_bound()
    }

    /// Answers the query for one graph.
    pub fn query(&self, g: &Graph) -> Result<bool, CoreError> {
        self.check(g)?;
        self.circuit
            .evaluate(&g.padded_adjacency_matrix(self.padded_n))
    }

    /// Answers the query for a whole collection of graphs on `runtime`
    /// (typically one shared by many circuits).
    pub fn query_many_with(
        &self,
        runtime: &Runtime,
        graphs: &[Graph],
    ) -> Result<Vec<bool>, CoreError> {
        let mut padded = Vec::with_capacity(graphs.len());
        for g in graphs {
            self.check(g)?;
            padded.push(g.padded_adjacency_matrix(self.padded_n));
        }
        self.circuit.evaluate_many_with(runtime, &padded)
    }

    fn check(&self, g: &Graph) -> Result<(), CoreError> {
        if g.num_vertices() > self.max_vertices {
            return Err(CoreError::InputMismatch {
                reason: "graph exceeds the oracle's maximum vertex count",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, triangles};
    use fast_matmul::BilinearAlgorithm;

    #[test]
    fn oracle_agrees_with_exact_counts_over_a_collection() {
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        let oracle = TriangleOracle::new(&config, 8, 2, 3).unwrap();
        let graphs: Vec<Graph> = (0..70)
            .map(|seed| generators::erdos_renyi(5 + (seed as usize % 4), 0.5, seed))
            .collect();
        let answers = oracle.query_many_with(&Runtime::new(), &graphs).unwrap();
        for (g, &got) in graphs.iter().zip(&answers) {
            let exact = triangles::count_node_iterator(g);
            assert_eq!(got, exact >= 3, "exact={exact}");
            assert_eq!(got, oracle.query(g).unwrap());
        }
        assert!(answers.iter().any(|&b| b) && answers.iter().any(|&b| !b));
    }

    #[test]
    fn shared_runtime_serves_the_oracle_and_reports_telemetry() {
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        let oracle = TriangleOracle::new(&config, 8, 2, 3).unwrap();
        let shared = Runtime::builder().fixed_backend("wide128").build();
        let graphs: Vec<Graph> = (0..150)
            .map(|seed| generators::erdos_renyi(6, 0.5, seed))
            .collect();
        let answers = oracle.query_many_with(&shared, &graphs).unwrap();
        let per_graph: Vec<bool> = graphs.iter().map(|g| oracle.query(g).unwrap()).collect();
        assert_eq!(answers, per_graph);
        let summary = shared.telemetry();
        assert_eq!(summary.requests, 150);
        assert_eq!(summary.per_backend["wide128"].groups, 2); // 128 + 22-lane tail
        assert!(summary.firings > 0);
    }

    #[test]
    fn oversized_graphs_are_rejected() {
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        let oracle = TriangleOracle::new(&config, 4, 1, 1).unwrap();
        let big = generators::complete(9);
        assert!(oracle.query(&big).is_err());
    }

    #[test]
    fn padding_does_not_change_answers() {
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        // max_vertices 5 pads to 8 for Strassen's base 2.
        let oracle = TriangleOracle::new(&config, 5, 2, 1).unwrap();
        let g = generators::complete(3);
        assert!(oracle.query(&g).unwrap());
        let empty = Graph::empty(5);
        assert!(!oracle.query(&empty).unwrap());
    }
}
