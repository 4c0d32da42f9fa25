//! Social-network triangle counting (Section 5 of the paper).
//!
//! Generates a BTER-like community graph, picks the trace threshold `τ` from a target
//! global clustering coefficient, and answers the question "does the graph have
//! clustering at least the target?" three ways: exact host-side counting, the naive
//! depth-2 triangle circuit, and the subcubic Theorem 4.5 trace circuit.
//!
//! Run with `cargo run --release --example triangle_counting`.

use tcmm::graph::{clustering, generators, triangles};
use tcmm::neuro::{energy, DeviceSpec};
use tcmm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = generators::BterParams {
        n: 16,
        community_size: 4,
        p_within: 0.8,
        p_between: 0.08,
    };
    let graph = generators::bter_like(params, 2024);
    let n_padded = 16usize; // already a power of 2

    println!(
        "BTER-like graph: {} vertices, {} edges, {} wedges, {} triangles",
        graph.num_vertices(),
        graph.num_edges(),
        clustering::wedge_count(&graph),
        triangles::count_node_iterator(&graph)
    );
    let cc = clustering::global_clustering_coefficient(&graph);
    println!("global clustering coefficient = {cc:.4}");

    // Pick tau so that the circuit answers "is the clustering coefficient >= target?".
    let target = 0.3;
    let tau = clustering::tau_for_clustering_target(&graph, target);
    let adjacency = graph.padded_adjacency_matrix(n_padded);
    let exact = triangles::trace_of_cube(&graph);
    println!("\ntarget clustering = {target} -> tau = {tau}; trace(A^3) = {exact}");

    // Naive depth-2 triangle circuit (threshold in triangles = tau / 6).
    let naive = NaiveTriangleCircuit::new(n_padded, tau / 6)?;
    let naive_answer = naive.evaluate(&adjacency)?;
    println!(
        "naive circuit   : gates = {:>8}, depth = {}, answer = {}",
        naive.circuit().num_gates(),
        naive.circuit().depth(),
        naive_answer
    );

    // Subcubic trace circuit (Theorem 4.5 with d = 2).
    let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
    let trace_circuit = TraceCircuit::theorem_4_5(&config, n_padded, 2, tau)?;
    let circuit_answer = trace_circuit.evaluate(&adjacency)?;
    println!(
        "Theorem 4.5     : gates = {:>8}, depth = {}, answer = {}",
        trace_circuit.circuit().num_gates(),
        trace_circuit.circuit().depth(),
        circuit_answer
    );
    assert_eq!(naive_answer, exact >= tau as i128);
    assert_eq!(circuit_answer, exact >= tau as i128);

    // Energy on a neuromorphic device model (one unit per firing gate).
    let device = DeviceSpec::truenorth_like();
    let mut bits = vec![false; trace_circuit.circuit().num_inputs()];
    trace_circuit.input().assign(&adjacency, &mut bits)?;
    let report = energy::energy_over_inputs(trace_circuit.circuit(), &device, &[bits])?;
    println!(
        "\nenergy on {}: {:.0} spikes per evaluation ({:.1}% of gates fire)",
        device.name,
        report.mean_firings,
        100.0 * report.mean_firing_fraction
    );
    Ok(())
}
