//! A small calibration probe: reports the wall-clock cost and size of building and
//! evaluating each circuit family at increasing problem sizes, so the experiment
//! binaries can be sized to the host.
//!
//! Run with `cargo run --release -p tcmm-bench --bin probe_build_costs`.

use std::time::Instant;

use fast_matmul::{random_matrix, BilinearAlgorithm};
use tc_graph::generators;
use tcmm_core::{
    matmul::MatmulCircuit,
    naive::{NaiveMatmulCircuit, NaiveTriangleCircuit},
    trace::TraceCircuit,
    CircuitConfig,
};

fn main() {
    let strassen = BilinearAlgorithm::strassen();

    println!("--- trace circuits (binary entries) ---");
    for (n, d) in [(8usize, 1u32), (8, 2), (16, 1), (16, 2), (16, 3), (32, 2)] {
        let config = CircuitConfig::binary(strassen.clone());
        let t0 = Instant::now();
        let circuit = TraceCircuit::theorem_4_5(&config, n, d, 6).unwrap();
        let built = t0.elapsed();
        let g = generators::erdos_renyi(n, 0.3, 1);
        let t1 = Instant::now();
        let _ = circuit.evaluate(&g.adjacency_matrix()).unwrap();
        let evaluated = t1.elapsed();
        println!(
            "trace   n={n:3} d={d}  gates={:>9}  edges={:>10}  build={:>8.2?}  eval={:>8.2?}",
            circuit.circuit().num_gates(),
            circuit.circuit().num_edges(),
            built,
            evaluated
        );
    }

    println!("--- naive triangle circuits ---");
    for n in [16usize, 32, 64] {
        let t0 = Instant::now();
        let circuit = NaiveTriangleCircuit::new(n, 5).unwrap();
        println!(
            "tri     n={n:3}      gates={:>9}  edges={:>10}  build={:>8.2?}",
            circuit.circuit().num_gates(),
            circuit.circuit().num_edges(),
            t0.elapsed()
        );
    }

    println!("--- matmul circuits (3-bit entries) ---");
    for (n, d) in [(4usize, 1u32), (4, 2), (8, 1), (8, 2), (8, 3)] {
        let config = CircuitConfig::new(strassen.clone(), 3);
        let t0 = Instant::now();
        let mm = MatmulCircuit::theorem_4_9(&config, n, d).unwrap();
        let built = t0.elapsed();
        let a = random_matrix(n, 3, 1);
        let b = random_matrix(n, 3, 2);
        let t1 = Instant::now();
        let _ = mm.evaluate(&a, &b).unwrap();
        let evaluated = t1.elapsed();
        println!(
            "matmul  n={n:3} d={d}  gates={:>9}  edges={:>10}  build={:>8.2?}  eval={:>8.2?}",
            mm.circuit().num_gates(),
            mm.circuit().num_edges(),
            built,
            evaluated
        );
    }

    println!("--- naive matmul circuits (3-bit entries) ---");
    for n in [4usize, 8] {
        let config = CircuitConfig::new(strassen.clone(), 3);
        let t0 = Instant::now();
        let mm = NaiveMatmulCircuit::new(&config, n).unwrap();
        let built = t0.elapsed();
        let a = random_matrix(n, 3, 1);
        let b = random_matrix(n, 3, 2);
        let t1 = Instant::now();
        let _ = mm.evaluate(&a, &b).unwrap();
        println!(
            "naive   n={n:3}      gates={:>9}  edges={:>10}  build={:>8.2?}  eval={:>8.2?}",
            mm.circuit().num_gates(),
            mm.circuit().num_edges(),
            built,
            t1.elapsed()
        );
    }
}
