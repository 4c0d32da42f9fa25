//! Quickstart: build the paper's circuits for a small matrix and inspect them.
//!
//! Run with `cargo run --release --example quickstart`.

use tcmm::core::{analysis, naive::NaiveMatmulCircuit, trace::trace_of_cube};
use tcmm::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A fast matrix-multiplication recipe and its circuit constants -----------
    let strassen = BilinearAlgorithm::strassen();
    strassen.verify()?;
    let profile = SparsityProfile::of(&strassen);
    println!("Strassen ⟨2,2,2;7⟩:");
    println!("  omega      = {:.4}", profile.omega());
    println!(
        "  s_A,s_B,s_C = {}, {}, {}",
        profile.s_a, profile.s_b, profile.s_c
    );
    println!(
        "  alpha = {:.4}, beta = {:.4}",
        profile.alpha(),
        profile.beta()
    );
    println!(
        "  gamma = {:.4}, c = {:.4}",
        profile.gamma(),
        profile.c_constant()
    );
    for d in 1..=6 {
        println!(
            "  d = {d}: gate exponent omega + c*gamma^d = {:.4}  (Theorem 4.1 baseline: {:.4})",
            analysis::theorem_4_5_exponent(&profile, d),
            analysis::theorem_4_1_exponent(&profile, d),
        );
    }

    // --- 2. A threshold circuit that multiplies two 4x4 integer matrices ------------
    // (kept at N = 4: the constant-depth construction buys depth with fan-in, so the
    // circuit grows very quickly with N — `expt_e11_matmul` prints the growth data.)
    let n = 4;
    let config = CircuitConfig::new(strassen.clone(), 3);
    let mm = MatmulCircuit::theorem_4_9(&config, n, 2)?;
    let a = Matrix::from_fn(n, n, |i, j| ((3 * i + j) % 8) as i64 - 4);
    let b = Matrix::from_fn(n, n, |i, j| ((i + 5 * j) % 7) as i64 - 3);
    let c = mm.evaluate(&a, &b)?;
    assert_eq!(c, a.multiply_naive(&b)?);
    let stats = mm.stats();
    println!("\nTheorem 4.9 matmul circuit for N = {n}, d = 2:");
    println!("  depth = {} (bound 4d+1 = 9)", stats.depth);
    println!(
        "  gates = {}, edges = {}, max fan-in = {}",
        stats.size, stats.edges, stats.max_fan_in
    );

    let naive = NaiveMatmulCircuit::new(&config, n)?;
    println!(
        "  naive definition-based circuit: depth = {}, gates = {}",
        naive.circuit().depth(),
        naive.circuit().num_gates()
    );

    // --- 3. The trace / triangle-threshold circuit ----------------------------------
    let graph_config = CircuitConfig::binary(strassen);
    let adjacency = Matrix::from_fn(n, n, |i, j| if i != j && (i + j) % 3 != 0 { 1 } else { 0 });
    // Symmetrise.
    let adjacency = {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let v = adjacency.get(i, j).max(adjacency.get(j, i));
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        m
    };
    let trace = trace_of_cube(&adjacency);
    let tau = trace as i64; // "has the graph at least trace/6 triangles?"
    let tc = TraceCircuit::theorem_4_5(&graph_config, n, 2, tau)?;
    println!("\nTheorem 4.5 trace circuit for N = {n}, d = 2, tau = {tau}:");
    println!(
        "  depth = {}, gates = {}",
        tc.circuit().depth(),
        tc.circuit().num_gates()
    );
    println!(
        "  trace(A^3) = {trace}, circuit answer for trace >= tau: {}",
        tc.evaluate(&adjacency)?
    );

    let baseline = NaiveTriangleCircuit::new(n, tau / 6)?;
    println!(
        "  naive triangle circuit: depth = {}, gates = {} (C(N,3)+1 = {})",
        baseline.circuit().depth(),
        baseline.circuit().num_gates(),
        tcmm::core::naive::naive_triangle_gate_count(n as u64)
    );

    // --- 4. Compile once, evaluate many: batched serving ----------------------------
    // Every circuit above is already lowered to its compiled CSR form; the batched
    // entry point pushes independent queries through a runtime's bit-sliced lane groups.
    let pairs: Vec<_> = (0..64)
        .map(|s| {
            (
                Matrix::from_fn(n, n, |i, j| ((i + j + s) % 7) as i64 - 3),
                Matrix::from_fn(n, n, |i, j| ((2 * i + j + s) % 7) as i64 - 3),
            )
        })
        .collect();
    let products = mm.evaluate_many_with(&Runtime::new(), &pairs)?;
    for ((a, b), c) in pairs.iter().zip(&products) {
        assert_eq!(c, &a.multiply_naive(b)?);
    }
    println!(
        "\nBatched serving: {} matrix products through bit-sliced lane groups over {} gates.",
        products.len(),
        mm.circuit().num_gates()
    );
    Ok(())
}
