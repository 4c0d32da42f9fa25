//! E14 — Section 6 (open problems): energy and latency of the circuits on a
//! neuromorphic-device model.
//!
//! The paper's open-problems section asks about the *energy complexity* of these
//! circuits under the Uchizawa–Douglas–Maass model: one unit of energy per firing gate
//! per evaluation.  The paper does not answer the question; this experiment provides
//! the measured data point the question asks for, on the device simulator:
//!
//! * firing counts (energy) of the naive triangle circuit versus the Theorem 4.5 trace
//!   circuit over a batch of random graphs;
//! * firing counts of the naive matmul circuit versus the Theorem 4.9 circuit;
//! * the mapping report (cores used, fan-in violations, inter-core traffic) and the
//!   latency model (depth × per-layer time) for devices modelled after the systems the
//!   paper cites (TrueNorth, Loihi, SpiNNaker).
//!
//! Run with `cargo run --release -p tcmm-bench --bin expt_e14_energy`.

use fast_matmul::BilinearAlgorithm;
use neuro_sim::{energy, mapping, DeviceSpec};
use tc_circuit::CompiledCircuit;
use tc_graph::triangles;
use tcmm_bench::{banner, f, workload_graph, workload_matrix, Table};
use tcmm_core::{
    matmul::MatmulCircuit,
    naive::{NaiveMatmulCircuit, NaiveTriangleCircuit},
    trace::TraceCircuit,
    CircuitConfig,
};

/// Energy (mean firings per evaluation) of an already-compiled circuit over
/// the given input batches: the whole sweep routes through one shared
/// serving runtime (rule-picked wide lane groups, worker-sharded).
fn mean_energy(
    runtime: &tc_runtime::Runtime,
    compiled: &CompiledCircuit,
    device: &DeviceSpec,
    inputs: &[Vec<bool>],
) -> (f64, f64) {
    let report = energy::energy_over_inputs_runtime(runtime, compiled, device, inputs).unwrap();
    (report.mean_firings, report.mean_firing_fraction)
}

fn main() {
    println!("E14: energy (firing-gate) and latency of the circuits on device models");
    // One shared serving runtime carries every energy sweep in this experiment.
    let runtime = tc_runtime::Runtime::new();
    let device = DeviceSpec::truenorth_like();
    let strassen = BilinearAlgorithm::strassen();

    banner("trace circuits: naive versus Theorem 4.5 (binary adjacency inputs, N = 16)");
    let n = 16usize;
    let config = CircuitConfig::binary(strassen.clone());
    let graphs: Vec<_> = (0..8u64).map(|s| workload_graph(n, 0.3, 60 + s)).collect();
    let tau = {
        // A mid-range threshold: the median trace across the batch.
        let mut traces: Vec<i128> = graphs.iter().map(triangles::trace_of_cube).collect();
        traces.sort();
        traces[traces.len() / 2] as i64
    };
    let naive = NaiveTriangleCircuit::new(n, (tau + 5) / 6).unwrap();
    let subcubic = TraceCircuit::theorem_4_5(&config, n, 2, tau).unwrap();

    let naive_inputs: Vec<Vec<bool>> = graphs
        .iter()
        .map(|g| {
            // The naive circuit's inputs are the C(N,2) upper-triangle edge variables in
            // row-major order, which is exactly how NaiveTriangleCircuit::evaluate feeds
            // them; reproduce that encoding here for the energy evaluation.
            let a = g.adjacency_matrix();
            let mut bits = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    bits.push(a.get(i, j) != 0);
                }
            }
            bits
        })
        .collect();
    let subcubic_inputs: Vec<Vec<bool>> = graphs
        .iter()
        .map(|g| {
            let a = g.adjacency_matrix();
            let mut bits = vec![false; subcubic.circuit().num_inputs()];
            subcubic.input().assign(&a, &mut bits).unwrap();
            bits
        })
        .collect();

    let (naive_energy, naive_frac) =
        mean_energy(&runtime, naive.compiled(), &device, &naive_inputs);
    let (sub_energy, sub_frac) =
        mean_energy(&runtime, subcubic.compiled(), &device, &subcubic_inputs);
    let mut t = Table::new([
        "circuit",
        "gates",
        "depth",
        "mean firings per evaluation",
        "fraction of gates firing",
    ]);
    t.row([
        "naive triangle (depth 2)".to_string(),
        naive.circuit().num_gates().to_string(),
        naive.circuit().depth().to_string(),
        f(naive_energy),
        f(naive_frac),
    ]);
    t.row([
        "Theorem 4.5 trace (d = 2)".to_string(),
        subcubic.circuit().num_gates().to_string(),
        subcubic.circuit().depth().to_string(),
        f(sub_energy),
        f(sub_frac),
    ]);
    t.print();
    println!("tau used for both circuits: trace(A^3) >= {tau} (median of the batch)");

    banner("matmul circuits: naive versus Theorem 4.9 (N = 4, 3-bit entries)");
    let mm_config = CircuitConfig::new(strassen.clone(), 3);
    let nm = 4usize;
    let naive_mm = NaiveMatmulCircuit::new(&mm_config, nm).unwrap();
    let fast_mm = MatmulCircuit::theorem_4_9(&mm_config, nm, 2).unwrap();
    let pairs: Vec<_> = (0..8u64)
        .map(|s| {
            (
                workload_matrix(nm, 3, 200 + s),
                workload_matrix(nm, 3, 300 + s),
            )
        })
        .collect();
    let fast_inputs: Vec<Vec<bool>> = pairs
        .iter()
        .map(|(a, b)| {
            let mut bits = vec![false; fast_mm.circuit().num_inputs()];
            fast_mm.input_a().assign(a, &mut bits).unwrap();
            fast_mm.input_b().assign(b, &mut bits).unwrap();
            bits
        })
        .collect();
    let (fast_energy, fast_frac) = mean_energy(&runtime, fast_mm.compiled(), &device, &fast_inputs);
    // The naive matmul circuit shares the same MatrixInput layout.
    let naive_inputs: Vec<Vec<bool>> = pairs
        .iter()
        .map(|(a, b)| {
            let mut bits = vec![false; fast_mm.circuit().num_inputs()];
            fast_mm.input_a().assign(a, &mut bits).unwrap();
            fast_mm.input_b().assign(b, &mut bits).unwrap();
            bits.truncate(naive_mm.circuit().num_inputs());
            bits
        })
        .collect();
    let (naive_mm_energy, naive_mm_frac) =
        mean_energy(&runtime, naive_mm.compiled(), &device, &naive_inputs);
    let mut t = Table::new([
        "circuit",
        "gates",
        "depth",
        "mean firings per evaluation",
        "fraction of gates firing",
    ]);
    t.row([
        "naive matmul".to_string(),
        naive_mm.circuit().num_gates().to_string(),
        naive_mm.circuit().depth().to_string(),
        f(naive_mm_energy),
        f(naive_mm_frac),
    ]);
    t.row([
        "Theorem 4.9 matmul (d = 2)".to_string(),
        fast_mm.circuit().num_gates().to_string(),
        fast_mm.circuit().depth().to_string(),
        f(fast_energy),
        f(fast_frac),
    ]);
    t.print();

    banner("device mapping and latency for the Theorem 4.5 trace circuit (N = 16, d = 2)");
    let mut t = Table::new([
        "device",
        "cores used",
        "fits",
        "utilization",
        "fan-in violations",
        "inter-core edges",
        "latency (ns)",
    ]);
    for device in [
        DeviceSpec::truenorth_like(),
        DeviceSpec::loihi_like(),
        DeviceSpec::spinnaker_like(),
        DeviceSpec::unconstrained(),
    ] {
        let report = mapping::map_circuit(subcubic.circuit(), &device);
        let lat = energy::latency(subcubic.circuit(), &device);
        t.row([
            device.name.clone(),
            report.cores_used.to_string(),
            report.fits.to_string(),
            f(report.utilization),
            report.fan_in_violations.to_string(),
            report.inter_core_edges.to_string(),
            f(lat.latency_ns),
        ]);
    }
    t.print();
    println!(
        "\nfan-in violations on fan-in-limited devices quantify the practical caveat the paper\n\
         raises in Section 1; the Section 5 row-block partitioning (see E12) is the remedy."
    );
}
