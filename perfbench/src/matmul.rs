//! The `matmul-n8` workload: the Theorem 4.9 matrix-product circuit
//! (binary Strassen, N = 8, d = 2) multiplying seeded {−1, 0, 1} matrix pairs
//! through `MatmulCircuit::evaluate_many_with` in fixed-size batches.

use crate::spans::Tracer;
use crate::{input_seed, Served};
use fast_matmul::{random_matrix, BilinearAlgorithm, Matrix};
use std::time::{Duration, Instant};
use tcmm_core::matmul::MatmulCircuit;
use tcmm_core::CircuitConfig;

pub const N: usize = 8;
pub const D: u32 = 2;
/// Matrix pairs per `evaluate_many_with` call.
pub const BATCH: usize = 1024;
/// Distinct pairs per run, cycled through batch by batch.
pub const POOL: usize = 4 * BATCH;

pub fn build() -> Result<MatmulCircuit, String> {
    let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
    MatmulCircuit::theorem_4_9(&config, N, D)
        .map_err(|e| format!("MatmulCircuit::theorem_4_9: {e}"))
}

/// Seeded operand pairs and their host products (`Matrix::multiply_naive`).
pub struct Inputs {
    pub pairs: Vec<(Matrix, Matrix)>,
    pub products: Vec<Matrix>,
}

pub fn inputs(seed: u64) -> Inputs {
    let pairs: Vec<(Matrix, Matrix)> = (0..POOL as u64)
        .map(|i| {
            (
                random_matrix(N, 1, input_seed(seed, 2 * i)),
                random_matrix(N, 1, input_seed(seed, 2 * i + 1)),
            )
        })
        .collect();
    let products = pairs
        .iter()
        .map(|(a, b)| a.multiply_naive(b).expect("square operands"))
        .collect();
    Inputs { pairs, products }
}

/// The window lengths one batch is served in. `evaluate_many_with` serves
/// at most (128 MiB / gates) pairs per runtime call, clamped to 64..=2048,
/// and the tuner decides per window length; set-up warms the tuner for each
/// of them so no calibration lands in a timed batch.
pub fn windows(gates: usize) -> Vec<usize> {
    let window = ((128usize << 20) / gates.max(1)).clamp(64, 2048);
    let mut lens: Vec<usize> = (0..BATCH)
        .step_by(window)
        .map(|lo| window.min(BATCH - lo))
        .collect();
    lens.dedup();
    lens
}

/// Encodes one pair the way `MatmulCircuit` does: a zeroed input row with
/// `A` and `B` written into their layouts.
pub fn encode(mm: &MatmulCircuit, a: &Matrix, b: &Matrix) -> Result<Vec<bool>, String> {
    let mut bits = vec![false; mm.compiled().num_inputs()];
    mm.input_a()
        .assign(a, &mut bits)
        .and_then(|()| mm.input_b().assign(b, &mut bits))
        .map_err(|e| format!("encode: {e}"))?;
    Ok(bits)
}

/// Multiplies batch after batch for `seconds` (at least one batch). Only
/// the `evaluate_many_with` calls are timed; the comparison of every
/// product with its host reference runs outside the clock.
pub fn serve(
    mm: &MatmulCircuit,
    rt: &tc_runtime::Runtime,
    inputs: &Inputs,
    seconds: f64,
    tr: &mut Tracer,
) -> Served {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut served = Served::whole();
    let mut next = 0usize;
    loop {
        let lo = (next * BATCH) % POOL;
        let batch = &inputs.pairs[lo..lo + BATCH];
        let span = tr.begin("tcmm_core.evaluate_many_with", next as u64);
        let t0 = Instant::now();
        let result = mm.evaluate_many_with(rt, batch);
        let elapsed = t0.elapsed();
        tr.end(span);
        served.busy_s += elapsed.as_secs_f64();
        served.attempted += BATCH as u64;
        match result {
            Ok(products) => {
                served.answered += products.len() as u64;
                served.record(0.0, elapsed.as_nanos() as u64);
                let span = tr.begin("perfbench.check", next as u64);
                let right = products
                    .iter()
                    .zip(&inputs.products[lo..lo + BATCH])
                    .filter(|(got, want)| got == want)
                    .count();
                tr.end(span);
                served.failed += (BATCH - right) as u64;
            }
            Err(e) => {
                served.failed += BATCH as u64;
                served
                    .error
                    .get_or_insert(format!("evaluate_many_with: {e}"));
            }
        }
        next += 1;
        if Instant::now() >= deadline {
            return served;
        }
    }
}
