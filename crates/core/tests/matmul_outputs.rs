//! `MatmulCircuit` decodes `C` from the circuit's designated outputs alone.
//!
//! * The ordering contract: reading each entry from the output slice (the
//!   order `SignedInt::mark_as_outputs` marks it in) gives the same value as
//!   reading the entry's interior wires from a full scalar evaluation, on
//!   every constructor geometry.
//! * The served path: `evaluate_many_with` answers any batch shape, in one
//!   runtime call, on every standard backend.

use fast_matmul::{random_matrix, BilinearAlgorithm, Matrix};
use tc_arith::SignedInt;
use tc_runtime::Runtime;
use tcmm_core::matmul::MatmulCircuit;
use tcmm_core::CircuitConfig;

fn encode(mm: &MatmulCircuit, a: &Matrix, b: &Matrix) -> Vec<bool> {
    let mut bits = vec![false; mm.compiled().num_inputs()];
    mm.input_a().assign(a, &mut bits).unwrap();
    mm.input_b().assign(b, &mut bits).unwrap();
    bits
}

/// Checks, for one operand pair, that every entry read from the output slice
/// equals the interior-wire read, and that both equal the host product.
fn assert_outputs_decode_like_wires(label: &str, mm: &MatmulCircuit, a: &Matrix, b: &Matrix) {
    let bits = encode(mm, a, b);
    let ev = mm.compiled().evaluate(&bits).unwrap();
    let expected = a.multiply_naive(b).unwrap();
    let mut outputs = ev.outputs();
    for (k, entry) in mm.output_entries().iter().enumerate() {
        let from_wires = entry.value(&bits, &ev);
        let from_outputs = entry.read_outputs(&mut outputs);
        assert_eq!(from_outputs, from_wires, "{label}: entry {k}");
        assert_eq!(from_wires, expected.data()[k], "{label}: entry {k}");
    }
    assert!(outputs.is_empty(), "{label}: output bits left over");
    assert_eq!(mm.evaluate(a, b).unwrap(), expected, "{label}");
}

#[test]
fn output_bits_decode_like_the_interior_wires_on_every_geometry() {
    let strassen3 = CircuitConfig::new(BilinearAlgorithm::strassen(), 3);
    let winograd = CircuitConfig::new(BilinearAlgorithm::winograd(), 2);
    let s2 = CircuitConfig::new(BilinearAlgorithm::strassen().tensor_power(2).unwrap(), 2);
    let strassen2 = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);

    let mut cases: Vec<(String, MatmulCircuit, i64)> = Vec::new();
    for n in [2usize, 4] {
        for d in 1..=2u32 {
            let mm = MatmulCircuit::theorem_4_9(&strassen3, n, d).unwrap();
            cases.push((format!("strassen b=3 n={n} d={d}"), mm, 7));
        }
    }
    cases.push((
        "winograd n=4 d=2".into(),
        MatmulCircuit::theorem_4_9(&winograd, 4, 2).unwrap(),
        3,
    ));
    cases.push((
        "strassen⊗strassen n=4 d=1".into(),
        MatmulCircuit::theorem_4_9(&s2, 4, 1).unwrap(),
        3,
    ));
    cases.push((
        "theorem 4.8 n=4".into(),
        MatmulCircuit::theorem_4_8(&strassen2, 4).unwrap(),
        3,
    ));
    cases.push((
        "theorem 4.1 n=4 d=2".into(),
        MatmulCircuit::theorem_4_1(&strassen2, 4, 2).unwrap(),
        3,
    ));

    for (label, mm, max) in &cases {
        let widths: usize = mm
            .output_entries()
            .iter()
            .map(SignedInt::output_width)
            .sum();
        assert_eq!(widths, mm.compiled().num_outputs(), "{label}");
        let n = mm.n();
        for seed in 0..3u64 {
            let a = random_matrix(n, *max, 100 + 2 * seed);
            let b = random_matrix(n, *max, 101 + 2 * seed);
            assert_outputs_decode_like_wires(label, mm, &a, &b);
        }
        // Boundary entries: every product entry at its most negative and its
        // most positive value, plus alternating signs.
        let full = Matrix::from_fn(n, n, |_, _| *max);
        let negated = Matrix::from_fn(n, n, |_, _| -*max);
        let alternating = Matrix::from_fn(n, n, |i, j| if (i + j) % 2 == 0 { *max } else { -*max });
        assert_outputs_decode_like_wires(label, mm, &full, &negated);
        assert_outputs_decode_like_wires(label, mm, &negated, &negated);
        assert_outputs_decode_like_wires(label, mm, &alternating, &full);
        assert_outputs_decode_like_wires(label, mm, &Matrix::zeros(n, n), &full);
    }
}

#[test]
fn every_batch_shape_is_served_on_every_backend() {
    let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
    let mm = MatmulCircuit::theorem_4_9(&config, 4, 2).unwrap();
    let pool: Vec<(Matrix, Matrix)> = (0..1100u64)
        .map(|s| {
            (
                random_matrix(4, 1, 2 * s + 1),
                random_matrix(4, 1, 2 * s + 2),
            )
        })
        .collect();
    let expected: Vec<Matrix> = pool
        .iter()
        .map(|(a, b)| a.multiply_naive(b).unwrap())
        .collect();
    for backend in ["scalar", "sliced64", "wide128", "wide256", "wide512"] {
        let runtime = Runtime::builder().fixed_backend(backend).build();
        assert_eq!(runtime.backend_for(mm.compiled(), 64).unwrap(), backend);
        assert_eq!(mm.evaluate_many_with(&runtime, &[]).unwrap(), vec![]);
        for len in [1usize, 63, 64, 65, 511, 513, 1100] {
            let products = mm.evaluate_many_with(&runtime, &pool[..len]).unwrap();
            assert_eq!(products.len(), len, "{backend} batch {len}");
            for (k, (got, want)) in products.iter().zip(&expected).enumerate() {
                assert_eq!(got, want, "{backend} batch {len} pair {k}");
            }
        }
    }
}
