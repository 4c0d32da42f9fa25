//! Cross-crate integration tests: the Theorem 4.8 / 4.9 / 4.1 matrix-product circuits
//! against the host-side reference implementations, across recipes, sizes and depth
//! parameters.

use tcmm::core::{matmul::MatmulCircuit, naive::NaiveMatmulCircuit, CircuitConfig};
use tcmm::fastmm::{random_matrix, recursive::multiply_recursive, BilinearAlgorithm, Matrix};
use tcmm::runtime::Runtime;

fn reference(a: &Matrix, b: &Matrix) -> Matrix {
    a.multiply_naive(b).unwrap()
}

#[test]
fn theorem_4_9_matches_naive_for_strassen_across_sizes_and_depths() {
    // N is kept at ≤ 4 with 3-bit entries: the constant-depth construction trades
    // depth for fan-in, and N = 8 with multi-bit entries already means hundreds of
    // millions of wire connections (minutes of build time on a small CI host).
    let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 3);
    for n in [2usize, 4] {
        for d in 1..=3u32 {
            let mm = MatmulCircuit::theorem_4_9(&config, n, d).unwrap();
            for seed in 0..2u64 {
                let a = random_matrix(n, 7, 1000 + seed);
                let b = random_matrix(n, 7, 2000 + seed);
                assert_eq!(
                    mm.evaluate(&a, &b).unwrap(),
                    reference(&a, &b),
                    "n={n} d={d}"
                );
            }
        }
    }
}

#[test]
fn theorem_4_9_matches_naive_for_binary_entries_at_n_8() {
    let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 1);
    let mm = MatmulCircuit::theorem_4_9(&config, 8, 2).unwrap();
    let a = fast_matmul::random_binary_matrix(8, 0.5, 7);
    let b = fast_matmul::random_binary_matrix(8, 0.4, 8);
    assert_eq!(mm.evaluate(&a, &b).unwrap(), reference(&a, &b));
}

#[test]
fn theorem_4_9_matches_naive_for_winograd_recipe() {
    let config = CircuitConfig::new(BilinearAlgorithm::winograd(), 3);
    for n in [2usize, 4] {
        let mm = MatmulCircuit::theorem_4_9(&config, n, 2).unwrap();
        let a = random_matrix(n, 5, 31);
        let b = random_matrix(n, 5, 32);
        assert_eq!(mm.evaluate(&a, &b).unwrap(), reference(&a, &b), "n={n}");
    }
}

#[test]
fn theorem_4_9_with_the_laderman_recipe_multiplies_3x3_and_9x9_matrices() {
    let config = CircuitConfig::new(BilinearAlgorithm::laderman(), 2);
    let mm = MatmulCircuit::theorem_4_9(&config, 3, 1).unwrap();
    let a = random_matrix(3, 3, 61);
    let b = random_matrix(3, 3, 62);
    assert_eq!(mm.evaluate(&a, &b).unwrap(), reference(&a, &b));

    let binary = CircuitConfig::binary(BilinearAlgorithm::laderman());
    let mm9 = MatmulCircuit::theorem_4_9(&binary, 9, 2).unwrap();
    let a9 = fast_matmul::random_binary_matrix(9, 0.5, 63);
    let b9 = fast_matmul::random_binary_matrix(9, 0.5, 64);
    assert_eq!(mm9.evaluate(&a9, &b9).unwrap(), reference(&a9, &b9));
}

#[test]
fn theorem_4_9_with_tensor_squared_strassen() {
    let s2 = BilinearAlgorithm::strassen().tensor_power(2).unwrap();
    assert_eq!(s2.t(), 4);
    assert_eq!(s2.r(), 49);
    let config = CircuitConfig::new(s2, 2);
    let mm = MatmulCircuit::theorem_4_9(&config, 4, 1).unwrap();
    let a = random_matrix(4, 3, 41);
    let b = random_matrix(4, 3, 42);
    assert_eq!(mm.evaluate(&a, &b).unwrap(), reference(&a, &b));
}

#[test]
fn theorem_4_8_and_4_1_agree_with_theorem_4_9() {
    let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
    let n = 4usize;
    let a = random_matrix(n, 3, 51);
    let b = random_matrix(n, 3, 52);
    let expected = reference(&a, &b);

    let t49 = MatmulCircuit::theorem_4_9(&config, n, 2).unwrap();
    let t48 = MatmulCircuit::theorem_4_8(&config, n).unwrap();
    let t41 = MatmulCircuit::theorem_4_1(&config, n, 2).unwrap();
    assert_eq!(t49.evaluate(&a, &b).unwrap(), expected);
    assert_eq!(t48.evaluate(&a, &b).unwrap(), expected);
    assert_eq!(t41.evaluate(&a, &b).unwrap(), expected);
}

#[test]
fn circuit_product_agrees_with_host_side_recursive_fast_multiplication() {
    let strassen = BilinearAlgorithm::strassen();
    let config = CircuitConfig::new(strassen.clone(), 3);
    let n = 4usize;
    let mm = MatmulCircuit::theorem_4_9(&config, n, 2).unwrap();
    let a = random_matrix(n, 6, 61);
    let b = random_matrix(n, 6, 62);
    let via_circuit = mm.evaluate(&a, &b).unwrap();
    let via_recursion = multiply_recursive(&strassen, &a, &b, 1).unwrap();
    assert_eq!(via_circuit, via_recursion);
}

#[test]
fn naive_circuit_and_subcubic_circuit_agree() {
    let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 3);
    let n = 4usize;
    let naive = NaiveMatmulCircuit::new(&config, n).unwrap();
    let fast = MatmulCircuit::theorem_4_9(&config, n, 2).unwrap();
    for seed in 0..3u64 {
        let a = random_matrix(n, 7, 500 + seed);
        let b = random_matrix(n, 7, 600 + seed);
        assert_eq!(
            naive.evaluate(&a, &b).unwrap(),
            fast.evaluate(&a, &b).unwrap(),
            "seed={seed}"
        );
    }
}

#[test]
fn depth_bounds_hold_across_parameters() {
    let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
    for n in [2usize, 4] {
        for d in 1..=3u32 {
            let mm = MatmulCircuit::theorem_4_9(&config, n, d).unwrap();
            assert!(
                mm.circuit().depth() <= 4 * d + 1,
                "depth {} exceeds 4d+1 for n={n} d={d}",
                mm.circuit().depth()
            );
        }
    }
}

#[test]
fn parallel_and_sequential_evaluation_agree_end_to_end() {
    let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 3);
    let mm = MatmulCircuit::theorem_4_9(&config, 4, 2).unwrap();
    let a = random_matrix(4, 5, 71);
    let b = random_matrix(4, 5, 72);
    let batched = mm
        .evaluate_many_with(&Runtime::new(), &[(a.clone(), b.clone())])
        .unwrap();
    assert_eq!(batched, vec![mm.evaluate(&a, &b).unwrap()]);
}

#[test]
fn identity_and_zero_matrices_are_handled() {
    let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 3);
    let n = 4usize;
    let mm = MatmulCircuit::theorem_4_9(&config, n, 2).unwrap();
    let id = Matrix::identity(n);
    let zero = Matrix::zeros(n, n);
    let a = random_matrix(n, 7, 81);
    assert_eq!(mm.evaluate(&a, &id).unwrap(), a);
    assert_eq!(mm.evaluate(&id, &a).unwrap(), a);
    assert_eq!(mm.evaluate(&a, &zero).unwrap(), zero);
    assert_eq!(mm.evaluate(&zero, &a).unwrap(), zero);
}

#[test]
fn extreme_entry_values_at_the_declared_bit_width() {
    let bits = 4usize;
    let config = CircuitConfig::new(BilinearAlgorithm::strassen(), bits);
    let n = 4usize;
    let mm = MatmulCircuit::theorem_4_9(&config, n, 2).unwrap();
    let max = (1i64 << bits) - 1;
    let a = Matrix::from_fn(n, n, |i, j| if (i + j) % 2 == 0 { max } else { -max });
    let b = Matrix::from_fn(n, n, |_, _| -max);
    assert_eq!(mm.evaluate(&a, &b).unwrap(), reference(&a, &b));
}

#[test]
fn non_power_of_t_dimension_is_rejected() {
    let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
    assert!(MatmulCircuit::theorem_4_9(&config, 3, 1).is_err());
    assert!(MatmulCircuit::theorem_4_9(&config, 6, 1).is_err());
    let naive3 = BilinearAlgorithm::naive(3);
    let config3 = CircuitConfig::new(naive3, 2);
    // 9 is a power of 3, so the naive ⟨3,3,3;27⟩ recipe accepts it even though the
    // subcubic schedules reject non-fast recipes; use the generic schedule instead.
    assert!(MatmulCircuit::theorem_4_9(&config3, 8, 1).is_err());
}
