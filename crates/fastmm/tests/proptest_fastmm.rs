//! Property-based tests for the host-side fast-multiplication substrate: every recipe,
//! every recursion depth, every matrix shape the crate accepts must agree with the
//! naive product, and the algebraic identities of the Matrix type must hold.

use fast_matmul::{
    recursive::{multiply_recursive, multiply_recursive_counting},
    BilinearAlgorithm, Matrix, SparsityProfile,
};
use proptest::prelude::*;

/// Strategy: a square matrix of dimension `n` with entries in [-mag, mag].
fn matrix_strategy(n: usize, mag: i64) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-mag..=mag, n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recursive Strassen multiplication equals the naive product for any power-of-two
    /// size up to 16 and any cutoff.
    #[test]
    fn strassen_recursion_matches_naive(
        log_n in 1u32..5,
        cutoff in 1usize..8,
        seed in any::<u64>(),
    ) {
        let n = 1usize << log_n;
        let a = fast_matmul::random_matrix(n, 50, seed);
        let b = fast_matmul::random_matrix(n, 50, seed.wrapping_add(1));
        let expected = a.multiply_naive(&b).unwrap();
        let strassen = BilinearAlgorithm::strassen();
        prop_assert_eq!(multiply_recursive(&strassen, &a, &b, cutoff).unwrap(), expected);
    }

    /// Winograd and Laderman recursions also match the naive product on their bases.
    #[test]
    fn other_recipes_match_naive(seed in any::<u64>()) {
        let a = fast_matmul::random_matrix(8, 30, seed);
        let b = fast_matmul::random_matrix(8, 30, seed.wrapping_add(7));
        let expected = a.multiply_naive(&b).unwrap();
        prop_assert_eq!(
            multiply_recursive(&BilinearAlgorithm::winograd(), &a, &b, 1).unwrap(),
            expected
        );

        let a3 = fast_matmul::random_matrix(9, 30, seed.wrapping_add(13));
        let b3 = fast_matmul::random_matrix(9, 30, seed.wrapping_add(17));
        prop_assert_eq!(
            multiply_recursive(&BilinearAlgorithm::laderman(), &a3, &b3, 1).unwrap(),
            a3.multiply_naive(&b3).unwrap()
        );
    }

    /// The measured multiplication count of a full recursion equals r^levels.
    #[test]
    fn counted_multiplications_match_r_to_the_levels(log_n in 1u32..4, seed in any::<u64>()) {
        let n = 1usize << log_n;
        let a = fast_matmul::random_matrix(n, 20, seed);
        let b = fast_matmul::random_matrix(n, 20, seed.wrapping_add(3));
        let strassen = BilinearAlgorithm::strassen();
        let (product, count) = multiply_recursive_counting(&strassen, &a, &b, 1).unwrap();
        prop_assert_eq!(product, a.multiply_naive(&b).unwrap());
        prop_assert_eq!(count.multiplications, 7u64.pow(log_n));
    }

    /// Matrix algebra identities: associativity with naive multiplication, transpose of
    /// a product, distributivity over addition.
    #[test]
    fn matrix_algebra_identities(
        a in matrix_strategy(4, 20),
        b in matrix_strategy(4, 20),
        c in matrix_strategy(4, 20),
    ) {
        let ab = a.multiply_naive(&b).unwrap();
        let bc = b.multiply_naive(&c).unwrap();
        // (AB)C = A(BC)
        prop_assert_eq!(ab.multiply_naive(&c).unwrap(), a.multiply_naive(&bc).unwrap());
        // (AB)^T = B^T A^T
        prop_assert_eq!(
            ab.transpose(),
            b.transpose().multiply_naive(&a.transpose()).unwrap()
        );
        // A(B + C) = AB + AC
        prop_assert_eq!(
            a.multiply_naive(&b.add(&c).unwrap()).unwrap(),
            ab.add(&a.multiply_naive(&c).unwrap()).unwrap()
        );
        // Identity and zero.
        let id = Matrix::identity(4);
        prop_assert_eq!(a.multiply_naive(&id).unwrap(), a.clone());
        prop_assert_eq!(&id.multiply_naive(&a).unwrap(), &a);
    }

    /// Trace is linear and invariant under transposition; block get/set round-trips.
    #[test]
    fn trace_and_block_properties(a in matrix_strategy(6, 50), b in matrix_strategy(6, 50)) {
        prop_assert_eq!(a.trace(), a.transpose().trace());
        prop_assert_eq!(a.add(&b).unwrap().trace(), a.trace() + b.trace());
        // trace(AB) = trace(BA).
        prop_assert_eq!(
            a.multiply_naive(&b).unwrap().trace(),
            b.multiply_naive(&a).unwrap().trace()
        );
        // Block round-trip: write each 3x3 block of `a` into a zero matrix and recover `a`.
        let mut rebuilt = Matrix::zeros(6, 6);
        for bi in 0..2 {
            for bj in 0..2 {
                rebuilt.set_block(bi, bj, &a.block(bi, bj, 3));
            }
        }
        prop_assert_eq!(rebuilt, a);
    }

    /// Padding then cropping is the identity, and padding never changes the product.
    #[test]
    fn padding_round_trip(a in matrix_strategy(3, 30), b in matrix_strategy(3, 30)) {
        let pa = a.padded(4, 4);
        let pb = b.padded(4, 4);
        prop_assert_eq!(pa.cropped(3, 3), a.clone());
        let product_padded = pa.multiply_naive(&pb).unwrap().cropped(3, 3);
        prop_assert_eq!(product_padded, a.multiply_naive(&b).unwrap());
    }

    /// Sparsity profiles: the derived constants satisfy the relations the paper states,
    /// for every built-in recipe and small tensor powers.
    #[test]
    fn sparsity_constants_satisfy_paper_relations(power in 1u32..3) {
        for alg in [
            BilinearAlgorithm::strassen(),
            BilinearAlgorithm::winograd(),
            BilinearAlgorithm::laderman(),
            BilinearAlgorithm::naive(2),
            BilinearAlgorithm::strassen().tensor_power(power).unwrap(),
        ] {
            let p = SparsityProfile::of(&alg);
            prop_assert_eq!(p.s, *[p.s_a, p.s_b, p.s_c].iter().max().unwrap());
            prop_assert!(p.alpha() > 0.0 && p.alpha() <= 1.0, "{}", alg.name());
            prop_assert!(p.beta() >= 1.0);
            if p.is_fast() {
                prop_assert!(p.gamma() > 0.0 && p.gamma() < 1.0);
                prop_assert!(p.c_constant() > 0.0);
            }
            // omega = log_T r always.
            prop_assert!((p.omega() - (alg.r() as f64).log(alg.t() as f64)).abs() < 1e-9);
        }
    }
}
