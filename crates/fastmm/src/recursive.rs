//! Recursive (divide-and-conquer) fast matrix multiplication, plain and operation-counting.

use crate::{BilinearAlgorithm, MatmulError, Matrix, Result};

/// Counters for scalar operations performed by an instrumented run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Scalar multiplications performed.
    pub multiplications: u64,
    /// Scalar additions/subtractions performed.
    pub additions: u64,
}

impl OpCount {
    /// Total scalar operations.
    pub fn total(&self) -> u64 {
        self.multiplications + self.additions
    }
}

fn check_square_same(a: &Matrix, b: &Matrix) -> Result<usize> {
    if !a.is_square() || !b.is_square() || a.rows() != b.rows() {
        return Err(MatmulError::DimensionMismatch {
            left: (a.rows(), a.cols()),
            right: (b.rows(), b.cols()),
            op: "recursive multiply",
        });
    }
    Ok(a.rows())
}

/// Smallest power of `base` that is `>= n`.
pub fn next_power_of(base: usize, n: usize) -> usize {
    let mut p = 1usize;
    while p < n {
        p *= base;
    }
    p
}

/// `true` if `n` is a power of `base` (with `1 = base^0`).
pub fn is_power_of(base: usize, n: usize) -> bool {
    if base <= 1 {
        return n == 1 || base == n;
    }
    let mut p = 1usize;
    while p < n {
        p *= base;
    }
    p == n
}

/// Multiplies two square matrices with the recursive fast algorithm derived from
/// `alg`, padding with zeros to the next power of `T` if necessary.
///
/// `cutoff` is the block size at or below which the recursion switches to the naive
/// product (use 1 for a fully recursive run — the circuit constructions always recurse
/// to scalars).
pub fn multiply_recursive(
    alg: &BilinearAlgorithm,
    a: &Matrix,
    b: &Matrix,
    cutoff: usize,
) -> Result<Matrix> {
    let n = check_square_same(a, b)?;
    let padded = next_power_of(alg.t(), n);
    let (pa, pb);
    let (a, b) = if padded != n {
        pa = a.padded(padded, padded);
        pb = b.padded(padded, padded);
        (&pa, &pb)
    } else {
        (a, b)
    };
    let full = recurse(alg, a, b, cutoff.max(1))?;
    Ok(if padded != n {
        full.cropped(n, n)
    } else {
        full
    })
}

/// Instrumented sequential run that also reports the number of scalar operations, for
/// reproducing the operation-count claims of Section 2.1.
pub fn multiply_recursive_counting(
    alg: &BilinearAlgorithm,
    a: &Matrix,
    b: &Matrix,
    cutoff: usize,
) -> Result<(Matrix, OpCount)> {
    let n = check_square_same(a, b)?;
    if !is_power_of(alg.t(), n) {
        return Err(MatmulError::NotAPowerOfBase { n, base: alg.t() });
    }
    let mut count = OpCount::default();
    let c = recurse_counting(alg, a, b, cutoff.max(1), &mut count)?;
    Ok((c, count))
}

fn linear_combination(
    coeffs: &[i64],
    blocks: &[Matrix],
    count: Option<&mut OpCount>,
) -> Result<Matrix> {
    let size = blocks[0].rows();
    let mut out = Matrix::zeros(size, size);
    let mut used = 0u64;
    let mut first = true;
    for (c, blk) in coeffs.iter().zip(blocks) {
        if *c == 0 {
            continue;
        }
        let term = if *c == 1 { blk.clone() } else { blk.scale(*c)? };
        if first {
            out = term;
            first = false;
        } else {
            out = out.add(&term)?;
            used += (size * size) as u64;
        }
    }
    if let Some(count) = count {
        count.additions += used;
    }
    Ok(out)
}

fn recurse(alg: &BilinearAlgorithm, a: &Matrix, b: &Matrix, cutoff: usize) -> Result<Matrix> {
    let n = a.rows();
    if n <= cutoff || n < alg.t() {
        return a.multiply_naive(b);
    }
    let t = alg.t();
    let block = n / t;
    let a_blocks: Vec<Matrix> = (0..t * t).map(|i| a.block(i / t, i % t, block)).collect();
    let b_blocks: Vec<Matrix> = (0..t * t).map(|i| b.block(i / t, i % t, block)).collect();
    let mut products = Vec::with_capacity(alg.r());
    for i in 0..alg.r() {
        let left = linear_combination(alg.u_row(i), &a_blocks, None)?;
        let right = linear_combination(alg.v_row(i), &b_blocks, None)?;
        products.push(recurse(alg, &left, &right, cutoff)?);
    }
    let mut c = Matrix::zeros(n, n);
    for pq in 0..t * t {
        let combo = linear_combination(alg.w_row(pq), &products, None)?;
        c.set_block(pq / t, pq % t, &combo);
    }
    Ok(c)
}

fn recurse_counting(
    alg: &BilinearAlgorithm,
    a: &Matrix,
    b: &Matrix,
    cutoff: usize,
    count: &mut OpCount,
) -> Result<Matrix> {
    let n = a.rows();
    if n <= cutoff || n < alg.t() {
        count.multiplications += (n * n * n) as u64;
        count.additions += (n * n * (n - 1)) as u64;
        return a.multiply_naive(b);
    }
    let t = alg.t();
    let block = n / t;
    let a_blocks: Vec<Matrix> = (0..t * t).map(|i| a.block(i / t, i % t, block)).collect();
    let b_blocks: Vec<Matrix> = (0..t * t).map(|i| b.block(i / t, i % t, block)).collect();
    let mut products = Vec::with_capacity(alg.r());
    for i in 0..alg.r() {
        let left = linear_combination(alg.u_row(i), &a_blocks, Some(count))?;
        let right = linear_combination(alg.v_row(i), &b_blocks, Some(count))?;
        products.push(recurse_counting(alg, &left, &right, cutoff, count)?);
    }
    let mut c = Matrix::zeros(n, n);
    for pq in 0..t * t {
        let combo = linear_combination(alg.w_row(pq), &products, Some(count))?;
        c.set_block(pq / t, pq % t, &combo);
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::random_matrix;

    #[test]
    fn strassen_matches_naive_on_power_of_two_sizes() {
        let alg = BilinearAlgorithm::strassen();
        for n in [1usize, 2, 4, 8, 16, 32] {
            let a = random_matrix(n, 20, n as u64 + 1);
            let b = random_matrix(n, 20, n as u64 + 100);
            let expected = a.multiply_naive(&b).unwrap();
            assert_eq!(
                multiply_recursive(&alg, &a, &b, 1).unwrap(),
                expected,
                "n={n}"
            );
            assert_eq!(
                multiply_recursive(&alg, &a, &b, 4).unwrap(),
                expected,
                "n={n} cutoff=4"
            );
        }
    }

    #[test]
    fn winograd_and_tensor_square_match_naive() {
        let w = BilinearAlgorithm::winograd();
        let s2 = BilinearAlgorithm::strassen().tensor_power(2).unwrap();
        let a = random_matrix(16, 15, 7);
        let b = random_matrix(16, 15, 8);
        let expected = a.multiply_naive(&b).unwrap();
        assert_eq!(multiply_recursive(&w, &a, &b, 1).unwrap(), expected);
        assert_eq!(multiply_recursive(&s2, &a, &b, 1).unwrap(), expected);
    }

    #[test]
    fn non_power_sizes_are_padded() {
        let alg = BilinearAlgorithm::strassen();
        for n in [3usize, 5, 6, 7, 12, 13] {
            let a = random_matrix(n, 9, n as u64);
            let b = random_matrix(n, 9, n as u64 * 31);
            let expected = a.multiply_naive(&b).unwrap();
            assert_eq!(
                multiply_recursive(&alg, &a, &b, 1).unwrap(),
                expected,
                "n={n}"
            );
        }
    }

    #[test]
    fn counting_matches_the_strassen_recurrence() {
        // Scalar multiplications: 7^log2(N); additions follow
        // A(N) = 7 A(N/2) + 18 (N/2)^2, A(1) = 0 (Section 2.1 of the paper).
        let alg = BilinearAlgorithm::strassen();
        for l in 1..=5u32 {
            let n = 1usize << l;
            let a = random_matrix(n, 10, 17);
            let b = random_matrix(n, 10, 19);
            let (c, count) = multiply_recursive_counting(&alg, &a, &b, 1).unwrap();
            assert_eq!(c, a.multiply_naive(&b).unwrap());
            assert_eq!(count.multiplications, 7u64.pow(l));
            let mut expected_adds = 0u64;
            for level in 0..l {
                // At recursion depth `level` there are 7^level calls, each performing 18
                // additions of (N/2^{level+1})^2 blocks.
                let half = (n >> (level + 1)) as u64;
                expected_adds += 7u64.pow(level) * 18 * half * half;
            }
            assert_eq!(count.additions, expected_adds, "n={n}");
        }
    }

    #[test]
    fn counting_requires_power_of_base() {
        let alg = BilinearAlgorithm::strassen();
        let a = random_matrix(6, 5, 1);
        let b = random_matrix(6, 5, 2);
        assert!(matches!(
            multiply_recursive_counting(&alg, &a, &b, 1),
            Err(MatmulError::NotAPowerOfBase { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let alg = BilinearAlgorithm::strassen();
        let a = random_matrix(4, 5, 1);
        let b = random_matrix(8, 5, 2);
        assert!(multiply_recursive(&alg, &a, &b, 1).is_err());
    }

    #[test]
    fn power_helpers() {
        assert_eq!(next_power_of(2, 5), 8);
        assert_eq!(next_power_of(2, 8), 8);
        assert_eq!(next_power_of(3, 10), 27);
        assert!(is_power_of(2, 1));
        assert!(is_power_of(2, 64));
        assert!(!is_power_of(2, 24));
        assert!(is_power_of(3, 27));
    }
}
