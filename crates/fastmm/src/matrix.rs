//! Dense row-major integer matrices with exact arithmetic.

use crate::{MatmulError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense matrix of `i64` entries, stored row-major.
///
/// All arithmetic is exact: additions and multiplications check for `i64` overflow and
/// return [`MatmulError::Overflow`] instead of wrapping.  The paper assumes matrix
/// entries of `O(log N)` bits, for which 64-bit arithmetic is ample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Creates a matrix from a generator function over `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> i64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a row-major vector of entries.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<i64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatmulError::MalformedAlgorithm {
                reason: "data length does not match rows*cols",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[i64] {
        &self.data
    }

    /// Entry accessor with bounds checking at debug time.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> i64 {
        self.data[i * self.cols + j]
    }

    /// Mutable entry accessor.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: i64) {
        self.data[i * self.cols + j] = v;
    }

    /// Largest absolute entry value.
    pub fn max_abs_entry(&self) -> i64 {
        self.data.iter().map(|v| v.abs()).max().unwrap_or(0)
    }

    /// Number of bits needed for the largest magnitude entry (the paper's `b`).
    pub fn entry_bits(&self) -> u32 {
        let m = self.max_abs_entry() as u128;
        128 - m.leading_zeros()
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_shape(other, "add")?;
        let mut data = Vec::with_capacity(self.data.len());
        for (a, b) in self.data.iter().zip(&other.data) {
            data.push(
                a.checked_add(*b)
                    .ok_or(MatmulError::Overflow { op: "add" })?,
            );
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.check_same_shape(other, "sub")?;
        let mut data = Vec::with_capacity(self.data.len());
        for (a, b) in self.data.iter().zip(&other.data) {
            data.push(
                a.checked_sub(*b)
                    .ok_or(MatmulError::Overflow { op: "sub" })?,
            );
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Multiplies every entry by a scalar.
    pub fn scale(&self, factor: i64) -> Result<Matrix> {
        let mut data = Vec::with_capacity(self.data.len());
        for a in &self.data {
            data.push(
                a.checked_mul(factor)
                    .ok_or(MatmulError::Overflow { op: "scale" })?,
            );
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// The naive (definition-based) product, `Θ(rows·cols·inner)` scalar
    /// multiplications, accumulated in `i128` and checked on conversion.
    pub fn multiply_naive(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(MatmulError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
                op: "multiply",
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc: i128 = 0;
                for k in 0..self.cols {
                    acc += self.get(i, k) as i128 * other.get(k, j) as i128;
                }
                out[(i, j)] =
                    i64::try_from(acc).map_err(|_| MatmulError::Overflow { op: "multiply" })?;
            }
        }
        Ok(out)
    }

    /// The trace (sum of diagonal entries) accumulated in `i128`.
    pub fn trace(&self) -> i128 {
        (0..self.rows.min(self.cols))
            .map(|i| self.get(i, i) as i128)
            .sum()
    }

    /// Extracts the `(bi, bj)`-th `size × size` block.
    pub fn block(&self, bi: usize, bj: usize, size: usize) -> Matrix {
        Matrix::from_fn(size, size, |i, j| self.get(bi * size + i, bj * size + j))
    }

    /// Writes `block` into position `(bi, bj)` of a block grid with blocks of
    /// `block.rows()` rows and `block.cols()` columns.
    pub fn set_block(&mut self, bi: usize, bj: usize, block: &Matrix) {
        for i in 0..block.rows {
            for j in 0..block.cols {
                self.set(bi * block.rows + i, bj * block.cols + j, block.get(i, j));
            }
        }
    }

    /// Pads the matrix with zeros to `new_rows × new_cols` (which must not be smaller).
    pub fn padded(&self, new_rows: usize, new_cols: usize) -> Matrix {
        let mut out = Matrix::zeros(new_rows, new_cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(i, j, self.get(i, j));
            }
        }
        out
    }

    /// Returns the top-left `rows × cols` sub-matrix.
    pub fn cropped(&self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| self.get(i, j))
    }

    fn check_same_shape(&self, other: &Matrix, op: &'static str) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MatmulError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
                op,
            });
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = i64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &i64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut i64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>6}", self.get(i, j))?;
                if j + 1 < self.cols {
                    write!(f, " ")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Generates a random matrix with entries uniform in `[-magnitude, magnitude]` from a
/// simple deterministic xorshift stream seeded by `seed` (no external RNG needed for
/// reproducibility across the workspace).
pub fn random_matrix(n: usize, magnitude: i64, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(n, n, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let span = (2 * magnitude + 1) as u64;
        (state % span) as i64 - magnitude
    })
}

/// Generates a random 0/1 matrix (density in [0,1]) from a deterministic stream.
pub fn random_binary_matrix(n: usize, density: f64, seed: u64) -> Matrix {
    let mut state = seed | 1;
    let threshold = (density.clamp(0.0, 1.0) * u32::MAX as f64) as u64;
    Matrix::from_fn(n, n, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if (state & 0xFFFF_FFFF) < threshold {
            1
        } else {
            0
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as i64);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 12);
        assert_eq!(m.get(0, 1), 1);
        let mut m = m;
        m[(0, 0)] = -5;
        assert_eq!(m.get(0, 0), -5);
        assert_eq!(m.max_abs_entry(), 12);
        assert_eq!(m.entry_bits(), 4);
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let a = Matrix::from_fn(4, 4, |i, j| (3 * i + j) as i64 - 5);
        let id = Matrix::identity(4);
        assert_eq!(a.multiply_naive(&id).unwrap(), a);
        assert_eq!(id.multiply_naive(&a).unwrap(), a);
    }

    #[test]
    fn add_sub_scale_roundtrip() {
        let a = Matrix::from_fn(3, 3, |i, j| (i + j) as i64);
        let b = Matrix::from_fn(3, 3, |i, j| (i * j) as i64);
        let sum = a.add(&b).unwrap();
        let back = sum.sub(&b).unwrap();
        assert_eq!(back, a);
        let doubled = a.scale(2).unwrap();
        assert_eq!(doubled, a.add(&a).unwrap());
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5, 6, 7, 8]).unwrap();
        let c = a.multiply_naive(&b).unwrap();
        assert_eq!(c, Matrix::from_vec(2, 2, vec![19, 22, 43, 50]).unwrap());
    }

    #[test]
    fn rectangular_product_dimensions() {
        let a = Matrix::from_fn(2, 3, |i, j| (i + j) as i64);
        let b = Matrix::from_fn(3, 4, |i, j| (i * j) as i64 + 1);
        let c = a.multiply_naive(&b).unwrap();
        assert_eq!((c.rows(), c.cols()), (2, 4));
        assert!(a.multiply_naive(&a).is_err());
    }

    #[test]
    fn trace_and_transpose() {
        let a = Matrix::from_vec(2, 2, vec![1, 2, 3, 4]).unwrap();
        assert_eq!(a.trace(), 5);
        assert_eq!(
            a.transpose(),
            Matrix::from_vec(2, 2, vec![1, 3, 2, 4]).unwrap()
        );
        // trace(AB) == trace(BA)
        let b = Matrix::from_vec(2, 2, vec![0, -1, 5, 2]).unwrap();
        assert_eq!(
            a.multiply_naive(&b).unwrap().trace(),
            b.multiply_naive(&a).unwrap().trace()
        );
    }

    #[test]
    fn block_extraction_and_insertion() {
        let a = Matrix::from_fn(4, 4, |i, j| (4 * i + j) as i64);
        let b11 = a.block(0, 0, 2);
        let b22 = a.block(1, 1, 2);
        assert_eq!(b11, Matrix::from_vec(2, 2, vec![0, 1, 4, 5]).unwrap());
        assert_eq!(b22, Matrix::from_vec(2, 2, vec![10, 11, 14, 15]).unwrap());
        let mut rebuilt = Matrix::zeros(4, 4);
        for bi in 0..2 {
            for bj in 0..2 {
                rebuilt.set_block(bi, bj, &a.block(bi, bj, 2));
            }
        }
        assert_eq!(rebuilt, a);
    }

    #[test]
    fn padding_and_cropping() {
        let a = Matrix::from_fn(3, 3, |i, j| (i + j) as i64 + 1);
        let p = a.padded(4, 5);
        assert_eq!(p.rows(), 4);
        assert_eq!(p.cols(), 5);
        assert_eq!(p.get(2, 2), a.get(2, 2));
        assert_eq!(p.get(3, 4), 0);
        assert_eq!(p.cropped(3, 3), a);
    }

    #[test]
    fn overflow_is_detected() {
        let a = Matrix::from_vec(1, 1, vec![i64::MAX]).unwrap();
        assert!(a.add(&a).is_err());
        assert!(a.scale(2).is_err());
        let b = Matrix::from_vec(1, 1, vec![i64::MAX / 2]).unwrap();
        assert!(b
            .multiply_naive(&Matrix::from_vec(1, 1, vec![4]).unwrap())
            .is_err());
    }

    #[test]
    fn random_matrices_respect_magnitude_and_are_reproducible() {
        let a = random_matrix(10, 7, 42);
        let b = random_matrix(10, 7, 42);
        assert_eq!(a, b);
        assert!(a.max_abs_entry() <= 7);
        let c = random_binary_matrix(10, 0.5, 7);
        assert!(c.data().iter().all(|&v| v == 0 || v == 1));
        let dense = random_binary_matrix(20, 1.0, 3);
        assert!(dense.data().iter().filter(|&&v| v == 1).count() >= 390);
    }

    #[test]
    fn display_renders_rows() {
        let a = Matrix::from_vec(2, 2, vec![1, -2, 3, 4]).unwrap();
        let s = a.to_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("-2"));
    }
}
