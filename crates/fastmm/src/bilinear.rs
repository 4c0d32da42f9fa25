//! Bilinear (Strassen-like) matrix-multiplication recipes.

use crate::{MatmulError, Matrix, Result};

/// A bilinear matrix-multiplication algorithm `⟨T,T,T; r⟩`.
///
/// The recipe multiplies two `T×T` matrices (or block matrices) using `r` scalar (or
/// block) multiplications:
///
/// * `M_i = (Σ_{jk} U[i][jk] · A_{jk}) · (Σ_{lm} V[i][lm] · B_{lm})` for `1 ≤ i ≤ r`,
/// * `C_{pq} = Σ_i W[pq][i] · M_i`,
///
/// where the entries of `A`, `B` and `C` are indexed row-major (`jk = j·T + k`).
///
/// For Strassen's algorithm (`T = 2`, `r = 7`) the coefficient sets are exactly the
/// expressions of Figure 1 of the paper.  The paper restricts exposition to `{−1,1}`
/// coefficients but notes the extension to general integer weights; this type allows
/// arbitrary `i64` coefficients and all downstream constructions handle them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BilinearAlgorithm {
    name: String,
    t: usize,
    r: usize,
    /// `r × T²` coefficients over `A`.
    u: Vec<Vec<i64>>,
    /// `r × T²` coefficients over `B`.
    v: Vec<Vec<i64>>,
    /// `T² × r` coefficients assembling `C` from the products.
    w: Vec<Vec<i64>>,
}

impl BilinearAlgorithm {
    /// Builds a recipe from raw coefficient tables, checking shapes (but not
    /// correctness; call [`BilinearAlgorithm::verify`] for that).
    pub fn new(
        name: impl Into<String>,
        t: usize,
        u: Vec<Vec<i64>>,
        v: Vec<Vec<i64>>,
        w: Vec<Vec<i64>>,
    ) -> Result<Self> {
        let r = u.len();
        if t == 0 || r == 0 {
            return Err(MatmulError::MalformedAlgorithm {
                reason: "T and r must be positive",
            });
        }
        if v.len() != r {
            return Err(MatmulError::MalformedAlgorithm {
                reason: "U and V must have the same number of rows (r)",
            });
        }
        if w.len() != t * t {
            return Err(MatmulError::MalformedAlgorithm {
                reason: "W must have T^2 rows",
            });
        }
        if u.iter().chain(v.iter()).any(|row| row.len() != t * t) {
            return Err(MatmulError::MalformedAlgorithm {
                reason: "U and V rows must have length T^2",
            });
        }
        if w.iter().any(|row| row.len() != r) {
            return Err(MatmulError::MalformedAlgorithm {
                reason: "W rows must have length r",
            });
        }
        Ok(BilinearAlgorithm {
            name: name.into(),
            t,
            r,
            u,
            v,
            w,
        })
    }

    /// Strassen's `⟨2,2,2;7⟩` algorithm (Figure 1 of the paper).
    pub fn strassen() -> Self {
        let u = vec![
            vec![1, 0, 0, 0],  // M1: A11
            vec![0, 0, 1, 1],  // M2: A21 + A22
            vec![1, 0, 0, 1],  // M3: A11 + A22
            vec![0, 0, 0, 1],  // M4: A22
            vec![1, 1, 0, 0],  // M5: A11 + A12
            vec![-1, 0, 1, 0], // M6: A21 - A11
            vec![0, 1, 0, -1], // M7: A12 - A22
        ];
        let v = vec![
            vec![0, 1, 0, -1], // M1: B12 - B22
            vec![1, 0, 0, 0],  // M2: B11
            vec![1, 0, 0, 1],  // M3: B11 + B22
            vec![-1, 0, 1, 0], // M4: B21 - B11
            vec![0, 0, 0, 1],  // M5: B22
            vec![1, 1, 0, 0],  // M6: B11 + B12
            vec![0, 0, 1, 1],  // M7: B21 + B22
        ];
        let w = vec![
            vec![0, 0, 1, 1, -1, 0, 1], // C11 = M3 + M4 - M5 + M7
            vec![1, 0, 0, 0, 1, 0, 0],  // C12 = M1 + M5
            vec![0, 1, 0, 1, 0, 0, 0],  // C21 = M2 + M4
            vec![1, -1, 1, 0, 0, 1, 0], // C22 = M1 - M2 + M3 + M6
        ];
        BilinearAlgorithm::new("strassen", 2, u, v, w).expect("hard-coded recipe is well-formed")
    }

    /// The Strassen–Winograd variant: still 7 multiplications, and only 15 block
    /// additions *when intermediate sums are reused* (the flat bilinear form recorded
    /// here has 24).  Its sparsity profile differs from Strassen's, which changes the
    /// circuit constants derived from it.
    pub fn winograd() -> Self {
        let u = vec![
            vec![1, 0, 0, 0],   // M1: A11
            vec![0, 1, 0, 0],   // M2: A12
            vec![1, 1, -1, -1], // M3: S4 = A11 + A12 - A21 - A22
            vec![0, 0, 0, 1],   // M4: A22
            vec![0, 0, 1, 1],   // M5: S1 = A21 + A22
            vec![-1, 0, 1, 1],  // M6: S2 = A21 + A22 - A11
            vec![1, 0, -1, 0],  // M7: S3 = A11 - A21
        ];
        let v = vec![
            vec![1, 0, 0, 0],   // M1: B11
            vec![0, 0, 1, 0],   // M2: B21
            vec![0, 0, 0, 1],   // M3: B22
            vec![1, -1, -1, 1], // M4: T4 = B11 - B12 - B21 + B22
            vec![-1, 1, 0, 0],  // M5: T1 = B12 - B11
            vec![1, -1, 0, 1],  // M6: T2 = B11 - B12 + B22
            vec![0, -1, 0, 1],  // M7: T3 = B22 - B12
        ];
        let w = vec![
            vec![1, 1, 0, 0, 0, 0, 0],  // C11 = M1 + M2
            vec![1, 0, 1, 0, 1, 1, 0],  // C12 = M1 + M3 + M5 + M6
            vec![1, 0, 0, -1, 0, 1, 1], // C21 = M1 - M4 + M6 + M7
            vec![1, 0, 0, 0, 1, 1, 1],  // C22 = M1 + M5 + M6 + M7
        ];
        BilinearAlgorithm::new("winograd", 2, u, v, w).expect("hard-coded recipe is well-formed")
    }

    /// The naive (definition-based) recipe for `T×T` matrices: `r = T³` products
    /// `A_{ik}·B_{kj}`, each contributing to a single entry of `C`.
    pub fn naive(t: usize) -> Self {
        let r = t * t * t;
        let mut u = vec![vec![0i64; t * t]; r];
        let mut v = vec![vec![0i64; t * t]; r];
        let mut w = vec![vec![0i64; r]; t * t];
        let mut idx = 0;
        for i in 0..t {
            for j in 0..t {
                for k in 0..t {
                    u[idx][i * t + k] = 1;
                    v[idx][k * t + j] = 1;
                    w[i * t + j][idx] = 1;
                    idx += 1;
                }
            }
        }
        BilinearAlgorithm::new(format!("naive{t}"), t, u, v, w)
            .expect("generated recipe is well-formed")
    }

    /// A `⟨3,3,3;23⟩` recipe in the style of Laderman (1976): 3×3 matrices multiplied
    /// with 23 scalar products.
    ///
    /// The recipe recorded here is a verified variant of Laderman's construction (same
    /// 23-product structure; a few products and the output combinations are regrouped
    /// into an equivalent form that passes [`BilinearAlgorithm::verify`] against the
    /// matrix-multiplication tensor).  With `T = 3` and `r = 23` the exponent is
    /// `log₃ 23 ≈ 2.854` — worse than Strassen's `log₂ 7 ≈ 2.807`, but it is the
    /// classic subcubic recipe with base dimension 3 and a useful second data point for
    /// the circuit constructions because its sparsity constants differ substantially
    /// from Strassen's.
    pub fn laderman() -> Self {
        // Entry order inside each U/V row is row-major: index = 3*(i-1) + (j-1).
        #[rustfmt::skip]
        let u = vec![
            vec![ 1,  1,  1, -1, -1,  0,  0, -1, -1], // M1 : A11+A12+A13-A21-A22-A32-A33
            vec![ 1,  0,  0, -1,  0,  0,  0,  0,  0], // M2 : A11-A21
            vec![ 0,  0,  0,  0,  1,  0,  0,  0,  0], // M3 : A22
            vec![-1,  0,  0,  1,  1,  0,  0,  0,  0], // M4 : -A11+A21+A22
            vec![ 0,  0,  0,  1,  1,  0,  0,  0,  0], // M5 : A21+A22
            vec![ 1,  0,  0,  0,  0,  0,  0,  0,  0], // M6 : A11
            vec![-1,  0,  0,  0,  0,  0,  1,  1,  0], // M7 : -A11+A31+A32
            vec![-1,  0,  0,  0,  0,  0,  1,  0,  0], // M8 : -A11+A31
            vec![ 0,  0,  0,  0,  0,  0,  1,  1,  0], // M9 : A31+A32
            vec![ 1,  1,  1,  0, -1, -1, -1, -1,  0], // M10: A11+A12+A13-A22-A23-A31-A32
            vec![ 0,  0,  0,  0,  0,  0,  0,  1,  0], // M11: A32
            vec![ 0,  0, -1,  0,  0,  0,  0,  1,  1], // M12: -A13+A32+A33
            vec![ 0,  0,  1,  0,  0,  0,  0,  0, -1], // M13: A13-A33
            vec![ 0,  0,  1,  0,  0,  0,  0,  0,  0], // M14: A13
            vec![ 0,  0,  0,  0,  0,  0,  0,  1,  1], // M15: A32+A33
            vec![ 0,  0, -1,  0,  1,  1,  0,  0,  0], // M16: -A13+A22+A23
            vec![ 0,  0,  1,  0,  0, -1,  0,  0,  0], // M17: A13-A23
            vec![ 0,  0,  0,  0,  1,  1,  0,  0,  0], // M18: A22+A23
            vec![ 0,  1,  0,  0,  0,  0,  0,  0,  0], // M19: A12
            vec![ 0,  0,  0,  0,  0,  1,  0,  0,  0], // M20: A23
            vec![ 0,  0,  0,  1,  0,  0,  0,  0,  0], // M21: A21
            vec![ 0,  0,  0,  0,  0,  0,  1,  0,  0], // M22: A31
            vec![ 0,  0,  0,  0,  0,  0,  0,  0,  1], // M23: A33
        ];
        #[rustfmt::skip]
        let v = vec![
            vec![ 0,  0,  0,  0,  1,  0,  0,  0,  0], // M1 : B22
            vec![ 0, -1,  0,  0,  1,  0,  0,  0,  0], // M2 : -B12+B22
            vec![-1,  1,  0,  1, -1, -1, -1,  0,  1], // M3 : -B11+B12+B21-B22-B23-B31+B33
            vec![ 1, -1,  0,  0,  1,  0,  0,  0,  0], // M4 : B11-B12+B22
            vec![-1,  1,  0,  0,  0,  0,  0,  0,  0], // M5 : -B11+B12
            vec![ 1,  0,  0,  0,  0,  0,  0,  0,  0], // M6 : B11
            vec![ 1,  0, -1,  0,  0,  1,  0,  0,  0], // M7 : B11-B13+B23
            vec![ 0,  0,  1,  0,  0, -1,  0,  0,  0], // M8 : B13-B23
            vec![-1,  0,  1,  0,  0,  0,  0,  0,  0], // M9 : -B11+B13
            vec![ 0,  0,  0,  0,  0,  1,  0,  0,  0], // M10: B23
            vec![-1,  0,  1,  1, -1, -1, -1,  1,  0], // M11: -B11+B13+B21-B22-B23-B31+B32
            vec![ 0,  0,  0,  0,  1,  0,  1, -1,  0], // M12: B22+B31-B32
            vec![ 0,  0,  0,  0,  1,  0,  0, -1,  0], // M13: B22-B32
            vec![ 0,  0,  0,  0,  0,  0,  1,  0,  0], // M14: B31
            vec![ 0,  0,  0,  0,  0,  0, -1,  1,  0], // M15: -B31+B32
            vec![ 0,  0,  0,  0,  0,  1,  1,  0, -1], // M16: B23+B31-B33
            vec![ 0,  0,  0,  0,  0,  1,  0,  0, -1], // M17: B23-B33
            vec![ 0,  0,  0,  0,  0,  0, -1,  0,  1], // M18: -B31+B33
            vec![ 0,  0,  0,  1,  0,  0,  0,  0,  0], // M19: B21
            vec![ 0,  0,  0,  0,  0,  0,  0,  1,  0], // M20: B32
            vec![ 0,  0,  1,  0,  0,  0,  0,  0,  0], // M21: B13
            vec![ 0,  1,  0,  0,  0,  0,  0,  0,  0], // M22: B12
            vec![ 0,  0,  0,  0,  0,  0,  0,  0,  1], // M23: B33
        ];
        #[rustfmt::skip]
        let w = vec![
            //    M1 M2 M3 M4 M5 M6 M7 M8 M9 10 11 12 13 14 15 16 17 18 19 20 21 22 23
            vec![  0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0], // C11
            vec![  1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0], // C12
            vec![  0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0], // C13
            vec![  0, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0], // C21
            vec![  0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0], // C22
            vec![  0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0], // C23
            vec![  0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], // C31
            vec![  0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0], // C32
            vec![  0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], // C33
        ];
        BilinearAlgorithm::new("laderman", 3, u, v, w).expect("hard-coded recipe is well-formed")
    }

    /// Human-readable name of the recipe.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Base dimension `T`.
    #[inline]
    pub fn t(&self) -> usize {
        self.t
    }

    /// Number of multiplications `r`.
    #[inline]
    pub fn r(&self) -> usize {
        self.r
    }

    /// The exponent `ω = log_T r` of the derived recursive algorithm.
    pub fn omega(&self) -> f64 {
        (self.r as f64).ln() / (self.t as f64).ln()
    }

    /// Coefficients of product `i` over the entries of `A` (row-major, length `T²`).
    pub fn u_row(&self, i: usize) -> &[i64] {
        &self.u[i]
    }

    /// Coefficients of product `i` over the entries of `B`.
    pub fn v_row(&self, i: usize) -> &[i64] {
        &self.v[i]
    }

    /// Coefficients of the products in entry `pq` of `C` (row-major, length `r`).
    pub fn w_row(&self, pq: usize) -> &[i64] {
        &self.w[pq]
    }

    /// Brute-force verification against the matrix-multiplication tensor: for every
    /// `(C_{pq}, A_{jk}, B_{lm})` triple the recipe's trilinear coefficient must be 1
    /// when `k = l`, `p = j`, `q = m` and 0 otherwise.
    pub fn verify(&self) -> Result<()> {
        let t = self.t;
        for p in 0..t {
            for q in 0..t {
                let c_index = p * t + q;
                for j in 0..t {
                    for k in 0..t {
                        let a_index = j * t + k;
                        for l in 0..t {
                            for m in 0..t {
                                let b_index = l * t + m;
                                let mut got: i64 = 0;
                                for i in 0..self.r {
                                    got += self.w[c_index][i]
                                        * self.u[i][a_index]
                                        * self.v[i][b_index];
                                }
                                let expected = i64::from(k == l && p == j && q == m);
                                if got != expected {
                                    return Err(MatmulError::InvalidAlgorithm {
                                        c_index,
                                        a_index,
                                        b_index,
                                        got,
                                        expected,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies the recipe *once* to explicit `T×T` integer matrices (no recursion).
    /// Mostly useful for testing and for demonstrating Figure 1.
    pub fn apply_once(&self, a: &Matrix, b: &Matrix) -> Result<Matrix> {
        if a.rows() != self.t || a.cols() != self.t || b.rows() != self.t || b.cols() != self.t {
            return Err(MatmulError::DimensionMismatch {
                left: (a.rows(), a.cols()),
                right: (b.rows(), b.cols()),
                op: "apply_once",
            });
        }
        let t = self.t;
        let mut products = Vec::with_capacity(self.r);
        for i in 0..self.r {
            let mut left: i64 = 0;
            let mut right: i64 = 0;
            for idx in 0..t * t {
                left += self.u[i][idx] * a.data()[idx];
                right += self.v[i][idx] * b.data()[idx];
            }
            products.push(
                left.checked_mul(right)
                    .ok_or(MatmulError::Overflow { op: "apply_once" })?,
            );
        }
        let mut c = Matrix::zeros(t, t);
        for pq in 0..t * t {
            let mut acc: i64 = 0;
            for (&w, &p) in self.w[pq].iter().zip(&products).take(self.r) {
                acc = acc
                    .checked_add(
                        w.checked_mul(p)
                            .ok_or(MatmulError::Overflow { op: "apply_once" })?,
                    )
                    .ok_or(MatmulError::Overflow { op: "apply_once" })?;
            }
            c.set(pq / t, pq % t, acc);
        }
        Ok(c)
    }

    /// The tensor (Kronecker) product of two recipes: multiplying a
    /// `⟨T₁,T₁,T₁;r₁⟩` recipe with a `⟨T₂,T₂,T₂;r₂⟩` recipe gives a
    /// `⟨T₁T₂,T₁T₂,T₁T₂; r₁r₂⟩` recipe.  This is how larger base cases (e.g.
    /// Strassen² = `⟨4,4,4;49⟩`) are obtained.
    pub fn tensor_product(&self, other: &BilinearAlgorithm) -> Result<BilinearAlgorithm> {
        let t_new = self.t * other.t;
        let r_new = self.r * other.r;
        let idx = |outer_row: usize, outer_col: usize, inner_row: usize, inner_col: usize| {
            let row = outer_row * other.t + inner_row;
            let col = outer_col * other.t + inner_col;
            row * t_new + col
        };
        let mut u = vec![vec![0i64; t_new * t_new]; r_new];
        let mut v = vec![vec![0i64; t_new * t_new]; r_new];
        let mut w = vec![vec![0i64; r_new]; t_new * t_new];
        for i1 in 0..self.r {
            for i2 in 0..other.r {
                let i = i1 * other.r + i2;
                for or in 0..self.t {
                    for oc in 0..self.t {
                        for ir in 0..other.t {
                            for ic in 0..other.t {
                                let target = idx(or, oc, ir, ic);
                                u[i][target] = self.u[i1][or * self.t + oc]
                                    .checked_mul(other.u[i2][ir * other.t + ic])
                                    .ok_or(MatmulError::Overflow {
                                        op: "tensor_product",
                                    })?;
                                v[i][target] = self.v[i1][or * self.t + oc]
                                    .checked_mul(other.v[i2][ir * other.t + ic])
                                    .ok_or(MatmulError::Overflow {
                                        op: "tensor_product",
                                    })?;
                            }
                        }
                    }
                }
            }
        }
        for or in 0..self.t {
            for oc in 0..self.t {
                for ir in 0..other.t {
                    for ic in 0..other.t {
                        let target = idx(or, oc, ir, ic);
                        for i1 in 0..self.r {
                            for i2 in 0..other.r {
                                let i = i1 * other.r + i2;
                                w[target][i] = self.w[or * self.t + oc][i1]
                                    .checked_mul(other.w[ir * other.t + ic][i2])
                                    .ok_or(MatmulError::Overflow {
                                        op: "tensor_product",
                                    })?;
                            }
                        }
                    }
                }
            }
        }
        BilinearAlgorithm::new(format!("{}x{}", self.name, other.name), t_new, u, v, w)
    }

    /// The `k`-th tensor power of the recipe (`k ≥ 1`).
    pub fn tensor_power(&self, k: u32) -> Result<BilinearAlgorithm> {
        if k == 0 {
            return Err(MatmulError::MalformedAlgorithm {
                reason: "tensor power requires k >= 1",
            });
        }
        let mut out = self.clone();
        for _ in 1..k {
            out = out.tensor_product(self)?;
        }
        out.name = format!("{}^{k}", self.name);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::random_matrix;

    #[test]
    fn strassen_verifies_against_the_tensor() {
        assert!(BilinearAlgorithm::strassen().verify().is_ok());
    }

    #[test]
    fn winograd_verifies_against_the_tensor() {
        assert!(BilinearAlgorithm::winograd().verify().is_ok());
    }

    #[test]
    fn naive_recipes_verify_for_small_t() {
        for t in 1..=4 {
            let alg = BilinearAlgorithm::naive(t);
            assert_eq!(alg.r(), t * t * t);
            assert!(alg.verify().is_ok(), "naive T={t}");
        }
    }

    #[test]
    fn broken_recipe_fails_verification() {
        let mut u = BilinearAlgorithm::strassen();
        // Flip one coefficient.
        u.u[0][0] = -1;
        assert!(matches!(
            u.verify(),
            Err(MatmulError::InvalidAlgorithm { .. })
        ));
    }

    #[test]
    fn apply_once_matches_naive_product_figure1() {
        let strassen = BilinearAlgorithm::strassen();
        let winograd = BilinearAlgorithm::winograd();
        for seed in 0..20u64 {
            let a = random_matrix(2, 100, seed * 2 + 1);
            let b = random_matrix(2, 100, seed * 2 + 2);
            let expected = a.multiply_naive(&b).unwrap();
            assert_eq!(strassen.apply_once(&a, &b).unwrap(), expected);
            assert_eq!(winograd.apply_once(&a, &b).unwrap(), expected);
        }
    }

    #[test]
    fn exponents() {
        let s = BilinearAlgorithm::strassen();
        assert!((s.omega() - 7f64.log2()).abs() < 1e-12);
        let n = BilinearAlgorithm::naive(3);
        assert!((n.omega() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn laderman_verifies_and_multiplies_3x3_matrices() {
        let l = BilinearAlgorithm::laderman();
        assert_eq!(l.t(), 3);
        assert_eq!(l.r(), 23);
        assert!(l.verify().is_ok());
        assert!((l.omega() - 23f64.log(3.0)).abs() < 1e-12);
        assert!(l.omega() < 3.0);
        for seed in 0..20u64 {
            let a = random_matrix(3, 50, seed * 2 + 100);
            let b = random_matrix(3, 50, seed * 2 + 101);
            assert_eq!(l.apply_once(&a, &b).unwrap(), a.multiply_naive(&b).unwrap());
        }
    }

    #[test]
    fn laderman_tensor_strassen_is_a_valid_6x6_recipe() {
        let mixed = BilinearAlgorithm::laderman()
            .tensor_product(&BilinearAlgorithm::strassen())
            .unwrap();
        assert_eq!(mixed.t(), 6);
        assert_eq!(mixed.r(), 23 * 7);
        assert!(mixed.verify().is_ok());
        let a = random_matrix(6, 10, 7);
        let b = random_matrix(6, 10, 8);
        assert_eq!(
            mixed.apply_once(&a, &b).unwrap(),
            a.multiply_naive(&b).unwrap()
        );
    }

    #[test]
    fn tensor_square_of_strassen_is_a_valid_4x4_recipe() {
        let s2 = BilinearAlgorithm::strassen().tensor_power(2).unwrap();
        assert_eq!(s2.t(), 4);
        assert_eq!(s2.r(), 49);
        assert!(s2.verify().is_ok());
        // The exponent is unchanged by tensor powering.
        assert!((s2.omega() - 7f64.log2()).abs() < 1e-12);
        // And it multiplies 4x4 matrices correctly in one application.
        let a = random_matrix(4, 30, 11);
        let b = random_matrix(4, 30, 17);
        assert_eq!(
            s2.apply_once(&a, &b).unwrap(),
            a.multiply_naive(&b).unwrap()
        );
    }

    #[test]
    fn mixed_tensor_product_verifies() {
        let s = BilinearAlgorithm::strassen();
        let n3 = BilinearAlgorithm::naive(3);
        let mixed = s.tensor_product(&n3).unwrap();
        assert_eq!(mixed.t(), 6);
        assert_eq!(mixed.r(), 7 * 27);
        assert!(mixed.verify().is_ok());
    }

    #[test]
    fn malformed_recipes_are_rejected() {
        assert!(BilinearAlgorithm::new("bad", 0, vec![], vec![], vec![]).is_err());
        assert!(BilinearAlgorithm::new(
            "bad",
            2,
            vec![vec![1, 0, 0, 0]],
            vec![vec![1, 0, 0]], // wrong row length
            vec![vec![1]; 4],
        )
        .is_err());
        assert!(BilinearAlgorithm::new(
            "bad",
            2,
            vec![vec![1, 0, 0, 0]],
            vec![vec![1, 0, 0, 0]],
            vec![vec![1]; 3], // wrong number of W rows
        )
        .is_err());
        assert!(BilinearAlgorithm::strassen().tensor_power(0).is_err());
    }
}
