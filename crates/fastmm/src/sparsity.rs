//! Sparsity of a bilinear algorithm (Definition 2.1 of the paper) and the derived
//! constants that control the threshold-circuit constructions.

use crate::BilinearAlgorithm;

/// The sparsity quantities of Definition 2.1 and the constants of Section 4.3.
///
/// For a recipe with `r` products over `T×T` matrices:
///
/// * `a_i` — number of distinct entries of `A` appearing in product `M_i`
///   (nonzero coefficients of `U` row `i`), and `s_A = Σ a_i`;
/// * `b_i`, `s_B` — the same for `B`;
/// * `c_i` — number of entries of `C` whose expression uses `M_i`
///   (nonzero coefficients in column `i` of `W`), and `s_C = Σ c_i`;
/// * `s = max(s_A, s_B, s_C)` — the algorithm's *sparsity*;
/// * `α = r/s_A`, `β = s_A/T²` (and the analogous `α_C`, `β_C` built from `s_C`);
/// * `γ = log_β(1/α)`, which is in `(0,1)` exactly when `r > T²`;
/// * `c = log_T(αβ)/(1−γ)`, the constant in the `Õ(d·N^{ω+cγ^d})` gate bounds.
///
/// For Strassen's algorithm these evaluate to `s_A = s_B = s_C = 12`, `α = 7/12`,
/// `β = 3`, `γ ≈ 0.491`, `c ≈ 1.585` — the numbers quoted in the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityProfile {
    /// `a_i` per product.
    pub a: Vec<usize>,
    /// `b_i` per product.
    pub b: Vec<usize>,
    /// `c_i` per product.
    pub c: Vec<usize>,
    /// `s_A = Σ a_i`.
    pub s_a: usize,
    /// `s_B = Σ b_i`.
    pub s_b: usize,
    /// `s_C = Σ c_i`.
    pub s_c: usize,
    /// `s = max(s_A, s_B, s_C)`.
    pub s: usize,
    /// Base dimension `T`.
    pub t: usize,
    /// Number of products `r`.
    pub r: usize,
}

impl SparsityProfile {
    /// Computes the sparsity profile of a recipe.
    pub fn of(alg: &BilinearAlgorithm) -> Self {
        let r = alg.r();
        let t = alg.t();
        let a: Vec<usize> = (0..r)
            .map(|i| alg.u_row(i).iter().filter(|&&x| x != 0).count())
            .collect();
        let b: Vec<usize> = (0..r)
            .map(|i| alg.v_row(i).iter().filter(|&&x| x != 0).count())
            .collect();
        let c: Vec<usize> = (0..r)
            .map(|i| (0..t * t).filter(|&pq| alg.w_row(pq)[i] != 0).count())
            .collect();
        let s_a = a.iter().sum();
        let s_b = b.iter().sum();
        let s_c = c.iter().sum();
        SparsityProfile {
            a,
            b,
            c,
            s_a,
            s_b,
            s_c,
            s: s_a.max(s_b).max(s_c),
            t,
            r,
        }
    }

    /// `c'_j` of the appendix: the number of products appearing in the expression of the
    /// `j`-th entry of `C`.  Note `Σ_j c'_j = s_C`.
    pub fn c_prime(alg: &BilinearAlgorithm) -> Vec<usize> {
        (0..alg.t() * alg.t())
            .map(|pq| alg.w_row(pq).iter().filter(|&&x| x != 0).count())
            .collect()
    }

    /// `ω = log_T r`.
    pub fn omega(&self) -> f64 {
        (self.r as f64).ln() / (self.t as f64).ln()
    }

    /// `α = r / s_A`.
    pub fn alpha(&self) -> f64 {
        self.r as f64 / self.s_a as f64
    }

    /// `β = s_A / T²`.
    pub fn beta(&self) -> f64 {
        self.s_a as f64 / (self.t * self.t) as f64
    }

    /// `α_C = r / s_C` (used for the bottom-up `T_AB` phase, Lemma 4.6).
    pub fn alpha_c(&self) -> f64 {
        self.r as f64 / self.s_c as f64
    }

    /// `β_C = s_C / T²`.
    pub fn beta_c(&self) -> f64 {
        self.s_c as f64 / (self.t * self.t) as f64
    }

    /// `γ = log_β(1/α)`; in `(0, 1)` exactly when `r > T²` (i.e. `αβ > 1`).
    pub fn gamma(&self) -> f64 {
        (1.0 / self.alpha()).ln() / self.beta().ln()
    }

    /// The constant `c = log_T(αβ)/(1−γ)` from Theorem 4.5 / 4.9.
    pub fn c_constant(&self) -> f64 {
        (self.alpha() * self.beta()).ln() / (self.t as f64).ln() / (1.0 - self.gamma())
    }

    /// `true` when the recipe can benefit from the paper's level-selection schedules:
    /// `γ` must lie strictly between 0 and 1, which requires both `β > 1`
    /// (`s_A > T²`, i.e. products reuse entries) and `α < 1` (`r < s_A`).
    ///
    /// Strassen-like recipes satisfy this; the naive recipe has `α = 1` (hence `γ = 0`)
    /// and gains nothing from level selection.
    pub fn is_fast(&self) -> bool {
        self.s_a > self.t * self.t && self.r < self.s_a
    }

    /// `true` when the recipe yields a subcubic recursive algorithm (`r < T³`,
    /// equivalently `ω < 3`).
    pub fn is_subcubic(&self) -> bool {
        self.r < self.t * self.t * self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strassen_constants_match_the_paper() {
        let p = SparsityProfile::of(&BilinearAlgorithm::strassen());
        assert_eq!(p.s_a, 12);
        assert_eq!(p.s_b, 12);
        assert_eq!(p.s_c, 12);
        assert_eq!(p.s, 12);
        assert!((p.alpha() - 7.0 / 12.0).abs() < 1e-12);
        assert!((p.beta() - 3.0).abs() < 1e-12);
        // Paper: "for Strassen's algorithm it is about 0.491".
        assert!((p.gamma() - 0.491).abs() < 0.001, "gamma = {}", p.gamma());
        // Paper: "the constant multiplier of gamma^d is about 1.581"/"c ≈ 1.585".
        assert!(
            (p.c_constant() - 1.585).abs() < 0.01,
            "c = {}",
            p.c_constant()
        );
        assert!(p.is_fast());
        assert!(p.is_subcubic());
        assert!((p.omega() - 7f64.log2()).abs() < 1e-12);
    }

    #[test]
    fn strassen_per_product_counts() {
        let p = SparsityProfile::of(&BilinearAlgorithm::strassen());
        // a_i: M1 uses 1 block of A, M2 uses 2, M3 uses 2, M4 uses 1, M5 uses 2,
        // M6 uses 2, M7 uses 2.
        assert_eq!(p.a, vec![1, 2, 2, 1, 2, 2, 2]);
        assert_eq!(p.b, vec![2, 1, 2, 2, 1, 2, 2]);
        // c_i: M1 appears in 2 entries of C, ..., M6 and M7 in 1 each.
        assert_eq!(p.c, vec![2, 2, 2, 2, 2, 1, 1]);
        // c'_j of the appendix: 4, 2, 2, 4 for Strassen.
        let cp = SparsityProfile::c_prime(&BilinearAlgorithm::strassen());
        assert_eq!(cp, vec![4, 2, 2, 4]);
        assert_eq!(cp.iter().sum::<usize>(), p.s_c);
    }

    #[test]
    fn naive_recipe_is_not_fast() {
        let p = SparsityProfile::of(&BilinearAlgorithm::naive(2));
        assert_eq!(p.r, 8);
        assert_eq!(p.s_a, 8);
        assert_eq!(p.s_b, 8);
        assert_eq!(p.s_c, 8);
        assert!((p.alpha() - 1.0).abs() < 1e-12);
        assert!((p.beta() - 2.0).abs() < 1e-12);
        assert!(!p.is_fast());
        assert!(!p.is_subcubic());
        // gamma = log_2(1) = 0 for the naive recipe.
        assert!(p.gamma().abs() < 1e-12);
    }

    #[test]
    fn tensor_power_multiplies_sparsities() {
        let s = BilinearAlgorithm::strassen();
        let p1 = SparsityProfile::of(&s);
        let p2 = SparsityProfile::of(&s.tensor_power(2).unwrap());
        // Sparsity is multiplicative under the tensor product: s_A(S^2) = s_A(S)^2.
        assert_eq!(p2.s_a, p1.s_a * p1.s_a);
        assert_eq!(p2.s_c, p1.s_c * p1.s_c);
        // alpha and beta change, but alpha*beta = r/T^2 stays (7/4)^2, and omega and
        // gamma are preserved because both alpha and beta are squared.
        assert!((p2.omega() - p1.omega()).abs() < 1e-12);
        assert!((p2.gamma() - p1.gamma()).abs() < 1e-12);
    }

    #[test]
    fn winograd_profile_is_sparser_on_c() {
        let pw = SparsityProfile::of(&BilinearAlgorithm::winograd());
        let ps = SparsityProfile::of(&BilinearAlgorithm::strassen());
        // Winograd was designed to reduce additions; its total sparsity s differs from
        // Strassen's and both must be internally consistent.
        assert_eq!(pw.r, 7);
        assert_eq!(pw.a.iter().sum::<usize>(), pw.s_a);
        assert_eq!(pw.c.iter().sum::<usize>(), pw.s_c);
        assert!(pw.is_fast());
        assert!(pw.gamma() > 0.0 && pw.gamma() < 1.0);
        // Both are 2x2/7-product algorithms, so omega matches.
        assert!((pw.omega() - ps.omega()).abs() < 1e-12);
    }
}
