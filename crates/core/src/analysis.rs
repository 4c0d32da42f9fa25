//! Analytic gate-count models.
//!
//! Two kinds of model live here:
//!
//! * **Exact counts** computed without materialising any circuit:
//!   [`tree_phase_cost`] reproduces, gate for gate, the size of a tree phase (the
//!   circuits of Lemma 4.2 / 4.3) for ±1-coefficient recipes, via a width/size dynamic
//!   program — usable for `N` up to millions; [`naive_matmul_gate_count`] and
//!   [`naive_triangle_gate_count`](crate::naive::naive_triangle_gate_count) do the same
//!   for the baselines.
//! * **Paper bounds** ([`lemma_4_3_gate_bound`], [`theorem_4_4_gate_bound`],
//!   [`theorem_4_5_gate_bound`], [`theorem_4_5_exponent`], …): the asymptotic
//!   expressions of Section 4 evaluated with their explicit constants, used by the
//!   `expt_e*` experiment binaries to print the scaling curves.

use crate::schedule::LevelSchedule;
use crate::tree::{coefficient_table, TreeKind};
use fast_matmul::{BilinearAlgorithm, SparsityProfile};
use std::collections::HashMap;
use tc_arith::{bits_of, repr_to_binary_gate_count, weighted_sum_gate_count};

/// Gate count and node count of one selected level of a tree phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelCost {
    /// The selected level `h_i`.
    pub level: u32,
    /// Number of tree nodes materialised at this level (`r^{h_i}`).
    pub nodes: u128,
    /// Exact number of threshold gates emitted for this level.
    pub gates: u128,
}

/// The cost of one tree phase (computing all selected levels of `T_A`, `T_B`, or the
/// coefficient tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreePhaseCost {
    /// Per-level breakdown.
    pub per_level: Vec<LevelCost>,
    /// Total gates across all levels.
    pub total_gates: u128,
    /// Width profile of the leaf scalars: `(bit width per sign part, number of
    /// leaves in that class)`, ascending by width.  This is the DP's terminal
    /// state; the paper-bound models use it to cost the Lemma 3.3 product
    /// layer that consumes the leaves.
    pub leaf_widths: Vec<(u32, u128)>,
}

impl TreePhaseCost {
    /// The widest leaf class (0 for an all-masked tree) — an upper bound on the
    /// width of every leaf scalar the phase produces.
    pub fn max_leaf_width(&self) -> u32 {
        self.leaf_widths.iter().map(|&(w, _)| w).max().unwrap_or(0)
    }
}

/// Exact gate count of the tree phase of the construction, computed by dynamic
/// programming over (entry width × relative node size) classes — no circuit is built.
///
/// The count is exact for recipes whose `U`/`V`/`W` coefficients are all in `{−1,0,1}`
/// (Strassen, Winograd, their tensor powers, the naive recipe) and whose level-0 matrix
/// is dense (no masked entries); for other recipes it is an upper bound.  The builder
/// tests in `tests/` cross-check it against materialised circuits.
pub fn tree_phase_cost(
    alg: &BilinearAlgorithm,
    kind: TreeKind,
    n: usize,
    entry_bits: u32,
    schedule: &LevelSchedule,
) -> TreePhaseCost {
    let t = alg.t();
    let table = coefficient_table(alg, kind);
    // Nonzero count per product row of the driving table.
    let nnz: Vec<u128> = table
        .iter()
        .map(|row| row.iter().filter(|&&c| c != 0).count() as u128)
        .collect();

    // State: width of a node's entries -> number of nodes with that width.
    let mut widths: HashMap<u32, u128> = HashMap::new();
    widths.insert(entry_bits, 1);

    let mut per_level = Vec::new();
    let mut total: u128 = 0;
    for (h_prev, h_cur) in schedule.transitions() {
        let delta = h_cur - h_prev;
        // Multiset of relative sizes over all r^delta paths.
        let mut sizes: HashMap<u128, u128> = HashMap::new();
        sizes.insert(1, 1);
        for _ in 0..delta {
            let mut next: HashMap<u128, u128> = HashMap::new();
            for (&s, &cnt) in &sizes {
                for &a in &nnz {
                    *next.entry(s * a).or_insert(0) += cnt;
                }
            }
            sizes = next;
        }

        let cur_dim = (n / t.pow(h_cur)) as u128;
        let entries_per_node = cur_dim * cur_dim;
        let mut level_gates: u128 = 0;
        let mut next_widths: HashMap<u32, u128> = HashMap::new();
        let mut level_nodes: u128 = 0;
        for (&w, &node_cnt) in &widths {
            for (&s, &path_cnt) in &sizes {
                let nodes = node_cnt * path_cnt;
                level_nodes += nodes;
                if s == 0 || w == 0 {
                    *next_widths.entry(0).or_insert(0) += nodes;
                    continue;
                }
                let max_value = s * ((1u128 << w) - 1);
                let new_w = bits_of(max_value);
                *next_widths.entry(new_w).or_insert(0) += nodes;
                let per_entry = 2 * weighted_sum_gate_count(s, w) as u128;
                level_gates += nodes * entries_per_node * per_entry;
            }
        }
        widths = next_widths;
        total += level_gates;
        per_level.push(LevelCost {
            level: h_cur,
            nodes: level_nodes,
            gates: level_gates,
        });
    }
    let mut leaf_widths: Vec<(u32, u128)> = widths.into_iter().collect();
    leaf_widths.sort_unstable();
    TreePhaseCost {
        per_level,
        total_gates: total,
        leaf_widths,
    }
}

/// Exact gate count of [`NaiveMatmulCircuit`](crate::naive::NaiveMatmulCircuit) for
/// `n×n` matrices with `b`-bit entries, computed from the constructions' formulas.
pub fn naive_matmul_gate_count(n: u64, b: u32) -> u128 {
    // Products: for each (i, j, k) a signed two-factor product = 4 * b * b gates.
    let products = n as u128 * n as u128 * n as u128 * 4 * b as u128 * b as u128;
    // Each entry of C binarises the concatenation of n product representations.  Every
    // product contributes, for each (bit i, bit j), two terms of weight +2^(i+j) and two
    // of weight -2^(i+j).
    let mut weights = Vec::with_capacity((n as usize) * 4 * (b * b) as usize);
    for _ in 0..n {
        for i in 0..b {
            for j in 0..b {
                let w = 1i64 << (i + j);
                weights.extend_from_slice(&[w, w, -w, -w]);
            }
        }
    }
    let pos: Vec<i64> = weights.iter().copied().filter(|&w| w > 0).collect();
    let neg: Vec<i64> = weights.iter().map(|&w| -w).filter(|&w| w > 0).collect();
    let per_entry =
        repr_to_binary_gate_count(&pos) as u128 + repr_to_binary_gate_count(&neg) as u128;
    products + n as u128 * n as u128 * per_entry
}

/// The gate bound of Lemma 4.3 (up to its hidden constant):
/// `t · (αβ)^ρ · (b + log₂N) · N²`.
pub fn lemma_4_3_gate_bound(
    profile: &SparsityProfile,
    n: f64,
    entry_bits: f64,
    rho: f64,
    t: f64,
) -> f64 {
    t * (profile.alpha() * profile.beta()).powf(rho) * (entry_bits + n.log2()) * n * n
}

/// The Theorem 4.4 gate bound (up to constants): `t · N^ω · (b + log₂N)` with
/// `t = ⌊log_{1/γ} log_T N⌋ + 1`.
pub fn theorem_4_4_gate_bound(profile: &SparsityProfile, n: f64, entry_bits: f64) -> f64 {
    let l = n.ln() / (profile.t as f64).ln();
    let t = (l.ln() / (1.0 / profile.gamma()).ln()).floor() + 1.0;
    lemma_4_3_gate_bound(profile, n, entry_bits, l, t.max(1.0))
}

/// The Theorem 4.5 gate bound (up to constants): `d · N^{ω + cγ^d} · (b + log₂N)`.
pub fn theorem_4_5_gate_bound(profile: &SparsityProfile, n: f64, entry_bits: f64, d: u32) -> f64 {
    let l = n.ln() / (profile.t as f64).ln();
    let rho = l * (1.0 + profile.gamma().powi(d as i32) / (1.0 - profile.gamma()));
    lemma_4_3_gate_bound(profile, n, entry_bits, rho, d as f64)
}

/// The gate-count exponent promised by Theorem 4.5 / 4.9: `ω + c·γ^d`.
pub fn theorem_4_5_exponent(profile: &SparsityProfile, d: u32) -> f64 {
    profile.omega() + profile.c_constant() * profile.gamma().powi(d as i32)
}

/// The gate-count exponent of the Theorem 4.1 baseline: `ω + 1/d`.
pub fn theorem_4_1_exponent(profile: &SparsityProfile, d: u32) -> f64 {
    profile.omega() + 1.0 / d as f64
}

/// Least-squares slope of `log(y)` against `log(x)` — used to fit empirical gate-count
/// exponents in the experiment harness.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return f64::NAN;
    }
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let lx = x.ln();
        let ly = y.ln();
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{NaiveMatmulCircuit, NaiveTriangleCircuit};
    use crate::CircuitConfig;

    fn strassen_profile() -> SparsityProfile {
        SparsityProfile::of(&BilinearAlgorithm::strassen())
    }

    #[test]
    fn naive_matmul_count_matches_built_circuit() {
        for (n, b) in [(2usize, 2u32), (3, 2), (4, 3)] {
            let config = CircuitConfig::new(BilinearAlgorithm::strassen(), b as usize);
            let built = NaiveMatmulCircuit::new(&config, n).unwrap();
            assert_eq!(
                built.circuit().num_gates() as u128,
                naive_matmul_gate_count(n as u64, b),
                "n={n} b={b}"
            );
        }
    }

    #[test]
    fn naive_triangle_count_matches_built_circuit() {
        for n in [4usize, 6, 10] {
            let built = NaiveTriangleCircuit::new(n, 3).unwrap();
            assert_eq!(
                built.circuit().num_gates() as u64,
                crate::naive::naive_triangle_gate_count(n as u64)
            );
        }
    }

    #[test]
    fn exponents_decrease_with_d_and_beat_theorem_4_1() {
        let p = strassen_profile();
        let omega = p.omega();
        let mut last = f64::INFINITY;
        for d in 1..=8u32 {
            let e45 = theorem_4_5_exponent(&p, d);
            let e41 = theorem_4_1_exponent(&p, d);
            assert!(e45 < last, "exponent must decrease with d");
            assert!(e45 > omega, "exponent stays above omega");
            // Theorem 4.5 has an exponentially-small excess versus 4.1's 1/d excess,
            // so from small d onwards it is strictly better.
            if d >= 2 {
                assert!(e45 < e41, "d={d}: {e45} vs {e41}");
            }
            last = e45;
        }
        // Paper headline: for d > 3 the circuit has O(N^(3-eps)) gates.
        assert!(theorem_4_5_exponent(&p, 4) < 3.0);
        // And with d = 1..3 the exponent may exceed 3 (it does for Strassen with d=1).
        assert!(theorem_4_5_exponent(&p, 1) > 3.0);
    }

    #[test]
    fn bounds_grow_with_n_and_shrink_with_d() {
        let p = strassen_profile();
        let b44_small = theorem_4_4_gate_bound(&p, 256.0, 8.0);
        let b44_big = theorem_4_4_gate_bound(&p, 4096.0, 8.0);
        assert!(b44_big > b44_small);
        let b45_d2 = theorem_4_5_gate_bound(&p, 4096.0, 8.0, 2);
        let b45_d5 = theorem_4_5_gate_bound(&p, 4096.0, 8.0, 5);
        assert!(
            b45_d5 < b45_d2 * 5.0,
            "deeper circuits must not cost more (up to the d factor)"
        );
    }

    #[test]
    fn tree_phase_cost_scales_subcubically_for_theorem_4_5() {
        // For d = 4 the per-N tree-phase cost must grow with an exponent below 3
        // (the headline claim), and above omega.
        let alg = BilinearAlgorithm::strassen();
        let p = strassen_profile();
        let mut points = Vec::new();
        for l in 6..=11u32 {
            let n = 2usize.pow(l);
            let schedule = LevelSchedule::for_theorem_4_5(&p, l, 4).unwrap();
            let cost = tree_phase_cost(&alg, TreeKind::OverA, n, 8, &schedule);
            points.push((n as f64, cost.total_gates as f64));
        }
        let slope = log_log_slope(&points);
        assert!(
            slope < 3.0,
            "tree-phase exponent {slope} should be subcubic"
        );
        assert!(
            slope > p.omega() - 0.2,
            "tree-phase exponent {slope} suspiciously low"
        );
    }

    #[test]
    fn geometric_schedule_balances_levels_better_than_uniform() {
        // Lemma 4.3's point: with the geometric schedule the per-level gate counts are
        // roughly balanced, so the max/min ratio across levels is much smaller than for
        // the uniform schedule with the same number of levels.
        let alg = BilinearAlgorithm::strassen();
        let p = strassen_profile();
        let l = 12u32;
        let n = 2usize.pow(l);
        let geo = LevelSchedule::for_theorem_4_5(&p, l, 3).unwrap();
        let t = geo.num_selected() as u32;
        let uni = LevelSchedule::uniform(l, t).unwrap();
        let geo_cost = tree_phase_cost(&alg, TreeKind::OverA, n, 8, &geo);
        let uni_cost = tree_phase_cost(&alg, TreeKind::OverA, n, 8, &uni);
        let spread = |c: &TreePhaseCost| {
            let max = c.per_level.iter().map(|l| l.gates).max().unwrap() as f64;
            let min = c.per_level.iter().map(|l| l.gates).min().unwrap() as f64;
            max / min
        };
        assert!(
            spread(&geo_cost) < spread(&uni_cost),
            "geometric spread {} should be below uniform spread {}",
            spread(&geo_cost),
            spread(&uni_cost)
        );
        // And the geometric schedule uses fewer gates overall.
        assert!(geo_cost.total_gates <= uni_cost.total_gates);
    }

    #[test]
    fn log_log_slope_recovers_known_exponents() {
        let quadratic: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((log_log_slope(&quadratic) - 2.0).abs() < 1e-9);
        let cubic: Vec<(f64, f64)> = (2..12)
            .map(|i| (i as f64, (i * i * i) as f64 * 5.0))
            .collect();
        assert!((log_log_slope(&cubic) - 3.0).abs() < 1e-9);
        assert!(log_log_slope(&[(1.0, 1.0)]).is_nan());
    }
}
