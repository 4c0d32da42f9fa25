//! The trace circuits: "is `trace(A³) ≥ τ`?" (Theorems 4.4 and 4.5), plus the naive
//! depth-2 triangle circuit of the introduction as a baseline lives in [`crate::naive`].
//!
//! The construction follows Section 4.3.  For a symmetric `N×N` integer matrix `A` with
//! zero diagonal (e.g. a graph adjacency matrix), `trace(A³) = 2·Σ_{i<j} A_ij·C_ij`
//! with `C = A²`, and equation (4) of the paper rewrites this as
//! `Σ_k p_k·q_k` where `p_k` is the `k`-th scalar product of the fast algorithm and
//! `q_k = Σ_{i<j: k∈I_ij} w_ijk·A_ij` collects the entries of `A` that multiply `p_k`
//! in the trace.  The circuit therefore:
//!
//! 1. computes the leaves of `T_A` and `T_B` (with `B = A`) and of the coefficient tree
//!    (the `q_k`, driven by `Wᵀ` over the upper triangle of `A`), in depth `2t`;
//! 2. multiplies each triple with the depth-1 circuit of Lemma 3.3;
//! 3. feeds every product representation, scaled by 2, into a single output gate with
//!    threshold `τ`.
//!
//! Total depth: `2t + 2` (the paper states `2d + 2` in the abstract and the slightly
//! looser `2d + 5` in Theorem 4.5).

use crate::matrix_input::MatrixInput;
use crate::schedule::LevelSchedule;
use crate::tree::{coefficient_table, compute_tree_leaves, zero_signed, TreeKind};
use crate::{CircuitConfig, CoreError, Result};
use fast_matmul::Matrix;
use tc_arith::{product3_signed_repr, threshold_of_repr, InputAllocator, Repr, SignedInt};
use tc_circuit::{Circuit, CircuitBuilder, CircuitStats, CompiledCircuit, PaperBound};
use tc_runtime::Runtime;

/// A constant-depth threshold circuit deciding `trace(A³) ≥ τ` for symmetric
/// zero-diagonal integer matrices `A`.
///
/// The circuit is lowered to its compiled CSR form once at construction;
/// both evaluation entry points (scalar and batched) run off that form, so
/// issuing many queries never rebuilds per-gate state. The circuit owns no
/// runtime: batched queries go through [`TraceCircuit::evaluate_many_with`]
/// on a caller's [`Runtime`], so one runtime can serve many circuits.
#[derive(Debug)]
pub struct TraceCircuit {
    circuit: Circuit,
    compiled: CompiledCircuit,
    input: MatrixInput,
    tau: i64,
    schedule: LevelSchedule,
    bound: PaperBound,
}

impl TraceCircuit {
    /// Builds the trace circuit for a given schedule.
    ///
    /// `n` must be a power of the recipe's base dimension `T`, and the schedule's leaf
    /// level must equal `log_T n`.
    pub fn with_schedule(
        config: &CircuitConfig,
        n: usize,
        tau: i64,
        schedule: LevelSchedule,
    ) -> Result<Self> {
        let alg = config.algorithm();
        let t = alg.t();
        let levels = levels_for(n, t)?;
        if schedule.total_levels() != levels {
            return Err(CoreError::InvalidSchedule {
                reason: "schedule leaf level must equal log_T n",
            });
        }

        let mut alloc = InputAllocator::new();
        let input = MatrixInput::allocate(&mut alloc, n, config.entry_bits());
        let mut builder = CircuitBuilder::new(alloc.num_inputs());

        // The three level-0 matrices: A, B = A, and the upper triangle of A (for the
        // coefficient tree of equation (4)).
        let full: Vec<SignedInt> = input.entries().to_vec();
        let mut masked: Vec<SignedInt> = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                masked.push(if i < j {
                    input.entry(i, j).clone()
                } else {
                    zero_signed()
                });
            }
        }

        let u_table = coefficient_table(alg, TreeKind::OverA);
        let v_table = coefficient_table(alg, TreeKind::OverB);
        let q_table = coefficient_table(alg, TreeKind::OverCTransposed);

        let leaves_a = compute_tree_leaves(&mut builder, &full, n, &u_table, t, &schedule)?;
        let leaves_b = compute_tree_leaves(&mut builder, &full, n, &v_table, t, &schedule)?;
        let leaves_q = compute_tree_leaves(&mut builder, &masked, n, &q_table, t, &schedule)?;

        // Triple products (Lemma 3.3), scaled by 2 so the threshold can stay at τ
        // (trace(A³) = 2·Σ p_k q_k).
        let mut total = Repr::zero();
        for ((a, b), q) in leaves_a.iter().zip(&leaves_b).zip(&leaves_q) {
            if a.width() == 0 || b.width() == 0 || q.width() == 0 {
                continue;
            }
            let prod = product3_signed_repr(&mut builder, a, b, q)?;
            total.add(&prod.scale(2)?);
        }
        let out = threshold_of_repr(&mut builder, &total, tau)?;
        builder.mark_output(out);

        let circuit = builder.build();
        let compiled = circuit.compile()?;
        let bound = crate::bounds::trace_paper_bound(config, n, &schedule);
        Ok(TraceCircuit {
            circuit,
            compiled,
            input,
            tau,
            schedule,
            bound,
        })
    }

    /// The circuit of **Theorem 4.5**: constant depth `2t + 2` with `t ≤ d`, using
    /// `Õ(d·N^{ω + c·γ^d})` gates.
    pub fn theorem_4_5(config: &CircuitConfig, n: usize, d: u32, tau: i64) -> Result<Self> {
        let levels = levels_for(n, config.algorithm().t())?;
        let schedule = LevelSchedule::for_theorem_4_5(&config.sparsity(), levels, d)?;
        TraceCircuit::with_schedule(config, n, tau, schedule)
    }

    /// The circuit of **Theorem 4.4**: depth `O(log log N)` with `Õ(N^ω)` gates.
    pub fn theorem_4_4(config: &CircuitConfig, n: usize, tau: i64) -> Result<Self> {
        let levels = levels_for(n, config.algorithm().t())?;
        let schedule = LevelSchedule::for_theorem_4_4(&config.sparsity(), levels)?;
        TraceCircuit::with_schedule(config, n, tau, schedule)
    }

    /// The underlying threshold circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The compiled CSR form shared by every evaluation entry point.
    pub fn compiled(&self) -> &CompiledCircuit {
        &self.compiled
    }

    /// The input layout for the matrix `A`.
    pub fn input(&self) -> &MatrixInput {
        &self.input
    }

    /// The threshold `τ` baked into the output gate.
    pub fn tau(&self) -> i64 {
        self.tau
    }

    /// The level schedule used by the construction.
    pub fn schedule(&self) -> &LevelSchedule {
        &self.schedule
    }

    /// The closed-form paper bound this instance must satisfy
    /// (see [`crate::bounds::trace_paper_bound`]).
    pub fn paper_bound(&self) -> &PaperBound {
        &self.bound
    }

    /// Complexity statistics, read from the stored compiled form.
    pub fn stats(&self) -> CircuitStats {
        self.compiled.stats()
    }

    /// Encodes `a`, evaluates the circuit, and returns whether it asserts
    /// `trace(a³) ≥ τ`.
    ///
    /// # Errors
    /// Returns [`CoreError::NotSymmetricZeroDiagonal`] unless `a` is symmetric with a
    /// zero diagonal (the precondition of equation (4)).
    pub fn evaluate(&self, a: &Matrix) -> Result<bool> {
        let bits = self.encode(a)?;
        let ev = self.compiled.evaluate(&bits)?;
        Ok(ev.outputs()[0])
    }

    /// Answers the trace-threshold query for many matrices on `runtime`.
    ///
    /// The runtime packs queries into full bit-sliced lane groups (64–512
    /// lanes per pass, rule-picked per batch size), shards groups across
    /// worker threads, and rides ragged tails through the same path — so
    /// asking 10k queries costs a few dozen wide passes over the compiled
    /// circuit instead of 10k scalar evaluations.
    pub fn evaluate_many_with(&self, runtime: &Runtime, matrices: &[Matrix]) -> Result<Vec<bool>> {
        let mut rows = Vec::with_capacity(matrices.len());
        for a in matrices {
            rows.push(self.encode(a)?);
        }
        let responses = runtime
            .serve_batch(&self.compiled, &rows)
            .map_err(crate::CoreError::from)?;
        Ok(responses.into_iter().map(|r| r.outputs[0]).collect())
    }

    fn encode(&self, a: &Matrix) -> Result<Vec<bool>> {
        check_symmetric_zero_diagonal(a)?;
        let mut bits = vec![false; self.compiled.num_inputs()];
        self.input.assign(a, &mut bits)?;
        Ok(bits)
    }
}

/// Host-side reference: `trace(A³)` computed with exact integer arithmetic.
pub fn trace_of_cube(a: &Matrix) -> i128 {
    let a2 = a.multiply_naive(a).expect("square matrix");
    let a3 = a2.multiply_naive(a).expect("square matrix");
    a3.trace()
}

pub(crate) fn check_symmetric_zero_diagonal(a: &Matrix) -> Result<()> {
    if !a.is_square() {
        return Err(CoreError::NotSymmetricZeroDiagonal);
    }
    for i in 0..a.rows() {
        if a.get(i, i) != 0 {
            return Err(CoreError::NotSymmetricZeroDiagonal);
        }
        for j in (i + 1)..a.cols() {
            if a.get(i, j) != a.get(j, i) {
                return Err(CoreError::NotSymmetricZeroDiagonal);
            }
        }
    }
    Ok(())
}

pub(crate) fn levels_for(n: usize, t: usize) -> Result<u32> {
    if n == 0 {
        return Err(CoreError::DimensionNotPowerOfBase { n, base: t });
    }
    let mut levels = 0u32;
    let mut m = 1usize;
    while m < n {
        m *= t;
        levels += 1;
    }
    if m != n {
        return Err(CoreError::DimensionNotPowerOfBase { n, base: t });
    }
    Ok(levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_matmul::{random_binary_matrix, BilinearAlgorithm, Matrix};

    fn symmetric_zero_diag(n: usize, seed: u64, magnitude: i64) -> Matrix {
        let mut state = seed | 1;
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = (state % (2 * magnitude as u64 + 1)) as i64 - magnitude;
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        m
    }

    fn adjacency(n: usize, density: f64, seed: u64) -> Matrix {
        let raw = random_binary_matrix(n, density, seed);
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in (i + 1)..n {
                let v = raw.get(i, j);
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        m
    }

    #[test]
    fn theorem_4_5_answers_correctly_on_graphs() {
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        let n = 8;
        for d in 1..=3u32 {
            for seed in 0..3u64 {
                let a = adjacency(n, 0.5, seed + 1);
                let true_trace = trace_of_cube(&a);
                // Pick thresholds around the true value to exercise both answers.
                for delta in [-6i128, 0, 6] {
                    let tau = (true_trace + delta) as i64;
                    let circuit = TraceCircuit::theorem_4_5(&config, n, d, tau).unwrap();
                    assert_eq!(
                        circuit.evaluate(&a).unwrap(),
                        true_trace >= tau as i128,
                        "d={d} seed={seed} tau={tau} trace={true_trace}"
                    );
                }
            }
        }
    }

    #[test]
    fn depth_matches_2t_plus_2() {
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        for d in 1..=3u32 {
            let circuit = TraceCircuit::theorem_4_5(&config, 8, d, 10).unwrap();
            let t = circuit.schedule().num_selected() as u32;
            assert!(t <= d);
            assert_eq!(circuit.circuit().depth(), 2 * t + 2, "d={d}");
            // The paper's stated bound.
            assert!(circuit.circuit().depth() <= 2 * d + 5);
        }
    }

    #[test]
    fn theorem_4_4_schedule_is_also_correct() {
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        let a = adjacency(8, 0.6, 99);
        let true_trace = trace_of_cube(&a);
        let circuit = TraceCircuit::theorem_4_4(&config, 8, true_trace as i64).unwrap();
        assert!(circuit.evaluate(&a).unwrap());
        let circuit = TraceCircuit::theorem_4_4(&config, 8, true_trace as i64 + 1).unwrap();
        assert!(!circuit.evaluate(&a).unwrap());
    }

    #[test]
    fn integer_weighted_graphs_are_supported() {
        // The construction works for any symmetric zero-diagonal integer matrix with
        // O(log N)-bit entries, not just 0/1 adjacency matrices.
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 3);
        let a = symmetric_zero_diag(8, 5, 7);
        let true_trace = trace_of_cube(&a);
        for delta in [-10i128, 0, 10] {
            let tau = (true_trace + delta) as i64;
            let circuit = TraceCircuit::theorem_4_5(&config, 8, 2, tau).unwrap();
            assert_eq!(circuit.evaluate(&a).unwrap(), true_trace >= tau as i128);
        }
    }

    #[test]
    fn batched_evaluation_agrees_with_scalar() {
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        let a0 = adjacency(8, 0.5, 77);
        let tau = trace_of_cube(&a0) as i64;
        let circuit = TraceCircuit::theorem_4_5(&config, 8, 2, tau).unwrap();
        let matrices: Vec<Matrix> = (0..70).map(|s| adjacency(8, 0.45, s + 1)).collect();
        let batched = circuit
            .evaluate_many_with(&tc_runtime::Runtime::new(), &matrices)
            .unwrap();
        assert_eq!(batched.len(), matrices.len());
        for (m, &got) in matrices.iter().zip(&batched) {
            assert_eq!(got, circuit.evaluate(m).unwrap());
        }
        // Both answers must occur, otherwise the test is vacuous.
        assert!(batched.iter().any(|&b| b) && batched.iter().any(|&b| !b));
    }

    #[test]
    fn arena_kernel_agrees_with_scalar() {
        fn lane0<const W: usize>(circuit: &TraceCircuit, bits: &[bool]) -> bool {
            let mut arena = tc_circuit::PlaneArena::new();
            let ev = circuit
                .compiled()
                .evaluate_rows_arena::<W>(&[bits], &mut arena)
                .unwrap();
            ev.output(0, 0).unwrap()
        }
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        let a = adjacency(8, 0.4, 3);
        let tau = trace_of_cube(&a) as i64;
        let circuit = TraceCircuit::theorem_4_5(&config, 8, 2, tau).unwrap();
        let bits = circuit.encode(&a).unwrap();
        let scalar = circuit.evaluate(&a).unwrap();
        assert_eq!(lane0::<1>(&circuit, &bits), scalar);
        assert_eq!(lane0::<2>(&circuit, &bits), scalar);
        assert_eq!(lane0::<4>(&circuit, &bits), scalar);
        assert_eq!(lane0::<8>(&circuit, &bits), scalar);
    }

    #[test]
    fn winograd_recipe_also_works() {
        let config = CircuitConfig::binary(BilinearAlgorithm::winograd());
        let a = adjacency(8, 0.5, 21);
        let true_trace = trace_of_cube(&a);
        let circuit = TraceCircuit::theorem_4_5(&config, 8, 2, true_trace as i64).unwrap();
        assert!(circuit.evaluate(&a).unwrap());
    }

    #[test]
    fn asymmetric_or_nonzero_diagonal_matrices_are_rejected() {
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        let circuit = TraceCircuit::theorem_4_5(&config, 4, 1, 1).unwrap();
        let mut bad = Matrix::zeros(4, 4);
        bad.set(0, 1, 1); // not symmetric
        assert!(matches!(
            circuit.evaluate(&bad),
            Err(CoreError::NotSymmetricZeroDiagonal)
        ));
        let mut bad = Matrix::zeros(4, 4);
        bad.set(2, 2, 1); // nonzero diagonal
        assert!(matches!(
            circuit.evaluate(&bad),
            Err(CoreError::NotSymmetricZeroDiagonal)
        ));
    }

    #[test]
    fn dimension_must_be_power_of_t() {
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        assert!(matches!(
            TraceCircuit::theorem_4_5(&config, 6, 1, 1),
            Err(CoreError::DimensionNotPowerOfBase { .. })
        ));
    }
}
