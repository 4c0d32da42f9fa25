//! The matrix-product circuits: `C = A·B` in constant depth (Theorems 4.8 and 4.9) and
//! the uniform-schedule variant the paper equates with Theorem 4.1.
//!
//! Structure (Section 4.4): compute the leaves of `T_A` and `T_B` top-down (depth
//! `2t`), multiply corresponding leaves with the depth-1 circuit of Lemma 3.3, then
//! re-assemble the product representations bottom-up through the selected levels of
//! `T_AB` (depth `2t`, Lemma 4.6).  Total depth `4t + 1` with `t ≤ d` (Theorem 4.9).

use crate::matrix_input::MatrixInput;
use crate::schedule::LevelSchedule;
use crate::trace::levels_for;
use crate::tree::{coefficient_table, combine_product_tree, compute_tree_leaves, TreeKind};
use crate::{CircuitConfig, CoreError, Result};
use fast_matmul::Matrix;
use tc_arith::{product_signed_repr, InputAllocator, Repr, SignedInt};
use tc_circuit::{Circuit, CircuitBuilder, CircuitStats, CompiledCircuit, PaperBound};
use tc_runtime::Runtime;

/// A constant-depth threshold circuit computing the product of two `N×N` integer
/// matrices with bounded-width entries.
///
/// Every bit of each entry of `C` is a designated output (see
/// [`SignedInt::mark_as_outputs`]), so products are decoded from the output
/// values alone. The circuit is lowered to its compiled CSR form once at
/// construction and both entry points (scalar and batched) run off that
/// form. The circuit owns no runtime: batched products go through
/// [`MatmulCircuit::evaluate_many_with`] on a caller's [`Runtime`], on the
/// outputs-only serving path.
#[derive(Debug)]
pub struct MatmulCircuit {
    circuit: Circuit,
    compiled: CompiledCircuit,
    a: MatrixInput,
    b: MatrixInput,
    output: Vec<SignedInt>,
    n: usize,
    schedule: LevelSchedule,
    bound: PaperBound,
}

impl MatmulCircuit {
    /// Builds the matrix-product circuit for an explicit level schedule.
    pub fn with_schedule(
        config: &CircuitConfig,
        n: usize,
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
        let a = MatrixInput::allocate(&mut alloc, n, config.entry_bits());
        let b = MatrixInput::allocate(&mut alloc, n, config.entry_bits());
        let mut builder = CircuitBuilder::new(alloc.num_inputs());

        let u_table = coefficient_table(alg, TreeKind::OverA);
        let v_table = coefficient_table(alg, TreeKind::OverB);
        let leaves_a = compute_tree_leaves(&mut builder, a.entries(), n, &u_table, t, &schedule)?;
        let leaves_b = compute_tree_leaves(&mut builder, b.entries(), n, &v_table, t, &schedule)?;

        // Scalar products of corresponding leaves (Lemma 3.3, depth 1), kept as
        // representations and consumed directly by the first bottom-up level.
        let mut products = Vec::with_capacity(leaves_a.len());
        for (la, lb) in leaves_a.iter().zip(&leaves_b) {
            if la.width() == 0 || lb.width() == 0 {
                products.push(Repr::zero());
            } else {
                products.push(product_signed_repr(&mut builder, la, lb)?);
            }
        }

        let output = combine_product_tree(&mut builder, products, alg, n, &schedule)?;
        for entry in &output {
            entry.mark_as_outputs(&mut builder);
        }

        let circuit = builder.build();
        let compiled = circuit.compile()?;
        debug_assert_eq!(
            output.iter().map(SignedInt::output_width).sum::<usize>(),
            compiled.num_outputs(),
            "every output bit belongs to exactly one entry of C"
        );
        let bound = crate::bounds::matmul_paper_bound(config, n, &schedule);
        Ok(MatmulCircuit {
            circuit,
            compiled,
            a,
            b,
            output,
            n,
            schedule,
            bound,
        })
    }

    /// The circuit of **Theorem 4.9**: depth at most `4d + 1` and `Õ(d·N^{ω+cγ^d})`
    /// gates.
    pub fn theorem_4_9(config: &CircuitConfig, n: usize, d: u32) -> Result<Self> {
        let levels = levels_for(n, config.algorithm().t())?;
        let schedule = LevelSchedule::for_theorem_4_5(&config.sparsity(), levels, d)?;
        MatmulCircuit::with_schedule(config, n, schedule)
    }

    /// The circuit of **Theorem 4.8**: depth `O(log log N)` and `Õ(N^ω)` gates.
    pub fn theorem_4_8(config: &CircuitConfig, n: usize) -> Result<Self> {
        let levels = levels_for(n, config.algorithm().t())?;
        let schedule = LevelSchedule::for_theorem_4_4(&config.sparsity(), levels)?;
        MatmulCircuit::with_schedule(config, n, schedule)
    }

    /// The uniform-schedule variant with `d` selected levels, which the paper states is
    /// "comparable to Theorem 4.1" (`O(d)` depth, `Õ(d·N^{ω+1/d})` gates).
    pub fn theorem_4_1(config: &CircuitConfig, n: usize, d: u32) -> Result<Self> {
        let levels = levels_for(n, config.algorithm().t())?;
        let schedule = LevelSchedule::uniform(levels, d)?;
        MatmulCircuit::with_schedule(config, n, schedule)
    }

    /// The underlying threshold circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The compiled CSR form shared by every evaluation entry point.
    pub fn compiled(&self) -> &CompiledCircuit {
        &self.compiled
    }

    /// The input layout for `A`.
    pub fn input_a(&self) -> &MatrixInput {
        &self.a
    }

    /// The input layout for `B`.
    pub fn input_b(&self) -> &MatrixInput {
        &self.b
    }

    /// The circuit-level output entries of `C = A·B`, row-major.
    pub fn output_entries(&self) -> &[SignedInt] {
        &self.output
    }

    /// Matrix dimension `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The level schedule used by the construction.
    pub fn schedule(&self) -> &LevelSchedule {
        &self.schedule
    }

    /// The closed-form paper bound this instance must satisfy
    /// (see [`crate::bounds::matmul_paper_bound`]).
    pub fn paper_bound(&self) -> &PaperBound {
        &self.bound
    }

    /// Complexity statistics, read from the stored compiled form.
    pub fn stats(&self) -> CircuitStats {
        self.compiled.stats()
    }

    /// Encodes the operands, evaluates the circuit and decodes the product matrix.
    pub fn evaluate(&self, a: &Matrix, b: &Matrix) -> Result<Matrix> {
        let bits = self.encode(a, b)?;
        Ok(self.decode(self.compiled.evaluate(&bits)?.outputs()))
    }

    /// Multiplies many matrix pairs on `runtime`: pairs ride bit-sliced lane
    /// groups (64–512 lanes per pass, rule-picked) sharded across worker
    /// threads.
    pub fn evaluate_many_with(
        &self,
        runtime: &Runtime,
        pairs: &[(Matrix, Matrix)],
    ) -> Result<Vec<Matrix>> {
        let mut rows = Vec::with_capacity(pairs.len());
        for (a, b) in pairs {
            rows.push(self.encode(a, b)?);
        }
        let responses = runtime
            .serve_batch(&self.compiled, &rows)
            .map_err(crate::CoreError::from)?;
        Ok(responses.iter().map(|r| self.decode(&r.outputs)).collect())
    }

    fn encode(&self, a: &Matrix, b: &Matrix) -> Result<Vec<bool>> {
        let mut bits = vec![false; self.compiled.num_inputs()];
        self.a.assign(a, &mut bits)?;
        self.b.assign(b, &mut bits)?;
        Ok(bits)
    }

    /// Decodes `C` from the circuit's designated output values, entry by
    /// entry in row-major order.
    fn decode(&self, mut outputs: &[bool]) -> Matrix {
        let entries = self
            .output
            .iter()
            .map(|e| e.read_outputs(&mut outputs))
            .collect();
        Matrix::from_vec(self.n, self.n, entries).expect("one entry per output number")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_matmul::{random_matrix, BilinearAlgorithm};

    #[test]
    fn theorem_4_9_computes_products_exactly() {
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 3);
        for n in [2usize, 4] {
            for d in 1..=2u32 {
                let mm = MatmulCircuit::theorem_4_9(&config, n, d).unwrap();
                for seed in 0..3u64 {
                    let a = random_matrix(n, 7, seed * 2 + 1);
                    let b = random_matrix(n, 7, seed * 2 + 2);
                    let expected = a.multiply_naive(&b).unwrap();
                    assert_eq!(
                        mm.evaluate(&a, &b).unwrap(),
                        expected,
                        "n={n} d={d} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn banks_are_the_distinct_fan_in_multisets_of_each_layer() {
        // Lemma 3.1/3.2 blocks fire many thresholds on one sum: the compiled
        // circuit must hold one bank per distinct (wire, weight) fan-in
        // multiset of each layer, recounted here through `fan_in` alone.
        let config = CircuitConfig::binary(BilinearAlgorithm::strassen());
        let mm = MatmulCircuit::theorem_4_9(&config, 4, 1).unwrap();
        let cc = mm.compiled();
        let mut distinct = 0;
        for d in 0..cc.depth() as usize {
            let mut rows = std::collections::HashSet::new();
            for &g in cc.layer(d) {
                let (wires, weights) = cc.fan_in(g as usize);
                let mut row: Vec<(u32, i64)> =
                    wires.iter().copied().zip(weights.iter().copied()).collect();
                row.sort_unstable();
                rows.insert(row);
            }
            distinct += rows.len();
        }
        assert_eq!(cc.num_banks(), distinct);
        assert!(cc.num_banks() < cc.num_gates(), "the geometry shares sums");
        assert!(cc.num_evaluated_edges() < cc.num_edges());
        assert_eq!(cc.num_edges(), mm.circuit().num_edges());
    }

    #[test]
    fn depth_is_4t_plus_1() {
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
        for (n, d) in [(4usize, 1u32), (4, 2), (8, 2)] {
            let mm = MatmulCircuit::theorem_4_9(&config, n, d).unwrap();
            let t = mm.schedule().num_selected() as u32;
            assert!(t <= d);
            assert_eq!(mm.circuit().depth(), 4 * t + 1, "n={n} d={d}");
            assert!(mm.circuit().depth() <= 4 * d + 1);
        }
    }

    #[test]
    fn n8_product_with_two_levels() {
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
        let mm = MatmulCircuit::theorem_4_9(&config, 8, 2).unwrap();
        let a = random_matrix(8, 3, 5);
        let b = random_matrix(8, 3, 6);
        assert_eq!(mm.evaluate(&a, &b).unwrap(), a.multiply_naive(&b).unwrap());
    }

    #[test]
    fn uniform_schedule_variant_is_correct_too() {
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
        let mm = MatmulCircuit::theorem_4_1(&config, 4, 2).unwrap();
        let a = random_matrix(4, 3, 11);
        let b = random_matrix(4, 3, 12);
        assert_eq!(mm.evaluate(&a, &b).unwrap(), a.multiply_naive(&b).unwrap());
        assert_eq!(mm.schedule().levels(), &[1, 2]);
    }

    #[test]
    fn theorem_4_8_loglog_schedule_is_correct() {
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
        let mm = MatmulCircuit::theorem_4_8(&config, 4).unwrap();
        let a = random_matrix(4, 3, 21);
        let b = random_matrix(4, 3, 22);
        assert_eq!(mm.evaluate(&a, &b).unwrap(), a.multiply_naive(&b).unwrap());
    }

    #[test]
    fn batched_evaluation_agrees_with_scalar() {
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
        let mm = MatmulCircuit::theorem_4_9(&config, 4, 2).unwrap();
        let pairs: Vec<(Matrix, Matrix)> = (0..67)
            .map(|s| {
                (
                    random_matrix(4, 3, 2 * s + 1),
                    random_matrix(4, 3, 2 * s + 2),
                )
            })
            .collect();
        let products = mm
            .evaluate_many_with(&tc_runtime::Runtime::new(), &pairs)
            .unwrap();
        assert_eq!(products.len(), pairs.len());
        for ((a, b), c) in pairs.iter().zip(&products) {
            assert_eq!(c, &a.multiply_naive(b).unwrap());
        }
    }

    #[test]
    fn arena_kernel_agrees_with_scalar() {
        fn decode_lane0<const W: usize>(mm: &MatmulCircuit, bits: &[bool]) -> Matrix {
            let mut arena = tc_circuit::PlaneArena::new();
            let ev = mm
                .compiled()
                .evaluate_rows_arena::<W>(&[bits], &mut arena)
                .unwrap();
            mm.decode(&ev.outputs(0).unwrap())
        }
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
        let mm = MatmulCircuit::theorem_4_9(&config, 4, 2).unwrap();
        let a = random_matrix(4, 3, 31);
        let b = random_matrix(4, 3, 32);
        let bits = mm.encode(&a, &b).unwrap();
        let scalar = mm.evaluate(&a, &b).unwrap();
        assert_eq!(decode_lane0::<1>(&mm, &bits), scalar);
        assert_eq!(decode_lane0::<2>(&mm, &bits), scalar);
        assert_eq!(decode_lane0::<4>(&mm, &bits), scalar);
        assert_eq!(decode_lane0::<8>(&mm, &bits), scalar);
    }

    #[test]
    fn winograd_and_tensor_square_recipes_work() {
        let w_config = CircuitConfig::new(BilinearAlgorithm::winograd(), 2);
        let mm = MatmulCircuit::theorem_4_9(&w_config, 4, 2).unwrap();
        let a = random_matrix(4, 3, 41);
        let b = random_matrix(4, 3, 42);
        assert_eq!(mm.evaluate(&a, &b).unwrap(), a.multiply_naive(&b).unwrap());

        let s2 = BilinearAlgorithm::strassen().tensor_power(2).unwrap();
        let s2_config = CircuitConfig::new(s2, 2);
        let mm = MatmulCircuit::theorem_4_9(&s2_config, 4, 1).unwrap();
        assert_eq!(mm.evaluate(&a, &b).unwrap(), a.multiply_naive(&b).unwrap());
    }

    #[test]
    fn negative_and_boundary_entries() {
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 3);
        let mm = MatmulCircuit::theorem_4_9(&config, 4, 2).unwrap();
        let a = Matrix::from_fn(4, 4, |i, j| if (i + j) % 2 == 0 { 7 } else { -7 });
        let b = Matrix::from_fn(4, 4, |i, j| ((i * 4 + j) as i64 % 15) - 7);
        assert_eq!(mm.evaluate(&a, &b).unwrap(), a.multiply_naive(&b).unwrap());
    }

    #[test]
    fn oversized_entries_are_rejected_at_evaluation() {
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
        let mm = MatmulCircuit::theorem_4_9(&config, 2, 1).unwrap();
        let too_big = Matrix::from_fn(2, 2, |_, _| 4);
        let ok = Matrix::zeros(2, 2);
        assert!(mm.evaluate(&too_big, &ok).is_err());
    }

    #[test]
    fn dimension_must_be_power_of_t() {
        let config = CircuitConfig::new(BilinearAlgorithm::strassen(), 2);
        assert!(matches!(
            MatmulCircuit::theorem_4_9(&config, 6, 1),
            Err(CoreError::DimensionNotPowerOfBase { .. })
        ));
    }
}
