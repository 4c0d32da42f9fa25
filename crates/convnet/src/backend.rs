//! Pluggable matrix-multiplication backends for the convolution workload.

use fast_matmul::{recursive, BilinearAlgorithm, Matrix};
use tc_runtime::Runtime;
use tcmm_core::{matmul::MatmulCircuit, CircuitConfig};

/// How the im2col matrix multiplication is carried out.
#[derive(Debug, Clone)]
pub enum MatmulBackend {
    /// The naive cubic host-side product.
    Naive,
    /// A recursive fast (Strassen-like) host-side product.
    Fast {
        /// The bilinear recipe to recurse with.
        algorithm: BilinearAlgorithm,
        /// Block size below which the recursion switches to the naive product.
        cutoff: usize,
    },
    /// An actual threshold circuit (Theorem 4.9): the operands are embedded into the
    /// smallest `N×N` square with `N` a power of the recipe's base dimension, a circuit
    /// is generated, evaluated, and the relevant corner of the result extracted.
    ThresholdCircuit {
        /// The bilinear recipe driving the circuit construction.
        algorithm: BilinearAlgorithm,
        /// The depth parameter `d` of Theorem 4.9.
        depth_parameter: u32,
    },
}

impl MatmulBackend {
    /// The threshold circuit this backend would build for products whose
    /// operand dimensions are all at most `max_dim` with `entry_bits`-bit
    /// entries, or `None` for the host-side backends.
    ///
    /// The returned [`MatmulCircuit`] carries its own certified paper bound
    /// ([`MatmulCircuit::paper_bound`]); the `verify-circuit` sweep uses this
    /// to certify the convolution layers' im2col products without running an
    /// inference.
    pub fn plan_circuit(
        &self,
        max_dim: usize,
        entry_bits: usize,
    ) -> Option<tcmm_core::Result<MatmulCircuit>> {
        match self {
            MatmulBackend::Naive | MatmulBackend::Fast { .. } => None,
            MatmulBackend::ThresholdCircuit {
                algorithm,
                depth_parameter,
            } => {
                let n = recursive::next_power_of(algorithm.t(), max_dim.max(algorithm.t()));
                let config = CircuitConfig::new(algorithm.clone(), entry_bits.max(1));
                Some(MatmulCircuit::theorem_4_9(&config, n, *depth_parameter))
            }
        }
    }

    /// Multiplies two (possibly rectangular) integer matrices with this backend.
    pub fn multiply(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, Box<dyn std::error::Error>> {
        match self {
            MatmulBackend::Naive => Ok(a.multiply_naive(b)?),
            MatmulBackend::Fast { algorithm, cutoff } => {
                let n = a.rows().max(a.cols()).max(b.cols());
                let pa = a.padded(n, n);
                let pb = b.padded(n, n);
                let full = recursive::multiply_recursive(algorithm, &pa, &pb, *cutoff)?;
                Ok(full.cropped(a.rows(), b.cols()))
            }
            MatmulBackend::ThresholdCircuit {
                algorithm,
                depth_parameter,
            } => {
                let raw = a.rows().max(a.cols()).max(b.cols()).max(b.rows());
                let n = recursive::next_power_of(algorithm.t(), raw.max(algorithm.t()));
                let pa = a.padded(n, n);
                let pb = b.padded(n, n);
                let bits = pa.entry_bits().max(pb.entry_bits()).max(1) as usize;
                let config = CircuitConfig::new(algorithm.clone(), bits);
                let circuit = MatmulCircuit::theorem_4_9(&config, n, *depth_parameter)?;
                let full = circuit.evaluate(&pa, &pb)?;
                Ok(full.cropped(a.rows(), b.cols()))
            }
        }
    }

    /// Multiplies many matrix pairs with this backend.
    ///
    /// The host-side backends loop over [`MatmulBackend::multiply`] and
    /// ignore the runtime; the threshold-circuit backend instead generates
    /// **one** circuit covering the largest pair and routes every product
    /// through `runtime` (bit-sliced lane groups, worker sharding) — the
    /// compile-once / evaluate-many shape batched convnet inference needs.
    pub fn multiply_many_with(
        &self,
        runtime: &Runtime,
        pairs: &[(Matrix, Matrix)],
    ) -> Result<Vec<Matrix>, Box<dyn std::error::Error>> {
        match self {
            MatmulBackend::Naive | MatmulBackend::Fast { .. } => {
                pairs.iter().map(|(a, b)| self.multiply(a, b)).collect()
            }
            MatmulBackend::ThresholdCircuit {
                algorithm,
                depth_parameter,
            } => {
                if pairs.is_empty() {
                    return Ok(Vec::new());
                }
                let raw = pairs
                    .iter()
                    .map(|(a, b)| a.rows().max(a.cols()).max(b.cols()).max(b.rows()))
                    .max()
                    .expect("pairs is non-empty");
                let n = recursive::next_power_of(algorithm.t(), raw.max(algorithm.t()));
                let padded: Vec<(Matrix, Matrix)> = pairs
                    .iter()
                    .map(|(a, b)| (a.padded(n, n), b.padded(n, n)))
                    .collect();
                let bits = padded
                    .iter()
                    .map(|(a, b)| a.entry_bits().max(b.entry_bits()))
                    .max()
                    .expect("pairs is non-empty")
                    .max(1) as usize;
                let config = CircuitConfig::new(algorithm.clone(), bits);
                let circuit = MatmulCircuit::theorem_4_9(&config, n, *depth_parameter)?;
                let products = circuit.evaluate_many_with(runtime, &padded)?;
                Ok(pairs
                    .iter()
                    .zip(products)
                    .map(|((a, b), full)| full.cropped(a.rows(), b.cols()))
                    .collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fast_matmul::random_matrix;

    #[test]
    fn all_backends_agree_on_rectangular_products() {
        let a = Matrix::from_fn(5, 7, |i, j| (i as i64 - j as i64) % 3);
        let b = Matrix::from_fn(7, 4, |i, j| ((i * j) as i64 % 5) - 2);
        let expected = a.multiply_naive(&b).unwrap();

        let naive = MatmulBackend::Naive.multiply(&a, &b).unwrap();
        assert_eq!(naive, expected);

        let fast = MatmulBackend::Fast {
            algorithm: BilinearAlgorithm::strassen(),
            cutoff: 2,
        }
        .multiply(&a, &b)
        .unwrap();
        assert_eq!(fast, expected);

        let circuit = MatmulBackend::ThresholdCircuit {
            algorithm: BilinearAlgorithm::strassen(),
            depth_parameter: 2,
        }
        .multiply(&a, &b)
        .unwrap();
        assert_eq!(circuit, expected);
    }

    #[test]
    fn square_inputs_pass_through_unpadded() {
        let a = random_matrix(4, 3, 5);
        let b = random_matrix(4, 3, 6);
        let expected = a.multiply_naive(&b).unwrap();
        let circuit = MatmulBackend::ThresholdCircuit {
            algorithm: BilinearAlgorithm::strassen(),
            depth_parameter: 1,
        }
        .multiply(&a, &b)
        .unwrap();
        assert_eq!(circuit, expected);
    }
}
