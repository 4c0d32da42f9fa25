//! # fast-matmul — dense integer matrices and fast bilinear matrix multiplication
//!
//! This crate is the *conventional* (non-circuit) substrate of the workspace: it
//! provides dense integer matrices, the naive `Θ(N³)` multiplication, and the family of
//! fast (Strassen-like) algorithms that the threshold-circuit constructions of
//! `tcmm-core` are parameterised by.
//!
//! A fast matrix multiplication algorithm is described by a [`BilinearAlgorithm`]
//! `⟨T,T,T; r⟩`: a recipe that multiplies two `T×T` matrices using `r` scalar
//! multiplications, each of a `±1`-weighted (more generally integer-weighted) sum of
//! entries of `A` with a weighted sum of entries of `B`, after which each entry of `C`
//! is a weighted sum of the `r` products.  Applying the recipe recursively to `N×N`
//! matrices (with `N = T^l`) costs `N^{log_T r}` scalar multiplications — `ω = log_T r`
//! is the algorithm's exponent.
//!
//! The crate provides:
//!
//! * [`Matrix`] — dense row-major `i64` matrices with exact arithmetic;
//! * [`BilinearAlgorithm`] — Strassen's `⟨2,2,2;7⟩` recipe, the Strassen–Winograd
//!   variant, the naive recipe for any `T`, arbitrary tensor (Kronecker) powers, and a
//!   brute-force verifier that checks a recipe against the matrix-multiplication tensor;
//! * [`recursive`] — recursive fast multiplication, plain and operation-counting;
//! * [`sparsity`] — the paper's Definition 2.1 quantities (`s_A`, `s_B`, `s_C`) and the
//!   derived constants `α`, `β`, `γ`, `c` that control the circuit constructions;
//! * [`opcount`] — operation-count models (the `T(N) = 7·T(N/2) + 18·(N/2)²` recurrence
//!   and friends) used to reproduce the paper's Section 2.1 claims.
//!
//! ```
//! use fast_matmul::{BilinearAlgorithm, Matrix, recursive::multiply_recursive};
//!
//! let strassen = BilinearAlgorithm::strassen();
//! assert!(strassen.verify().is_ok());
//!
//! let a = Matrix::from_fn(8, 8, |i, j| (i * 3 + j) as i64 % 5 - 2);
//! let b = Matrix::from_fn(8, 8, |i, j| (i + 7 * j) as i64 % 7 - 3);
//! let fast = multiply_recursive(&strassen, &a, &b, 1).unwrap();
//! assert_eq!(fast, a.multiply_naive(&b).unwrap());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod bilinear;
mod error;
mod matrix;
pub mod opcount;
pub mod recursive;
pub mod sparsity;

pub use bilinear::BilinearAlgorithm;
pub use error::MatmulError;
pub use matrix::{random_binary_matrix, random_matrix, Matrix};
pub use sparsity::SparsityProfile;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, MatmulError>;
