//! # tc-convnet — convolution as matrix multiplication (Section 5 of the paper)
//!
//! The paper's primary motivation for circuit-based matrix multiplication is the
//! convolutional layer of a deep network: applying `K` kernels of shape `q × q × ℓ` to
//! an `n × n × ℓ` image is, after the *im2col* rewriting, a single `P × Q` by `Q × K`
//! matrix multiplication with `P = O(n²)` patches and `Q = q·q·ℓ` kernel elements.
//!
//! This crate provides that workload end to end:
//!
//! * [`ConvLayerSpec`] and [`Tensor3`] — integer images/kernels and the layer geometry;
//! * [`im2col`] — the patch-matrix construction (first operand) and kernel matrix
//!   (second operand);
//! * [`conv_direct`] — a direct (sliding-window) reference convolution;
//! * [`conv_via_matmul`] — convolution through any matrix-multiplication backend
//!   ([`MatmulBackend`]): the naive product, a recursive fast algorithm, or an actual
//!   threshold circuit from `tcmm-core`;
//! * [`conv_via_matmul_many_with`] — batched inference: one circuit per layer
//!   geometry, every image's product served through a caller's `tc_runtime`
//!   lane-group scheduler (one runtime can be shared across workloads).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod backend;
mod im2col;
mod layer;
mod tensor;

pub use backend::MatmulBackend;
pub use im2col::{im2col, kernel_matrix};
pub use layer::{conv_direct, conv_via_matmul, conv_via_matmul_many_with, ConvLayerSpec};
pub use tensor::Tensor3;
