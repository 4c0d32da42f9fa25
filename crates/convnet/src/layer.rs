//! Convolutional layer geometry and the two convolution paths (direct vs matmul).

use crate::{im2col, kernel_matrix, MatmulBackend, Tensor3};
use fast_matmul::Matrix;
use tc_runtime::Runtime;

/// The geometry of a convolutional layer, following the description in Section 5: an
/// `n × n` image with `ℓ` channels, `K` kernels of spatial size `q × q`, applied with a
/// stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvLayerSpec {
    /// Image height/width `n`.
    pub image_size: usize,
    /// Number of input channels `ℓ`.
    pub channels: usize,
    /// Kernel spatial size `q`.
    pub kernel_size: usize,
    /// Number of kernels `K`.
    pub num_kernels: usize,
    /// Stride between patches.
    pub stride: usize,
}

impl ConvLayerSpec {
    /// Number of patch positions along one image dimension.
    pub fn patches_per_side(&self) -> usize {
        if self.image_size < self.kernel_size {
            0
        } else {
            (self.image_size - self.kernel_size) / self.stride + 1
        }
    }

    /// `P`: total number of patches (rows of the first matrix).
    pub fn num_patches(&self) -> usize {
        let side = self.patches_per_side();
        side * side
    }

    /// `Q = q·q·ℓ`: elements per kernel (columns of the first matrix).
    pub fn patch_len(&self) -> usize {
        self.kernel_size * self.kernel_size * self.channels
    }

    /// The shape `(P, Q, K)` of the induced matrix multiplication.
    pub fn matmul_shape(&self) -> (usize, usize, usize) {
        (self.num_patches(), self.patch_len(), self.num_kernels)
    }
}

/// Direct (sliding-window) convolution: for every patch and kernel, the dot product of
/// the patch with the kernel.  Returns the `P × K` score matrix (patches row-major by
/// patch position, kernels as columns).
pub fn conv_direct(spec: &ConvLayerSpec, image: &Tensor3, kernels: &[Tensor3]) -> Matrix {
    assert_eq!(kernels.len(), spec.num_kernels, "kernel count mismatch");
    let side = spec.patches_per_side();
    let mut out = Matrix::zeros(spec.num_patches(), spec.num_kernels);
    for pi in 0..side {
        for pj in 0..side {
            let patch_index = pi * side + pj;
            for (k_idx, kernel) in kernels.iter().enumerate() {
                let mut acc: i64 = 0;
                for di in 0..spec.kernel_size {
                    for dj in 0..spec.kernel_size {
                        for c in 0..spec.channels {
                            acc += image.get(pi * spec.stride + di, pj * spec.stride + dj, c)
                                * kernel.get(di, dj, c);
                        }
                    }
                }
                out.set(patch_index, k_idx, acc);
            }
        }
    }
    out
}

/// Convolution through the im2col matrix multiplication: builds the `P × Q` patch
/// matrix and `Q × K` kernel matrix and multiplies them with the chosen backend.
///
/// The result equals [`conv_direct`] exactly for every backend (the backends compute
/// exact integer products).
pub fn conv_via_matmul(
    spec: &ConvLayerSpec,
    image: &Tensor3,
    kernels: &[Tensor3],
    backend: &MatmulBackend,
) -> Result<Matrix, Box<dyn std::error::Error>> {
    let patches = im2col(spec, image);
    let kmat = kernel_matrix(spec, kernels);
    backend.multiply(&patches, &kmat)
}

/// Batched convnet inference: convolves every image with the same kernels,
/// returning one `P × K` score matrix per image.
///
/// With the threshold-circuit backend this is the serving path: one circuit
/// is generated for the layer geometry and every image's im2col product
/// rides `runtime`'s bit-sliced lane groups
/// ([`MatmulBackend::multiply_many_with`]). The host-side backends ignore
/// the runtime.
pub fn conv_via_matmul_many_with(
    runtime: &Runtime,
    spec: &ConvLayerSpec,
    images: &[Tensor3],
    kernels: &[Tensor3],
    backend: &MatmulBackend,
) -> Result<Vec<Matrix>, Box<dyn std::error::Error>> {
    backend.multiply_many_with(runtime, &conv_pairs(spec, images, kernels))
}

fn conv_pairs(
    spec: &ConvLayerSpec,
    images: &[Tensor3],
    kernels: &[Tensor3],
) -> Vec<(Matrix, Matrix)> {
    let kmat = kernel_matrix(spec, kernels);
    images
        .iter()
        .map(|image| (im2col(spec, image), kmat.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ConvLayerSpec {
        ConvLayerSpec {
            image_size: 6,
            channels: 2,
            kernel_size: 3,
            num_kernels: 4,
            stride: 1,
        }
    }

    #[test]
    fn geometry() {
        let s = spec();
        assert_eq!(s.patches_per_side(), 4);
        assert_eq!(s.num_patches(), 16);
        assert_eq!(s.patch_len(), 18);
        assert_eq!(s.matmul_shape(), (16, 18, 4));
        let strided = ConvLayerSpec { stride: 3, ..s };
        assert_eq!(strided.patches_per_side(), 2);
        let too_small = ConvLayerSpec { image_size: 2, ..s };
        assert_eq!(too_small.num_patches(), 0);
    }

    #[test]
    fn direct_convolution_known_value() {
        // 1-channel 3x3 image, single 2x2 kernel of ones: each output is the sum of a
        // 2x2 window.
        let s = ConvLayerSpec {
            image_size: 3,
            channels: 1,
            kernel_size: 2,
            num_kernels: 1,
            stride: 1,
        };
        let image = Tensor3::from_fn(3, 3, 1, |i, j, _| (i * 3 + j) as i64);
        let kernel = Tensor3::from_fn(2, 2, 1, |_, _, _| 1);
        let out = conv_direct(&s, &image, &[kernel]);
        assert_eq!(out.rows(), 4);
        assert_eq!(out.get(0, 0), 1 + 3 + 4);
        assert_eq!(out.get(3, 0), 4 + 5 + 7 + 8);
    }

    #[test]
    fn batched_inference_matches_direct_convolution() {
        let s = ConvLayerSpec {
            image_size: 4,
            channels: 1,
            kernel_size: 2,
            num_kernels: 2,
            stride: 2,
        };
        let kernels: Vec<Tensor3> = (0..s.num_kernels as u64)
            .map(|k| Tensor3::random(s.kernel_size, s.kernel_size, s.channels, 2, 100 + k))
            .collect();
        let images: Vec<Tensor3> = (0..70u64)
            .map(|i| Tensor3::random(s.image_size, s.image_size, s.channels, 2, i))
            .collect();
        let backend = MatmulBackend::ThresholdCircuit {
            algorithm: fast_matmul::BilinearAlgorithm::strassen(),
            depth_parameter: 1,
        };
        let shared = Runtime::builder().fixed_backend("sliced64").build();
        let batched =
            conv_via_matmul_many_with(&Runtime::new(), &s, &images, &kernels, &backend).unwrap();
        let on_shared =
            conv_via_matmul_many_with(&shared, &s, &images, &kernels, &backend).unwrap();
        assert_eq!(batched, on_shared);
        assert_eq!(shared.telemetry().requests, 70);
        for (image, got) in images.iter().zip(&batched) {
            assert_eq!(got, &conv_direct(&s, image, &kernels));
        }
    }

    #[test]
    fn empty_image_batches_are_served_trivially() {
        let s = spec();
        let kernels: Vec<Tensor3> = (0..s.num_kernels as u64)
            .map(|k| Tensor3::random(s.kernel_size, s.kernel_size, s.channels, 1, k))
            .collect();
        let backend = MatmulBackend::ThresholdCircuit {
            algorithm: fast_matmul::BilinearAlgorithm::strassen(),
            depth_parameter: 1,
        };
        let out = conv_via_matmul_many_with(&Runtime::new(), &s, &[], &kernels, &backend).unwrap();
        assert!(out.is_empty());
    }
}
