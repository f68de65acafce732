//! Dense `f32` tensors and the linear-algebra kernels backing `deta-nn`.
//!
//! [`Tensor`] is a row-major contiguous buffer with a dynamic shape. The
//! crate deliberately avoids views, broadcasting, and lazy evaluation:
//! every kernel the neural-network stack needs (matrix products, im2col
//! convolution, pooling, reductions) is provided as an explicit eager
//! method, which keeps the backward passes in `deta-nn` easy to audit.
//!
//! # Examples
//!
//! ```
//! use deta_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! assert_eq!(a.matmul(&b).data(), a.data());
//! ```

mod conv;
pub mod gemm;
mod ops;

pub use conv::{col2im, col2im_into, im2col, im2col_into, ConvGeom};

use deta_crypto::DetRng;

/// A dense row-major `f32` tensor.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Tensor {
        Tensor {
            data: vec![value; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Tensor {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Tensor {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length does not match shape {shape:?}"
        );
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Samples i.i.d. Gaussian entries with the given standard deviation.
    pub fn randn(shape: &[usize], std: f32, rng: &mut DetRng) -> Tensor {
        let n: usize = shape.iter().product();
        let mut data = vec![0.0; n];
        rng.fill_gaussian(&mut data);
        data.iter_mut().for_each(|v| *v *= std);
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Returns the shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Returns the number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Borrows the flat data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat data buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// 2-D element accessor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or indices are out of bounds.
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Returns `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let f = Tensor::full(&[4], 2.5);
        assert!(f.data().iter().all(|&v| v == 2.5));
    }

    #[test]
    fn eye_matrix() {
        let i = Tensor::eye(3);
        assert_eq!(i.at2(0, 0), 1.0);
        assert_eq!(i.at2(0, 1), 0.0);
        assert_eq!(i.at2(2, 2), 1.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_wrong_len_panics() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = DetRng::from_u64(1);
        let mut r2 = DetRng::from_u64(1);
        let a = Tensor::randn(&[10], 1.0, &mut r1);
        let b = Tensor::randn(&[10], 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn randn_scales_with_std() {
        let mut rng = DetRng::from_u64(2);
        let t = Tensor::randn(&[10_000], 0.1, &mut rng);
        let var: f32 = t.data().iter().map(|v| v * v).sum::<f32>() / t.numel() as f32;
        assert!((var - 0.01).abs() < 0.002, "var={var}");
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[3]);
        assert!(!t.has_non_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(t.has_non_finite());
    }
}
