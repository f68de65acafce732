//! Element-wise operations, matrix products, and reductions.

use crate::gemm::{gemm, Mat};
use crate::Tensor;

/// `a x b` as a fresh tensor; the three `matmul` variants differ only in
/// which operand they view transposed.
fn product(a: Mat, b: Mat) -> Tensor {
    let shape = vec![a.rows(), b.cols()];
    let mut data = vec![0.0f32; a.rows() * b.cols()];
    gemm(a, b, &mut data);
    Tensor { data, shape }
}

impl Tensor {
    /// Element-wise addition.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Scalar multiplication.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|v| v * alpha)
    }

    /// In-place scalar multiplication.
    pub fn scale_mut(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Applies a function element-wise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&v| f(v)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Combines two same-shaped tensors element-wise.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_with(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        Tensor {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Index of the maximum element (first on ties).
    ///
    /// # Panics
    ///
    /// Panics on an empty tensor.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty());
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Borrows a 2-D tensor as a strided matrix for [`gemm`].
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn mat(&self) -> Mat<'_> {
        assert_eq!(self.shape.len(), 2, "matrix operand must be 2-D");
        Mat::new(&self.data, self.shape[0], self.shape[1])
    }

    /// Matrix product of two 2-D tensors: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        product(self.mat(), other.mat())
    }

    /// Computes `self^T x other`: `[k, m]^T x [k, n] -> [m, n]`.
    ///
    /// Used by backward passes; avoids materializing the transpose.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        product(self.mat().t(), other.mat())
    }

    /// Computes `self x other^T`: `[m, k] x [n, k]^T -> [m, n]`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        product(self.mat(), other.mat().t())
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            data: out,
            shape: vec![n, m],
        }
    }

    /// Row-wise softmax of a 2-D tensor (numerically stabilized).
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &self.data[i * n..(i + 1) * n];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (j, &v) in row.iter().enumerate() {
                let e = (v - max).exp();
                out[i * n + j] = e;
                denom += e;
            }
            for v in &mut out[i * n..(i + 1) * n] {
                *v /= denom;
            }
        }
        Tensor {
            data: out,
            shape: vec![m, n],
        }
    }

    /// Sums each column of a 2-D tensor, yielding a `[n]` vector.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            for (j, o) in out.iter_mut().enumerate() {
                *o += self.data[i * n + j];
            }
        }
        Tensor {
            data: out,
            shape: vec![n],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(data: &[f32], r: usize, c: usize) -> Tensor {
        Tensor::from_vec(data.to_vec(), &[r, c])
    }

    #[test]
    fn elementwise_ops() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t2(&[4.0, 3.0, 2.0, 1.0], 2, 2);
        assert_eq!(a.add(&b).data(), &[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(a.sub(&b).data(), &[-3.0, -1.0, 1.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 6.0, 6.0, 4.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t2(&[1.0, 1.0], 1, 2);
        let b = t2(&[2.0, 3.0], 1, 2);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, 2.5]);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        a.add(&b);
    }

    #[test]
    fn matmul_known() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t2(&[5.0, 6.0, 7.0, 8.0], 2, 2);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        assert_eq!(a.matmul(&Tensor::eye(3)).data(), a.data());
    }

    #[test]
    fn matmul_rectangular() {
        let a = t2(&[1.0, 2.0, 3.0], 1, 3);
        let b = t2(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0], 3, 2);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[1, 2]);
        assert_eq!(c.data(), &[4.0, 5.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 3, 2);
        let b = t2(&[1.0, -1.0, 2.0, 0.5, 0.0, 3.0], 3, 2);
        assert_eq!(a.matmul_tn(&b), a.transpose2().matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let b = t2(&[0.5, -1.0, 2.0, 1.5], 2, 2);
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose2()));
    }

    #[test]
    fn transpose_involution() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3);
        assert_eq!(a.transpose2().transpose2(), a);
    }

    #[test]
    fn softmax_rows_normalized() {
        let a = t2(&[1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0], 2, 3);
        let s = a.softmax_rows();
        for i in 0..2 {
            let row_sum: f32 = (0..3).map(|j| s.at2(i, j)).sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        // Large logits must not overflow.
        assert!((s.at2(1, 0) - 1.0 / 3.0).abs() < 1e-5);
        // Monotone in the logits.
        assert!(s.at2(0, 2) > s.at2(0, 1));
    }

    #[test]
    fn reductions() {
        let a = t2(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sq_norm(), 30.0);
        assert_eq!(a.argmax(), 3);
        assert_eq!(a.sum_rows().data(), &[4.0, 6.0]);
    }

    #[test]
    fn argmax_first_on_ties() {
        let a = Tensor::from_vec(vec![1.0, 3.0, 3.0], &[3]);
        assert_eq!(a.argmax(), 1);
    }
}
