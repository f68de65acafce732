//! Layer implementations: linear, convolution, activations, pooling.
//!
//! All layers operate on batched inputs with a flat feature layout:
//! `[batch, features]`, where convolutional layers interpret `features` as
//! NCHW `C * H * W` according to their stored geometry.

use crate::Layer;
use deta_crypto::DetRng;
use deta_tensor::gemm::{gemm, Mat};
use deta_tensor::{col2im_into, im2col_into, ConvGeom, Tensor};

/// A fully connected layer `y = x W^T + b`.
pub struct Linear {
    /// Weights, shape `[out, in]`.
    w: Tensor,
    /// Bias, shape `[out]`.
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    cached_input: Option<Tensor>,
    frozen: bool,
}

impl Linear {
    /// Creates a layer with Kaiming-style initialization.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut DetRng) -> Linear {
        let std = (2.0 / in_dim as f32).sqrt();
        Linear {
            w: Tensor::randn(&[out_dim, in_dim], std, rng),
            b: Tensor::zeros(&[out_dim]),
            gw: Tensor::zeros(&[out_dim, in_dim]),
            gb: Tensor::zeros(&[out_dim]),
            cached_input: None,
            frozen: false,
        }
    }

    /// Marks the layer as frozen (excluded from training).
    pub fn freeze(mut self) -> Linear {
        self.frozen = true;
        self
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.shape()[1]
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.shape()[0]
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        debug_assert_eq!(input.shape().len(), 2);
        debug_assert_eq!(input.shape()[1], self.in_dim());
        if train {
            self.cached_input = Some(input.clone());
        }
        // y = x W^T + b.
        let mut y = input.matmul_nt(&self.w);
        let (batch, out) = (y.shape()[0], y.shape()[1]);
        let yd = y.data_mut();
        let bd = self.b.data();
        for r in 0..batch {
            for c in 0..out {
                yd[r * out + c] += bd[c];
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("backward without forward(train=true)");
        // dW = dY^T X, db = column sums of dY, dX = dY W.
        self.gw.axpy(1.0, &grad_out.matmul_tn(&x));
        self.gb.axpy(1.0, &grad_out.sum_rows());
        grad_out.matmul(&self.w)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.gw, &self.gb]
    }

    fn zero_grad(&mut self) {
        // Not `scale_mut(0.0)`: NaN x 0 is NaN, and a gradient poisoned
        // in one round must not outlive it.
        self.gw.data_mut().fill(0.0);
        self.gb.data_mut().fill(0.0);
    }

    fn update_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.w, &self.gw);
        f(&mut self.b, &self.gb);
    }

    fn name(&self) -> &'static str {
        "Linear"
    }

    fn frozen(&self) -> bool {
        self.frozen
    }
}

/// A 2-D convolution layer (square kernel, NCHW layout, im2col lowering).
pub struct Conv2d {
    geom: ConvGeom,
    out_c: usize,
    /// Weights, shape `[out_c, in_c * k * k]`.
    w: Tensor,
    /// Bias, shape `[out_c]`.
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    /// The im2col matrices of the last training batch, image after image.
    cached_cols: Vec<f32>,
    frozen: bool,
}

impl Conv2d {
    /// Creates a convolution layer.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_c: usize,
        out_c: usize,
        in_h: usize,
        in_w: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut DetRng,
    ) -> Conv2d {
        let geom = ConvGeom {
            in_c,
            in_h,
            in_w,
            k,
            stride,
            pad,
        };
        let fan_in = in_c * k * k;
        let std = (2.0 / fan_in as f32).sqrt();
        Conv2d {
            geom,
            out_c,
            w: Tensor::randn(&[out_c, fan_in], std, rng),
            b: Tensor::zeros(&[out_c]),
            gw: Tensor::zeros(&[out_c, fan_in]),
            gb: Tensor::zeros(&[out_c]),
            cached_cols: Vec::new(),
            frozen: false,
        }
    }

    /// Marks the layer as frozen (excluded from training).
    pub fn freeze(mut self) -> Conv2d {
        self.frozen = true;
        self
    }

    /// Output feature count per image (`out_c * out_h * out_w`).
    pub fn out_features(&self) -> usize {
        self.out_c * self.geom.cols()
    }

    /// Output spatial dimensions `(out_c, out_h, out_w)`.
    pub fn out_dims(&self) -> (usize, usize, usize) {
        (self.out_c, self.geom.out_h(), self.geom.out_w())
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let batch = input.shape()[0];
        let feat = self.geom.in_c * self.geom.in_h * self.geom.in_w;
        debug_assert_eq!(input.shape()[1], feat, "conv input feature mismatch");
        let (rows, cols_n) = (self.geom.rows(), self.geom.cols());
        let out_feat = self.out_c * cols_n;
        let mut out = vec![0.0f32; batch * out_feat];
        // Training keeps every image's patch matrix for `backward`;
        // evaluation lowers each image into the same one.
        let (slots, step) = if train {
            (batch, rows * cols_n)
        } else {
            (1, 0)
        };
        let mut cols = vec![0.0f32; slots * rows * cols_n];
        let images = input.data().chunks_exact(feat);
        for (bi, (img, y)) in images.zip(out.chunks_exact_mut(out_feat)).enumerate() {
            let cols = &mut cols[bi * step..][..rows * cols_n];
            im2col_into(img, &self.geom, cols);
            // y = W * cols + b, shape [out_c, cols_n].
            gemm(self.w.mat(), Mat::new(cols, rows, cols_n), y);
            for (y_row, &bias) in y.chunks_exact_mut(cols_n).zip(self.b.data()) {
                for v in y_row {
                    *v += bias;
                }
            }
        }
        if train {
            self.cached_cols = cols;
        }
        Tensor::from_vec(out, &[batch, out_feat])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let batch = grad_out.shape()[0];
        let (rows, cols_n) = (self.geom.rows(), self.geom.cols());
        let cols = std::mem::take(&mut self.cached_cols);
        assert_eq!(
            cols.len(),
            batch * rows * cols_n,
            "backward without matching forward(train=true)"
        );
        let feat = self.geom.in_c * self.geom.in_h * self.geom.in_w;
        let out_feat = self.out_c * cols_n;
        let mut grad_in = vec![0.0f32; batch * feat];
        // One image's dW and dCols, overwritten image after image.
        let mut dw = Tensor::zeros(&[self.out_c, rows]);
        let mut dcols = vec![0.0f32; rows * cols_n];
        let per_image = grad_out
            .data()
            .chunks_exact(out_feat)
            .zip(cols.chunks_exact(rows * cols_n))
            .zip(grad_in.chunks_exact_mut(feat));
        for ((gy, cols), dimg) in per_image {
            let gy_mat = Mat::new(gy, self.out_c, cols_n);
            // dW += gy * cols^T, each image's product summed from zero.
            gemm(gy_mat, Mat::new(cols, rows, cols_n).t(), dw.data_mut());
            self.gw.axpy(1.0, &dw);
            // db += row sums of gy.
            for (g, gy_row) in self.gb.data_mut().iter_mut().zip(gy.chunks_exact(cols_n)) {
                *g += gy_row.iter().sum::<f32>();
            }
            // dCols = W^T gy; dX = col2im(dCols).
            gemm(self.w.mat().t(), gy_mat, &mut dcols);
            col2im_into(&dcols, &self.geom, dimg);
        }
        Tensor::from_vec(grad_in, &[batch, feat])
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.gw, &self.gb]
    }

    fn zero_grad(&mut self) {
        // Not `scale_mut(0.0)`: NaN x 0 is NaN, and a gradient poisoned
        // in one round must not outlive it.
        self.gw.data_mut().fill(0.0);
        self.gb.data_mut().fill(0.0);
    }

    fn update_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        f(&mut self.w, &self.gw);
        f(&mut self.b, &self.gb);
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn frozen(&self) -> bool {
        self.frozen
    }
}

/// ReLU activation.
#[derive(Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Relu {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            self.mask = Some(input.data().iter().map(|&v| v > 0.0).collect());
        }
        input.map(|v| v.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self
            .mask
            .take()
            .expect("backward without forward(train=true)");
        let data = grad_out
            .data()
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_out.shape())
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "Relu"
    }
}

/// Tanh activation (used by the attack-facing LeNet variant, which must be
/// twice differentiable as the DLG paper requires).
#[derive(Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates a Tanh layer.
    pub fn new() -> Tanh {
        Tanh::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let y = input.map(f32::tanh);
        if train {
            self.cached_output = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .cached_output
            .take()
            .expect("backward without forward(train=true)");
        grad_out.zip_with(&y, |g, t| g * (1.0 - t * t))
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "Tanh"
    }
}

/// 2x2 max pooling with stride 2 over NCHW features.
pub struct MaxPool2d {
    c: usize,
    h: usize,
    w: usize,
    /// Cached winner indices per batch element.
    argmax: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a pooling layer for inputs of shape `[C, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if `h` or `w` is odd.
    pub fn new(c: usize, h: usize, w: usize) -> MaxPool2d {
        assert!(
            h.is_multiple_of(2) && w.is_multiple_of(2),
            "MaxPool2d requires even H and W"
        );
        MaxPool2d {
            c,
            h,
            w,
            argmax: None,
        }
    }

    /// Output feature count per image.
    pub fn out_features(&self) -> usize {
        self.c * (self.h / 2) * (self.w / 2)
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let batch = input.shape()[0];
        let feat = self.c * self.h * self.w;
        debug_assert_eq!(input.shape()[1], feat);
        let (oh, ow) = (self.h / 2, self.w / 2);
        let out_feat = self.c * oh * ow;
        let mut out = vec![0.0f32; batch * out_feat];
        let mut winners = vec![0usize; batch * out_feat];
        let data = input.data();
        for bi in 0..batch {
            for c in 0..self.c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best_v = f32::NEG_INFINITY;
                        let mut best_i = 0usize;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let iy = oy * 2 + dy;
                                let ix = ox * 2 + dx;
                                let idx = bi * feat + (c * self.h + iy) * self.w + ix;
                                if data[idx] > best_v {
                                    best_v = data[idx];
                                    best_i = idx;
                                }
                            }
                        }
                        let oidx = bi * out_feat + (c * oh + oy) * ow + ox;
                        out[oidx] = best_v;
                        winners[oidx] = best_i;
                    }
                }
            }
        }
        if train {
            self.argmax = Some(winners);
        }
        Tensor::from_vec(out, &[batch, out_feat])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let winners = self
            .argmax
            .take()
            .expect("backward without forward(train=true)");
        let batch = grad_out.shape()[0];
        let feat = self.c * self.h * self.w;
        let mut grad_in = vec![0.0f32; batch * feat];
        for (o, &win) in grad_out.data().iter().zip(winners.iter()) {
            grad_in[win] += o;
        }
        Tensor::from_vec(grad_in, &[batch, feat])
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "MaxPool2d"
    }
}

/// 2x2 average pooling with stride 2 over NCHW features.
pub struct AvgPool2d {
    c: usize,
    h: usize,
    w: usize,
}

impl AvgPool2d {
    /// Creates a pooling layer for inputs of shape `[C, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if `h` or `w` is odd.
    pub fn new(c: usize, h: usize, w: usize) -> AvgPool2d {
        assert!(
            h.is_multiple_of(2) && w.is_multiple_of(2),
            "AvgPool2d requires even H and W"
        );
        AvgPool2d { c, h, w }
    }

    /// Output feature count per image.
    pub fn out_features(&self) -> usize {
        self.c * (self.h / 2) * (self.w / 2)
    }
}

impl Layer for AvgPool2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        let batch = input.shape()[0];
        let feat = self.c * self.h * self.w;
        debug_assert_eq!(input.shape()[1], feat);
        let (oh, ow) = (self.h / 2, self.w / 2);
        let out_feat = self.c * oh * ow;
        let mut out = vec![0.0f32; batch * out_feat];
        let data = input.data();
        for bi in 0..batch {
            for c in 0..self.c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0f32;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let iy = oy * 2 + dy;
                                let ix = ox * 2 + dx;
                                acc += data[bi * feat + (c * self.h + iy) * self.w + ix];
                            }
                        }
                        out[bi * out_feat + (c * oh + oy) * ow + ox] = acc / 4.0;
                    }
                }
            }
        }
        Tensor::from_vec(out, &[batch, out_feat])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let batch = grad_out.shape()[0];
        let feat = self.c * self.h * self.w;
        let (oh, ow) = (self.h / 2, self.w / 2);
        let out_feat = self.c * oh * ow;
        let mut grad_in = vec![0.0f32; batch * feat];
        let god = grad_out.data();
        for bi in 0..batch {
            for c in 0..self.c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = god[bi * out_feat + (c * oh + oy) * ow + ox] / 4.0;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let iy = oy * 2 + dy;
                                let ix = ox * 2 + dx;
                                grad_in[bi * feat + (c * self.h + iy) * self.w + ix] += g;
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(grad_in, &[batch, feat])
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "AvgPool2d"
    }
}

/// A no-op layer marking the conv-to-dense boundary.
///
/// The flat NCHW layout makes flattening a no-op; this layer exists so
/// model definitions read like their PyTorch counterparts.
#[derive(Default)]
pub struct Flatten;

impl Flatten {
    /// Creates a flatten marker layer.
    pub fn new() -> Flatten {
        Flatten
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        input.clone()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone()
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "Flatten"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sequential;

    /// Numerically checks `d loss / d param` for every parameter of a
    /// model against backprop, where `loss = sum(model(x) * probe)`.
    fn gradient_check(mut model: Sequential, in_dim: usize) {
        let mut rng = DetRng::from_u64(99);
        let x = Tensor::randn(&[2, in_dim], 1.0, &mut rng);
        let out = model.forward(&x, true);
        let probe = Tensor::randn(out.shape(), 1.0, &mut rng);
        model.zero_grad();
        model.backward(&probe);
        let analytic = model.flat_grads();
        let params = model.flat_params();
        let eps = 1e-3f32;
        // Check a deterministic sample of parameters to bound runtime.
        let step = (params.len() / 25).max(1);
        for i in (0..params.len()).step_by(step) {
            let mut plus = params.clone();
            plus[i] += eps;
            model.set_flat_params(&plus);
            let fp: f32 = model
                .forward(&x, false)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum();
            let mut minus = params.clone();
            minus[i] -= eps;
            model.set_flat_params(&minus);
            let fm: f32 = model
                .forward(&x, false)
                .data()
                .iter()
                .zip(probe.data())
                .map(|(a, b)| a * b)
                .sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic[i];
            let denom = numeric.abs().max(a.abs()).max(1.0);
            assert!(
                (numeric - a).abs() / denom < 2e-2,
                "param {i}: numeric {numeric} vs analytic {a}"
            );
        }
    }

    #[test]
    fn linear_gradient_check() {
        let mut rng = DetRng::from_u64(1);
        gradient_check(Sequential::new().push(Linear::new(6, 4, &mut rng)), 6);
    }

    #[test]
    fn mlp_gradient_check() {
        let mut rng = DetRng::from_u64(2);
        let m = Sequential::new()
            .push(Linear::new(6, 10, &mut rng))
            .push(Tanh::new())
            .push(Linear::new(10, 4, &mut rng));
        gradient_check(m, 6);
    }

    #[test]
    fn relu_mlp_gradient_check() {
        let mut rng = DetRng::from_u64(3);
        let m = Sequential::new()
            .push(Linear::new(5, 12, &mut rng))
            .push(Relu::new())
            .push(Linear::new(12, 3, &mut rng));
        gradient_check(m, 5);
    }

    #[test]
    fn conv_gradient_check() {
        let mut rng = DetRng::from_u64(4);
        let m = Sequential::new().push(Conv2d::new(2, 3, 6, 6, 3, 1, 1, &mut rng));
        gradient_check(m, 2 * 6 * 6);
    }

    #[test]
    fn conv_strided_gradient_check() {
        let mut rng = DetRng::from_u64(5);
        // Tanh (not ReLU) keeps the function smooth so the finite
        // difference converges to the analytic gradient.
        let m = Sequential::new()
            .push(Conv2d::new(1, 4, 8, 8, 3, 2, 1, &mut rng))
            .push(Tanh::new())
            .push(Linear::new(4 * 4 * 4, 3, &mut rng));
        gradient_check(m, 64);
    }

    #[test]
    fn maxpool_gradient_check() {
        let mut rng = DetRng::from_u64(6);
        let m = Sequential::new()
            .push(Conv2d::new(1, 2, 4, 4, 3, 1, 1, &mut rng))
            .push(MaxPool2d::new(2, 4, 4))
            .push(Linear::new(2 * 2 * 2, 2, &mut rng));
        gradient_check(m, 16);
    }

    #[test]
    fn avgpool_gradient_check() {
        let mut rng = DetRng::from_u64(7);
        let m = Sequential::new()
            .push(AvgPool2d::new(1, 4, 4))
            .push(Linear::new(4, 2, &mut rng));
        gradient_check(m, 16);
    }

    /// Gradients of one `zero_grad` + `forward` + `backward` on `x`.
    fn grads_of_a_clean_step(layer: &mut dyn Layer, x: &Tensor) -> Vec<Tensor> {
        layer.zero_grad();
        let y = layer.forward(x, true);
        layer.backward(&Tensor::full(y.shape(), 1.0));
        layer.grads().into_iter().cloned().collect()
    }

    #[test]
    fn zero_grad_clears_non_finite_gradients() {
        // One poisoned round must not outlive its `zero_grad`: NaN x 0
        // is NaN, so the reset has to overwrite, not scale.
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let plant = |t: &mut Tensor| {
            for (v, p) in t.data_mut().iter_mut().zip(poison.iter().cycle()) {
                *v = *p;
            }
        };
        let mut rng = DetRng::from_u64(12);
        let x = Tensor::randn(&[2, 16], 1.0, &mut rng);

        let mut linear = Linear::new(16, 3, &mut DetRng::from_u64(13));
        plant(&mut linear.gw);
        plant(&mut linear.gb);
        let got = grads_of_a_clean_step(&mut linear, &x);
        assert!(got.iter().all(|g| !g.has_non_finite()));
        let mut fresh = Linear::new(16, 3, &mut DetRng::from_u64(13));
        assert_eq!(got, grads_of_a_clean_step(&mut fresh, &x));

        let mut conv = Conv2d::new(1, 2, 4, 4, 3, 1, 1, &mut DetRng::from_u64(14));
        plant(&mut conv.gw);
        plant(&mut conv.gb);
        let got = grads_of_a_clean_step(&mut conv, &x);
        assert!(got.iter().all(|g| !g.has_non_finite()));
        let mut fresh = Conv2d::new(1, 2, 4, 4, 3, 1, 1, &mut DetRng::from_u64(14));
        assert_eq!(got, grads_of_a_clean_step(&mut fresh, &x));
    }

    #[test]
    fn relu_zeroes_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[1, 3]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = r.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 3]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_selects_max() {
        let mut p = MaxPool2d::new(1, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0], &[1, 4]);
        let y = p.forward(&x, true);
        assert_eq!(y.data(), &[5.0]);
        let g = p.backward(&Tensor::from_vec(vec![1.0], &[1, 1]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn avgpool_averages() {
        let mut p = AvgPool2d::new(1, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 6.0], &[1, 4]);
        let y = p.forward(&x, false);
        assert_eq!(y.data(), &[3.0]);
    }

    #[test]
    fn frozen_layers_excluded_from_flat_params() {
        let mut rng = DetRng::from_u64(8);
        let m = Sequential::new()
            .push(Linear::new(4, 4, &mut rng).freeze())
            .push(Linear::new(4, 2, &mut rng));
        assert_eq!(m.param_count(), 4 * 2 + 2);
        assert_eq!(m.flat_params().len(), 10);
    }

    #[test]
    fn conv_output_dims() {
        let mut rng = DetRng::from_u64(9);
        let c = Conv2d::new(3, 16, 32, 32, 3, 1, 1, &mut rng);
        assert_eq!(c.out_dims(), (16, 32, 32));
        assert_eq!(c.out_features(), 16 * 32 * 32);
    }

    #[test]
    fn batch_independence() {
        // Running a batch of 2 must equal running the two samples alone.
        let mut rng = DetRng::from_u64(10);
        let mut m = Sequential::new()
            .push(Conv2d::new(1, 2, 4, 4, 3, 1, 1, &mut rng))
            .push(Relu::new())
            .push(Linear::new(2 * 16, 3, &mut rng));
        let mut rng2 = DetRng::from_u64(11);
        let a = Tensor::randn(&[1, 16], 1.0, &mut rng2);
        let b = Tensor::randn(&[1, 16], 1.0, &mut rng2);
        let mut both = a.data().to_vec();
        both.extend_from_slice(b.data());
        let batch = Tensor::from_vec(both, &[2, 16]);
        let ya = m.forward(&a, false);
        let yb = m.forward(&b, false);
        let yab = m.forward(&batch, false);
        for j in 0..3 {
            assert!((ya.at2(0, j) - yab.at2(0, j)).abs() < 1e-5);
            assert!((yb.at2(0, j) - yab.at2(1, j)).abs() < 1e-5);
        }
    }
}
