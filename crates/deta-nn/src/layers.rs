//! Layer implementations: linear, convolution, activations, pooling.
//!
//! All layers operate on batched inputs with a flat feature layout:
//! `[batch, features]`, where convolutional layers interpret `features` as
//! NCHW `C * H * W` according to their stored geometry.

use crate::{Layer, LayerSpec};
use deta_crypto::DetRng;
use deta_tensor::gemm::{gemm, Mat, Store};
use deta_tensor::{col2im_into, im2col_into, ConvGeom, Tensor};

/// A trainable layer's parameters: the weights `w` and bias `b`, their
/// gradients while training needs them, and whether the layer is frozen.
///
/// The gradients `[dW, db]` exist only from [`Params::zero_grad`] until
/// [`Params::release_grads`]: a record is built and replicated without
/// them, and [`crate::train::train_local`] and
/// [`crate::train::batch_gradient`] release them before they return. A
/// backward pass, an optimizer step or [`crate::Sequential::flat_grads`]
/// on a record that holds none panics, naming the layer. A frozen record
/// still holds and accumulates gradients; it is left out of the flat
/// parameter vector, the parameter count and the optimizer step.
pub struct Params {
    w: Tensor,
    b: Tensor,
    grads: Option<[Tensor; 2]>,
    frozen: bool,
    /// The owning layer's kind, for the panics.
    layer: &'static str,
}

impl Params {
    fn new(layer: &'static str, w: Tensor, b: Tensor) -> Params {
        Params {
            w,
            b,
            grads: None,
            frozen: false,
            layer,
        }
    }

    /// The weights and the bias, in flat-vector order.
    pub fn tensors(&self) -> [&Tensor; 2] {
        [&self.w, &self.b]
    }

    /// [`Params::tensors`], writable.
    pub fn tensors_mut(&mut self) -> [&mut Tensor; 2] {
        [&mut self.w, &mut self.b]
    }

    /// The gradients `[dW, db]`, parallel to [`Params::tensors`]; `None`
    /// while the record holds none.
    pub fn grads(&self) -> Option<&[Tensor; 2]> {
        self.grads.as_ref()
    }

    /// Whether the layer is frozen (excluded from updates and from the
    /// flat parameter vector). Used for transfer learning.
    pub fn frozen(&self) -> bool {
        self.frozen
    }

    /// Marks the record frozen.
    pub(crate) fn freeze(&mut self) {
        self.frozen = true;
    }

    /// Zeroes the gradients held, or allocates them zeroed, shaped like
    /// `w` and `b`.
    pub fn zero_grad(&mut self) {
        match &mut self.grads {
            // Not `scale_mut(0.0)`: NaN x 0 is NaN, and a gradient poisoned
            // in one round must not outlive it.
            Some(held) => held.iter_mut().for_each(|g| g.data_mut().fill(0.0)),
            None => {
                self.grads = Some([Tensor::zeros(self.w.shape()), Tensor::zeros(self.b.shape())])
            }
        }
    }

    /// Frees the gradients; the next [`Params::zero_grad`] allocates them
    /// again.
    pub fn release_grads(&mut self) {
        self.grads = None;
    }

    /// The gradients [`Sequential::flat_grads`](crate::Sequential::flat_grads)
    /// reads; panics like [`Params::held`].
    pub(crate) fn expect_grads(&self) -> &[Tensor; 2] {
        self.grads.as_ref().unwrap_or_else(|| no_grads(self.layer))
    }

    /// The parameters, with the gradients a backward pass or an optimizer
    /// step works on.
    ///
    /// # Panics
    ///
    /// Panics, naming the layer, when they were released and no
    /// [`Params::zero_grad`] has allocated them since: summing into, or
    /// stepping along, gradients that are not there would silently skip
    /// the update.
    pub(crate) fn held(&mut self) -> ([&mut Tensor; 2], &mut [Tensor; 2]) {
        let Some(grads) = &mut self.grads else {
            no_grads(self.layer)
        };
        ([&mut self.w, &mut self.b], grads)
    }

    /// The parameters and the frozen flag, without gradients.
    fn replica(&self) -> Params {
        Params {
            w: self.w.clone(),
            b: self.b.clone(),
            grads: None,
            frozen: self.frozen,
            layer: self.layer,
        }
    }
}

fn no_grads(layer: &str) -> ! {
    panic!(
        "{layer} holds no gradients: call zero_grad before a backward pass, an optimizer \
         step or flat_grads (training releases them when it returns)"
    )
}

/// Rows of [`add_row_sums`] summed side by side.
const FOLDS: usize = 8;

/// Adds the sum of each `len`-float row of `rows` to its element of
/// `sums`, each row summed as `row.iter().sum::<f32>()` sums it: from
/// `-0.0`, left to right. [`FOLDS`] rows at a time are folded as
/// independent chains, each add of one row waiting only on that row's
/// last, and the rows left over one by one.
fn add_row_sums(sums: &mut [f32], rows: &[f32], len: usize) {
    let (groups, rest) = sums.as_chunks_mut::<FOLDS>();
    let (group_rows, rest_rows) = rows.split_at(groups.len() * FOLDS * len);
    for (sums, rows) in groups.iter_mut().zip(group_rows.chunks_exact(FOLDS * len)) {
        let rows: [&[f32]; FOLDS] = std::array::from_fn(|i| &rows[i * len..(i + 1) * len]);
        let mut acc = [-0.0f32; FOLDS];
        for t in 0..len {
            for (acc, row) in acc.iter_mut().zip(rows) {
                *acc += row[t];
            }
        }
        for (sum, acc) in sums.iter_mut().zip(acc) {
            *sum += acc;
        }
    }
    for (sum, row) in rest.iter_mut().zip(rest_rows.chunks_exact(len)) {
        *sum += row.iter().sum::<f32>();
    }
}

/// A fully connected layer `y = x W^T + b`.
pub struct Linear {
    /// Weights of shape `[out, in]`, bias of shape `[out]`.
    params: Params,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Kaiming-style initialization.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut DetRng) -> Linear {
        let std = (2.0 / in_dim as f32).sqrt();
        let w = Tensor::randn(&[out_dim, in_dim], std, rng);
        Linear {
            params: Params::new("Linear", w, Tensor::zeros(&[out_dim])),
            cached_input: None,
        }
    }

    /// Marks the layer as frozen (excluded from training).
    pub fn freeze(mut self) -> Linear {
        self.params.freeze();
        self
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        debug_assert_eq!(input.shape().len(), 2);
        debug_assert_eq!(input.shape()[1], self.params.w.shape()[1]);
        if train {
            self.cached_input = Some(input.clone());
        }
        // y = x W^T + b.
        let mut y = input.matmul_nt(&self.params.w);
        let (batch, out) = (y.shape()[0], y.shape()[1]);
        let yd = y.data_mut();
        let bd = self.params.b.data();
        for r in 0..batch {
            for c in 0..out {
                yd[r * out + c] += bd[c];
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_params(grad_out);
        // dX = dY W.
        grad_out.matmul(&self.params.w)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let (_, [gw, gb]) = self.params.held();
        let x = self
            .cached_input
            .take()
            .expect("backward without forward(train=true)");
        // dW += dY^T X, added in the GEMM's store; db += column sums of dY.
        gemm(grad_out.mat().t(), x.mat(), gw.data_mut(), Store::Add);
        gb.axpy(1.0, &grad_out.sum_rows());
    }

    fn records<'a>(&'a self, f: &mut dyn FnMut(&'a Params)) {
        f(&self.params);
    }

    fn records_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Params)) {
        f(&mut self.params);
    }

    fn spec(&self) -> LayerSpec {
        let w = self.params.w.shape();
        LayerSpec::Linear {
            in_dim: w[1],
            out_dim: w[0],
        }
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(Linear {
            params: self.params.replica(),
            cached_input: None,
        })
    }
}

/// A 2-D convolution layer (square kernel, NCHW layout, im2col lowering).
pub struct Conv2d {
    geom: ConvGeom,
    out_c: usize,
    /// Weights of shape `[out_c, in_c * k * k]`, bias of shape `[out_c]`.
    params: Params,
    /// The im2col matrices of the last training batch, image after image.
    cached_cols: Vec<f32>,
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
        let w = Tensor::randn(&[out_c, fan_in], std, rng);
        Conv2d {
            geom,
            out_c,
            params: Params::new("Conv2d", w, Tensor::zeros(&[out_c])),
            cached_cols: Vec::new(),
        }
    }

    /// Marks the layer as frozen (excluded from training).
    pub fn freeze(mut self) -> Conv2d {
        self.params.freeze();
        self
    }

    /// Output feature count per image (`out_c * out_h * out_w`).
    pub fn out_features(&self) -> usize {
        self.out_c * self.geom.cols()
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
            gemm(
                self.params.w.mat(),
                Mat::new(cols, rows, cols_n),
                y,
                Store::Write,
            );
            for (y_row, &bias) in y.chunks_exact_mut(cols_n).zip(self.params.b.data()) {
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
        self.backward_params(grad_out);
        let batch = grad_out.shape()[0];
        let (rows, cols_n) = (self.geom.rows(), self.geom.cols());
        let feat = self.geom.in_c * self.geom.in_h * self.geom.in_w;
        let mut grad_in = vec![0.0f32; batch * feat];
        // One image's dCols, overwritten image after image.
        let mut dcols = vec![0.0f32; rows * cols_n];
        let per_image = grad_out
            .data()
            .chunks_exact(self.out_c * cols_n)
            .zip(grad_in.chunks_exact_mut(feat));
        for (gy, dimg) in per_image {
            // dCols = W^T gy; dX = col2im(dCols).
            gemm(
                self.params.w.mat().t(),
                Mat::new(gy, self.out_c, cols_n),
                &mut dcols,
                Store::Write,
            );
            col2im_into(&dcols, &self.geom, dimg);
        }
        Tensor::from_vec(grad_in, &[batch, feat])
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let (_, [gw, gb]) = self.params.held();
        let batch = grad_out.shape()[0];
        let (rows, cols_n) = (self.geom.rows(), self.geom.cols());
        let cols = std::mem::take(&mut self.cached_cols);
        assert_eq!(
            cols.len(),
            batch * rows * cols_n,
            "backward without matching forward(train=true)"
        );
        let per_image = grad_out
            .data()
            .chunks_exact(self.out_c * cols_n)
            .zip(cols.chunks_exact(rows * cols_n));
        for (gy, cols) in per_image {
            // dW += gy * cols^T: each image's product summed from zero,
            // then added to dW in the GEMM's store.
            let (gy_mat, cols_t) = (
                Mat::new(gy, self.out_c, cols_n),
                Mat::new(cols, rows, cols_n).t(),
            );
            gemm(gy_mat, cols_t, gw.data_mut(), Store::Add);
            // db += row sums of gy.
            add_row_sums(gb.data_mut(), gy, cols_n);
        }
    }

    fn records<'a>(&'a self, f: &mut dyn FnMut(&'a Params)) {
        f(&self.params);
    }

    fn records_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Params)) {
        f(&mut self.params);
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Conv2d {
            geom: self.geom,
            out_c: self.out_c,
        }
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(Conv2d {
            geom: self.geom,
            out_c: self.out_c,
            params: self.params.replica(),
            cached_cols: Vec::new(),
        })
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

    fn spec(&self) -> LayerSpec {
        LayerSpec::Other("Relu")
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(Relu::new())
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

    fn spec(&self) -> LayerSpec {
        LayerSpec::Tanh
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(Tanh::new())
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
        let has_nan = data.iter().fold(false, |seen, v| seen | v.is_nan());
        for bi in 0..batch {
            for c in 0..self.c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        // The window's own first element is the winner
                        // to beat, so a window of -inf routes its
                        // gradient inside the window.
                        let first = bi * feat + (c * self.h + oy * 2) * self.w + ox * 2;
                        let mut best_i = first;
                        let mut best_v = data[first];
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let idx = first + dy * self.w + dx;
                                if data[idx] > best_v {
                                    best_v = data[idx];
                                    best_i = idx;
                                }
                            }
                        }
                        // `>` never picks a NaN, so a window that holds
                        // one is searched again: its first NaN wins.
                        if has_nan {
                            let window = [first, first + 1, first + self.w, first + self.w + 1];
                            if let Some(&idx) = window.iter().find(|&&i| data[i].is_nan()) {
                                best_v = data[idx];
                                best_i = idx;
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

    fn spec(&self) -> LayerSpec {
        LayerSpec::Other("MaxPool2d")
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(MaxPool2d::new(self.c, self.h, self.w))
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

    fn spec(&self) -> LayerSpec {
        LayerSpec::Flatten
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(Flatten)
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

    /// Gradients of one `zero_grad` + `forward` + `backward` on `x`.
    fn grads_of_a_clean_step(layer: &mut dyn Layer, x: &Tensor) -> Vec<Tensor> {
        layer.records_mut(&mut Params::zero_grad);
        let y = layer.forward(x, true);
        layer.backward(&Tensor::full(y.shape(), 1.0));
        let mut grads = Vec::new();
        layer.records(&mut |p| grads.extend(p.grads().into_iter().flatten().cloned()));
        grads
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
        linear.params.zero_grad();
        linear.params.grads.iter_mut().flatten().for_each(plant);
        let got = grads_of_a_clean_step(&mut linear, &x);
        assert!(got.iter().all(|g| !g.has_non_finite()));
        let mut fresh = Linear::new(16, 3, &mut DetRng::from_u64(13));
        assert_eq!(got, grads_of_a_clean_step(&mut fresh, &x));

        let mut conv = Conv2d::new(1, 2, 4, 4, 3, 1, 1, &mut DetRng::from_u64(14));
        conv.params.zero_grad();
        conv.params.grads.iter_mut().flatten().for_each(plant);
        let got = grads_of_a_clean_step(&mut conv, &x);
        assert!(got.iter().all(|g| !g.has_non_finite()));
        let mut fresh = Conv2d::new(1, 2, 4, 4, 3, 1, 1, &mut DetRng::from_u64(14));
        assert_eq!(got, grads_of_a_clean_step(&mut fresh, &x));
    }

    /// The message `f` panics with.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        match (err.downcast_ref::<String>(), err.downcast_ref::<&str>()) {
            (Some(msg), _) => msg.clone(),
            (None, Some(msg)) => msg.to_string(),
            (None, None) => String::new(),
        }
    }

    #[test]
    fn released_gradients_refuse_a_backward_pass_and_a_step_by_name() {
        // Before, a released gradient was an empty tensor: the step
        // zipped over nothing and the update was skipped without a word.
        let mut rng = DetRng::from_u64(15);
        let x = Tensor::randn(&[2, 16], 1.0, &mut rng);
        let data = crate::train::LabeledData::new(x.clone(), vec![0, 1]);
        let build = |name| -> Box<dyn Layer> {
            let rng = &mut DetRng::from_u64(16);
            match name {
                "Linear" => Box::new(Linear::new(16, 2, rng)),
                _ => Box::new(Conv2d::new(1, 2, 4, 4, 3, 1, 1, rng)),
            }
        };
        for name in ["Linear", "Conv2d"] {
            let expected = format!("{name} holds no gradients");
            // A built layer holds none.
            let mut layer = build(name);
            let y = layer.forward(&x, true);
            let probe = Tensor::full(y.shape(), 1.0);
            let msg = panic_message(|| layer.backward_params(&probe));
            assert!(msg.contains(&expected), "{msg}");
            // Nor does one whose training released them.
            let mut layer = build(name);
            layer.forward(&x, true);
            layer.records_mut(&mut Params::zero_grad);
            layer.records_mut(&mut Params::release_grads);
            let msg = panic_message(|| drop(layer.backward(&probe)));
            assert!(msg.contains(&expected), "{msg}");
            let mut model = Sequential {
                layers: vec![build(name)],
            };
            crate::train::train_local(&mut model, &data, 1, 2, 0.1);
            let msg = panic_message(|| crate::sgd_step(&mut model, 0.1));
            assert!(msg.contains(&expected), "{msg}");
            let msg = panic_message(|| drop(model.flat_grads()));
            assert!(msg.contains(&expected), "{msg}");
            // `zero_grad` makes them again, and the step runs.
            model.zero_grad();
            crate::sgd_step(&mut model, 0.1);
        }
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
    fn maxpool_keeps_each_window_gradient_in_its_image() {
        // Image 1 holds an all-NaN window and an all-(-inf) window; the
        // gradient of each must land inside that window, never on
        // image 0.
        let mut p = MaxPool2d::new(1, 2, 4);
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        let image0 = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let image1 = [nan, nan, ninf, ninf, nan, nan, ninf, ninf];
        let x = Tensor::from_vec([image0, image1].concat(), &[2, 8]);
        let y = p.forward(&x, true);
        assert_eq!(y.data()[..2], [6.0, 8.0]);
        assert!(y.data()[2].is_nan(), "a NaN window must output NaN");
        assert_eq!(y.data()[3], ninf);
        let g = p.backward(&Tensor::from_vec(vec![0.0, 0.0, 1.0, 1.0], &[2, 2]));
        assert_eq!(g.data()[..8], [0.0; 8], "image 0 took image 1's gradient");
        assert_eq!(g.data()[8..], [1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
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
        assert_eq!(c.out_features(), 16 * 32 * 32);
    }

    #[test]
    fn row_sums_fold_each_row_as_iter_sum_does() {
        // Each kind of row is put at every position, so it lands in a
        // group of side-by-side folds and among the rows left over.
        let mut rng = DetRng::from_u64(0xb1a5);
        let gaussian = |rng: &mut DetRng, len| -> Vec<f32> {
            (0..len).map(|_| rng.next_gaussian() as f32).collect()
        };
        let kinds: [fn(&mut [f32]); 5] = [
            |row| row.fill(-0.0),
            |row| row[row.len() / 2] = f32::NAN,
            |row| row[0] = f32::INFINITY,
            |row| *row.last_mut().unwrap() = f32::NEG_INFINITY,
            |row| {
                row[0] = f32::INFINITY;
                *row.last_mut().unwrap() = f32::NEG_INFINITY;
            },
        ];
        for out_c in [1, 3, 4, 5, 8, 9, 16, 17] {
            for len in [1, 7, 256] {
                for (kind, special) in kinds.iter().enumerate() {
                    for at in 0..out_c {
                        let mut rows: Vec<Vec<f32>> =
                            (0..out_c).map(|_| gaussian(&mut rng, len)).collect();
                        special(&mut rows[at]);
                        let mut sums = gaussian(&mut rng, out_c);
                        sums[0] = -0.0;
                        let want: Vec<f32> = sums
                            .iter()
                            .zip(&rows)
                            .map(|(sum, row)| sum + row.iter().sum::<f32>())
                            .collect();
                        add_row_sums(&mut sums, &rows.concat(), len);
                        for (got, want) in sums.iter().zip(&want) {
                            // A NaN's payload is unspecified: only that
                            // it is NaN is compared.
                            assert!(
                                got.to_bits() == want.to_bits() || got.is_nan() && want.is_nan(),
                                "out_c {out_c}, len {len}, kind {kind} at row {at}: \
                                 {got} against {want}"
                            );
                        }
                    }
                }
            }
        }
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
