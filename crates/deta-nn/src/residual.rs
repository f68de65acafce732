//! Residual (skip) connections.
//!
//! The paper's Inverting-Gradients experiments target ResNet-18;
//! [`Residual`] brings the skip-connection structure into this stack so
//! the model zoo can express a ResNet-lite. A residual block computes
//! `y = x + f(x)` where `f` is an inner [`Sequential`] whose output shape
//! must equal its input shape.

use crate::{Layer, LayerSpec, Params, Sequential};
use deta_tensor::Tensor;

/// A residual block: `y = x + inner(x)`.
pub struct Residual {
    inner: Sequential,
}

impl Residual {
    /// Wraps an inner stack whose output shape equals its input shape.
    pub fn new(inner: Sequential) -> Residual {
        Residual { inner }
    }

    /// Marks the whole block as frozen: every record of its inner stack.
    pub fn freeze(mut self) -> Residual {
        self.inner.records_mut(&mut Params::freeze);
        self
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let fx = self.inner.forward(input, train);
        assert_eq!(
            fx.shape(),
            input.shape(),
            "residual inner stack must preserve shape"
        );
        fx.add(input)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // d/dx (x + f(x)) = I + f'(x): the gradient flows through both the
        // skip path and the inner stack.
        let inner_grad = self.inner.backward(grad_out);
        inner_grad.add(grad_out)
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        // The skip path holds no parameter.
        self.inner.backward_params(grad_out);
    }

    fn records<'a>(&'a self, f: &mut dyn FnMut(&'a Params)) {
        self.inner.records(f);
    }

    fn records_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Params)) {
        self.inner.records_mut(f);
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::Other("Residual")
    }

    fn replica(&self) -> Box<dyn Layer> {
        Box::new(Residual {
            inner: self.inner.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Linear, Tanh};
    use deta_crypto::DetRng;

    #[test]
    fn identity_inner_doubles_input() {
        // An empty inner stack makes the block y = x + x.
        let mut block = Residual::new(Sequential::new());
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]);
        let y = block.forward(&x, false);
        assert_eq!(y.data(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn skip_path_carries_gradient() {
        let mut rng = DetRng::from_u64(1);
        let inner = Sequential::new()
            .push(Linear::new(4, 4, &mut rng))
            .push(Tanh::new());
        let mut block = Residual::new(inner);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let _y = block.forward(&x, true);
        block.records_mut(&mut Params::zero_grad);
        let g = block.backward(&Tensor::full(&[2, 4], 1.0));
        // Even if the inner gradient were zero, the skip contributes 1.
        assert!(g.data().iter().all(|&v| v.is_finite()));
        assert!(g.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gradient_check_residual_mlp() {
        let mut rng = DetRng::from_u64(2);
        let inner = Sequential::new()
            .push(Linear::new(5, 5, &mut rng))
            .push(Tanh::new());
        let mut model = Sequential::new()
            .push(Residual::new(inner))
            .push(Linear::new(5, 2, &mut rng));
        let x = Tensor::randn(&[2, 5], 1.0, &mut rng);
        let out = model.forward(&x, true);
        let probe = Tensor::randn(out.shape(), 1.0, &mut rng);
        model.zero_grad();
        model.backward(&probe);
        let analytic = model.flat_grads();
        let params = model.flat_params();
        let eps = 1e-3f32;
        for i in (0..params.len()).step_by(3) {
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
            let denom = numeric.abs().max(analytic[i].abs()).max(1.0);
            assert!(
                (numeric - analytic[i]).abs() / denom < 2e-2,
                "param {i}: {numeric} vs {}",
                analytic[i]
            );
        }
    }

    #[test]
    fn residual_conv_block_trains() {
        use crate::models::resnet_lite;
        use crate::train::{evaluate, train_local, LabeledData};
        let mut rng = DetRng::from_u64(3);
        let mut model = resnet_lite(1, 8, 3, &mut rng);
        // A separable 3-class toy problem on 8x8 images.
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        let mut drng = DetRng::from_u64(4);
        for i in 0..120 {
            let class = i % 3;
            for p in 0..64 {
                let base = if p % 3 == class { 0.9 } else { 0.1 };
                feats.push(base + drng.next_f32() * 0.1);
            }
            labels.push(class);
        }
        let data = LabeledData::new(Tensor::from_vec(feats, &[120, 64]), labels);
        train_local(&mut model, &data, 4, 16, 0.1);
        let (_, acc) = evaluate(&mut model, &data, 60);
        assert!(
            acc > 0.8,
            "resnet-lite should learn the toy task, acc={acc}"
        );
    }

    #[test]
    #[should_panic]
    fn shape_changing_inner_panics() {
        let mut rng = DetRng::from_u64(5);
        let inner = Sequential::new().push(Linear::new(4, 3, &mut rng));
        let mut block = Residual::new(inner);
        block.forward(&Tensor::zeros(&[1, 4]), false);
    }

    #[test]
    fn frozen_block_excluded_from_params() {
        let mut rng = DetRng::from_u64(6);
        let inner = Sequential::new().push(Linear::new(4, 4, &mut rng));
        let mut model = Sequential::new()
            .push(Residual::new(inner).freeze())
            .push(Linear::new(4, 2, &mut rng));
        assert_eq!(model.param_count(), 4 * 2 + 2);
        // The block's record is frozen, yet it still takes gradients:
        // only the flat vector, the count and the step pass it by.
        let mut frozen = Vec::new();
        model.records(&mut |p| frozen.push(p.frozen()));
        assert_eq!(frozen, [true, false]);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let y = model.forward(&x, true);
        model.zero_grad();
        model.backward(&Tensor::full(y.shape(), 1.0));
        let mut moved = Vec::new();
        model.records(&mut |p| {
            let dw = p.grads().map(|[dw, _]| dw.data());
            moved.push(dw.is_some_and(|dw| dw.iter().any(|&g| g != 0.0)));
        });
        assert_eq!(moved, [true, true]);
        assert_eq!(model.flat_grads().len(), model.param_count());
    }

    #[test]
    fn conv_residual_gradient_check() {
        let mut rng = DetRng::from_u64(7);
        let inner = Sequential::new()
            .push(Conv2d::new(2, 2, 4, 4, 3, 1, 1, &mut rng))
            .push(Tanh::new());
        let mut model = Sequential::new()
            .push(Residual::new(inner))
            .push(Linear::new(2 * 16, 2, &mut rng));
        let x = Tensor::randn(&[1, 32], 0.5, &mut rng);
        let out = model.forward(&x, true);
        let probe = Tensor::randn(out.shape(), 1.0, &mut rng);
        model.zero_grad();
        model.backward(&probe);
        let analytic = model.flat_grads();
        let params = model.flat_params();
        let eps = 1e-3f32;
        for i in (0..params.len()).step_by(7) {
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
            let denom = numeric.abs().max(analytic[i].abs()).max(1.0);
            assert!(
                (numeric - analytic[i]).abs() / denom < 2e-2,
                "param {i}: {numeric} vs {}",
                analytic[i]
            );
        }
    }
}
