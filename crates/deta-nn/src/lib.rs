//! From-scratch CPU neural network stack.
//!
//! This crate provides the training substrate for the DeTA reproduction:
//! explicit forward/backward layers over [`deta_tensor::Tensor`], a
//! [`Sequential`] container, softmax cross-entropy loss, SGD, and the model
//! zoo used in the paper's evaluation (an 8-layer MNIST ConvNet, a 23-layer
//! CIFAR ConvNet, a VGG-lite transfer model, and the small LeNet used by
//! the gradient-inversion attack experiments).
//!
//! The central artifact for federated learning is the **flat parameter
//! vector**: [`Sequential::flat_params`] serializes every trainable weight
//! into one `Vec<f32>` in a deterministic order, and
//! [`Sequential::set_flat_params`] restores it. DeTA's model mapper
//! partitions and shuffles exactly this vector.

pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
pub mod residual;
pub mod train;

pub use layers::{AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d, Relu, Tanh};
pub use loss::softmax_cross_entropy;
pub use optim::Sgd;
pub use residual::Residual;

use deta_tensor::Tensor;

/// A differentiable layer with explicit forward and backward passes.
///
/// `forward` caches whatever activations the backward pass needs;
/// `backward` consumes the cached state, accumulates parameter gradients
/// internally, and returns the gradient with respect to the layer input.
pub trait Layer: Send {
    /// Computes the layer output for a batch.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out`, returning the input gradient.
    ///
    /// Must be called after a `forward` with `train = true`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Immutable views of the trainable parameters (may be empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable views of the trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Immutable views of the accumulated parameter gradients,
    /// parallel to [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor>;

    /// Clears accumulated gradients.
    fn zero_grad(&mut self);

    /// Calls `f` on every parameter together with its gradient, in the
    /// order of [`Layer::params`], so an optimizer can update in place.
    /// Layers without parameters keep this default.
    fn update_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &Tensor)) {}

    /// Human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// Whether the parameters are frozen (excluded from updates and from
    /// the flat parameter vector). Used for transfer learning.
    fn frozen(&self) -> bool {
        false
    }
}

/// A feed-forward stack of layers.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Sequential {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Sequential {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs the forward pass over all layers.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        // The first layer reads the caller's batch; only an empty model
        // has to copy it.
        let mut layers = self.layers.iter_mut();
        let Some(first) = layers.next() else {
            return input.clone();
        };
        let mut x = first.forward(input, train);
        for layer in layers {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Runs the backward pass over all layers in reverse.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut layers = self.layers.iter_mut().rev();
        let Some(last) = layers.next() else {
            return grad_out.clone();
        };
        let mut g = last.backward(grad_out);
        for layer in layers {
            g = layer.backward(&g);
        }
        g
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Total number of trainable (non-frozen) parameters.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| !l.frozen())
            .flat_map(|l| l.params())
            .map(|p| p.numel())
            .sum()
    }

    /// Serializes all trainable parameters into one flat vector.
    ///
    /// The order is deterministic: layers in sequence, each layer's
    /// parameters in its declared order, row-major within each tensor.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            if layer.frozen() {
                continue;
            }
            for p in layer.params() {
                out.extend_from_slice(p.data());
            }
        }
        out
    }

    /// Restores trainable parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` does not equal [`Sequential::param_count`].
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat parameter length mismatch"
        );
        let mut off = 0;
        for layer in &mut self.layers {
            if layer.frozen() {
                continue;
            }
            for p in layer.params_mut() {
                let n = p.numel();
                p.data_mut().copy_from_slice(&flat[off..off + n]);
                off += n;
            }
        }
    }

    /// Serializes all accumulated gradients (trainable layers only) into a
    /// flat vector parallel to [`Sequential::flat_params`].
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            if layer.frozen() {
                continue;
            }
            for g in layer.grads() {
                out.extend_from_slice(g.data());
            }
        }
        out
    }

    /// Applies an SGD-style update `p -= lr * g` from a flat gradient.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn apply_flat_grads(&mut self, flat: &[f32], lr: f32) {
        assert_eq!(
            flat.len(),
            self.param_count(),
            "flat gradient length mismatch"
        );
        let mut off = 0;
        for layer in &mut self.layers {
            if layer.frozen() {
                continue;
            }
            for p in layer.params_mut() {
                let n = p.numel();
                for (w, g) in p.data_mut().iter_mut().zip(&flat[off..off + n]) {
                    *w -= lr * g;
                }
                off += n;
            }
        }
    }

    /// Calls `f` on every trainable parameter together with its
    /// accumulated gradient, in [`Sequential::flat_params`] order.
    pub fn update_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &Tensor)) {
        for layer in self.layers.iter_mut().filter(|l| !l.frozen()) {
            layer.update_params(f);
        }
    }

    /// Iterates over layers (for inspection).
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to layers.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deta_crypto::DetRng;

    fn tiny_model(rng: &mut DetRng) -> Sequential {
        Sequential::new()
            .push(Linear::new(4, 8, rng))
            .push(Relu::new())
            .push(Linear::new(8, 3, rng))
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut rng = DetRng::from_u64(1);
        let mut m = tiny_model(&mut rng);
        let flat = m.flat_params();
        assert_eq!(flat.len(), m.param_count());
        assert_eq!(flat.len(), 4 * 8 + 8 + 8 * 3 + 3);
        let mut changed = flat.clone();
        for v in &mut changed {
            *v += 1.0;
        }
        m.set_flat_params(&changed);
        assert_eq!(m.flat_params(), changed);
    }

    #[test]
    #[should_panic]
    fn set_flat_params_wrong_len_panics() {
        let mut rng = DetRng::from_u64(1);
        let mut m = tiny_model(&mut rng);
        m.set_flat_params(&[0.0; 3]);
    }

    #[test]
    fn forward_shapes() {
        let mut rng = DetRng::from_u64(2);
        let mut m = tiny_model(&mut rng);
        let x = Tensor::zeros(&[5, 4]);
        let y = m.forward(&x, false);
        assert_eq!(y.shape(), &[5, 3]);
    }

    #[test]
    fn apply_flat_grads_updates() {
        let mut rng = DetRng::from_u64(3);
        let mut m = tiny_model(&mut rng);
        let before = m.flat_params();
        let grads = vec![1.0f32; before.len()];
        m.apply_flat_grads(&grads, 0.5);
        let after = m.flat_params();
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - 0.5 - a).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_grad_clears() {
        let mut rng = DetRng::from_u64(4);
        let mut m = tiny_model(&mut rng);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let y = m.forward(&x, true);
        m.backward(&Tensor::full(y.shape(), 1.0));
        assert!(m.flat_grads().iter().any(|&g| g != 0.0));
        m.zero_grad();
        assert!(m.flat_grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn determinism_across_construction() {
        let mut r1 = DetRng::from_u64(5);
        let mut r2 = DetRng::from_u64(5);
        let m1 = tiny_model(&mut r1);
        let m2 = tiny_model(&mut r2);
        assert_eq!(m1.flat_params(), m2.flat_params());
    }
}
