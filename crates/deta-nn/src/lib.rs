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
//!
//! A trainable layer keeps its weights, bias, gradients and frozen flag
//! in one [`Params`] record ([`Layer::records`]). [`Sequential`] walks
//! the records in layer order: the flat vector is every record that is
//! not frozen, its weights before its bias, and gradients exist only
//! from [`Sequential::zero_grad`] until [`Sequential::release_grads`].

pub mod layers;
pub mod loss;
pub mod models;
pub mod optim;
pub mod residual;
pub mod train;

pub use layers::{AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d, Params, Relu, Tanh};
pub use loss::softmax_cross_entropy;
pub use optim::sgd_step;
pub use residual::Residual;

use deta_tensor::Tensor;
use std::borrow::Cow;
use std::ops::Deref;

/// A differentiable layer with explicit forward and backward passes.
///
/// `forward` caches whatever activations the backward pass needs;
/// `backward` consumes the cached state, accumulates parameter gradients
/// into the layer's [`Params`] records, and returns the gradient with
/// respect to the layer input. A record holds gradients only from
/// [`Params::zero_grad`] until [`Params::release_grads`]; a backward pass
/// without them panics, naming the layer.
pub trait Layer: Send {
    /// Computes the layer output for a batch.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out`, returning the input gradient.
    ///
    /// Must be called after a `forward` with `train = true`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Backpropagates `grad_out` into the parameter gradients only, for
    /// a caller that would discard the input gradient. It must leave
    /// every gradient [`Layer::backward`] leaves, bit for bit; layers
    /// whose input gradient costs work of its own skip that work here.
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward(grad_out);
    }

    /// Calls `f` on each of the layer's parameter records, in
    /// flat-vector order, frozen ones included. Layers without
    /// parameters keep this default.
    fn records<'a>(&'a self, _f: &mut dyn FnMut(&'a Params)) {}

    /// [`Layer::records`], writable.
    fn records_mut<'a>(&'a mut self, _f: &mut dyn FnMut(&'a mut Params)) {}

    /// Human-readable layer name for diagnostics.
    fn name(&self) -> &'static str;

    /// A replica of the layer's starting state: every parameter copied
    /// (frozen ones included), no gradients (a constructor allocates
    /// none either), no cached activations, the same frozen flags. A
    /// replica of a freshly built layer is the layer a second build from
    /// the same RNG state would return, without drawing it again.
    fn replica(&self) -> Box<dyn Layer>;
}

/// `f`, skipped for frozen records: the one place a frozen record leaves
/// the flat vector, the parameter count and the optimizer step.
fn unfrozen<P: Deref<Target = Params>>(mut f: impl FnMut(P)) -> impl FnMut(P) {
    move |p| {
        if !p.frozen() {
            f(p);
        }
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

    /// Runs the backward pass for the parameter gradients alone: every
    /// layer but the first as [`Sequential::backward`] does, the first
    /// through [`Layer::backward_params`], so no gradient with respect
    /// to the model input is computed. The gradients it leaves are
    /// [`Sequential::backward`]'s, bit for bit.
    pub fn backward_params(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut g = Cow::Borrowed(grad_out);
        for layer in rest.iter_mut().rev() {
            g = Cow::Owned(layer.backward(&g));
        }
        first.backward_params(&g);
    }

    /// Calls `f` on every layer's parameter records ([`Layer::records`]),
    /// in flat-vector order, frozen ones included.
    pub fn records<'a>(&'a self, f: &mut dyn FnMut(&'a Params)) {
        for layer in &self.layers {
            layer.records(f);
        }
    }

    /// [`Sequential::records`], writable.
    pub fn records_mut<'a>(&'a mut self, f: &mut dyn FnMut(&'a mut Params)) {
        for layer in &mut self.layers {
            layer.records_mut(f);
        }
    }

    /// [`Sequential::records`] without the frozen ones.
    fn trainable<'a>(&'a self, f: impl FnMut(&'a Params)) {
        self.records(&mut unfrozen(f));
    }

    /// [`Sequential::records_mut`] without the frozen ones.
    pub(crate) fn trainable_mut<'a>(&'a mut self, f: impl FnMut(&'a mut Params)) {
        self.records_mut(&mut unfrozen(f));
    }

    /// Clears all accumulated gradients, allocating those a record does
    /// not hold; frozen records included.
    pub fn zero_grad(&mut self) {
        self.records_mut(&mut Params::zero_grad);
    }

    /// Frees every record's gradients ([`Params::release_grads`]).
    pub fn release_grads(&mut self) {
        self.records_mut(&mut Params::release_grads);
    }

    /// Total number of trainable (non-frozen) parameters.
    pub fn param_count(&self) -> usize {
        let mut count = 0;
        self.trainable(|p| count += p.tensors().iter().map(|t| t.numel()).sum::<usize>());
        count
    }

    /// Serializes all trainable parameters into one flat vector.
    ///
    /// The order is deterministic: layers in sequence, each record's
    /// weights before its bias, row-major within each tensor.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.trainable(|p| {
            for t in p.tensors() {
                out.extend_from_slice(t.data());
            }
        });
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
        for p in self.params_mut() {
            let n = p.numel();
            p.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
    }

    /// Every trainable parameter tensor, in [`Sequential::flat_params`]
    /// order: the flat vector's pieces, where they lie, for a caller that
    /// reads parameters in place rather than through a model-sized copy.
    pub fn params(&self) -> Vec<&Tensor> {
        let mut out = Vec::new();
        self.trainable(|p| out.extend(p.tensors()));
        out
    }

    /// [`Sequential::params`], writable: for a caller that writes
    /// parameters in place rather than through a model-sized vector and
    /// [`Sequential::set_flat_params`].
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out = Vec::new();
        self.trainable_mut(|p| out.extend(p.tensors_mut()));
        out
    }

    /// Serializes all accumulated gradients (trainable records only) into
    /// a flat vector parallel to [`Sequential::flat_params`].
    ///
    /// # Panics
    ///
    /// Panics, naming the layer, if a trainable record holds no gradients
    /// (see [`Params::release_grads`]).
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.trainable(|p| {
            for g in p.expect_grads() {
                out.extend_from_slice(g.data());
            }
        });
        out
    }

    /// Iterates over layers (for inspection).
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Sequential {
    /// A replica of every layer ([`Layer::replica`]): the same parameters,
    /// no gradients, no cached activations.
    fn clone(&self) -> Sequential {
        Sequential {
            layers: self.layers.iter().map(|l| l.replica()).collect(),
        }
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
    fn zero_grad_clears() {
        let mut rng = DetRng::from_u64(4);
        let mut m = tiny_model(&mut rng);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let y = m.forward(&x, true);
        m.zero_grad();
        m.backward(&Tensor::full(y.shape(), 1.0));
        assert!(m.flat_grads().iter().any(|&g| g != 0.0));
        m.zero_grad();
        assert!(m.flat_grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn a_model_holds_gradients_from_zero_grad_until_they_are_released() {
        let mut rng = DetRng::from_u64(6);
        let mut m = tiny_model(&mut rng);
        let holds = |m: &Sequential| {
            let mut holds = false;
            m.records(&mut |p| holds |= p.grads().is_some());
            holds
        };
        assert!(!holds(&m), "a built model holds no gradients");
        m.zero_grad();
        assert_eq!(m.flat_grads(), vec![0.0; m.param_count()]);
        m.release_grads();
        assert!(!holds(&m));
        assert!(!holds(&m.clone()), "nor does a replica");
    }

    #[test]
    fn params_are_the_flat_vector_in_params_mut_order() {
        let mut rng = DetRng::from_u64(7);
        let mut m = Sequential::new()
            .push(Linear::new(4, 4, &mut rng).freeze())
            .push(Relu::new())
            .push(Linear::new(4, 8, &mut rng))
            .push(Linear::new(8, 3, &mut rng));
        let read: Vec<(*const f32, usize)> = (m.params().into_iter())
            .map(|p| (p.data().as_ptr(), p.numel()))
            .collect();
        let written: Vec<(*const f32, usize)> = (m.params_mut().into_iter())
            .map(|p| (p.data().as_ptr(), p.numel()))
            .collect();
        assert_eq!(read, written, "the same tensors, in the same order");
        assert_eq!(read.len(), 4, "the frozen layer's two are skipped");
        let concatenated: Vec<f32> = (m.params().into_iter())
            .flat_map(|p| p.data().iter().copied())
            .collect();
        assert_eq!(concatenated, m.flat_params());
        assert!(Sequential::new().params().is_empty());
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
