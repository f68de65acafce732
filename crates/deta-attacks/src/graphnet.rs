//! Differentiable-graph network builders for the attack tape.
//!
//! The attacks need the victim model's *gradient* as a differentiable
//! function of the dummy input, so the forward pass, loss, and first
//! backward pass are all built as [`Tape`] nodes. Two architectures cover
//! the paper's attack experiments:
//!
//! * [`MlpSpec`] — a Tanh MLP whose flat-parameter layout matches
//!   `deta_nn::models::mlp` exactly (per layer: `W` row-major, then `b`),
//!   so gradients computed here can be cross-checked against the fast
//!   layer-based backprop.
//! * [`ConvSpec`] — one strided Tanh convolution followed by a linear
//!   classifier, the small stand-in for the paper's LeNet / ResNet-18
//!   attack targets.
//!
//! Both emit a softmax cross-entropy loss for a single example with a
//! *soft label*: the label enters as logit variables so DLG can optimize
//! it, while iDLG/IG pin it by passing a one-hot value.

use crate::autograd::{Tape, Var};

/// A Tanh multi-layer perceptron specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MlpSpec {
    /// Layer dimensions, input first, classes last.
    pub dims: Vec<usize>,
}

impl MlpSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two dims.
    pub fn new(dims: &[usize]) -> MlpSpec {
        assert!(dims.len() >= 2, "need at least input and output dims");
        MlpSpec {
            dims: dims.to_vec(),
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        *self.dims.last().unwrap()
    }

    /// Total parameter count (matching `deta_nn` layout).
    pub fn param_count(&self) -> usize {
        self.dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }

    /// Emits the forward pass for one example, returning the logits.
    ///
    /// `params` must hold [`MlpSpec::param_count`] variables in the layout
    /// `[W0 row-major, b0, W1, b1, ...]`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn forward(&self, tape: &mut Tape, x: &[Var], params: &[Var]) -> Vec<Var> {
        assert_eq!(x.len(), self.input_dim(), "input length mismatch");
        assert_eq!(params.len(), self.param_count(), "param length mismatch");
        let mut act: Vec<Var> = x.to_vec();
        let mut off = 0usize;
        let n_layers = self.dims.len() - 1;
        for (li, w) in self.dims.windows(2).enumerate() {
            let (ind, outd) = (w[0], w[1]);
            let weights = &params[off..off + ind * outd];
            let biases = &params[off + ind * outd..off + ind * outd + outd];
            off += ind * outd + outd;
            let mut next = Vec::with_capacity(outd);
            for o in 0..outd {
                // Row o of W matches deta_nn's `[out, in]` row-major layout.
                let row = &weights[o * ind..(o + 1) * ind];
                let dot = tape.dot(row, &act);
                let z = tape.add(dot, biases[o]);
                next.push(if li + 1 < n_layers { tape.tanh(z) } else { z });
            }
            act = next;
        }
        act
    }
}

/// A small convolutional classifier: one strided Tanh conv + linear head.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvSpec {
    /// Input channels.
    pub in_c: usize,
    /// Input height/width (square).
    pub hw: usize,
    /// Conv output channels.
    pub out_c: usize,
    /// Kernel size (square), stride 2, padding 1.
    pub k: usize,
    /// Number of classes.
    pub classes: usize,
}

impl ConvSpec {
    /// Spatial output size (stride 2, pad 1).
    pub fn out_hw(&self) -> usize {
        (self.hw + 2 - self.k) / 2 + 1
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.in_c * self.hw * self.hw
    }

    /// Flattened conv feature count.
    pub fn feature_dim(&self) -> usize {
        self.out_c * self.out_hw() * self.out_hw()
    }

    /// Total parameter count: conv `W [out_c, in_c*k*k]` + `b [out_c]`,
    /// then linear `W [classes, features]` + `b [classes]`.
    pub fn param_count(&self) -> usize {
        self.out_c * self.in_c * self.k * self.k
            + self.out_c
            + self.classes * self.feature_dim()
            + self.classes
    }

    /// Emits the forward pass for one image, returning the logits.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn forward(&self, tape: &mut Tape, x: &[Var], params: &[Var]) -> Vec<Var> {
        assert_eq!(x.len(), self.input_dim(), "input length mismatch");
        assert_eq!(params.len(), self.param_count(), "param length mismatch");
        let (hw, k, out_hw) = (self.hw, self.k, self.out_hw());
        let conv_w_len = self.out_c * self.in_c * k * k;
        let conv_w = &params[..conv_w_len];
        let conv_b = &params[conv_w_len..conv_w_len + self.out_c];
        let fc_off = conv_w_len + self.out_c;
        let features = self.feature_dim();
        let fc_w = &params[fc_off..fc_off + self.classes * features];
        let fc_b = &params[fc_off + self.classes * features..];

        // Strided convolution (stride 2, pad 1) with Tanh.
        let mut feat: Vec<Var> = Vec::with_capacity(features);
        for (oc, &bias) in conv_b.iter().enumerate().take(self.out_c) {
            for oy in 0..out_hw {
                for ox in 0..out_hw {
                    let mut terms: Vec<Var> = Vec::with_capacity(self.in_c * k * k);
                    for ic in 0..self.in_c {
                        for ky in 0..k {
                            let iy = (oy * 2 + ky) as isize - 1;
                            if iy < 0 || iy as usize >= hw {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = (ox * 2 + kx) as isize - 1;
                                if ix < 0 || ix as usize >= hw {
                                    continue;
                                }
                                let wi = ((oc * self.in_c + ic) * k + ky) * k + kx;
                                let xi = (ic * hw + iy as usize) * hw + ix as usize;
                                terms.push(tape.mul(conv_w[wi], x[xi]));
                            }
                        }
                    }
                    let s = tape.sum(&terms);
                    let z = tape.add(s, bias);
                    feat.push(tape.tanh(z));
                }
            }
        }
        // Linear head.
        let mut logits = Vec::with_capacity(self.classes);
        for c in 0..self.classes {
            let row = &fc_w[c * features..(c + 1) * features];
            let dot = tape.dot(row, &feat);
            logits.push(tape.add(dot, fc_b[c]));
        }
        logits
    }
}

/// Emits softmax cross-entropy against a *soft label* distribution.
///
/// `label_logits` are variables (DLG optimizes them); the target
/// distribution is `softmax(label_logits)` and the loss is
/// `-sum_c q_c * log p_c`.
pub fn soft_cross_entropy(tape: &mut Tape, logits: &[Var], label_logits: &[Var]) -> Var {
    assert_eq!(logits.len(), label_logits.len(), "class count mismatch");
    let p = tape.softmax(logits);
    let q = tape.softmax(label_logits);
    let terms: Vec<Var> = p
        .iter()
        .zip(q.iter())
        .map(|(&pi, &qi)| {
            let lp = tape.ln(pi);
            let t = tape.mul(qi, lp);
            tape.neg(t)
        })
        .collect();
    tape.sum(&terms)
}

/// Builds the full attack tape for a model: given input variables,
/// soft-label variables, and parameter variables, returns
/// `(loss, grad_wrt_params)` as graph nodes.
pub fn loss_and_param_grad(
    tape: &mut Tape,
    logits: Vec<Var>,
    label_logits: &[Var],
    params: &[Var],
) -> (Var, Vec<Var>) {
    let loss = soft_cross_entropy(tape, &logits, label_logits);
    let grads = tape.grad(loss, params);
    (loss, grads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deta_crypto::DetRng;
    use deta_nn::models::mlp;
    use deta_nn::train::batch_gradient;
    use deta_tensor::Tensor;

    #[test]
    fn mlp_param_count_matches_nn() {
        let spec = MlpSpec::new(&[6, 5, 3]);
        let mut rng = DetRng::from_u64(1);
        let model = mlp(&[6, 5, 3], &mut rng);
        assert_eq!(spec.param_count(), model.param_count());
    }

    #[test]
    fn mlp_forward_matches_nn() {
        let dims = [4usize, 6, 3];
        let spec = MlpSpec::new(&dims);
        let mut rng = DetRng::from_u64(2);
        let mut model = mlp(&dims, &mut rng);
        let flat = model.flat_params();
        let x_val: Vec<f32> = vec![0.3, -0.2, 0.8, 0.1];

        let mut tape = Tape::new();
        let x = tape.inputs(4);
        let params = tape.inputs(spec.param_count());
        let logits = spec.forward(&mut tape, &x, &params);
        let mut ev = tape.evaluator();
        let mut inputs: Vec<f64> = x_val.iter().map(|&v| v as f64).collect();
        inputs.extend(flat.iter().map(|&v| v as f64));
        ev.eval(&tape, &inputs);

        let nn_logits = model.forward(&Tensor::from_vec(x_val, &[1, 4]), false);
        for (j, &lv) in logits.iter().enumerate() {
            let graph = ev.value(lv) as f32;
            let nn = nn_logits.at2(0, j);
            assert!((graph - nn).abs() < 1e-4, "logit {j}: {graph} vs {nn}");
        }
    }

    #[test]
    fn mlp_param_gradient_matches_nn_backprop() {
        // The gradient the attack matches against must equal the gradient
        // a real party computes with layer backprop.
        let dims = [5usize, 7, 4];
        let spec = MlpSpec::new(&dims);
        let mut rng = DetRng::from_u64(3);
        let mut model = mlp(&dims, &mut rng);
        let flat = model.flat_params();
        let x_val: Vec<f32> = (0..5).map(|i| (i as f32 * 0.37).sin()).collect();
        let label = 2usize;

        // Graph gradient with a hard one-hot label (large logit margin).
        let mut tape = Tape::new();
        let x = tape.inputs(5);
        let label_logits = tape.inputs(4);
        let params = tape.inputs(spec.param_count());
        let logits = spec.forward(&mut tape, &x, &params);
        let (_, grads) = loss_and_param_grad(&mut tape, logits, &label_logits, &params);
        let mut ev = tape.evaluator();
        let mut inputs: Vec<f64> = x_val.iter().map(|&v| v as f64).collect();
        // One-hot via huge logit separation.
        for c in 0..4 {
            inputs.push(if c == label { 50.0 } else { -50.0 });
        }
        inputs.extend(flat.iter().map(|&v| v as f64));
        ev.eval(&tape, &inputs);
        let graph_grad: Vec<f64> = grads.iter().map(|&g| ev.value(g)).collect();

        // Layer backprop gradient.
        let (_, nn_grad) = batch_gradient(&mut model, &Tensor::from_vec(x_val, &[1, 5]), &[label]);
        assert_eq!(graph_grad.len(), nn_grad.len());
        for (i, (&g, &n)) in graph_grad.iter().zip(nn_grad.iter()).enumerate() {
            assert!(
                (g as f32 - n).abs() < 1e-3,
                "param {i}: graph {g} vs nn {n}"
            );
        }
    }

    #[test]
    fn conv_shapes() {
        let spec = ConvSpec {
            in_c: 3,
            hw: 16,
            out_c: 4,
            k: 3,
            classes: 10,
        };
        assert_eq!(spec.out_hw(), 8); // (16 + 2 - 3) / 2 + 1
        assert_eq!(spec.feature_dim(), 4 * 64);
        assert_eq!(spec.param_count(), 4 * 27 + 4 + 10 * 256 + 10);
    }

    #[test]
    fn conv_forward_finite_and_label_sensitive() {
        let spec = ConvSpec {
            in_c: 1,
            hw: 8,
            out_c: 2,
            k: 3,
            classes: 3,
        };
        let mut tape = Tape::new();
        let x = tape.inputs(spec.input_dim());
        let params = tape.inputs(spec.param_count());
        let logits = spec.forward(&mut tape, &x, &params);
        assert_eq!(logits.len(), 3);
        let mut rng = DetRng::from_u64(5);
        let mut inputs: Vec<f64> = (0..tape.input_count())
            .map(|_| rng.next_gaussian() * 0.3)
            .collect();
        let mut ev = tape.evaluator();
        ev.eval(&tape, &inputs);
        let l0: Vec<f64> = logits.iter().map(|&l| ev.value(l)).collect();
        assert!(l0.iter().all(|v| v.is_finite()));
        // Perturbing the input changes the logits.
        inputs[0] += 1.0;
        ev.eval(&tape, &inputs);
        let l1: Vec<f64> = logits.iter().map(|&l| ev.value(l)).collect();
        assert_ne!(l0, l1);
    }

    #[test]
    fn conv_gradient_matches_numeric() {
        let spec = ConvSpec {
            in_c: 1,
            hw: 6,
            out_c: 2,
            k: 3,
            classes: 2,
        };
        let mut tape = Tape::new();
        let x = tape.inputs(spec.input_dim());
        let label_logits = tape.inputs(2);
        let params = tape.inputs(spec.param_count());
        let logits = spec.forward(&mut tape, &x, &params);
        let (loss, grads) = loss_and_param_grad(&mut tape, logits, &label_logits, &params);
        let mut rng = DetRng::from_u64(7);
        let inputs: Vec<f64> = (0..tape.input_count())
            .map(|_| rng.next_gaussian() * 0.5)
            .collect();
        let mut ev = tape.evaluator();
        ev.eval(&tape, &inputs);
        // Spot-check a few parameter gradients against finite differences.
        let x_len = spec.input_dim() + 2;
        for &pi in &[0usize, 5, 20, spec.param_count() - 1] {
            let analytic = ev.value(grads[pi]);
            let h = 1e-5;
            let mut plus = inputs.clone();
            plus[x_len + pi] += h;
            ev.eval(&tape, &plus);
            let fp = ev.value(loss);
            let mut minus = inputs.clone();
            minus[x_len + pi] -= h;
            ev.eval(&tape, &minus);
            let fm = ev.value(loss);
            let numeric = (fp - fm) / (2.0 * h);
            assert!(
                (analytic - numeric).abs() < 1e-4,
                "param {pi}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn soft_label_one_hot_limit() {
        // With a huge margin, soft CE equals hard CE.
        let mut tape = Tape::new();
        let logits = tape.inputs(3);
        let label_logits = tape.inputs(3);
        let loss = soft_cross_entropy(&mut tape, &logits, &label_logits);
        let mut ev = tape.evaluator();
        ev.eval(&tape, &[1.0, 2.0, 0.5, -50.0, 50.0, -50.0]);
        // Hard CE for label 1: -log softmax(logits)[1].
        let z = [1.0f64, 2.0, 0.5];
        let denom: f64 = z.iter().map(|v| v.exp()).sum();
        let want = -(z[1].exp() / denom).ln();
        assert!((ev.value(loss) - want).abs() < 1e-9);
    }
}
