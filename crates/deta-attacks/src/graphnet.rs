//! The victim networks, as forward passes on the attack [`Tape`].
//!
//! The attacks need the victim model's *gradient* as a differentiable
//! function of the dummy input, so the forward pass, the loss and the
//! first backward pass are all tape nodes. Two architectures cover the
//! paper's attack experiments:
//!
//! * [`MlpSpec`] — a Tanh MLP whose flat-parameter layout matches
//!   `deta_nn::models::mlp` exactly (per layer: `W` row-major, then `b`),
//!   so gradients computed here can be cross-checked against the fast
//!   layer-based backprop.
//! * [`ConvSpec`] — one strided Tanh convolution followed by a linear
//!   classifier, the small stand-in for the paper's LeNet / ResNet-18
//!   attack targets; its layout matches `deta_nn`'s `Conv2d` then
//!   `Linear`.
//!
//! The MLP takes a batch of examples as the rows of `x`, the conv one
//! image; both slice their weights out of one flat parameter row with
//! [`Tape::gather`].
//! [`soft_cross_entropy`] scores them against a *soft label*: the label
//! enters as logits so DLG can optimize it, while iDLG/IG pin it by
//! passing a one-hot value.

use crate::tape::{Tape, Var};
use deta_tensor::ConvGeom;

/// Reads layers out of one flat parameter row, in order.
struct Weights {
    params: Var,
    off: usize,
}

impl Weights {
    /// The next `shape[0] · shape[1]` parameters, shaped `shape`.
    fn take(&mut self, tape: &mut Tape, shape: [usize; 2]) -> Var {
        let len = shape[0] * shape[1];
        let span: Vec<u32> = (self.off as u32..(self.off + len) as u32).collect();
        self.off += len;
        tape.gather(self.params, span, shape)
    }

    /// `op(x) · Wᵀ + b` for the next `W [outd, ind]` (row-major) and
    /// `b [outd]`.
    fn linear(&mut self, tape: &mut Tape, x: Var, tx: bool, ind: usize, outd: usize) -> Var {
        let w = self.take(tape, [outd, ind]);
        let b = self.take(tape, [1, outd]);
        let xw = tape.matmul(x, w, tx, true);
        let b = tape.row_broadcast(b, tape.shape(xw)[0]);
        tape.add(xw, b)
    }

    /// Panics unless every parameter was read.
    fn done(self, tape: &Tape) {
        assert_eq!(
            tape.shape(self.params),
            [1, self.off],
            "param length mismatch"
        );
    }
}

/// A differentiable classifier usable on the attack tape.
pub trait GraphModel {
    /// Input dimension.
    fn input_dim(&self) -> usize;
    /// Number of classes.
    fn classes(&self) -> usize;
    /// Flat parameter count.
    fn param_count(&self) -> usize;
    /// Emits the logits `[b, classes]` of the rows of `x` (`[b, input_dim]`)
    /// under the flat parameter row `params`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    fn forward(&self, tape: &mut Tape, x: Var, params: Var) -> Var;
}

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
}

impl GraphModel for MlpSpec {
    fn input_dim(&self) -> usize {
        self.dims[0]
    }

    fn classes(&self) -> usize {
        *self.dims.last().unwrap()
    }

    /// The `deta_nn` layout: per layer, `W` row-major, then `b`.
    fn param_count(&self) -> usize {
        self.dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }

    fn forward(&self, tape: &mut Tape, x: Var, params: Var) -> Var {
        let mut weights = Weights { params, off: 0 };
        let mut act = x;
        for (li, w) in self.dims.windows(2).enumerate() {
            let z = weights.linear(tape, act, false, w[0], w[1]);
            act = if li + 2 < self.dims.len() {
                tape.tanh(z)
            } else {
                z
            };
        }
        weights.done(tape);
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

    /// Flattened conv feature count.
    pub fn feature_dim(&self) -> usize {
        self.out_c * self.out_hw() * self.out_hw()
    }
}

impl GraphModel for ConvSpec {
    fn input_dim(&self) -> usize {
        self.in_c * self.hw * self.hw
    }

    fn classes(&self) -> usize {
        self.classes
    }

    /// Conv `W [out_c, in_c*k*k]` + `b [out_c]`, then linear
    /// `W [classes, features]` + `b [classes]`: `deta_nn`'s `Conv2d` then
    /// `Linear`.
    fn param_count(&self) -> usize {
        self.out_c * self.in_c * self.k * self.k
            + self.out_c
            + self.classes * self.feature_dim()
            + self.classes
    }

    /// One CHW image per tape: `x` is `[1, input_dim]`.
    fn forward(&self, tape: &mut Tape, x: Var, params: Var) -> Var {
        let geom = ConvGeom {
            in_c: self.in_c,
            in_h: self.hw,
            in_w: self.hw,
            k: self.k,
            stride: 2,
            pad: 1,
        };
        let mut weights = Weights { params, off: 0 };
        // The convolution transposed, `colsᵀ · Wᵀ + b`: one row per output
        // position, one column per channel.
        let cols = tape.im2col(x, geom);
        let z = weights.linear(tape, cols, true, geom.rows(), self.out_c);
        let h = tape.tanh(z);
        // Channel-major, like `deta_nn`'s `[out_c, out_h, out_w]`.
        let (l, out_c) = (geom.cols(), self.out_c as u32);
        let order: Vec<u32> = (0..out_c)
            .flat_map(|c| (0..l as u32).map(move |p| p * out_c + c))
            .collect();
        let feat = tape.gather(h, order, [1, self.feature_dim()]);
        let logits = weights.linear(tape, feat, false, self.feature_dim(), self.classes);
        weights.done(tape);
        logits
    }
}

/// Softmax cross-entropy of each row of `logits` against the soft label
/// `softmax(label_logits)`, `-Σ_c q_c log p_c`, averaged over the rows.
///
/// Both softmaxes subtract their row maximum, so unbounded label logits
/// (DLG's are free L-BFGS variables) neither overflow nor lose the hard
/// cross-entropy they tend to.
pub fn soft_cross_entropy(tape: &mut Tape, logits: Var, label_logits: Var) -> Var {
    assert_eq!(
        tape.shape(logits),
        tape.shape(label_logits),
        "class count mismatch"
    );
    let log_p = tape.log_softmax(logits);
    let q = tape.softmax(label_logits);
    let total = tape.dot(q, log_p);
    tape.scale(total, -1.0 / tape.shape(logits)[0] as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{hard_label_logits, victim_gradient, AttackTape};
    use deta_crypto::DetRng;
    use deta_nn::layers::{Conv2d, Flatten, Linear, Tanh};
    use deta_nn::models::mlp;
    use deta_nn::train::batch_gradient;
    use deta_nn::Sequential;
    use deta_tensor::Tensor;

    /// Tape gradients against `deta_nn` backprop: both are `f32`, summed
    /// in different orders, so they agree to a few ulps of the largest
    /// entries.
    const BACKPROP_TOL: f32 = 1e-5;

    fn logits_of(model: &dyn GraphModel, x: &[f32], params: &[f32]) -> Vec<f32> {
        let mut tape = Tape::new();
        let xv = tape.input(1, model.input_dim());
        let pv = tape.input(1, model.param_count());
        let logits = model.forward(&mut tape, xv, pv);
        let mut ev = tape.evaluator();
        ev.eval(&tape, &[x, params]);
        ev.value(logits).to_vec()
    }

    fn assert_matches_backprop(tape: &[f32], nn: &[f32]) {
        assert_eq!(tape.len(), nn.len());
        let scale = nn.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for (i, (&g, &n)) in tape.iter().zip(nn).enumerate() {
            assert!(
                (g - n).abs() <= BACKPROP_TOL * scale,
                "param {i}: tape {g} vs nn {n}"
            );
        }
    }

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
        let x_val: Vec<f32> = vec![0.3, -0.2, 0.8, 0.1];
        let logits = logits_of(&spec, &x_val, &model.flat_params());
        let nn_logits = model.forward(&Tensor::from_vec(x_val, &[1, 4]), false);
        for (j, &graph) in logits.iter().enumerate() {
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
        let graph_grad = victim_gradient(&spec, &flat, &x_val, &[label]);
        let (_, nn_grad) = batch_gradient(&mut model, &Tensor::from_vec(x_val, &[1, 5]), &[label]);
        assert_matches_backprop(&graph_grad, &nn_grad);
    }

    #[test]
    fn conv_param_gradient_matches_nn_backprop() {
        let spec = ConvSpec {
            in_c: 2,
            hw: 7,
            out_c: 3,
            k: 3,
            classes: 4,
        };
        let mut rng = DetRng::from_u64(4);
        let mut model = Sequential::new()
            .push(Conv2d::new(
                spec.in_c, spec.out_c, spec.hw, spec.hw, spec.k, 2, 1, &mut rng,
            ))
            .push(Tanh::new())
            .push(Flatten::new())
            .push(Linear::new(spec.feature_dim(), spec.classes, &mut rng));
        assert_eq!(model.param_count(), spec.param_count());
        let mut params = vec![0.0f32; spec.param_count()];
        rng.fill_gaussian(&mut params);
        params.iter_mut().for_each(|v| *v *= 0.3);
        model.set_flat_params(&params);
        let x: Vec<f32> = (0..spec.input_dim()).map(|_| rng.next_f32()).collect();
        let logits = logits_of(&spec, &x, &params);
        let nn_logits = model.forward(&Tensor::from_vec(x.clone(), &[1, spec.input_dim()]), false);
        for (j, &l) in logits.iter().enumerate() {
            assert!((l - nn_logits.at2(0, j)).abs() < 1e-5, "logit {j}");
        }
        let label = 1usize;
        let tape_grad = victim_gradient(&spec, &params, &x, &[label]);
        let (_, nn_grad) = batch_gradient(
            &mut model,
            &Tensor::from_vec(x, &[1, spec.input_dim()]),
            &[label],
        );
        assert_matches_backprop(&tape_grad, &nn_grad);
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
        let mut rng = DetRng::from_u64(5);
        let mut x = vec![0.0f32; spec.input_dim()];
        rng.fill_gaussian(&mut x);
        x.iter_mut().for_each(|v| *v *= 0.3);
        let mut params = vec![0.0f32; spec.param_count()];
        rng.fill_gaussian(&mut params);
        params.iter_mut().for_each(|v| *v *= 0.3);
        let l0 = logits_of(&spec, &x, &params);
        assert_eq!(l0.len(), 3);
        assert!(l0.iter().all(|v| v.is_finite()));
        // Perturbing the input changes the logits.
        x[0] += 1.0;
        assert_ne!(l0, logits_of(&spec, &x, &params));
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
        let all: Vec<u32> = (0..spec.param_count() as u32).collect();
        let at = AttackTape::build(&spec, 1, &all);
        let mut rng = DetRng::from_u64(7);
        let mut draw = |n: usize| -> Vec<f32> {
            let mut v = vec![0.0f32; n];
            rng.fill_gaussian(&mut v);
            v.iter_mut().for_each(|x| *x *= 0.5);
            v
        };
        let (x, labels, params) = (draw(36), draw(2), draw(spec.param_count()));
        let mut ev = at.tape.evaluator();
        let mut loss_at = |p: &[f32]| {
            at.eval(
                &mut ev,
                &x,
                &labels,
                p,
                &all.iter().map(|_| 0.0).collect::<Vec<_>>(),
            );
            (f64::from(ev.value(at.loss)[0]), ev.value(at.grads).to_vec())
        };
        let (_, grads) = loss_at(&params);
        // Spot-check a few parameter gradients against central differences
        // (f32: a step of 1e-2 keeps rounding and truncation under 1e-4).
        for &pi in &[0usize, 5, 20, spec.param_count() - 1] {
            let (mut plus, mut minus) = (params.clone(), params.clone());
            plus[pi] += 1e-2;
            minus[pi] -= 1e-2;
            let step = f64::from(plus[pi]) - f64::from(minus[pi]);
            let numeric = (loss_at(&plus).0 - loss_at(&minus).0) / step;
            let analytic = f64::from(grads[pi]);
            assert!(
                (analytic - numeric).abs() < 1e-4,
                "param {pi}: {analytic} vs {numeric}"
            );
        }
    }

    /// The DLG objective `||dL/dθ(x) - g*||²` on `model`, differentiated in
    /// `x` on the tape, against central differences of the objective.
    fn dlg_objective_x_gradient_matches_central_differences(model: &dyn GraphModel, seed: u64) {
        let mut rng = DetRng::from_u64(seed);
        let p = model.param_count();
        let mut params = vec![0.0f32; p];
        rng.fill_gaussian(&mut params);
        params.iter_mut().for_each(|v| *v *= 0.3);
        let target: Vec<f32> = (0..model.input_dim()).map(|_| rng.next_f32()).collect();
        let gstar = victim_gradient(model, &params, &target, &[1]);
        let all: Vec<u32> = (0..p as u32).collect();
        let mut at = AttackTape::build(model, 1, &all);
        let objective = at.tape.sq_dist(at.grads, at.gstar);
        let dx = at.tape.grad(objective, &[at.x])[0];
        let mut ev = at.tape.evaluator();
        let labels = hard_label_logits(model.classes(), &[1]);
        let x: Vec<f32> = (0..model.input_dim()).map(|_| rng.next_f32()).collect();
        let mut objective_at = |x: &[f32]| {
            at.eval(&mut ev, x, &labels, &params, &gstar);
            (f64::from(ev.value(objective)[0]), ev.value(dx).to_vec())
        };
        let (f0, grad) = objective_at(&x);
        assert!(f0 > 0.0);
        for i in (0..x.len()).step_by(x.len() / 7 + 1) {
            let (mut plus, mut minus) = (x.clone(), x.clone());
            plus[i] += 1e-2;
            minus[i] -= 1e-2;
            let step = f64::from(plus[i]) - f64::from(minus[i]);
            let numeric = (objective_at(&plus).0 - objective_at(&minus).0) / step;
            let tape = f64::from(grad[i]);
            assert!(
                (tape - numeric).abs() <= 1e-2 * (numeric.abs() + f0 * 1e-2),
                "x[{i}]: tape {tape} vs {numeric}"
            );
        }
    }

    #[test]
    fn dlg_objective_gradient_matches_central_differences() {
        dlg_objective_x_gradient_matches_central_differences(&MlpSpec::new(&[16, 12, 4]), 8);
        let conv = ConvSpec {
            in_c: 2,
            hw: 6,
            out_c: 3,
            k: 3,
            classes: 3,
        };
        dlg_objective_x_gradient_matches_central_differences(&conv, 9);
    }

    #[test]
    fn soft_label_one_hot_limit() {
        // With a huge margin, soft CE equals hard CE.
        let mut tape = Tape::new();
        let logits = tape.input(1, 3);
        let label_logits = tape.input(1, 3);
        let loss = soft_cross_entropy(&mut tape, logits, label_logits);
        let mut ev = tape.evaluator();
        ev.eval(&tape, &[&[1.0, 2.0, 0.5], &[-50.0, 50.0, -50.0]]);
        // Hard CE for label 1: -log softmax(logits)[1].
        let z = [1.0f64, 2.0, 0.5];
        let denom: f64 = z.iter().map(|v| v.exp()).sum();
        let want = -(z[1].exp() / denom).ln();
        assert!((f64::from(ev.value(loss)[0]) - want).abs() < 1e-6);
    }

    #[test]
    fn soft_cross_entropy_is_finite_at_unbounded_logits() {
        // DLG's label logits are free L-BFGS variables: past ~88 a plain
        // `exp` overflows in f32 and `∞ · 0` turns the loss into NaN.
        let mut tape = Tape::new();
        let logits = tape.input(2, 3);
        let label_logits = tape.input(2, 3);
        let loss = soft_cross_entropy(&mut tape, logits, label_logits);
        let mut ev = tape.evaluator();
        ev.eval(
            &tape,
            &[
                &[1.0, 2.0, 0.5, 1000.0, 0.0, -1000.0],
                &[1000.0, 0.0, -1000.0, -1000.0, 1000.0, 0.0],
            ],
        );
        // Hard CE, label 0 on the first row and 1 on the second, averaged:
        // -log softmax(1, 2, 0.5)[0] and 1000 - 0 + log(1 + e^-1000 + e^-2000).
        let z = [1.0f64, 2.0, 0.5];
        let denom: f64 = z.iter().map(|v| v.exp()).sum();
        let want = (-(z[0].exp() / denom).ln() + 1000.0) / 2.0;
        let got = ev.value(loss)[0];
        assert!(got.is_finite(), "loss {got}");
        assert!(
            (f64::from(got) - want).abs() < 1e-4 * want,
            "{got} vs {want}"
        );
    }
}
