//! The victim on the attack [`Tape`]: a `deta_nn` [`Sequential`], lowered
//! layer by layer.
//!
//! The attacks need the victim's *gradient* as a differentiable function
//! of the dummy input, so the forward pass, the loss and the first
//! backward pass are all tape nodes. [`lower`] reads each layer as plain
//! data ([`Layer::spec`](deta_nn::Layer::spec)) and emits its forward pass
//! under one flat parameter row, slicing every record's weights and bias
//! out of it with [`Tape::gather`] in [`Sequential::flat_params`] order.
//! The model the parties train is therefore the model attacked, weights
//! included.
//!
//! The tape lowers `Linear`, `Conv2d`, `Tanh` and `Flatten`. A `Linear`
//! takes a batch of examples as the rows of its input; a `Conv2d` takes
//! one image, since [`Tape::im2col`] does, and leaves its output one row
//! per position, one column per channel. That output is gathered into
//! `deta_nn`'s channel-major layout only when the next layer reads it as
//! features (`Flatten`, `Linear`, another `Conv2d`, or the logits), so a
//! `Tanh` in between runs in whatever layout it finds.

use crate::tape::{Tape, Var};
use deta_nn::{LayerSpec, Sequential};
use std::fmt;

/// A layer [`lower`] refuses, by its index in the model and its kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LowerError {
    /// The layer's index in the model.
    pub index: usize,
    /// The layer's kind.
    pub kind: &'static str,
    /// Why the tape cannot lower it.
    pub reason: &'static str,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (index, kind, reason) = (self.index, self.kind, self.reason);
        write!(f, "layer {index} ({kind}) is not lowered: {reason}")
    }
}

impl std::error::Error for LowerError {}

/// `model`'s input width and class count, read from its layer specs.
///
/// # Panics
///
/// Panics if the model has no `Linear` or `Conv2d` layer.
pub fn widths(model: &Sequential) -> (usize, usize) {
    let mut dims = model.layers().iter().filter_map(|l| match l.spec() {
        LayerSpec::Linear { in_dim, out_dim } => Some((in_dim, out_dim)),
        LayerSpec::Conv2d { geom, out_c } => {
            Some((geom.in_c * geom.in_h * geom.in_w, out_c * geom.cols()))
        }
        _ => None,
    });
    let (input, out) = dims.next().expect("a model with no Linear or Conv2d");
    (input, dims.next_back().map_or(out, |d| d.1))
}

/// Reads layers out of one flat parameter row, in order.
struct Weights {
    params: Var,
    off: usize,
}

impl Weights {
    /// `op(x) · Wᵀ + b` for the next `W [outd, ind]` (row-major) and
    /// `b [outd]`.
    fn linear(&mut self, tape: &mut Tape, x: Var, tx: bool, ind: usize, outd: usize) -> Var {
        let mut take = |tape: &mut Tape, shape: [usize; 2]| {
            let end = self.off + shape[0] * shape[1];
            let span: Vec<u32> = (self.off as u32..end as u32).collect();
            self.off = end;
            tape.gather(self.params, span, shape)
        };
        let w = take(tape, [outd, ind]);
        let b = take(tape, [1, outd]);
        let xw = tape.matmul(x, w, tx, true);
        let b = tape.row_broadcast(b, tape.shape(xw)[0]);
        tape.add(xw, b)
    }
}

/// An activation on the tape.
#[derive(Clone, Copy)]
enum Act {
    /// `[rows, features]`, one example per row in `deta_nn`'s layout.
    Rows(Var),
    /// One image's conv output `[positions, channels]`.
    Positions(Var),
}

impl Act {
    /// The activation as `[rows, features]`.
    fn rows(self, tape: &mut Tape) -> Var {
        match self {
            Act::Rows(v) => v,
            Act::Positions(h) => {
                // Channel-major, like `deta_nn`'s `[out_c, out_h, out_w]`.
                let [l, out_c] = tape.shape(h);
                let out_c = out_c as u32;
                let order: Vec<u32> = (0..out_c)
                    .flat_map(|c| (0..l as u32).map(move |p| p * out_c + c))
                    .collect();
                tape.gather(h, order, [1, l * out_c as usize])
            }
        }
    }
}

/// Emits `model`'s logits `[b, classes]` for the rows of `x`
/// (`[b, input width]`) under the flat parameter row `params`
/// (`[1, param_count]`).
///
/// Refuses the first layer the tape cannot lower, leaving on the tape
/// what the layers before it emitted: a kind other than `Linear`,
/// `Conv2d`, `Tanh` and `Flatten`, a frozen record (the flat row leaves
/// it out), or a `Conv2d` given more than one image row.
///
/// # Panics
///
/// Panics if the shapes of `x` or `params` do not fit the model.
pub fn lower(model: &Sequential, tape: &mut Tape, x: Var, params: Var) -> Result<Var, LowerError> {
    const FROZEN: &str = "a frozen record is not in the flat parameter row";
    let rows = tape.shape(x)[0];
    let mut weights = Weights { params, off: 0 };
    let mut act = Act::Rows(x);
    for (index, layer) in model.layers().iter().enumerate() {
        let refuse = |kind, reason| {
            Err(LowerError {
                index,
                kind,
                reason,
            })
        };
        let mut frozen = false;
        layer.records(&mut |p| frozen |= p.frozen());
        act = match (layer.spec(), act) {
            (LayerSpec::Other(kind), _) => return refuse(kind, "the tape has no op for it"),
            (LayerSpec::Linear { .. }, _) if frozen => return refuse("Linear", FROZEN),
            (LayerSpec::Conv2d { .. }, _) if frozen => return refuse("Conv2d", FROZEN),
            (LayerSpec::Conv2d { .. }, _) if rows > 1 => {
                return refuse("Conv2d", "the tape convolves one image, not a batch");
            }
            (LayerSpec::Linear { in_dim, out_dim }, _) => {
                let x = act.rows(tape);
                Act::Rows(weights.linear(tape, x, false, in_dim, out_dim))
            }
            // The convolution transposed, `colsᵀ · Wᵀ + b`.
            (LayerSpec::Conv2d { geom, out_c }, _) => {
                let x = act.rows(tape);
                let cols = tape.im2col(x, geom);
                Act::Positions(weights.linear(tape, cols, true, geom.rows(), out_c))
            }
            (LayerSpec::Tanh, Act::Rows(v)) => Act::Rows(tape.tanh(v)),
            (LayerSpec::Tanh, Act::Positions(v)) => Act::Positions(tape.tanh(v)),
            (LayerSpec::Flatten, _) => Act::Rows(act.rows(tape)),
        };
    }
    assert_eq!(
        tape.shape(params),
        [1, weights.off],
        "param length mismatch"
    );
    Ok(act.rows(tape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{hard_label_logits, random_victim, victim_gradient, AttackTape};
    use deta_crypto::DetRng;
    use deta_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu, Tanh};
    use deta_nn::models::{lenet_dlg, mlp};
    use deta_nn::train::batch_gradient;
    use deta_nn::{Layer, Residual};
    use deta_tensor::Tensor;

    /// Tape gradients against `deta_nn` backprop: both are `f32`, summed
    /// in different orders, so they agree to a few ulps of the largest
    /// entries.
    const BACKPROP_TOL: f32 = 1e-5;

    /// One strided Tanh convolution and a linear head: the shape of
    /// Table 3's victim.
    fn tanh_conv(
        in_c: usize,
        hw: usize,
        out_c: usize,
        classes: usize,
        rng: &mut DetRng,
    ) -> Sequential {
        let out_hw = (hw + 2 - 3) / 2 + 1;
        Sequential::new()
            .push(Conv2d::new(in_c, out_c, hw, hw, 3, 2, 1, rng))
            .push(Tanh::new())
            .push(Flatten::new())
            .push(Linear::new(out_c * out_hw * out_hw, classes, rng))
    }

    fn uniform(n: usize, rng: &mut DetRng) -> Vec<f32> {
        (0..n).map(|_| rng.next_f32()).collect()
    }

    fn logits_of(model: &Sequential, x: &[f32]) -> Vec<f32> {
        let input = widths(model).0;
        let mut tape = Tape::new();
        let xv = tape.input(x.len() / input, input);
        let pv = tape.input(1, model.param_count());
        let logits = lower(model, &mut tape, xv, pv).unwrap();
        let mut ev = tape.evaluator();
        ev.eval(&tape, &[x, &model.flat_params()]);
        ev.value(logits).to_vec()
    }

    fn assert_close(what: &str, tape: &[f32], nn: &[f32]) {
        assert_eq!(tape.len(), nn.len());
        let scale = nn.iter().fold(1.0f32, |m, v| m.max(v.abs()));
        for (i, (&g, &n)) in tape.iter().zip(nn).enumerate() {
            assert!(
                (g - n).abs() <= BACKPROP_TOL * scale,
                "{what} {i}: tape {g} vs nn {n}"
            );
        }
    }

    /// The lowered model's logits and parameter gradient are `deta_nn`'s:
    /// the gradient the attack matches against is the one a party
    /// computes with layer backprop.
    fn assert_matches_nn(mut model: Sequential, x: &[f32], labels: &[usize]) {
        let xt = Tensor::from_vec(x.to_vec(), &[labels.len(), widths(&model).0]);
        let nn_logits = model.forward(&xt, false);
        assert_close("logit", &logits_of(&model, x), nn_logits.data());
        let tape = victim_gradient(&model, x, labels).unwrap();
        let (_, nn) = batch_gradient(&mut model, &xt, labels);
        assert_close("param", &tape, &nn);
    }

    #[test]
    fn mlp_param_gradient_matches_nn_backprop() {
        let model = mlp(&[5, 7, 4], &mut DetRng::from_u64(3));
        let x: Vec<f32> = (0..10).map(|i| (i as f32 * 0.37).sin()).collect();
        assert_matches_nn(model, &x, &[2, 0]);
    }

    #[test]
    fn conv_param_gradient_matches_nn_backprop() {
        let mut rng = DetRng::from_u64(4);
        let model = random_victim(|r| tanh_conv(3, 16, 4, 10, r), &mut rng);
        assert_matches_nn(model, &uniform(3 * 16 * 16, &mut rng), &[1]);
    }

    #[test]
    fn lenet_dlg_param_gradient_matches_nn_backprop() {
        // Two strided convolutions in a chain: the first one's output is
        // gathered channel-major for the second's patches.
        let mut rng = DetRng::from_u64(5);
        let model = lenet_dlg(3, 16, 10, &mut rng);
        assert_matches_nn(model, &uniform(3 * 16 * 16, &mut rng), &[7]);
    }

    #[test]
    fn conv_gradient_matches_numeric() {
        let model = tanh_conv(1, 6, 2, 2, &mut DetRng::from_u64(6));
        let p = model.param_count();
        let all: Vec<u32> = (0..p as u32).collect();
        let at = AttackTape::build(&model, 1, &all).unwrap();
        let mut rng = DetRng::from_u64(7);
        let mut draw = |n: usize| -> Vec<f32> {
            let mut v = vec![0.0f32; n];
            rng.fill_gaussian(&mut v);
            v.iter_mut().for_each(|x| *x *= 0.5);
            v
        };
        let (x, labels, params) = (draw(36), draw(2), draw(p));
        let mut ev = at.tape.evaluator();
        let mut loss_at = |params: &[f32]| {
            at.eval(&mut ev, &x, &labels, params, &vec![0.0; p]);
            (f64::from(ev.value(at.loss)[0]), ev.value(at.grads).to_vec())
        };
        let (_, grads) = loss_at(&params);
        // Spot-check a few parameter gradients against central differences
        // (f32: a step of 1e-2 keeps rounding and truncation under 1e-4).
        for &pi in &[0usize, 5, 20, p - 1] {
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

    /// The DLG objective `||dL/dθ(x) - g*||²` on `build`'s victim,
    /// differentiated in `x` on the tape, against central differences of
    /// the objective.
    fn dlg_objective_x_gradient_matches_central_differences(
        build: impl FnOnce(&mut DetRng) -> Sequential,
        seed: u64,
    ) {
        let mut rng = DetRng::from_u64(seed);
        let model = random_victim(build, &mut rng);
        let (input, classes) = widths(&model);
        let params = model.flat_params();
        let target = uniform(input, &mut rng);
        let gstar = victim_gradient(&model, &target, &[1]).unwrap();
        let all: Vec<u32> = (0..params.len() as u32).collect();
        let mut at = AttackTape::build(&model, 1, &all).unwrap();
        let objective = at.tape.sq_dist(at.grads, at.gstar);
        let dx = at.tape.grad(objective, &[at.x])[0];
        let mut ev = at.tape.evaluator();
        let labels = hard_label_logits(classes, &[1]);
        let x = uniform(input, &mut rng);
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
        dlg_objective_x_gradient_matches_central_differences(|r| mlp(&[16, 12, 4], r), 8);
        dlg_objective_x_gradient_matches_central_differences(|r| tanh_conv(2, 6, 3, 3, r), 9);
    }

    /// What lowering `[Linear, layer, Linear]` over one row returns.
    fn lowering_with(layer: impl Layer + 'static) -> Result<usize, LowerError> {
        let rng = &mut DetRng::from_u64(10);
        let model = Sequential::new()
            .push(Linear::new(16, 16, rng))
            .push(layer)
            .push(Linear::new(16, 4, rng));
        AttackTape::build(&model, 1, &[0]).map(|at| at.tape.len())
    }

    #[test]
    fn refuses_the_layers_the_tape_has_no_op_for_by_index_and_kind() {
        let refused = [
            lowering_with(Relu::new()),
            lowering_with(MaxPool2d::new(1, 4, 4)),
            lowering_with(Residual::new(Sequential::new())),
        ];
        for (got, kind) in refused.into_iter().zip(["Relu", "MaxPool2d", "Residual"]) {
            let err = got.unwrap_err();
            assert_eq!((err.index, err.kind), (1, kind));
            assert_eq!(
                err.to_string(),
                format!("layer 1 ({kind}) is not lowered: the tape has no op for it")
            );
        }
        assert!(lowering_with(Tanh::new()).is_ok());
    }

    #[test]
    fn refuses_a_frozen_record_by_index_and_kind() {
        let rng = &mut DetRng::from_u64(11);
        let model = Sequential::new()
            .push(Linear::new(4, 5, rng))
            .push(Tanh::new())
            .push(Linear::new(5, 3, rng).freeze());
        let err = victim_gradient(&model, &[0.5; 4], &[0]).unwrap_err();
        assert_eq!((err.index, err.kind), (2, "Linear"));
        assert!(err.reason.contains("frozen"), "{err}");
    }

    #[test]
    fn refuses_a_conv_given_more_than_one_image_row() {
        let model = tanh_conv(1, 6, 2, 2, &mut DetRng::from_u64(12));
        assert!(victim_gradient(&model, &[0.5; 36], &[0]).is_ok());
        let err = victim_gradient(&model, &[0.5; 72], &[0, 1]).unwrap_err();
        assert_eq!((err.index, err.kind), (0, "Conv2d"));
        assert!(err.reason.contains("one image"), "{err}");
    }
}
