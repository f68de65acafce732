//! Optimizers.

use crate::Sequential;

/// Plain stochastic gradient descent with optional momentum.
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    velocity: Option<Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32) -> Sgd {
        Sgd {
            lr,
            momentum: 0.0,
            velocity: None,
        }
    }

    /// Enables momentum.
    pub fn with_momentum(mut self, momentum: f32) -> Sgd {
        self.momentum = momentum;
        self
    }

    /// Applies one update step from the model's accumulated gradients,
    /// parameter tensor by parameter tensor, without gathering them.
    pub fn step(&mut self, model: &mut Sequential) {
        let lr = self.lr;
        if self.momentum == 0.0 {
            model.update_params(&mut |p, g| {
                for (w, g) in p.data_mut().iter_mut().zip(g.data()) {
                    *w -= lr * g;
                }
            });
            return;
        }
        let momentum = self.momentum;
        let n = model.param_count();
        let v = self.velocity.get_or_insert_with(|| vec![0.0; n]);
        assert_eq!(v.len(), n, "model size changed mid-training");
        let mut rest = v.as_mut_slice();
        model.update_params(&mut |p, g| {
            let (v, tail) = std::mem::take(&mut rest).split_at_mut(p.numel());
            rest = tail;
            for ((w, vi), gi) in p.data_mut().iter_mut().zip(v).zip(g.data()) {
                *vi = momentum * *vi + gi;
                *w -= lr * *vi;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use deta_crypto::DetRng;
    use deta_tensor::Tensor;

    fn setup() -> Sequential {
        let mut rng = DetRng::from_u64(1);
        Sequential::new().push(Linear::new(2, 1, &mut rng))
    }

    fn run_one_step(model: &mut Sequential, opt: &mut Sgd) {
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = model.forward(&x, true);
        model.zero_grad();
        model.backward(&Tensor::full(y.shape(), 1.0));
        opt.step(model);
    }

    #[test]
    fn sgd_descends() {
        let mut model = setup();
        let mut opt = Sgd::new(0.1);
        let before = model.flat_params();
        run_one_step(&mut model, &mut opt);
        let after = model.flat_params();
        // Gradient of sum(y) w.r.t. W is x = (1, 1), w.r.t. b is 1.
        assert!((before[0] - 0.1 - after[0]).abs() < 1e-6);
        assert!((before[2] - 0.1 - after[2]).abs() < 1e-6);
    }

    #[test]
    fn momentum_accelerates() {
        let mut m1 = setup();
        let mut m2 = setup();
        let mut plain = Sgd::new(0.1);
        let mut momentum = Sgd::new(0.1).with_momentum(0.9);
        for _ in 0..3 {
            run_one_step(&mut m1, &mut plain);
            run_one_step(&mut m2, &mut momentum);
        }
        // With constant gradients, momentum moves strictly farther.
        let p1 = m1.flat_params();
        let p2 = m2.flat_params();
        assert!(p2[0] < p1[0]);
    }

    #[test]
    fn in_place_step_equals_gather_and_scatter() {
        // The step visits parameters layer by layer; gathering every
        // gradient and scattering the update (what `step` used to do)
        // must give the same bits, through a frozen layer, a residual
        // block and a convolution, with and without momentum.
        use crate::layers::{Conv2d, Tanh};
        use crate::Residual;
        let build = || {
            let mut rng = DetRng::from_u64(21);
            Sequential::new()
                .push(Conv2d::new(1, 2, 4, 4, 3, 1, 1, &mut rng))
                .push(Linear::new(32, 6, &mut rng).freeze())
                .push(Residual::new(
                    Sequential::new()
                        .push(Linear::new(6, 6, &mut rng))
                        .push(Tanh::new()),
                ))
                .push(Linear::new(6, 3, &mut rng))
        };
        let x = Tensor::randn(&[5, 16], 1.0, &mut DetRng::from_u64(22));
        for momentum in [0.0, 0.9] {
            let (mut stepped, mut reference) = (build(), build());
            let mut opt = Sgd::new(0.1).with_momentum(momentum);
            let mut velocity = vec![0.0f32; reference.param_count()];
            for _ in 0..3 {
                for model in [&mut stepped, &mut reference] {
                    let y = model.forward(&x, true);
                    model.zero_grad();
                    model.backward(&Tensor::full(y.shape(), 1.0));
                }
                opt.step(&mut stepped);
                for (v, g) in velocity.iter_mut().zip(reference.flat_grads()) {
                    *v = momentum * *v + g;
                }
                reference.apply_flat_grads(&velocity, 0.1);
                assert_eq!(stepped.flat_params(), reference.flat_params());
            }
        }
    }
}
