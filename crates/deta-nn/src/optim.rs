//! The optimizer step of local training.

use crate::Sequential;

/// One step of plain stochastic gradient descent, `w -= lr * g`, from the
/// model's accumulated gradients, record by trainable record, without
/// gathering them.
pub fn sgd_step(model: &mut Sequential, lr: f32) {
    model.trainable_mut(|record| {
        let (params, grads) = record.held();
        for (p, g) in params.into_iter().zip(grads.iter()) {
            for (w, g) in p.data_mut().iter_mut().zip(g.data()) {
                *w -= lr * g;
            }
        }
    });
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

    fn run_one_step(model: &mut Sequential, lr: f32) {
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = model.forward(&x, true);
        model.zero_grad();
        model.backward(&Tensor::full(y.shape(), 1.0));
        sgd_step(model, lr);
    }

    #[test]
    fn sgd_descends() {
        let mut model = setup();
        let before = model.flat_params();
        run_one_step(&mut model, 0.1);
        let after = model.flat_params();
        // Gradient of sum(y) w.r.t. W is x = (1, 1), w.r.t. b is 1.
        assert!((before[0] - 0.1 - after[0]).abs() < 1e-6);
        assert!((before[2] - 0.1 - after[2]).abs() < 1e-6);
    }

    #[test]
    fn in_place_step_equals_gather_and_scatter() {
        // The step visits parameters layer by layer; gathering every
        // gradient and scattering the update (what `step` used to do)
        // must give the same bits, through a frozen layer, a residual
        // block and a convolution.
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
        let (mut stepped, mut reference) = (build(), build());
        for _ in 0..3 {
            for model in [&mut stepped, &mut reference] {
                let y = model.forward(&x, true);
                model.zero_grad();
                model.backward(&Tensor::full(y.shape(), 1.0));
            }
            sgd_step(&mut stepped, 0.1);
            // Gather, step, scatter.
            let grads = reference.flat_grads();
            let flat: Vec<f32> = (reference.flat_params().iter().zip(&grads))
                .map(|(w, g)| w - 0.1 * g)
                .collect();
            reference.set_flat_params(&flat);
            assert_eq!(stepped.flat_params(), reference.flat_params());
        }
    }
}
