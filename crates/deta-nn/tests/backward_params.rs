//! `Sequential::backward_params` skips the first layer's input gradient
//! and nothing else: it leaves every gradient buffer `backward` leaves,
//! bit for bit, for every model in the zoo.

use deta_crypto::DetRng;
use deta_nn::models::{convnet23, convnet8, lenet_dlg, mlp, resnet_lite, vgg_lite};
use deta_nn::{Conv2d, Linear, Residual, Sequential, Tanh};
use deta_proptest::cases;
use deta_tensor::Tensor;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every gradient buffer of every layer, frozen layers included.
fn every_grad(model: &Sequential) -> Vec<u32> {
    let grads = model.layers().iter().flat_map(|l| l.grads());
    grads.flat_map(|g| bits(g.data())).collect()
}

/// The zoo entry `which`, drawn from `seed`, with its input width.
fn zoo(which: usize, seed: u64) -> (Sequential, usize) {
    let rng = &mut DetRng::from_u64(seed);
    match which {
        0 => (mlp(&[12, 9, 4], rng), 12),
        1 => (convnet8(1, 8, 4, rng), 64),
        2 => (convnet23(3, 8, 4, rng), 3 * 64),
        3 => (vgg_lite(3, 8, 4, rng), 3 * 64),
        4 => (resnet_lite(1, 8, 3, rng), 64),
        5 => (lenet_dlg(1, 8, 4, rng), 64),
        // A residual block first: its inner stack's first layer is the
        // one that skips the input gradient.
        6 => {
            let inner = Sequential::new()
                .push(Conv2d::new(2, 2, 4, 4, 3, 1, 1, rng))
                .push(Tanh::new());
            let model = Sequential::new()
                .push(Residual::new(inner))
                .push(Linear::new(2 * 16, 3, rng));
            (model, 2 * 16)
        }
        _ => {
            let inner = Sequential::new().push(Linear::new(6, 6, rng).freeze());
            let model = Sequential::new()
                .push(Residual::new(inner))
                .push(Tanh::new())
                .push(Linear::new(6, 3, rng));
            (model, 6)
        }
    }
}

/// The models `zoo` knows.
const MODELS: usize = 8;

#[test]
fn backward_params_leaves_the_gradients_of_backward() {
    cases("backward_params_leaves_the_gradients_of_backward", 8, |g| {
        for which in 0..MODELS {
            let (mut full, in_dim) = zoo(which, g.u64());
            let mut params_only = full.clone();
            let batch = g.usize_in(1, 5);
            let mut rng = DetRng::from_u64(g.u64());
            full.zero_grad();
            params_only.zero_grad();
            // Two passes without a reset, so accumulation is compared too.
            for _ in 0..2 {
                let x = Tensor::randn(&[batch, in_dim], 1.0, &mut rng);
                let y = full.forward(&x, true);
                assert_eq!(params_only.forward(&x, true), y);
                let grad_out = Tensor::randn(y.shape(), 1.0, &mut rng);
                full.backward(&grad_out);
                params_only.backward_params(&grad_out);
                assert_eq!(every_grad(&params_only), every_grad(&full), "model {which}");
            }
            let (got, want) = (params_only.flat_grads(), full.flat_grads());
            assert_eq!(bits(&got), bits(&want), "model {which}");
        }
    });
}
