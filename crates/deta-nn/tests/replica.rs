//! A replica (`Sequential::clone`, through `Layer::replica`) is the model
//! it copies: the same parameters, frozen ones included, no gradients,
//! and the same training from then on — but its own memory.

use deta_crypto::DetRng;
use deta_nn::models::{convnet23, convnet8, mlp, resnet_lite, vgg_lite};
use deta_nn::train::{train_local, LabeledData};
use deta_nn::Sequential;
use deta_tensor::Tensor;

const BATCH: usize = 4;

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Every parameter of every layer, frozen layers included.
fn every_param(model: &Sequential) -> Vec<u32> {
    let params = model.layers().iter().flat_map(|l| l.params());
    params.flat_map(|p| bits(p.data())).collect()
}

/// Every gradient buffer of every layer, frozen layers included.
fn every_grad(model: &Sequential) -> Vec<f32> {
    let grads = model.layers().iter().flat_map(|l| l.grads());
    grads.flat_map(|g| g.data().to_vec()).collect()
}

fn layer_kinds(model: &Sequential) -> Vec<(&'static str, bool)> {
    let layers = model.layers().iter();
    layers.map(|l| (l.name(), l.frozen())).collect()
}

fn check_replica(mut original: Sequential, in_dim: usize, classes: usize) {
    let x = Tensor::randn(&[BATCH, in_dim], 1.0, &mut DetRng::from_u64(0x5eed));
    let labels = (0..BATCH).map(|i| i % classes).collect();
    let batch = LabeledData::new(x.clone(), labels);
    // Leave gradients and a cached activation behind in the original;
    // a replica carries neither.
    let y = original.forward(&x, true);
    original.zero_grad();
    original.backward(&Tensor::full(y.shape(), 1.0));
    original.forward(&x, true);
    assert!(every_grad(&original).iter().any(|&g| g != 0.0));

    let mut replica = original.clone();
    assert_eq!(layer_kinds(&replica), layer_kinds(&original));
    assert_eq!(bits(&replica.flat_params()), bits(&original.flat_params()));
    assert_eq!(every_param(&replica), every_param(&original));
    assert!(
        every_grad(&replica).is_empty(),
        "a replica holds no gradients"
    );
    replica.zero_grad();
    assert!(
        every_grad(&replica).iter().all(|g| g.to_bits() == 0),
        "a replica's gradients start at +0.0"
    );
    assert_eq!(every_grad(&replica).len(), every_grad(&original).len());
    assert_eq!(
        bits(replica.forward(&x, false).data()),
        bits(original.forward(&x, false).data())
    );

    train_local(&mut original, &batch, 1, BATCH, 0.1);
    train_local(&mut replica, &batch, 1, BATCH, 0.1);
    assert_eq!(bits(&replica.flat_params()), bits(&original.flat_params()));
    assert!(
        every_grad(&original).is_empty() && every_grad(&replica).is_empty(),
        "training releases the gradients it made"
    );

    // Training the replica leaves the original's bits where they were.
    let before = every_param(&original);
    train_local(&mut replica, &batch, 2, BATCH, 0.1);
    assert_ne!(every_param(&replica), before, "training moved the replica");
    assert_eq!(every_param(&original), before);
}

#[test]
fn a_replica_of_an_mlp_is_the_mlp() {
    check_replica(mlp(&[16, 12, 4], &mut DetRng::from_u64(1)), 16, 4);
}

#[test]
fn a_replica_of_convnet8_is_convnet8() {
    check_replica(convnet8(1, 8, 4, &mut DetRng::from_u64(2)), 64, 4);
}

#[test]
fn a_replica_of_convnet23_is_convnet23() {
    check_replica(convnet23(3, 8, 4, &mut DetRng::from_u64(3)), 3 * 64, 4);
}

#[test]
fn a_replica_of_vgg_lite_keeps_its_frozen_backbone() {
    let model = vgg_lite(3, 8, 4, &mut DetRng::from_u64(4));
    let frozen = model.layers().iter().filter(|l| l.frozen()).count();
    assert_eq!(frozen, 2, "two frozen convolutions");
    check_replica(model, 3 * 64, 4);
}

#[test]
fn a_replica_of_resnet_lite_replicates_its_residual_blocks() {
    check_replica(resnet_lite(1, 8, 3, &mut DetRng::from_u64(5)), 64, 3);
}
