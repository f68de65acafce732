//! Known answers for the three matrix products and for what local
//! training makes of them.
//!
//! The constants were produced by the three scalar loops `matmul`,
//! `matmul_tn` and `matmul_nt` started out as (an i-k-j axpy with a zero
//! skip, a k-i-j axpy with a zero skip, and a per-element dot product).
//! All three give every output element the same sequence of roundings —
//! products added one at a time, `p` upward, into an accumulator that
//! starts at `+0.0` — so any faster kernel has to reproduce these bytes
//! exactly: every model, golden file and parity suite in the repository
//! is a function of them.

use deta::crypto::sha256::sha256;
use deta::crypto::DetRng;
use deta::nn::models::{convnet8, mlp};
use deta::nn::train::{evaluate, train_local, LabeledData};
use deta::tensor::Tensor;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn digest(values: &[f32]) -> String {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    hex(&sha256(&bytes))
}

/// A Gaussian operand passed through ReLU: about half its entries are
/// exact zeros, the share the products see after an activation layer.
fn relu_randn(shape: &[usize], rng: &mut DetRng) -> Tensor {
    Tensor::randn(shape, 1.0, rng).map(|v| v.max(0.0))
}

fn zero_share(t: &Tensor) -> f32 {
    t.data().iter().filter(|&&v| v == 0.0).count() as f32 / t.numel() as f32
}

fn digest_finite(values: &[f32]) -> String {
    assert!(values.iter().all(|v| v.is_finite()));
    digest(values)
}

fn labeled(n: usize, d: usize, classes: u64, rng: &mut DetRng) -> LabeledData {
    let features = Tensor::randn(&[n, d], 1.0, rng);
    let labels = (0..n).map(|_| rng.gen_range(classes) as usize).collect();
    LabeledData::new(features, labels)
}

#[test]
fn matmul_conv1_forward_shape() {
    // W [8, 27] x im2col [27, 1024]: ConvNet-8's first layer on 3x32x32.
    let mut rng = DetRng::from_u64(0x6e4d);
    let a = relu_randn(&[8, 27], &mut rng);
    let b = Tensor::randn(&[27, 1024], 1.0, &mut rng);
    assert!((0.3..0.7).contains(&zero_share(&a)));
    assert_eq!(
        digest(a.matmul(&b).data()),
        "9022bb7b422aa68fa4e330b8f74cf63b3554f464aa0fa88955a9e1281f3577c2"
    );
}

#[test]
fn matmul_nt_conv2_dw_shape() {
    // dY [16, 256] x cols [72, 256]^T: ConvNet-8's second layer's dW.
    let mut rng = DetRng::from_u64(0x6e4e);
    let a = relu_randn(&[16, 256], &mut rng);
    let b = relu_randn(&[72, 256], &mut rng);
    assert!((0.3..0.7).contains(&zero_share(&a)));
    assert_eq!(
        digest(a.matmul_nt(&b).data()),
        "d463c9f54a1f9e2ea11affbcfe71582265984710080a62fbadce7cfea6b68c3c"
    );
}

#[test]
fn matmul_tn_conv2_dcols_shape() {
    // W [16, 72]^T x dY [16, 256]: ConvNet-8's second layer's dCols.
    let mut rng = DetRng::from_u64(0x6e4f);
    let a = relu_randn(&[16, 72], &mut rng);
    let b = Tensor::randn(&[16, 256], 1.0, &mut rng);
    assert!((0.3..0.7).contains(&zero_share(&a)));
    assert_eq!(
        digest(a.matmul_tn(&b).data()),
        "88b40cfa139de4004a5768494d0ecf933f14949370109044ffa3b390544fae5f"
    );
}

#[test]
fn matmul_nt_mlp_forward_shapes() {
    // X [16, 784] and [64, 784] x W [1280, 784]^T: the 1.0M-parameter
    // MLP's first layer on a training batch and on the test set.
    let mut rng = DetRng::from_u64(0x6e50);
    let w = Tensor::randn(&[1280, 784], 0.05, &mut rng);
    let train = relu_randn(&[16, 784], &mut rng);
    let test = relu_randn(&[64, 784], &mut rng);
    assert!((0.3..0.7).contains(&zero_share(&train)));
    assert_eq!(
        digest(train.matmul_nt(&w).data()),
        "ca29a94d7c29c81740c56385f84e94bfb741c1179a1c088c500b3aae453cfb8a"
    );
    assert_eq!(
        digest(test.matmul_nt(&w).data()),
        "826079356d2c6fd6bf6bb1d96ad4e28603ef7e281d2bc8d5b92cd93eb3c4e097"
    );
}

#[test]
fn train_local_on_convnet8() {
    let mut rng = DetRng::from_u64(0x6e51);
    let mut model = convnet8(3, 32, 10, &mut rng);
    let data = labeled(128, 3 * 32 * 32, 10, &mut rng);
    let stats = train_local(&mut model, &data, 1, 32, 0.05);
    assert_eq!(stats.examples, 128);
    assert_eq!(stats.loss.to_bits(), 0x410ba6d4, "loss {}", stats.loss);
    assert_eq!(
        digest_finite(&model.flat_params()),
        "475a9cb5af2e0df2b51bb36e12eb67e8e64ce44b33cc4d9153456fe4aecaa33d"
    );
}

#[test]
fn train_local_and_evaluate_on_the_1m_mlp() {
    let mut rng = DetRng::from_u64(0x6e52);
    let mut model = mlp(&[784, 1280, 10], &mut rng);
    let shard = labeled(16, 784, 10, &mut rng);
    let test = labeled(64, 784, 10, &mut rng);
    let stats = train_local(&mut model, &shard, 1, 16, 0.05);
    assert_eq!(stats.loss.to_bits(), 0x403b572c, "loss {}", stats.loss);
    assert_eq!(
        digest_finite(&model.flat_params()),
        "9a68f9d5082b8e7b955e89408504355dcf81e4c646df11f3086080b12ff53241"
    );
    let (loss, accuracy) = evaluate(&mut model, &test, 64);
    assert_eq!(loss.to_bits(), 0x40285f0b, "loss {loss}");
    assert_eq!(accuracy.to_bits(), 0x3d400000, "accuracy {accuracy}");
}
