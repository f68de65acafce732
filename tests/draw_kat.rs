//! Known answers for what the Gaussian sampler draws: model weights and
//! synthetic pixels.
//!
//! The constants were recorded while every draw went through
//! `DetRng::next_gaussian` one at a time (libm `ln` and `cos`, then the
//! cast to `f32`). Whatever computes the draws now must reproduce these
//! bytes exactly: every model, golden file and parity suite in the
//! repository starts from them.

use deta::crypto::sha256::sha256;
use deta::crypto::DetRng;
use deta::datasets::DatasetSpec;
use deta::nn::models::{convnet8, mlp};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn digest(values: &[f32]) -> String {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    hex(&sha256(&bytes))
}

fn digest_labels(labels: &[usize]) -> String {
    let bytes: Vec<u8> = labels
        .iter()
        .flat_map(|&l| (l as u64).to_le_bytes())
        .collect();
    hex(&sha256(&bytes))
}

#[test]
fn mlp_weights() {
    // `fedavg_seq`'s 10⁶-parameter model.
    for (seed, want) in [
        (
            42,
            "639fd1b9d1f855c35e23103a5a71b358eeccbbcf6ec1cb6002cf5d6d38219f8f",
        ),
        (
            7,
            "717202ae78c50a15eb3fb88a70336c907fd898ac19e551e316e1333e45a5dd9a",
        ),
    ] {
        let model = mlp(&[784, 1280, 10], &mut DetRng::from_u64(seed));
        assert_eq!(model.param_count(), 1_017_610);
        assert_eq!(digest(&model.flat_params()), want, "seed {seed}");
    }
}

#[test]
fn convnet8_weights() {
    for (seed, want) in [
        (
            42,
            "d49b9ce3017443f23c6d57f64ce184d0545e1ad93a56ebf45f3ae41de1ae937a",
        ),
        (
            7,
            "0ec5d29832030307b75a58e0d0488f13ec0894a0fafc3c8175e21d1bb0aa4279",
        ),
    ] {
        let model = convnet8(3, 32, 10, &mut DetRng::from_u64(seed));
        assert_eq!(digest(&model.flat_params()), want, "seed {seed}");
    }
}

#[test]
fn generated_shards() {
    let specs = [
        DatasetSpec::mnist_like(),
        DatasetSpec::cifar10_like().at_resolution(32),
    ];
    let want = [
        (
            "9bc5f96a4eae3453dd128c7aef94de9b9b07dd32f0ee54c49e164e746effdeb8",
            "0dd8c768df6d50ddbdff689db2a94abd60ad3f1c47ab66f86b71203a4f71312c",
        ),
        (
            "bcf0e6b37b1c5ef4a0414d548cf65b8704398e254d655e071a31dae9fe387fec",
            "66c3c2bc58c20de3e5feb944574773f7c291a8a3952ac2f8d58e86e24ab51573",
        ),
    ];
    for (spec, (features, labels)) in specs.iter().zip(want) {
        let data = spec.generate(24, 42);
        assert_eq!(digest(data.features.data()), features, "{}", spec.name);
        assert_eq!(digest_labels(&data.labels), labels, "{}", spec.name);
    }
}

#[test]
fn generated_classes() {
    let specs = [
        DatasetSpec::mnist_like(),
        DatasetSpec::cifar10_like().at_resolution(32),
    ];
    let want = [
        "e8a8e928cc4dedbdd09bac5d977d26a5709313d274b5712903d53630234fae46",
        "362a09fc47b75aaab50c55c99c87d8210a0b911f46fa25edc505881337f833c1",
    ];
    for (spec, features) in specs.iter().zip(want) {
        let data = spec.generate_class(3, 5, 42);
        assert_eq!(data.labels, vec![3; 5]);
        assert_eq!(digest(data.features.data()), features, "{}", spec.name);
    }
}
