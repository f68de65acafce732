//! Known answers for what the keyed draws produce: model weights and
//! synthetic pixels from the Gaussian sampler, and the shuffles behind
//! the model mapper and the round permutations.
//!
//! The Gaussian constants were recorded while every draw went through
//! `DetRng::next_gaussian` one at a time (libm `ln` and `cos`, then the
//! cast to `f32`); the shuffle constants while every Fisher–Yates step
//! drew its index through `DetRng::gen_range`, one `next_u64` at a time.
//! Whatever computes the draws now must reproduce these bytes exactly:
//! every model, mapper, golden file and parity suite in the repository
//! starts from them.

use deta::core::mapper::ModelMapper;
use deta::core::shuffle::RoundPermutation;
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

/// The position tables of a mapper, table after table, as `u32`s.
fn digest_positions(mapper: &ModelMapper) -> String {
    let tables: Vec<u32> = (0..mapper.n_aggregators())
        .flat_map(|j| mapper.fragment_positions(j).iter().copied())
        .collect();
    digest_slots(&tables)
}

fn digest_slots(slots: &[u32]) -> String {
    let bytes: Vec<u8> = slots.iter().flat_map(|s| s.to_le_bytes()).collect();
    hex(&sha256(&bytes))
}

#[test]
fn mapper_positions() {
    // `fedavg_seq`'s model over three aggregators, and one a tenth of it
    // with uneven shares, each from the session's `mapper` fork.
    for (params, proportions, want) in [
        (
            1_017_610,
            None,
            "437a8fdf95084efc3e19a2e6f3e8e0834bb79fecdaee35a3cac29f7dadcb83cc",
        ),
        (
            101_770,
            Some(&[0.5f32, 0.3, 0.2][..]),
            "6281b4d08c38fa1f60dbcde098ce4d32eb23dc0802f1bec15a392d468595d2ff",
        ),
    ] {
        let mut rng = DetRng::from_u64(42).fork(b"mapper");
        let mapper = ModelMapper::generate(params, 3, proportions, &mut rng);
        assert_eq!(mapper.n_params(), params);
        assert_eq!(digest_positions(&mapper), want, "{params} parameters");
    }
}

#[test]
fn round_permutation_slots() {
    // 339 204 slots is a third of `fedavg_seq`'s model; 127, 128 and 129
    // straddle one refill of the generator (128 words).
    let (key, training_id) = ([7u8; 32], [9u8; 16]);
    for (fragment, len, want) in [
        (
            0,
            339_204,
            "ad4d07617c5c39a295e325590e08405a23627662aa3f5275f7d739052dfd76dc",
        ),
        (
            1,
            127,
            "44bd93ed02985373d93134122b8a87769f5ea4b5eade79ea2e2b13afe1f6705c",
        ),
        (
            2,
            128,
            "b7ee1ab17ae72d6d36fb55dfa6c27eafacfbaab9966e20472a27a34ccbe027e7",
        ),
        (
            2,
            129,
            "0b51d229da7fce26f2cc1ed7db49ca8095b9f628c192f35c8d470c5b6f09ba0a",
        ),
    ] {
        let perm = RoundPermutation::derive(&key, &training_id, fragment, len);
        let slots: Vec<f32> = (0..len).map(|s| s as f32).collect();
        let order: Vec<u32> = perm.apply(&slots).iter().map(|&s| s as u32).collect();
        assert_eq!(digest_slots(&order), want, "{len} slots");
    }
}

#[test]
fn permutation_after_a_half_word() {
    // One `next_u32` first, so every later word starts 4 bytes into an
    // 8-byte one; 3 000 slots cross two refills.
    let mut rng = DetRng::from_u64(42);
    let _ = rng.next_u32();
    let perm = rng.permutation(3_000);
    assert_eq!(
        digest_slots(&perm),
        "64e8126fb8ee0ddb6ce1d6eb01ad6aa0aff51e4994e7cb16dc76e42591c64916"
    );
    assert_eq!(
        rng.next_u64(),
        0x9353_4179_5de9_d74d,
        "the stream ends where it did"
    );
}
