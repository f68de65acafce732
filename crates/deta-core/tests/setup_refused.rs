//! What would panic mid-run is refused at set-up: local training asserts
//! a positive batch size and a non-empty shard, and FedSGD divides by the
//! batch count, so a session that breaks either never builds.

use deta_core::session::{DetaConfig, NodeParts, SessionParts, SetupError};
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_nn::train::LabeledData;

/// A two-party session's configuration and shards.
fn session() -> (DetaConfig, Vec<LabeledData>, usize, usize) {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let shards = iid_partition(&spec.generate(16, 1), 2, 2);
    (DetaConfig::deta(2, 1), shards, spec.dim(), spec.classes)
}

fn refusal<T>(built: Result<T, SetupError>) -> &'static str {
    match built {
        Err(SetupError::Config(why)) => why,
        Err(other) => panic!("expected a configuration refusal, got {other:?}"),
        Ok(_) => panic!("the session built"),
    }
}

#[test]
fn a_batch_size_of_zero_is_refused_at_set_up() {
    let (mut cfg, shards, dim, classes) = session();
    cfg.batch_size = 0;
    let builder = move |rng: &mut _| mlp(&[dim, 4, classes], rng);
    let why = refusal(SessionParts::build(cfg.clone(), &builder, shards.clone()));
    assert_eq!(why, "batch_size must be positive");
    let alone = NodeParts::build(cfg, &builder, shards, "party-0");
    assert_eq!(refusal(alone), why, "a node built alone refuses it too");
}

#[test]
fn a_party_without_examples_is_refused_at_set_up() {
    let (cfg, mut shards, dim, classes) = session();
    let (features, labels) = shards[1].slice(0, 0);
    shards[1] = LabeledData::new(features, labels.to_vec());
    assert!(shards[1].is_empty());
    let builder = move |rng: &mut _| mlp(&[dim, 4, classes], rng);
    let why = refusal(SessionParts::build(cfg, &builder, shards));
    assert_eq!(why, "every party needs at least one example");
}
