//! What would panic or fail mid-run is refused at set-up: local training
//! asserts a positive batch size and a non-empty shard, and FedSGD
//! divides by the batch count, so a session that breaks either never
//! builds. The mapper asserts its proportions and a label width, after
//! Phase I; a trimmed mean that trims every upload fails every round.

use deta_core::agg::AggKind;
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

/// `cfg` is refused with `why` by the full build and by every node built
/// alone: a party, which draws the mapper, and an aggregator, which never
/// does.
fn refused_everywhere(cfg: DetaConfig, why: &str) {
    let (_, shards, dim, classes) = session();
    let builder = move |rng: &mut _| mlp(&[dim, 4, classes], rng);
    let full = SessionParts::build(cfg.clone(), &builder, shards.clone());
    assert_eq!(refusal(full), why);
    for name in ["party-0", "agg-0"] {
        let alone = NodeParts::build(cfg.clone(), &builder, shards.clone(), name);
        assert_eq!(refusal(alone), why, "{name} built alone");
    }
}

#[test]
fn proportions_the_mapper_cannot_draw_are_refused_at_set_up() {
    let why = "need one finite, positive proportion per aggregator";
    for proportions in [
        vec![1.0, 1.0],
        vec![1.0, 1.0, 1.0, 1.0],
        vec![1.0, 0.0, 1.0],
        vec![1.0, -2.0, 1.0],
        vec![1.0, f32::NAN, 1.0],
        vec![1.0, f32::INFINITY, 1.0],
    ] {
        let (cfg, ..) = session();
        assert_eq!(cfg.n_aggregators, 3);
        let proportions = Some(proportions);
        refused_everywhere(DetaConfig { proportions, ..cfg }, why);
    }
}

#[test]
fn more_aggregators_than_a_label_can_name_are_refused_before_phase_one() {
    // Refused before a single aggregator is attested: attesting 65 536
    // of them first would take minutes.
    let (cfg, ..) = session();
    let n_aggregators = usize::from(u16::MAX) + 1;
    refused_everywhere(
        DetaConfig {
            n_aggregators,
            ..cfg
        },
        "at most 65535 aggregators",
    );
}

#[test]
fn a_trimmed_mean_that_leaves_no_upload_is_refused_at_set_up() {
    let why = "a trimmed mean must leave an upload";
    let (cfg, ..) = session();
    let trimmed = |trim, n_parties, participation| DetaConfig {
        algorithm: AggKind::TrimmedMean { trim },
        n_parties,
        participation,
        ..cfg.clone()
    };
    // Two uploads a round, one trimmed from each end.
    refused_everywhere(trimmed(1, 2, None), why);
    let (_, mut shards, dim, classes) = session();
    shards.push(shards[0].clone());
    let builder = move |rng: &mut _| mlp(&[dim, 4, classes], rng);
    let built = |cfg: DetaConfig| SessionParts::build(cfg, &builder, shards.clone());
    // Three parties, of whom a quorum of two upload.
    assert_eq!(refusal(built(trimmed(1, 3, Some(2)))), why);
    assert_eq!(refusal(built(trimmed(usize::MAX, 3, None))), why);
    assert!(built(trimmed(1, 3, None)).is_ok(), "one upload is left");
    // Krum and FLAME-lite degrade over few uploads rather than fail.
    for algorithm in [AggKind::Krum { f: 2 }, AggKind::FlameLite] {
        let cfg = DetaConfig {
            algorithm,
            ..trimmed(0, 3, Some(1))
        };
        assert!(built(cfg).is_ok(), "{algorithm:?}");
    }
}
