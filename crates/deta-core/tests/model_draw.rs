//! A session build draws its starting model once and copies it to every
//! party; a node built alone draws one if it is a party and none if it is
//! an aggregator; a coordinator built alone draws the one it evaluates
//! on, and is the share of a full build.

use std::cell::Cell;

use deta_core::session::{CoordinatorParts, DetaConfig, Node, NodeParts, SessionParts};
use deta_core::supervise::FailoverPolicy;
use deta_crypto::DetRng;
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_nn::train::LabeledData;
use deta_nn::Sequential;

const SEED: u64 = 0x0de7a;

fn config(parties: usize) -> DetaConfig {
    let mut cfg = DetaConfig::deta(parties, 2);
    cfg.seed = SEED;
    cfg
}

fn shards(parties: usize) -> Vec<LabeledData> {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    iid_partition(&spec.generate(10 * parties, 1), parties, 2)
}

fn small_model(rng: &mut DetRng) -> Sequential {
    mlp(&[64, 24, 10], rng)
}

fn bits(model: &Sequential) -> Vec<u32> {
    model.flat_params().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn a_session_build_calls_the_builder_once_at_any_party_count() {
    let direct = bits(&small_model(
        &mut DetRng::from_u64(SEED).fork(b"model-init"),
    ));
    for parties in [2, 4, 32] {
        let calls = Cell::new(0);
        let counting = |rng: &mut DetRng| {
            calls.set(calls.get() + 1);
            small_model(rng)
        };
        let parts =
            SessionParts::build(config(parties), &counting, shards(parties)).expect("build");
        assert_eq!(calls.get(), 1, "{parties} parties");
        assert_eq!(bits(&parts.eval_model), direct, "{parties} parties");
        assert_eq!(parts.parties.len(), parties);
        for party in &parts.parties {
            assert_eq!(bits(&party.model), direct, "{}", party.name);
        }
    }
}

#[test]
fn a_node_built_alone_draws_once_if_a_party_and_never_if_an_aggregator() {
    for name in ["party-0", "party-3", "agg-0", "agg-2"] {
        let calls = Cell::new(0);
        let counting = |rng: &mut DetRng| {
            calls.set(calls.get() + 1);
            small_model(rng)
        };
        let alone = NodeParts::build(config(4), &counting, shards(4), name).expect("node");
        let is_party = matches!(alone.node, Node::Party(_));
        assert_eq!(is_party, name.starts_with("party-"), "{name}");
        assert_eq!(calls.get(), usize::from(is_party), "{name}");
    }
}

#[test]
fn a_coordinator_built_alone_draws_once_and_is_the_share_of_a_full_build() {
    let calls = Cell::new(0);
    let counting = |rng: &mut DetRng| {
        calls.set(calls.get() + 1);
        small_model(rng)
    };
    let alone = CoordinatorParts::build(config(4), &counting, &shards(4)).expect("build");
    assert_eq!(calls.get(), 1);
    let full = SessionParts::build(config(4), &small_model, shards(4)).expect("build");
    let (share, parties, aggregators) = full.split(FailoverPolicy::None);
    assert_eq!(bits(&alone.eval_model), bits(&share.eval_model));
    assert_eq!(alone.tokens, share.tokens);
    assert_eq!(alone.parties, share.parties);
    assert_eq!(alone.aggregators, share.aggregators);
    assert_eq!(share.parties, ["party-0", "party-1", "party-2", "party-3"]);
    assert_eq!(share.aggregators.len(), aggregators.len());
    assert_eq!(parties.len(), 4);
    // Every node's name has an endpoint, for a bridge to forward.
    assert_eq!(alone.network.names(), share.network.names());
    assert_eq!(alone.network.names().len(), 4 + aggregators.len());
}

#[test]
fn replicas_of_one_build_agree_even_when_the_builder_ignores_its_rng() {
    // Each call draws from a counter, not from the fork it is handed:
    // two calls would disagree, so only a single draw keeps the replicas
    // of one build equal.
    let counter = Cell::new(0u64);
    let drifting = |_: &mut DetRng| {
        let k = counter.get();
        counter.set(k + 1);
        small_model(&mut DetRng::from_u64(k))
    };
    let parts = SessionParts::build(config(4), &drifting, shards(4)).expect("build");
    assert_eq!(counter.get(), 1);
    let drawn = bits(&parts.eval_model);
    assert_eq!(drawn, bits(&small_model(&mut DetRng::from_u64(0))));
    for party in &parts.parties {
        assert_eq!(bits(&party.model), drawn, "{}", party.name);
    }
}
