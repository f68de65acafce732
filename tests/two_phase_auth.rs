//! Integration tests for the two-phase authentication protocol across the
//! SEV simulator, attestation proxy, transport, and party runtimes.

use deta::core::aggregator::AggregatorNode;
use deta::core::mapper::ModelMapper;
use deta::core::party::{Party, PartyConfig};
use deta::core::proxy::{AttestationProxy, TOKEN_SECRET_LABEL};
use deta::core::recovery::Manifest;
use deta::core::session::{DetaConfig, SyncMode};
use deta::core::transform::{TransformConfig, Transformer};
use deta::crypto::{DetRng, SigningKey};
use deta::datasets::DatasetSpec;
use deta::nn::models::mlp;
use deta::sev_sim::{AmdRas, GuestImage, Platform, SealedSecret, SevError};
use deta::transport::{LinkModel, Network};
use std::collections::HashMap;

/// A FedAvg aggregator's image.
fn image() -> GuestImage {
    Manifest::of(&DetaConfig::deta(1, 1), None).image()
}

#[test]
fn phase1_rejects_tampered_aggregator_image() {
    let rng = DetRng::from_u64(1);
    let ras = AmdRas::new(&mut rng.fork(b"ras"));
    let mut proxy = AttestationProxy::new(ras.root_certs(), image(), rng.fork(b"ap"));
    let mut platform = Platform::genuine(&ras, "chip", &mut rng.fork(b"p"));
    // An aggregator with collusion code baked in has a different
    // measurement and must not be provisioned.
    let evil = GuestImage::new(b"ovmf".to_vec(), b"deta-agg-collusion".to_vec());
    let err = proxy
        .verify_and_provision(&mut platform, &evil)
        .unwrap_err();
    assert!(matches!(err, SevError::MeasurementMismatch));
}

#[test]
fn phase2_party_rejects_unattested_aggregator() {
    // An impostor aggregator that never went through Phase I holds a
    // self-generated key instead of the proxy-provisioned token. The
    // party must refuse to register with it.
    let mut rng = DetRng::from_u64(2);
    let ras = AmdRas::new(&mut rng.fork(b"ras"));
    let mut proxy = AttestationProxy::new(ras.root_certs(), image(), rng.fork(b"ap"));
    let mut platform = Platform::genuine(&ras, "chip", &mut rng.fork(b"p"));
    let good = proxy.verify_and_provision(&mut platform, &image()).unwrap();

    // Build an impostor CVM: same workload, but with a *forged* token
    // injected outside the attestation flow.
    let (mut ctx, report) = platform.launch_measure(&image());
    let forged = SigningKey::generate(&mut rng.fork(b"forged"));
    let blob = SealedSecret::seal_to(&report, TOKEN_SECRET_LABEL, &forged.to_bytes(), &mut rng);
    ctx.inject_secret(&blob, &report.nonce).unwrap();
    let impostor_cvm = ctx.finish();

    let net = Network::new(LinkModel::lan());
    let mut impostor = AggregatorNode::new(
        "agg-0",
        impostor_cvm,
        net.register("agg-0"),
        rng.fork(b"agg"),
    )
    .unwrap();

    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let data = spec.generate(20, 1);
    let model = mlp(&[spec.dim(), 8, spec.classes], &mut rng.fork(b"model"));
    let mapper = ModelMapper::generate(model.param_count(), 1, None, &mut rng.fork(b"m"));
    let transformer = Transformer::new(mapper, [0u8; 32], TransformConfig::none());
    let mut party = Party::new(
        "party-0",
        net.register("party-0"),
        model,
        data,
        transformer,
        [0u8; 16],
        vec!["agg-0".to_string()],
        PartyConfig {
            local_epochs: 1,
            batch_size: 8,
            lr: 0.1,
            mode: SyncMode::FedAvg,
            grad_scale: 1.0,
            ldp: None,
        },
        rng.fork(b"party"),
    );
    // The party expects the token key the *proxy* published for agg-0
    // (the genuine one), not the impostor's forged key.
    let mut tokens = HashMap::new();
    tokens.insert("agg-0".to_string(), good.token_key.clone());
    party.send_hellos(&tokens);
    impostor.pump();
    let err = party.complete_handshakes().unwrap_err();
    assert!(
        matches!(err, deta::core::party::PartyError::AuthenticationFailed(_)),
        "party accepted an unattested aggregator: {err:?}"
    );
}

#[test]
fn phase2_party_accepts_attested_aggregator() {
    let rng = DetRng::from_u64(3);
    let ras = AmdRas::new(&mut rng.fork(b"ras"));
    let mut proxy = AttestationProxy::new(ras.root_certs(), image(), rng.fork(b"ap"));
    let mut platform = Platform::genuine(&ras, "chip", &mut rng.fork(b"p"));
    let prov = proxy.verify_and_provision(&mut platform, &image()).unwrap();

    let net = Network::new(LinkModel::lan());
    let mut agg =
        AggregatorNode::new("agg-0", prov.cvm, net.register("agg-0"), rng.fork(b"agg")).unwrap();

    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let data = spec.generate(20, 1);
    let model = mlp(&[spec.dim(), 8, spec.classes], &mut rng.fork(b"model"));
    let mapper = ModelMapper::generate(model.param_count(), 1, None, &mut rng.fork(b"m"));
    let transformer = Transformer::new(mapper, [0u8; 32], TransformConfig::none());
    let mut party = Party::new(
        "party-0",
        net.register("party-0"),
        model,
        data,
        transformer,
        [0u8; 16],
        vec!["agg-0".to_string()],
        PartyConfig {
            local_epochs: 1,
            batch_size: 8,
            lr: 0.1,
            mode: SyncMode::FedAvg,
            grad_scale: 1.0,
            ldp: None,
        },
        rng.fork(b"party"),
    );
    let mut tokens = HashMap::new();
    tokens.insert("agg-0".to_string(), prov.token_key.clone());
    party.send_hellos(&tokens);
    agg.pump();
    party.complete_handshakes().unwrap();
    agg.pump();
    assert!(party.registration_complete());
    assert_eq!(agg.registered_parties(), 1);
}
