//! Phase I / Phase II attestation drills: counterfeit hardware, tampered
//! aggregator images, rogue aggregator binaries with forged tokens, and
//! replayed challenge responses.

use crate::Drill;
use deta_core::aggregator::AggregatorNode;
use deta_core::mapper::ModelMapper;
use deta_core::party::{Party, PartyConfig, PartyError};
use deta_core::proxy::{AttestationProxy, TOKEN_SECRET_LABEL};
use deta_core::recovery::Manifest;
use deta_core::session::{DetaConfig, SyncMode};
use deta_core::transform::{TransformConfig, Transformer};
use deta_crypto::{DetRng, SigningKey};
use deta_datasets::DatasetSpec;
use deta_nn::models::mlp;
use deta_sev_sim::{AmdRas, GuestImage, Platform, SealedSecret, SevError};
use deta_transport::secure::{respond, HandshakeInitiator, TransportError};
use deta_transport::{LinkModel, Network};
use std::collections::HashMap;

/// The reference aggregator image the proxy attests against: a FedAvg
/// aggregator's manifest.
fn image() -> GuestImage {
    Manifest::of(&DetaConfig::deta(1, 1), None).image()
}

/// The Phase I / Phase II drill set.
pub fn drills() -> Vec<Drill> {
    vec![
        Drill {
            id: "phase1-counterfeit-platform",
            claim: "Phase I only provisions CVMs whose attestation report \
                    chains to a genuine AMD root (paper §4.1, step 1)",
            attack: "a counterfeit platform with a self-endorsed chip key \
                     launches the correct image and requests provisioning",
            run: counterfeit_platform,
        },
        Drill {
            id: "phase1-tampered-image",
            claim: "Phase I only provisions the *measured* aggregator \
                    build; a modified binary cannot receive the token key \
                    (paper §4.1, step 1)",
            attack: "a genuine platform launches an aggregator image with \
                     collusion code baked in and requests provisioning",
            run: tampered_image,
        },
        Drill {
            id: "phase2-forged-token",
            claim: "Phase II lets a party detect an aggregator that never \
                    passed Phase I, even one running on real hardware \
                    (paper §4.1, step 2)",
            attack: "a rogue aggregator binary joins setup with a \
                     self-injected forged token key and answers the \
                     party's challenge with it",
            run: forged_token,
        },
        Drill {
            id: "phase2-replayed-response",
            claim: "a captured Phase II challenge response cannot be \
                    replayed into another handshake: the signature binds \
                    the full transcript (DESIGN.md transport layer)",
            attack: "an attacker records a valid handshake response and \
                     replays it to a fresh party handshake",
            run: replayed_response,
        },
    ]
}

fn counterfeit_platform() -> Result<String, String> {
    let rng = DetRng::from_u64(0xA71);
    let ras = AmdRas::new(&mut rng.fork(b"ras"));
    let mut proxy = AttestationProxy::new(ras.root_certs(), image(), rng.fork(b"ap"));
    let mut fake = Platform::counterfeit("EPYC-CLONE", &mut rng.fork(b"fake"));
    match proxy.verify_and_provision(&mut fake, &image()) {
        Err(SevError::BadCertChain(why)) => Ok(format!(
            "SevError::BadCertChain — certificate chain invalid: {why}"
        )),
        Err(e) => Err(format!("wrong rejection: {e}")),
        Ok(_) => Err("a counterfeit platform was provisioned".to_string()),
    }
}

fn tampered_image() -> Result<String, String> {
    let rng = DetRng::from_u64(0xA72);
    let ras = AmdRas::new(&mut rng.fork(b"ras"));
    let mut proxy = AttestationProxy::new(ras.root_certs(), image(), rng.fork(b"ap"));
    let mut platform = Platform::genuine(&ras, "EPYC-7642-001", &mut rng.fork(b"plat"));
    let evil = GuestImage::new(
        b"deta-ovmf-v1".to_vec(),
        b"deta-aggregator-v1-collusion".to_vec(),
    );
    match proxy.verify_and_provision(&mut platform, &evil) {
        Err(e @ SevError::MeasurementMismatch) => Ok(format!(
            "SevError::MeasurementMismatch — {e}: the collusion build's \
             digest differs from the reference image"
        )),
        Err(e) => Err(format!("wrong rejection: {e}")),
        Ok(_) => Err("a tampered aggregator image was provisioned".to_string()),
    }
}

/// Builds the impostor scenario from live session parts: a genuine
/// `agg-0` is provisioned (its token lands in the proxy directory), but
/// the endpoint a party reaches is a rogue binary holding a forged,
/// self-injected token.
fn forged_token() -> Result<String, String> {
    let mut rng = DetRng::from_u64(0xA73);
    let ras = AmdRas::new(&mut rng.fork(b"ras"));
    let mut proxy = AttestationProxy::new(ras.root_certs(), image(), rng.fork(b"ap"));
    let mut platform = Platform::genuine(&ras, "EPYC-7642-001", &mut rng.fork(b"plat"));
    let genuine = proxy
        .verify_and_provision(&mut platform, &image())
        .map_err(|e| format!("genuine provisioning failed: {e}"))?;

    // The rogue binary runs the right image on real hardware, but its
    // token was injected outside the attestation flow.
    let (mut ctx, report) = platform.launch_measure(&image());
    let forged = SigningKey::generate(&mut rng.fork(b"forged"));
    let blob = SealedSecret::seal_to(&report, TOKEN_SECRET_LABEL, &forged.to_bytes(), &mut rng);
    ctx.inject_secret(&blob, &report.nonce)
        .map_err(|e| format!("injecting the forged token failed: {e}"))?;
    let rogue_cvm = ctx.finish();

    let net = Network::new(LinkModel::lan());
    let mut rogue =
        AggregatorNode::new("agg-0", rogue_cvm, net.register("agg-0"), rng.fork(b"agg"))
            .map_err(|e| format!("rogue node failed to start: {e:?}"))?;

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
    // The party trusts what the *proxy* published for agg-0.
    let mut directory = HashMap::new();
    directory.insert("agg-0".to_string(), genuine.token_key.clone());
    party.send_hellos(&directory);
    rogue.pump();
    match party.complete_handshakes() {
        Err(e @ PartyError::AuthenticationFailed(_)) => Ok(format!(
            "PartyError::AuthenticationFailed — {e}: the forged token \
             does not match the proxy-published key"
        )),
        Err(e) => Err(format!("wrong rejection: {e}")),
        Ok(()) => Err("the party registered with a rogue aggregator".to_string()),
    }
}

fn replayed_response() -> Result<String, String> {
    let rng = DetRng::from_u64(0xA74);
    let identity = SigningKey::generate(&mut rng.fork(b"identity"));
    let peer = identity.verifying_key();

    // A legitimate handshake the attacker records.
    let victim_a = HandshakeInitiator::new(&mut rng.fork(b"victim-a"));
    let (reply, _responder) = respond(victim_a.hello(), &identity, &mut rng.fork(b"resp"))
        .map_err(|e| format!("honest respond failed: {e}"))?;
    victim_a
        .complete(&reply, &peer)
        .map_err(|e| format!("honest handshake failed: {e}"))?;

    // The same bytes replayed into a fresh handshake.
    let victim_b = HandshakeInitiator::new(&mut rng.fork(b"victim-b"));
    match victim_b.complete(&reply, &peer) {
        Err(e @ TransportError::BadAuthentication) => Ok(format!(
            "TransportError::BadAuthentication — {e}: the replayed \
             response signs the recorded transcript, not this handshake"
        )),
        Err(e) => Err(format!("wrong rejection: {e}")),
        Ok(_) => Err("a replayed challenge response opened a channel".to_string()),
    }
}
