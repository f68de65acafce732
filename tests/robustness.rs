//! Adversarial-input robustness: nodes must survive garbage, replayed,
//! and cross-channel traffic without panicking or corrupting state.

use deta::core::aggregator::AggregatorNode;
use deta::core::proxy::AttestationProxy;
use deta::core::recovery::Manifest;
use deta::core::session::DetaConfig;
use deta::core::wire::Msg;
use deta::crypto::DetRng;
use deta::sev_sim::{AmdRas, Platform};
use deta::transport::{LinkModel, Network};
use deta_proptest::cases;

fn aggregator(net: &Network, rng: &mut DetRng) -> AggregatorNode {
    let ras = AmdRas::new(&mut rng.fork(b"ras"));
    let image = Manifest::of(&DetaConfig::deta(1, 1), None).image();
    let mut proxy = AttestationProxy::new(ras.root_certs(), image.clone(), rng.fork(b"ap"));
    let mut platform = Platform::genuine(&ras, "chip", &mut rng.fork(b"p"));
    let prov = proxy.verify_and_provision(&mut platform, &image).unwrap();
    AggregatorNode::new("agg-0", prov.cvm, net.register("agg-0"), rng.fork(b"agg")).unwrap()
}

#[test]
fn aggregator_survives_garbage_frames() {
    cases("aggregator_survives_garbage_frames", 32, |g| {
        let frames = g.vec_of(1, 20, |g| g.bytes(0, 200));
        let net = Network::new(LinkModel::lan());
        let mut rng = DetRng::from_u64(91);
        let mut agg = aggregator(&net, &mut rng);
        let attacker = net.register("attacker");
        for frame in &frames {
            attacker.send("agg-0", frame.clone()).unwrap();
        }
        // Must drain everything without panicking and register nobody.
        agg.pump();
        assert_eq!(agg.registered_parties(), 0);
        assert_eq!(agg.completed_rounds, 0);
    });
}

#[test]
fn aggregator_survives_wellformed_but_unauthenticated_messages() {
    cases(
        "aggregator_survives_wellformed_but_unauthenticated_messages",
        32,
        |g| {
            let round = g.u64();
            let fragment: Vec<f32> = g.vec_of(0, 32, deta_proptest::Gen::f32_any);
            let party = g.string_of("abcdefghijklmnopqrstuvwxyz", 1, 9);
            let weight = g.f32_any();
            // Wire-valid messages that skip the handshake: sealed records
            // cannot decrypt (no channel), registrations arrive outside a
            // channel, uploads reference no session. All must be ignored.
            let net = Network::new(LinkModel::lan());
            let mut rng = DetRng::from_u64(92);
            let mut agg = aggregator(&net, &mut rng);
            let attacker = net.register("attacker");
            let mut frames: Vec<Vec<u8>> = [
                Msg::Record {
                    sealed: fragment.iter().flat_map(|f| f.to_le_bytes()).collect(),
                },
                Msg::Register { party, weight },
                Msg::Upload {
                    round,
                    fragment: fragment.clone(),
                },
                Msg::RegisterAck,
            ]
            .iter()
            .map(|msg| msg.encode().unwrap())
            .collect();
            // The retired inter-aggregator tags 9 (round announcement,
            // with a training id) and 10 (its acknowledgement).
            frames.push([&[9][..], &round.to_le_bytes(), &[0x30; 16]].concat());
            frames.push([&[10][..], &round.to_le_bytes()].concat());
            for frame in frames {
                attacker.send("agg-0", frame).unwrap();
            }
            agg.pump();
            assert_eq!(agg.registered_parties(), 0);
            assert_eq!(agg.completed_rounds, 0);
        },
    );
}

#[test]
fn replayed_hello_does_not_hijack_an_existing_channel() {
    // An attacker replaying a party's captured hello gets a fresh channel
    // keyed to the *attacker's* DH share... which it does not possess
    // (the ephemeral secret never left the party). The replay therefore
    // yields a channel nobody can use, and the original party's channel
    // state on the aggregator is replaced — a denial-of-service at worst,
    // never an authentication bypass. Verify the attacker cannot decrypt.
    use deta::transport::HandshakeInitiator;
    let net = Network::new(LinkModel::lan());
    let mut rng = DetRng::from_u64(93);
    let mut agg = aggregator(&net, &mut rng);
    let party = net.register("party-0");
    let attacker = net.register("attacker");

    let hs = HandshakeInitiator::new(&mut rng);
    let hello_bytes = Msg::Hello {
        handshake: hs.hello().to_vec(),
    }
    .encode()
    .unwrap();
    party.send("agg-0", hello_bytes.clone()).unwrap();
    // The attacker captures and replays the identical hello.
    attacker.send("agg-0", hello_bytes).unwrap();
    agg.pump();
    // Both got HelloReply frames; the attacker's reply is useless to it
    // because completing the handshake requires the party's ephemeral
    // secret.
    let reply_to_attacker = attacker.recv().expect("reply");
    match Msg::decode(&reply_to_attacker.payload).unwrap() {
        Msg::HelloReply { handshake } => {
            // The attacker cannot complete: it has no matching initiator
            // state. Simulate its best effort: a fresh initiator fails
            // because the transcript will not match.
            let fresh = HandshakeInitiator::new(&mut rng);
            let ras_key = deta::crypto::SigningKey::generate(&mut rng).verifying_key();
            assert!(fresh.complete(&handshake, &ras_key).is_err());
        }
        other => panic!("unexpected reply {other:?}"),
    }
}
