//! Inner messages a party controls must never stop an aggregator: a
//! hostile registration is dropped, counted and attributed, an upload of
//! the kind the node does not aggregate — or of a length the round does
//! not hold — is refused where it comes in and costs nobody else theirs,
//! and an aggregation the inputs cannot support — plain or encrypted —
//! is a structured failure of the round. Nor does a stale aggregate,
//! of either kind, pass a party uncounted. The telemetry sink is on for
//! this binary (it is sticky), so that the counters and events can be
//! read back.

mod common;

use common::{aggregator, registered, RawParty};
use deta_bignum::BigUint;
use deta_core::agg::AggKind;
use deta_core::paillier_fusion::PaillierFusionConfig;
use deta_core::wire::Msg;
use deta_core::{DetaConfig, DetaSession};
use deta_crypto::DetRng;
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_paillier::PublicKey;
use deta_telemetry::metrics::counter_value;
use deta_telemetry::{FlightRecorder, TelemetryValue};
use deta_transport::{LinkModel, Network};

fn register(party: &str, weight: f32) -> Msg {
    Msg::Register {
        party: party.to_string(),
        weight,
    }
}

#[test]
fn hostile_registrations_are_dropped_counted_and_attributed() {
    deta_telemetry::enable();
    let recorder = FlightRecorder::new("agg-0", 256);
    let _attached = deta_telemetry::attach(recorder.clone());
    let net = Network::new(LinkModel::lan());
    let mut rng = DetRng::from_u64(0x4e6);
    let mut agg = aggregator(&net, AggKind::IterativeAveraging, &mut rng);
    let mut honest: Vec<RawParty> = (0..3)
        .map(|i| RawParty::join(&net, &mut agg, &format!("party-{i}"), &mut rng))
        .collect();
    for (i, party) in honest.iter_mut().enumerate() {
        party.send(&register(&format!("party-{i}"), 10.0 * (i + 1) as f32));
    }
    agg.pump();
    for party in &mut honest {
        assert_eq!(party.recv(), Some(Msg::RegisterAck));
    }

    let rejected_before = counter_value("deta_wire_rejected_total", "Register");
    let mut hostile = RawParty::join(&net, &mut agg, "party-9", &mut rng);
    let attacks = [
        // Weights that would poison the weighted mean's total...
        register("party-9", f32::NAN),
        register("party-9", 0.0),
        register("party-9", -60.0),
        register("party-9", f32::INFINITY),
        // ...and names no authenticated upload will ever arrive under,
        // or whose weight belongs to somebody else.
        register("ghost-0", 1.0),
        register("party-0", 1e9),
    ];
    for attack in &attacks {
        hostile.send(attack);
    }
    // An honest party cannot be talked into it either.
    honest[1].send(&register("party-1", f32::NAN));
    agg.pump();
    assert_eq!(agg.registered_parties(), 3);
    assert_eq!(hostile.recv(), None, "a rejected registration was acked");
    assert_eq!(honest[1].recv(), None);
    assert_eq!(
        counter_value("deta_wire_rejected_total", "Register") - rejected_before,
        attacks.len() as u64 + 1
    );
    let (records, _) = recorder.drain();
    let rejections: Vec<_> = records
        .iter()
        .filter(|r| r.name == "register_rejected")
        .collect();
    assert_eq!(rejections.len(), attacks.len() + 1);
    let field = |r: &deta_telemetry::TelemetryRecord, key: &str| {
        r.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(
        field(rejections[4], "from"),
        Some(TelemetryValue::from("party-9"))
    );
    assert_eq!(
        field(rejections[4], "claimed"),
        Some(TelemetryValue::from("ghost-0"))
    );

    // The round the attacks were meant to wedge or crash completes over
    // the three honest uploads, with the weights they registered.
    for (i, party) in honest.iter_mut().enumerate() {
        party.send(&Msg::Upload {
            round: 1,
            fragment: vec![i as f32; 4],
        });
    }
    agg.pump();
    assert_eq!(agg.completed_rounds, 1);
    let mean = (10.0 * 0.0 + 20.0 * 1.0 + 30.0 * 2.0) / 60.0;
    for party in &mut honest {
        assert_eq!(
            party.recv(),
            Some(Msg::Aggregated {
                round: 1,
                fragment: vec![mean; 4],
            })
        );
    }
    assert_eq!(hostile.recv(), None);
}

#[test]
fn an_aggregation_the_inputs_cannot_support_fails_the_round_not_the_node() {
    deta_telemetry::enable();
    let recorder = FlightRecorder::new("agg-0", 256);
    let _attached = deta_telemetry::attach(recorder.clone());
    let net = Network::new(LinkModel::lan());
    let mut rng = DetRng::from_u64(0x4e7);
    // Trimming one value from each end needs three uploads; dropouts
    // left two registered parties.
    let mut agg = aggregator(&net, AggKind::TrimmedMean { trim: 1 }, &mut rng);
    let mut parties: Vec<RawParty> = (0..2)
        .map(|i| RawParty::join(&net, &mut agg, &format!("party-{i}"), &mut rng))
        .collect();
    for (i, party) in parties.iter_mut().enumerate() {
        party.send(&register(&format!("party-{i}"), 1.0));
    }
    agg.pump();
    for party in &mut parties {
        assert_eq!(party.recv(), Some(Msg::RegisterAck));
        party.send(&Msg::Upload {
            round: 1,
            fragment: vec![1.0, 2.0],
        });
    }
    let failed_before = counter_value("deta_aggregate_failed_total", "agg-0");
    agg.pump();
    assert_eq!(agg.completed_rounds, 0);
    assert!(agg.pending_uploads().is_empty());
    for party in &mut parties {
        assert_eq!(party.recv(), None, "a failed round was answered");
    }
    assert_eq!(
        counter_value("deta_aggregate_failed_total", "agg-0") - failed_before,
        1
    );
    let (records, _) = recorder.drain();
    let failure = records
        .iter()
        .find(|r| r.name == "aggregate_failed")
        .expect("an aggregate_failed event");
    assert!(failure
        .fields
        .contains(&("round", TelemetryValue::from(1u64))));
    assert!(failure.fields.contains(&(
        "cause",
        TelemetryValue::from("trim 1 too large for 2 parties")
    )));
}

/// A public key is all an aggregator holds of the Paillier material, and
/// summing needs no more of it than a modulus.
fn paillier_key() -> PublicKey {
    let n = BigUint::from_u64(0xffff_fffb);
    PublicKey { n2: &n * &n, n }
}

fn encrypted_upload(ciphertexts: usize, value_count: u64) -> Msg {
    Msg::UploadEncrypted {
        round: 1,
        ciphertexts: (1..=ciphertexts as u8).map(|c| vec![c]).collect(),
        value_count,
    }
}

#[test]
fn encrypted_uploads_that_disagree_fail_the_round_like_plain_ones() {
    deta_telemetry::enable();
    let recorder = FlightRecorder::new("agg-0", 256);
    let _attached = deta_telemetry::attach(recorder.clone());
    let net = Network::new(LinkModel::lan());
    let mut rng = DetRng::from_u64(0x4e8);
    let mut agg = aggregator(&net, AggKind::IterativeAveraging, &mut rng);
    agg.set_paillier_key(paillier_key());
    // The failure counter is labelled with the node's name; this node
    // takes one no other test of the binary counts under.
    agg.name = "agg-paillier".to_string();
    let mut parties = registered(&net, &mut agg, 0..2, &mut rng);

    // Round 1: one ciphertext fewer; round 2: as many, packing fewer values.
    let rounds = [
        [encrypted_upload(3, 12), encrypted_upload(2, 12)],
        [encrypted_upload(3, 12), encrypted_upload(3, 11)],
    ];
    for (failed, uploads) in rounds.iter().enumerate() {
        for (party, upload) in parties.iter_mut().zip(uploads) {
            party.send(upload);
        }
        agg.pump();
        assert_eq!(agg.completed_rounds, 0);
        for party in &mut parties {
            assert_eq!(party.recv(), None, "a failed round was answered");
        }
        assert_eq!(
            counter_value("deta_aggregate_failed_total", "agg-paillier"),
            failed as u64 + 1
        );
    }
    let (records, _) = recorder.drain();
    let failures: Vec<_> = records
        .iter()
        .filter(|r| r.name == "aggregate_failed")
        .collect();
    assert_eq!(failures.len(), 2);
    for failure in failures {
        assert!(failure
            .fields
            .contains(&("round", TelemetryValue::from(1u64))));
        assert!(failure.fields.contains(&(
            "cause",
            TelemetryValue::from("encrypted uploads disagree on ciphertext or value count")
        )));
    }
}

#[test]
fn an_upload_of_the_kind_a_node_does_not_aggregate_is_refused_at_the_door() {
    deta_telemetry::enable();
    let mut rng = DetRng::from_u64(0x4e9);
    let plain = Msg::Upload {
        round: 1,
        fragment: vec![1.0, 2.0],
    };
    // Plain values to a node that sums ciphertexts, and ciphertexts to a
    // node that has no key to sum them under.
    for (key, refused, taken) in [
        (Some(paillier_key()), &plain, &encrypted_upload(3, 12)),
        (None, &encrypted_upload(3, 12), &plain),
    ] {
        let net = Network::new(LinkModel::lan());
        let mut agg = aggregator(&net, AggKind::IterativeAveraging, &mut rng);
        if let Some(key) = key {
            agg.set_paillier_key(key);
        }
        let mut party = registered(&net, &mut agg, 0..1, &mut rng).remove(0);
        party.send(refused);
        agg.pump();
        assert_eq!(counter_value("deta_wire_rejected_total", refused.name()), 1);
        assert!(agg.pending_uploads().is_empty(), "a refused upload is held");
        assert_eq!(agg.completed_rounds, 0, "a refused upload was aggregated");
        assert_eq!(party.recv(), None);
        // The round goes to the upload of the node's own kind, alone.
        party.send(taken);
        agg.pump();
        assert_eq!(agg.completed_rounds, 1);
        assert!(party.recv().is_some());
    }
    // Here rather than in a test of its own: it counts under the label
    // asserted on above, and the registry is the process's.
    an_upload_of_another_length_is_refused_and_erases_nothing(&mut rng);
}

/// One party's odd upload must not cost a round the uploads it holds.
fn an_upload_of_another_length_is_refused_and_erases_nothing(rng: &mut DetRng) {
    let recorder = FlightRecorder::new("agg-0", 64);
    let _attached = deta_telemetry::attach(recorder.clone());
    let net = Network::new(LinkModel::lan());
    let mut agg = aggregator(&net, AggKind::IterativeAveraging, rng);
    let mut parties = registered(&net, &mut agg, 0..3, rng);
    let upload = |fragment: Vec<f32>| Msg::Upload { round: 1, fragment };
    parties[0].send(&upload(vec![1.0; 4]));
    parties[1].send(&upload(vec![3.0; 4]));
    let rejected_before = counter_value("deta_wire_rejected_total", "Upload");
    parties[2].send(&upload(vec![9.0; 7]));
    agg.pump();
    let held: Vec<String> = (agg.pending_uploads().into_iter())
        .map(|(_, party, _)| party)
        .collect();
    assert_eq!(held, ["party-0", "party-1"], "the honest uploads stay held");
    assert_eq!(
        counter_value("deta_wire_rejected_total", "Upload") - rejected_before,
        1
    );
    let (records, _) = recorder.drain();
    let refusal: Vec<_> = (records.iter())
        .filter(|r| r.name == "upload_rejected")
        .collect();
    assert_eq!(refusal.len(), 1);
    let want = [
        ("party", TelemetryValue::from("party-2")),
        ("round", TelemetryValue::from(1u64)),
        ("held", TelemetryValue::from(4usize)),
        ("arriving", TelemetryValue::from(7usize)),
    ];
    assert_eq!(refusal[0].fields, want);
    // The round is the one the honest parties opened.
    parties[2].send(&upload(vec![5.0; 4]));
    agg.pump();
    assert_eq!(agg.completed_rounds, 1);
    let aggregated = Msg::Aggregated {
        round: 1,
        fragment: vec![3.0; 4],
    };
    for party in &mut parties {
        assert_eq!(party.recv(), Some(aggregated.clone()));
    }
}

#[test]
fn a_stale_aggregate_of_either_kind_is_counted_by_the_party_that_drops_it() {
    deta_telemetry::enable();
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let shards = iid_partition(&spec.generate(16, 1), 2, 2);
    let mut cfg = DetaConfig::deta(2, 1);
    cfg.seed = 0x4ea;
    cfg.paillier = Some(PaillierFusionConfig {
        n_bits: 128,
        clip: 4.0,
        value_bits: 16,
    });
    let (dim, classes) = (spec.dim(), spec.classes);
    let mut session = DetaSession::setup(cfg, &move |rng| mlp(&[dim, 2, classes], rng), shards)
        .expect("session sets up");
    session.step(&spec.generate(8, 2));
    assert_eq!(session.party_mut(0).last_finished_round(), 1);

    // A breached aggregator replays round 1 at a party that has moved on.
    let stale = [
        Msg::Aggregated {
            round: 1,
            fragment: vec![0.0; 4],
        },
        Msg::AggregatedEncrypted {
            round: 1,
            ciphertexts: vec![vec![1]],
            value_count: 4,
            summands: 2,
        },
    ];
    for msg in &stale {
        session.aggregator_mut(0).drill_send_sealed("party-0", msg);
    }
    assert_eq!(session.party_mut(0).poll_round_start(), None);
    for msg in &stale {
        assert_eq!(
            counter_value("deta_wire_ignored_total", msg.name()),
            1,
            "{}",
            msg.name()
        );
    }
}
