//! Inner messages an aggregator controls must never stop a party: the
//! party-side twin of `aggregator_hostile.rs`. Paillier decryption
//! asserts what it is handed — a ciphertext in `Z_{n^2}`, enough
//! plaintexts for the values claimed — and the merge asserts every
//! fragment's length, so a download from a breached aggregator is checked
//! where it arrives: refused, counted, attributed to the aggregator that
//! sent it, and the round left waiting on that aggregator. Every hostile
//! case here used to be a panic in `Party::finish_round`, or parameters
//! that are not numbers. The telemetry sink is on for this binary (it is
//! sticky), so that the counter and the event can be read back.

use deta_core::paillier_fusion::PaillierFusionConfig;
use deta_core::wire::Msg;
use deta_core::{DetaConfig, DetaSession};
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_obs::metrics::counter_value;
use deta_obs::{FlightRecorder, TelemetryValue};

/// What the one aggregator of [`waiting_party`]'s session would have to
/// send for party-0's fragment to be readable, for a case to bend.
struct Honest {
    /// Values in the fragment.
    values: u64,
    /// Ciphertexts the codec packs them into (none in a plain session).
    ciphertexts: usize,
    /// The Paillier modulus, big-endian — public, every aggregator has it.
    n: Vec<u8>,
}

/// A session with a single aggregator, with or without Paillier fusion,
/// stopped where party-0 has uploaded for round 1 and waits for that
/// aggregator's download alone.
fn waiting_party(seed: u64, paillier: bool) -> (DetaSession, Honest) {
    deta_obs::enable();
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let shards = iid_partition(&spec.generate(16, 1), 2, 2);
    let mut cfg = DetaConfig::deta(2, 1);
    cfg.n_aggregators = 1;
    cfg.seed = seed;
    cfg.paillier = paillier.then_some(PaillierFusionConfig {
        n_bits: 128,
        clip: 4.0,
        value_bits: 16,
    });
    let (dim, classes) = (spec.dim(), spec.classes);
    let mut session = DetaSession::setup(cfg, &move |rng| mlp(&[dim, 2, classes], rng), shards)
        .expect("session sets up");
    session.aggregator_mut(0).announce(1);
    let party = session.party_mut(0);
    assert_eq!(party.poll_round_start(), Some(1));
    party.run_local_round().expect("announced round runs");
    let fragment_len = party.transformer().mapper().fragment_len(0);
    let fusion = party.paillier.as_ref();
    let honest = Honest {
        values: fragment_len as u64,
        ciphertexts: fusion.map_or(0, |f| f.codec.plaintexts_for(fragment_len)),
        n: fusion.map_or(Vec::new(), |f| f.keys.public.n.to_bytes_be()),
    };
    (session, honest)
}

/// Enc(0) under randomness 1: in range whatever the key.
fn one() -> Vec<u8> {
    vec![1]
}

fn aggregate(ciphertexts: Vec<Vec<u8>>, value_count: u64) -> Msg {
    Msg::AggregatedEncrypted {
        round: 1,
        ciphertexts,
        value_count,
        summands: 2,
    }
}

/// Sends `hostile` from the breached aggregator and requires party-0 to
/// refuse it: counted, attributed, the round still open, the party still
/// standing — and still able to finish on `readable`, the same download
/// put right.
fn refused_then(mut session: DetaSession, hostile: Msg, readable: Msg) {
    let recorder = FlightRecorder::new("party-0", 64);
    let _attached = deta_obs::attach(recorder.clone());
    let before = counter_value("deta_wire_rejected_total", hostile.name());
    session
        .aggregator_mut(0)
        .drill_send_sealed("party-0", &hostile);
    assert!(
        !session.party_mut(0).try_finish_round(),
        "a refused download must leave the round waiting on its aggregator"
    );
    // Other cases of this binary count under the same label, in parallel.
    assert!(counter_value("deta_wire_rejected_total", hostile.name()) > before);
    // The recorder is this thread's: the one rejection in it is this case's.
    let (records, _) = recorder.drain();
    let rejections: Vec<_> = records
        .iter()
        .filter(|r| r.name == "download_rejected")
        .collect();
    assert_eq!(rejections.len(), 1);
    let expected = [
        ("from", TelemetryValue::from("agg-0")),
        ("kind", TelemetryValue::from(hostile.name())),
        ("round", TelemetryValue::from(1u64)),
    ];
    assert_eq!(rejections[0].fields, expected);
    session
        .aggregator_mut(0)
        .drill_send_sealed("party-0", &readable);
    assert!(session.party_mut(0).try_finish_round());
    assert_eq!(session.party_mut(0).last_finished_round(), 1);
}

/// [`refused_then`] in a Paillier session.
fn refused(seed: u64, hostile: impl FnOnce(&Honest) -> Msg) {
    let (session, honest) = waiting_party(seed, true);
    let readable = aggregate(vec![one(); honest.ciphertexts], honest.values);
    refused_then(session, hostile(&honest), readable);
}

#[test]
fn a_ciphertext_at_or_above_n_squared_is_refused() {
    refused(0x5e0, |honest| {
        let mut ciphertexts = vec![one(); honest.ciphertexts];
        // n is 128 bits, so n^2 has 32 bytes at most.
        ciphertexts[0] = vec![0xff; 40];
        aggregate(ciphertexts, honest.values)
    });
}

#[test]
fn a_ciphertext_that_is_a_multiple_of_n_is_refused() {
    for multiple in [|_: &Honest| vec![0], |honest: &Honest| honest.n.clone()] {
        refused(0x5e1, |honest| {
            let mut ciphertexts = vec![one(); honest.ciphertexts];
            *ciphertexts.last_mut().expect("at least one") = multiple(honest);
            aggregate(ciphertexts, honest.values)
        });
    }
}

#[test]
fn a_value_count_the_ciphertexts_cannot_hold_is_refused() {
    refused(0x5e2, |honest| {
        aggregate(vec![one(); honest.ciphertexts], honest.values + 1000)
    });
}

#[test]
fn too_few_ciphertexts_for_the_fragment_are_refused() {
    refused(0x5e3, |honest| {
        aggregate(vec![one(); honest.ciphertexts - 1], honest.values)
    });
}

#[test]
fn a_fragment_of_another_length_is_refused() {
    // Decryptable as it stands, and one value short of what the mapper
    // gives this aggregator: the merge would index past its end.
    refused(0x5e4, |honest| {
        aggregate(vec![one(); honest.ciphertexts], honest.values - 1)
    });
}

#[test]
fn a_summand_count_the_slot_was_not_sized_for_is_refused() {
    // Two parties: two guard bits a slot, so 1..=3 summands decode. Zero
    // divides every sum into NaN or an infinity; four and up carry into
    // the next slot and subtract too many `+clip` offsets.
    for summands in [0, 4, u64::MAX] {
        refused(0x5e6, |honest| Msg::AggregatedEncrypted {
            round: 1,
            ciphertexts: vec![one(); honest.ciphertexts],
            value_count: honest.values,
            summands,
        });
    }
}

#[test]
fn a_plain_fragment_of_another_length_is_refused() {
    // No Paillier needed for this one: the merge asserts the length of
    // whatever a plain `Aggregated` carried.
    let (session, honest) = waiting_party(0x5e5, false);
    let plain = |values: u64| Msg::Aggregated {
        round: 1,
        fragment: vec![0.25; values as usize],
    };
    refused_then(session, plain(honest.values + 1), plain(honest.values));
}
