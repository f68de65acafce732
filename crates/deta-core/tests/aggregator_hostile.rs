//! Inner messages a party controls must never stop an aggregator: a
//! hostile registration is dropped, counted and attributed, and an
//! aggregation the inputs cannot support is a structured failure of the
//! round. The telemetry sink is on for this binary (it is sticky), so
//! that the counters and events can be read back.

mod common;

use common::{aggregator, RawParty};
use deta_core::agg::AggKind;
use deta_core::wire::Msg;
use deta_crypto::DetRng;
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
