//! The protocol step (`deta_core::node`) driven by hand, on one thread:
//! each case feeds a session's `Party` and `AggregatorNode` values their
//! inputs and reads the reports the steps return — what a host sends the
//! supervisor — with no thread, timer or supervisor in the way.

use deta_core::node::{Actor, Input};
use deta_core::rtmsg::CtlMsg;
use deta_core::session::{DetaConfig, SessionParts};
use deta_core::wire;
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;

const PARTIES: usize = 2;

type Reports = Vec<(String, CtlMsg)>;

/// Two parties and two aggregators, nothing started.
fn parts(participation: Option<usize>) -> SessionParts {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let shards = iid_partition(&spec.generate(10 * PARTIES, 1), PARTIES, 2);
    let mut cfg = DetaConfig::deta(PARTIES, 1);
    cfg.n_aggregators = 2;
    cfg.seed = 0x57e9;
    cfg.participation = participation;
    let (dim, classes) = (spec.dim(), spec.classes);
    SessionParts::build(cfg, &move |rng| mlp(&[dim, 8, classes], rng), shards).expect("parts")
}

/// The aggregators, then the parties.
fn nodes(parts: &mut SessionParts) -> Vec<&mut dyn Actor> {
    let aggs = parts.aggregators.iter_mut().map(|a| a as &mut dyn Actor);
    let parties = parts.parties.iter_mut().map(|p| p as &mut dyn Actor);
    aggs.chain(parties).collect()
}

/// Steps every node on its mailbox until none holds a frame, telling
/// `seen` each step's node, whether the frame was sealed, and what the
/// step reported.
fn drive(parts: &mut SessionParts, mut seen: impl FnMut(&str, bool, Vec<CtlMsg>)) {
    let mut quiet = false;
    while !quiet {
        quiet = true;
        for node in nodes(parts) {
            let mailbox = node.endpoint();
            while let Some(msg) = mailbox.recv() {
                quiet = false;
                let sealed = wire::is_record(&msg.payload);
                let reports = node.step(Input::Wire(msg));
                seen(mailbox.name(), sealed, reports);
            }
        }
    }
}

/// [`drive`], keeping every report with the name of its node.
fn settle(parts: &mut SessionParts) -> Reports {
    let mut out = Vec::new();
    drive(parts, |node, _, reports| {
        out.extend(reports.into_iter().map(|r| (node.to_string(), r)));
    });
    out
}

/// Starts every node and settles Phase II.
fn boot(parts: &mut SessionParts) {
    let tokens = parts.tokens.clone();
    for node in nodes(parts) {
        node.start(&tokens);
    }
    settle(parts);
}

/// Plans `round` for every party (party `i` trains if `train[i]`),
/// triggers it at the initiator, and settles it.
fn round(parts: &mut SessionParts, round: u64, train: &[bool]) -> Reports {
    for (party, &train) in parts.parties.iter_mut().zip(train) {
        let report_params = false;
        let plan = CtlMsg::RoundPlan {
            round,
            train,
            report_params,
        };
        assert!(party.step(Input::Ctl(plan)).is_empty());
    }
    let trigger = CtlMsg::Trigger { round };
    assert!(parts.aggregators[0].step(Input::Ctl(trigger)).is_empty());
    settle(parts)
}

/// Who reported `AggDone` for `round`, by name.
fn agg_done(reports: &Reports, round: u64) -> Vec<&str> {
    let mut names: Vec<&str> = reports
        .iter()
        .filter(|(_, r)| matches!(r, CtlMsg::AggDone { round: r, .. } if *r == round))
        .map(|(node, _)| node.as_str())
        .collect();
    names.sort();
    names
}

#[test]
fn ready_comes_with_the_last_register_ack() {
    let mut parts = parts(None);
    let tokens = parts.tokens.clone();
    for node in nodes(&mut parts) {
        let at_once = node.start(&tokens);
        let name = node.endpoint().name().to_string();
        if name.starts_with("agg-") {
            assert_eq!(
                at_once,
                [CtlMsg::Ready],
                "an aggregator is ready when served"
            );
        } else {
            assert!(at_once.is_empty(), "{name} is not registered yet");
        }
    }
    let mut steps = Vec::new();
    drive(&mut parts, |node, sealed, reports| {
        if node == "party-0" {
            steps.push((sealed, reports));
        }
    });
    // A plain `HelloReply` from each aggregator, then a sealed
    // `RegisterAck` from each: `Ready` comes with the second ack only.
    let (sealed, reports): (Vec<bool>, Vec<Vec<CtlMsg>>) = steps.into_iter().unzip();
    assert_eq!(sealed, [false, false, true, true]);
    assert_eq!(reports, [vec![], vec![], vec![], vec![CtlMsg::Ready]]);
}

#[test]
fn a_plan_not_to_train_skips_and_reports_so() {
    let mut parts = parts(Some(1));
    boot(&mut parts);
    for party in &mut parts.parties {
        party.record_updates = true;
    }
    let reports = round(&mut parts, 1, &[true, false]);
    let done = |name: &str| {
        let report = reports.iter().find(|(node, _)| node == name);
        match report.map(|(_, r)| r) {
            Some(&CtlMsg::PartyDone {
                round: 1,
                trained,
                train_loss,
                ..
            }) => (trained, train_loss),
            other => panic!("{name} reported {other:?}"),
        }
    };
    assert!(done("party-0").0, "party-0 trained");
    assert_eq!(done("party-1"), (false, 0.0));
    assert!(
        parts.parties[1].update_log.is_empty(),
        "a skip uploads nothing"
    );
    assert_eq!(
        parts.parties[0].model.flat_params(),
        parts.parties[1].model.flat_params(),
        "a skip still synchronizes"
    );
}

#[test]
fn a_repeated_trigger_for_a_completed_round_reports_nothing() {
    let mut parts = parts(None);
    boot(&mut parts);
    let reports = round(&mut parts, 1, &[true, true]);
    assert_eq!(agg_done(&reports, 1), ["agg-0", "agg-1"]);
    let trigger = CtlMsg::Trigger { round: 1 };
    assert!(parts.aggregators[0].step(Input::Ctl(trigger)).is_empty());
    assert!(settle(&mut parts).is_empty(), "no second AggDone");
}
