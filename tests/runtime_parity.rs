//! Determinism parity: for a fixed seed, the threaded actor deployment
//! must produce *bit-identical* model parameters to the sequential
//! `DetaSession`.
//!
//! Why this should hold despite arbitrary thread scheduling: both
//! deployments build their nodes with `SessionParts::build` (identical
//! RNG forks, identical models); each party's randomness is an
//! independent fork, so no interleaving can shift a draw from one party
//! to another; and aggregators order uploads by party name before
//! aggregating, so arrival order never reaches the arithmetic.

use deta::core::{DetaConfig, DetaSession, RoundMetrics, SyncMode};
use deta::datasets::{iid_partition, DatasetSpec};
use deta::nn::models::mlp;
use deta::nn::train::LabeledData;
use deta::runtime::{RuntimeConfig, ThreadedSession};
use deta_drills::sim::TapLog;
use std::sync::Arc;
use std::time::Duration;

fn data(n: usize, parties: usize) -> (Vec<LabeledData>, LabeledData, usize, usize) {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let train = spec.generate(n, 1);
    let test = spec.generate(60, 2);
    (
        iid_partition(&train, parties, 3),
        test,
        spec.dim(),
        spec.classes,
    )
}

/// Per-party flat model parameters from one deployment.
type PartyParams = Vec<Vec<f32>>;

/// Runs the same config through both deployments and returns
/// (sequential params, threaded params, sequential accs, threaded accs)
/// for every party. The rounds' byte counts and the bits of their losses
/// are compared here: the ledger both sessions own defines them once.
fn both(config: DetaConfig) -> (PartyParams, PartyParams, Vec<f32>, Vec<f32>) {
    let n = config.n_parties;
    let (shards, test, dim, classes) = data(160, n);

    let mut seq = DetaSession::setup(
        config.clone(),
        &move |rng| mlp(&[dim, 16, classes], rng),
        shards.clone(),
    )
    .expect("sequential setup");
    let seq_metrics = seq.run(&test);
    let seq_params: PartyParams = (0..n).map(|i| seq.party_params(i)).collect();

    let mut thr = ThreadedSession::setup(
        config,
        &move |rng| mlp(&[dim, 16, classes], rng),
        shards,
        RuntimeConfig::default(),
    )
    .expect("threaded setup");
    let thr_metrics = thr.run(&test).expect("threaded run");
    assert!(thr.is_shut_down(), "run must join every node thread");
    let thr_params: PartyParams = (0..n)
        .map(|i| thr.party_params(i).expect("recovered party"))
        .collect();

    let accounted = |metrics: &[RoundMetrics]| -> Vec<(u64, u64, u32, u32)> {
        let row = |m: &RoundMetrics| {
            let (train, test) = (m.train_loss.to_bits(), m.test_loss.to_bits());
            (m.upload_bytes, m.download_bytes, train, test)
        };
        metrics.iter().map(row).collect()
    };
    assert_eq!(
        accounted(&seq_metrics),
        accounted(&thr_metrics),
        "per-round (upload_bytes, download_bytes, train_loss bits, test_loss bits) must not \
         depend on the deployment"
    );
    (
        seq_params,
        thr_params,
        seq_metrics.iter().map(|m| m.test_accuracy).collect(),
        thr_metrics.iter().map(|m| m.test_accuracy).collect(),
    )
}

#[test]
fn threaded_equals_sequential_fedavg_k2() {
    let mut cfg = DetaConfig::deta(4, 3);
    cfg.n_aggregators = 2;
    cfg.seed = 42;
    let (seq, thr, seq_acc, thr_acc) = both(cfg);
    assert_eq!(seq, thr, "FedAvg params must be bit-identical");
    assert_eq!(
        seq_acc, thr_acc,
        "evaluation on identical params must agree"
    );
}

#[test]
fn threaded_equals_sequential_fedsgd_k2() {
    let mut cfg = DetaConfig::deta(4, 3);
    cfg.n_aggregators = 2;
    cfg.mode = SyncMode::FedSgd;
    cfg.seed = 9;
    let (seq, thr, _, _) = both(cfg);
    assert_eq!(seq, thr, "FedSgd params must be bit-identical");
}

#[test]
fn threaded_equals_sequential_k3_with_partial_participation() {
    let mut cfg = DetaConfig::deta(5, 3);
    cfg.seed = 1234;
    cfg.participation = Some(3);
    let (seq, thr, _, _) = both(cfg);
    assert_eq!(
        seq, thr,
        "partial participation must select identical cohorts"
    );
}

#[test]
fn threaded_equals_sequential_with_eight_parties_sharing_one_derivation() {
    // Eight party threads ask the transformers they share for the same
    // round's permutations at about the same moment: one derives under
    // the memo's lock while the others wait for it, and the set they get
    // must be the one each would have derived alone.
    let mut cfg = DetaConfig::deta(8, 3);
    cfg.seed = 77;
    let (seq, thr, seq_acc, thr_acc) = both(cfg);
    assert_eq!(seq, thr, "eight-party params must be bit-identical");
    assert_eq!(seq_acc, thr_acc);
}

/// Byte-accounting ground truth, for either deployment: the per-round
/// `upload_bytes` / `download_bytes` metrics (taken from the transport's
/// per-link delivered-byte counters) must equal the sum of the payload
/// sizes of the frames a `NetTap` observed on the party→aggregator
/// (resp. aggregator→party) links over the same window — byte for byte,
/// no control-plane traffic leaking into either figure. And no frame
/// goes from one aggregator to another: aggregators share nothing.
/// Setup traffic (hellos, handshakes, registration) is outside every
/// round window, so `tap` must have gone in once setup was over.
fn assert_metrics_match_tap(tap: &TapLog, metrics: &[RoundMetrics]) {
    let records = tap.delivered();
    let is_party = |name: &str| name.starts_with("party-");
    let is_agg = |name: &str| name.starts_with("agg-");
    let between_aggs: Vec<(&str, &str)> = (records.iter())
        .filter(|r| is_agg(&r.from) && is_agg(&r.to))
        .map(|r| (r.from.as_str(), r.to.as_str()))
        .collect();
    assert!(
        between_aggs.is_empty(),
        "frames crossed between aggregators: {between_aggs:?}"
    );
    let tap_upload: u64 = records
        .iter()
        .filter(|r| is_party(&r.from) && is_agg(&r.to))
        .map(|r| r.payload.len() as u64)
        .sum();
    let tap_download: u64 = records
        .iter()
        .filter(|r| is_agg(&r.from) && is_party(&r.to))
        .map(|r| r.payload.len() as u64)
        .sum();
    let metric_upload: u64 = metrics.iter().map(|m| m.upload_bytes).sum();
    let metric_download: u64 = metrics.iter().map(|m| m.download_bytes).sum();
    assert!(tap_upload > 0, "the tap must observe round uploads");
    assert_eq!(
        metric_upload, tap_upload,
        "upload_bytes must equal the tap-observed party->aggregator frame bytes"
    );
    assert_eq!(
        metric_download, tap_download,
        "download_bytes must equal the tap-observed aggregator->party frame bytes"
    );
}

#[test]
fn byte_accounting_matches_tap_observed_frames() {
    let n = 3;
    let (shards, test, dim, classes) = data(120, n);
    let builder = move |rng: &mut deta::crypto::DetRng| mlp(&[dim, 16, classes], rng);
    for k in [2, 3] {
        let mut cfg = DetaConfig::deta(n, 3);
        cfg.n_aggregators = k;
        cfg.seed = 21;

        let mut thr = ThreadedSession::setup(
            cfg.clone(),
            &builder,
            shards.clone(),
            RuntimeConfig::default(),
        )
        .expect("threaded setup");
        let tap = Arc::new(TapLog::new());
        thr.network().set_tap(tap.clone());
        assert_metrics_match_tap(&tap, &thr.run(&test).expect("threaded run"));

        let mut seq = DetaSession::setup(cfg, &builder, shards.clone()).expect("sequential setup");
        let tap = Arc::new(TapLog::new());
        seq.network().set_tap(tap.clone());
        assert_metrics_match_tap(&tap, &seq.run(&test));
    }
}

#[test]
fn threaded_replicas_stay_consistent() {
    let mut cfg = DetaConfig::deta(4, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 77;
    let (_, thr, _, _) = both(cfg);
    for p in &thr[1..] {
        assert_eq!(&thr[0], p, "all replicas must hold the same model");
    }
}

/// A slow round bills what the inline session does. Every party's upload
/// is held back 300 ms; a trigger is sent once, so no re-announced
/// `RoundStart` (a sealed record to every party) lands inside the round's
/// byte window. When the supervisor still retried triggers, a 100 ms
/// retry grew the threaded `download_bytes` by one fan-out per resend.
#[test]
fn a_slow_round_bills_the_bytes_of_the_inline_session() {
    let n = 3;
    let (shards, test, dim, classes) = data(120, n);
    let mut cfg = DetaConfig::deta(n, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 21;
    let builder = move |rng: &mut deta::crypto::DetRng| mlp(&[dim, 16, classes], rng);

    let slow = |parts: &mut deta::core::SessionParts| {
        for p in &mut parts.parties {
            let hold = |_: u64, _: &mut Vec<f32>| std::thread::sleep(Duration::from_millis(300));
            p.set_update_tamper(Box::new(hold));
        }
    };
    let rt = RuntimeConfig::default();
    let mut thr = ThreadedSession::setup_with(cfg.clone(), &builder, shards.clone(), rt, slow)
        .expect("threaded setup");
    let thr_metrics = thr.run(&test).expect("threaded run");
    let seq_metrics = DetaSession::setup(cfg, &builder, shards)
        .expect("sequential setup")
        .run(&test);

    let bytes = |metrics: &[RoundMetrics]| -> Vec<(u64, u64)> {
        metrics
            .iter()
            .map(|m| (m.upload_bytes, m.download_bytes))
            .collect()
    };
    assert_eq!(bytes(&thr_metrics), bytes(&seq_metrics));
}
