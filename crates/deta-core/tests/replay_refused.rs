//! A `Replay` a party cannot serve is refused out loud: counted as an
//! ignored directive (`deta_ctl_ignored_total{Replay}`) and recorded as a
//! `replay_refused` event naming the round and the reason — one case per
//! reason there is. Only `FailoverPolicy::Restart` keeps the copy a
//! replay is served from, and Paillier fusion never replays.

use std::sync::{Mutex, MutexGuard, PoisonError};

use deta_core::node::{Actor, Input};
use deta_core::paillier_fusion::PaillierFusionConfig;
use deta_core::rtmsg::CtlMsg;
use deta_core::supervise::{FailoverPolicy, RuntimeConfig};
use deta_core::{DetaConfig, DetaSession, SessionParts};
use deta_crypto::DetRng;
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_nn::train::LabeledData;
use deta_obs::metrics::counter_value;
use deta_obs::{FlightRecorder, TelemetryValue};

/// The counter is process-wide: one case at a time counts under it.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A two-party, two-aggregator session under the failover `policy`.
fn session(policy: FailoverPolicy, paillier: bool) -> (DetaSession, LabeledData) {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let shards = iid_partition(&spec.generate(40, 1), 2, 2);
    let mut cfg = DetaConfig::deta(2, 2);
    cfg.seed = 23;
    if paillier {
        cfg.paillier = Some(PaillierFusionConfig {
            n_bits: 256,
            ..PaillierFusionConfig::default()
        });
    }
    let (dim, classes) = (spec.dim(), spec.classes);
    let builder = move |rng: &mut DetRng| mlp(&[dim, 8, classes], rng);
    let parts = SessionParts::build(cfg, &builder, shards).expect("session builds");
    let rt = RuntimeConfig {
        failover: policy,
        ..RuntimeConfig::default()
    };
    let s = DetaSession::bootstrap(parts, rt).expect("session sets up");
    (s, spec.generate(16, 9))
}

/// Steps party `i` with `Replay { round }`. Returns how many `Replay`s
/// were counted as ignored, and the `(round, reason)` of every
/// `replay_refused` event the step recorded.
fn replay(s: &mut DetaSession, i: usize, round: u64) -> (u64, Vec<(u64, String)>) {
    deta_obs::enable();
    let recorder = FlightRecorder::new("test", 64);
    let before = counter_value("deta_ctl_ignored_total", "Replay");
    {
        let _attached = deta_obs::attach(recorder.clone());
        let reports = s.party_mut(i).step(Input::Ctl(CtlMsg::Replay { round }));
        assert!(reports.is_empty(), "a replay reports nothing");
    }
    let ignored = counter_value("deta_ctl_ignored_total", "Replay") - before;
    let events = (recorder.drain().0.into_iter())
        .filter(|r| r.name == "replay_refused")
        .map(|r| match r.fields.as_slice() {
            [("round", TelemetryValue::U64(round)), ("reason", TelemetryValue::Str(why))] => {
                (*round, why.clone())
            }
            fields => panic!("replay_refused carries {fields:?}"),
        })
        .collect();
    (ignored, events)
}

#[test]
fn under_no_failover_policy_a_party_kept_nothing_to_replay() {
    let _serial = serial();
    let (mut s, test) = session(FailoverPolicy::None, false);
    s.step(&test);
    assert_eq!(replay(&mut s, 0, 1), (1, vec![(1, "not_kept".to_string())]));
}

#[test]
fn a_party_that_sat_the_round_out_has_no_upload_to_replay() {
    let _serial = serial();
    let (mut s, _test) = session(FailoverPolicy::Restart, false);
    s.aggregator_mut(0).announce(1);
    for j in 0..2 {
        s.aggregator_mut(j).pump();
    }
    for i in 0..2 {
        assert_eq!(s.party_mut(i).poll_round_start(), Some(1));
    }
    s.party_mut(0).run_local_round().expect("party-0 trains");
    s.party_mut(1).skip_local_round().expect("party-1 sits out");
    assert_eq!(
        replay(&mut s, 1, 1),
        (1, vec![(1, "no_upload".to_string())])
    );
    // The party that trained serves it, silently.
    assert_eq!(replay(&mut s, 0, 1), (0, vec![]));
    // Nor can it replay a round it never reached.
    assert_eq!(
        replay(&mut s, 0, 2),
        (1, vec![(2, "no_upload".to_string())])
    );
}

#[test]
fn under_paillier_fusion_a_party_refuses_to_replay() {
    let _serial = serial();
    let (mut s, test) = session(FailoverPolicy::Restart, true);
    s.step(&test);
    assert_eq!(replay(&mut s, 0, 1), (1, vec![(1, "paillier".to_string())]));
}
