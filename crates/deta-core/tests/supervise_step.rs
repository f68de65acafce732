//! The supervisor step (`deta_core::supervise`) driven by hand: each case
//! feeds a session's `Supervisor` reports, exits and timer expiries at
//! chosen clock readings and reads the directives it returns — no thread,
//! node or clock in the way.

use deta_core::agg::AggKind;
use deta_core::paillier_fusion::PaillierFusionConfig;
use deta_core::rtmsg::CtlMsg;
use deta_core::session::{DetaConfig, SessionParts};
use deta_core::supervise::{
    Directive, Event, FailoverPolicy, Phase, RuntimeConfig, RuntimeError, SessionView, Supervisor,
};
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use std::collections::HashMap;
use std::time::Duration;

const T0: Duration = Duration::ZERO;

/// A session of `parties` parties and two aggregators, taken over by a
/// supervisor under `rt`; the first party of a round reports parameters.
fn supervisor(parties: usize, rt: RuntimeConfig, cfg: impl FnOnce(&mut DetaConfig)) -> Supervisor {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let shards = iid_partition(&spec.generate(10 * parties, 1), parties, 2);
    let mut config = DetaConfig::deta(parties, 2);
    config.n_aggregators = 2;
    config.seed = 0x5afe;
    cfg(&mut config);
    let (dim, classes) = (spec.dim(), spec.classes);
    let parts = SessionParts::build(config, &move |rng| mlp(&[dim, 8, classes], rng), shards)
        .expect("parts");
    Supervisor::new(parts, rt, true).0
}

/// What a directive does, in a line.
fn show(directive: &Directive) -> String {
    match directive {
        Directive::Send(to, msg) => format!("{} -> {to}", msg.name()),
        Directive::Retire(node) => format!("retire {node}"),
        Directive::Spawn(node) => format!("spawn {}", node.name),
        Directive::Done => "done".to_string(),
        Directive::Fail(err) => format!("fail: {err}"),
    }
}

fn shown(directives: &[Directive]) -> Vec<String> {
    directives.iter().map(show).collect()
}

fn report(sup: &mut Supervisor, from: &str, msg: CtlMsg, now: Duration) -> Vec<Directive> {
    let from = from.to_string();
    sup.on(Event::Report(from, msg), now)
}

/// What `f` reads off `sup`'s bookkeeping.
fn with_view<T>(sup: &Supervisor, f: impl FnOnce(SessionView<'_>) -> T) -> T {
    let no_nodes = HashMap::new();
    f(sup.view(&no_nodes))
}

/// Every node of `sup`'s session, aggregators first.
fn nodes(sup: &Supervisor) -> Vec<String> {
    with_view(sup, |v| {
        v.agg_names.iter().chain(v.party_names).cloned().collect()
    })
}

/// The aggregators in effect, those retired, and the failovers so far.
fn roster(sup: &Supervisor) -> (Vec<String>, Vec<String>, u64) {
    with_view(sup, |v| {
        (v.agg_names.to_vec(), v.retired_aggs.to_vec(), v.failovers)
    })
}

/// Every node ready at `T0`, then round 1 opened at `T0`.
fn round_one(sup: &mut Supervisor) -> Vec<String> {
    assert!(sup.setup(T0).is_empty(), "the nodes start themselves");
    let mut out = Vec::new();
    for node in nodes(sup) {
        out = report(sup, &node, CtlMsg::Ready, T0);
    }
    assert_eq!(shown(&out), ["done"]);
    shown(&sup.round(T0))
}

fn agg_done(round: u64) -> CtlMsg {
    CtlMsg::AggDone {
        round,
        aggregate_s: 0.0,
    }
}

fn party_done(round: u64, params: bool) -> CtlMsg {
    CtlMsg::PartyDone {
        round,
        trained: true,
        train_loss: 0.5,
        train_s: 0.0,
        transform_s: 0.0,
        crypto_s: 0.0,
        params: params.then(Vec::new),
    }
}

/// `alive` heartbeat just before the deadline at `at`, which then fires.
fn expire(sup: &mut Supervisor, alive: &[&str], at: Duration) -> Vec<Directive> {
    assert_eq!(sup.next_timer(), Some(at));
    let just_before = at - Duration::from_millis(1);
    assert!(sup.on(Event::Timer, just_before).is_empty(), "not yet due");
    for node in alive {
        let beat = CtlMsg::Heartbeat { seq: 1 };
        assert!(report(sup, node, beat, just_before).is_empty());
    }
    sup.on(Event::Timer, at)
}

/// The one terminal error in `directives`.
fn failure(directives: Vec<Directive>) -> RuntimeError {
    let lines = shown(&directives);
    match directives.into_iter().next() {
        Some(Directive::Fail(err)) if lines.len() == 1 => err,
        _ => panic!("expected one failure, got {lines:?}"),
    }
}

#[test]
fn a_party_that_is_never_ready_times_the_bootstrap_out_as_missing_not_stalled() {
    let rt = RuntimeConfig::default();
    let mut sup = supervisor(2, rt.clone(), |_| {});
    assert!(sup.setup(T0).is_empty());
    for node in ["agg-0", "agg-1", "party-0"] {
        assert!(report(&mut sup, node, CtlMsg::Ready, T0).is_empty());
    }
    assert_eq!(sup.awaiting(), ["party-1"]);
    let err = failure(expire(&mut sup, &["party-1"], rt.setup_deadline));
    match &err {
        RuntimeError::Timeout {
            phase: Phase::Setup,
            round: 0,
            missing,
            stalled,
            waited,
        } => {
            assert_eq!(missing, &["party-1"]);
            assert!(stalled.is_empty(), "a waiting party is alive: {stalled:?}");
            assert_eq!(*waited, rt.setup_deadline);
        }
        other => panic!("expected a setup timeout, got {other}"),
    }
    assert_eq!(err.implicated(), ["party-1"]);
}

#[test]
fn a_crashed_node_is_stalled_and_an_exit_fails_the_phase_that_waits_on_it() {
    let rt = RuntimeConfig::default();
    let mut sup = supervisor(2, rt.clone(), |_| {});
    let opened = round_one(&mut sup);
    assert_eq!(
        opened,
        [
            "RoundPlan -> party-0",
            "RoundPlan -> party-1",
            "Trigger -> agg-0"
        ]
    );
    assert!(report(&mut sup, "agg-0", agg_done(1), T0).is_empty());
    // agg-1 crashed after setup: it never reports again. The parties
    // wait on its aggregate, alive.
    let err = failure(expire(&mut sup, &["party-0", "party-1"], rt.round_deadline));
    match &err {
        RuntimeError::Timeout {
            phase: Phase::Round,
            round: 1,
            missing,
            stalled,
            ..
        } => {
            assert_eq!(missing, &["agg-1", "party-0", "party-1"]);
            assert_eq!(stalled, &["agg-1"]);
        }
        other => panic!("expected a round timeout, got {other}"),
    }
    assert_eq!(err.implicated(), ["agg-1"]);

    // A host that sees the node exit says so, and the phase fails then.
    let mut sup = supervisor(2, rt, |_| {});
    round_one(&mut sup);
    assert!(report(&mut sup, "party-0", party_done(1, true), T0).is_empty());
    let gone = |node: &str| Event::Exited {
        node: node.to_string(),
        panicked: false,
    };
    assert!(sup.on(gone("party-0"), T0).is_empty(), "no longer awaited");
    let err = failure(sup.on(gone("agg-1"), T0));
    assert_eq!(
        err.to_string(),
        "node \"agg-1\" failed: exited before completing the phase"
    );
}

#[test]
fn a_party_drop_deregisters_it_everywhere_unless_the_floor_or_the_reporter_forbids() {
    let rt = RuntimeConfig {
        party_drop: true,
        ..RuntimeConfig::default()
    };
    // party-2 is alive but never finishes; everyone else does.
    let lose_party_2 = |sup: &mut Supervisor| {
        round_one(sup);
        for (node, msg) in [
            ("agg-0", agg_done(1)),
            ("agg-1", agg_done(1)),
            ("party-0", party_done(1, true)),
            ("party-1", party_done(1, false)),
        ] {
            assert!(report(sup, node, msg, T0).is_empty());
        }
        expire(sup, &["party-2"], RuntimeConfig::default().round_deadline)
    };
    let mut sup = supervisor(3, rt.clone(), |_| {});
    assert_eq!(
        shown(&lose_party_2(&mut sup)),
        [
            "retire party-2",
            "Deregister -> agg-0",
            "Deregister -> agg-1",
            "Trigger -> agg-0",
            "done"
        ]
    );
    assert_eq!(sup.online(), [0, 1]);

    // Trimmed mean over one trimmed party each side needs three.
    let mut sup = supervisor(3, rt.clone(), |c| {
        c.algorithm = AggKind::TrimmedMean { trim: 1 };
    });
    let err = failure(lose_party_2(&mut sup));
    assert!(
        err.to_string().contains("below the quorum floor of 3"),
        "{err}"
    );
    assert_eq!(sup.online(), [0, 1, 2], "nobody left");

    // The lost party was to report the parameters, and has not.
    let mut sup = supervisor(3, rt, |_| {});
    round_one(&mut sup);
    for node in ["agg-0", "agg-1"] {
        assert!(report(&mut sup, node, agg_done(1), T0).is_empty());
    }
    for node in ["party-1", "party-2"] {
        assert!(report(&mut sup, node, party_done(1, false), T0).is_empty());
    }
    let deadline = RuntimeConfig::default().round_deadline;
    let err = failure(expire(&mut sup, &["party-0"], deadline));
    assert_eq!(err.implicated(), ["party-0"]);
    assert!(err.to_string().contains("designated to report"), "{err}");
}

/// Round 1 of a two-party session whose agg-1 went silent after setup,
/// at its deadline: what the supervisor directs.
fn agg_1_lost(sup: &mut Supervisor) -> Vec<Directive> {
    round_one(sup);
    assert!(report(sup, "agg-0", agg_done(1), T0).is_empty());
    let deadline = RuntimeConfig::default().round_deadline;
    expire(sup, &["party-0", "party-1"], deadline)
}

#[test]
fn restart_respawns_rebinds_waits_for_readiness_then_replays() {
    let rt = RuntimeConfig {
        failover: FailoverPolicy::Restart,
        ..RuntimeConfig::default()
    };
    let mut sup = supervisor(2, rt.clone(), |_| {});
    let healing = agg_1_lost(&mut sup);
    let rebinds: Vec<(u32, String)> = healing
        .iter()
        .filter_map(|d| match d {
            Directive::Send(_, CtlMsg::Rebind { rebinds }) => {
                Some(rebinds.iter().map(|e| (e.index, e.name.clone())))
            }
            _ => None,
        })
        .flatten()
        .collect();
    assert_eq!(
        shown(&healing),
        [
            "retire agg-1",
            "spawn agg-1#r1",
            "Topology -> agg-0",
            "Rebind -> party-0",
            "Rebind -> party-1"
        ]
    );
    assert_eq!(
        rebinds,
        [(1, "agg-1#r1".to_string()), (1, "agg-1#r1".to_string())],
        "one batched entry per party"
    );
    assert!(with_view(&sup, |v| v.tokens.contains_key("agg-1#r1")));
    assert_eq!(roster(&sup).1, ["agg-1"]);

    // The barrier: the replacement and every party ready, before replay.
    let now = RuntimeConfig::default().round_deadline;
    assert_eq!(sup.awaiting(), ["agg-1#r1", "party-0", "party-1"]);
    assert_eq!(sup.next_timer(), Some(now + rt.setup_deadline));
    for node in ["agg-1#r1", "party-0"] {
        assert!(report(&mut sup, node, CtlMsg::Ready, now).is_empty());
    }
    assert_eq!(
        shown(&report(&mut sup, "party-1", CtlMsg::Ready, now)),
        ["Replay -> party-0", "Replay -> party-1", "Trigger -> agg-0"]
    );
    assert_eq!(roster(&sup).0, ["agg-0", "agg-1#r1"]);
    for (node, msg) in [("agg-1#r1", agg_done(1)), ("party-0", party_done(1, true))] {
        assert!(report(&mut sup, node, msg, now).is_empty());
    }
    let done = report(&mut sup, "party-1", party_done(1, false), now);
    assert_eq!(shown(&done), ["done"]);
    assert_eq!(roster(&sup).2, 1);
    let metrics = sup.close(0.0, 1.0).expect("round 1 closes");
    assert_eq!(metrics.round, 1);
}

#[test]
fn an_exhausted_recovery_budget_is_terminal() {
    let rt = RuntimeConfig {
        failover: FailoverPolicy::Restart,
        recovery_attempts: 1,
        ..RuntimeConfig::default()
    };
    let mut sup = supervisor(2, rt.clone(), |_| {});
    assert_eq!(agg_1_lost(&mut sup).len(), 5, "the first failover runs");
    let now = RuntimeConfig::default().round_deadline;
    for node in ["agg-1#r1", "party-0", "party-1"] {
        report(&mut sup, node, CtlMsg::Ready, now);
    }
    // The replacement goes silent too; its base name has no budget left.
    let deadline = now + rt.round_deadline;
    let err = failure(expire(&mut sup, &["party-0", "party-1"], deadline));
    assert_eq!(err.implicated(), ["agg-1#r1"]);
    let (_, retired, failovers) = roster(&sup);
    assert_eq!((failovers, retired.len()), (1, 1));
}

#[test]
fn repartition_discards_the_round_at_the_survivors_and_remaps_the_parties() {
    let rt = RuntimeConfig {
        failover: FailoverPolicy::Repartition,
        ..RuntimeConfig::default()
    };
    let mut sup = supervisor(2, rt, |_| {});
    assert_eq!(
        shown(&agg_1_lost(&mut sup)),
        [
            "retire agg-1",
            "Reopen -> agg-0",
            "Topology -> agg-0",
            "Remap -> party-0",
            "Remap -> party-1"
        ]
    );
    let now = RuntimeConfig::default().round_deadline;
    assert_eq!(sup.awaiting(), ["party-0", "party-1"]);
    report(&mut sup, "party-0", CtlMsg::Ready, now);
    assert_eq!(
        shown(&report(&mut sup, "party-1", CtlMsg::Ready, now)),
        ["Replay -> party-0", "Replay -> party-1", "Trigger -> agg-0"]
    );
    assert_eq!(roster(&sup).0, ["agg-0"]);
    let epochs: Vec<(u64, usize)> = with_view(&sup, |v| {
        let epochs = v.epochs.iter();
        epochs.map(|e| (e.from_round, e.agg_names.len())).collect()
    });
    assert_eq!(epochs, [(1, 2), (1, 1)], "round 1 belongs to both epochs");
    assert_eq!(sup.awaiting(), ["agg-0", "party-0", "party-1"], "reopened");
}

#[test]
fn repartition_is_refused_for_krum_and_flame_lite_and_any_failover_under_paillier() {
    let refused = |policy: FailoverPolicy, cfg: fn(&mut DetaConfig)| {
        let rt = RuntimeConfig {
            failover: policy,
            ..RuntimeConfig::default()
        };
        let mut sup = supervisor(2, rt, cfg);
        let err = failure(agg_1_lost(&mut sup));
        assert_eq!(err.implicated(), ["agg-1"]);
        assert_eq!(roster(&sup).2, 0);
    };
    refused(FailoverPolicy::Repartition, |c| {
        c.algorithm = AggKind::Krum { f: 0 };
    });
    refused(FailoverPolicy::Repartition, |c| {
        c.algorithm = AggKind::FlameLite;
    });
    for policy in [FailoverPolicy::Restart, FailoverPolicy::Repartition] {
        refused(policy, |c| {
            c.paillier = Some(PaillierFusionConfig::default());
        });
    }
}
