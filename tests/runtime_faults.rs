//! Supervisor fault handling: a faulted node must surface as a
//! structured error within the configured deadline — never a hang — and
//! shutdown must still join every thread.
//!
//! Three failure modes are injected for both a follower aggregator and
//! the initiator: **stalled** (the runtime's own `StallFault` — the node
//! stops servicing its mailbox), **crashed** (a simnet `Crash` fault —
//! the node's mailbox closes and all its sends are blackholed), and
//! **partitioned** (a simnet `Partition` — one party⇄aggregator link is
//! severed in both directions). In every case the structured error must
//! name a node incident to the fault.
//!
//! Telemetry is enabled for every faulted run (this test binary is the
//! sink-enabled one; `runtime_parity` keeps the sink disabled): each
//! fault verdict must come with a flight-recorder dump whose timeline
//! parses and whose `meta` line implicates the same node(s) as the
//! structured error.

use deta::core::paillier_fusion::PaillierFusionConfig;
use deta::core::DetaConfig;
use deta::datasets::{iid_partition, DatasetSpec};
use deta::nn::models::mlp;
use deta::nn::train::LabeledData;
use deta::runtime::{
    FailoverPolicy, Node, Phase, RuntimeConfig, RuntimeError, StallFault, TelemetryConfig,
    ThreadedSession,
};
use deta::transport::{FaultPolicy, SendVerdict};
use deta_simnet::{Fault, FaultKind, FaultPlan, SimPolicy, TapLog};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn data(parties: usize) -> (Vec<LabeledData>, LabeledData, usize, usize) {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let train = spec.generate(80, 1);
    let test = spec.generate(40, 2);
    (
        iid_partition(&train, parties, 3),
        test,
        spec.dim(),
        spec.classes,
    )
}

/// Short deadlines (every round trigger is single-shot — the supervisor
/// has no retry — so fault strike indices count send attempts
/// deterministically). Telemetry is on, with dumps kept out of the repo
/// tree (the temp dir; unique per process so parallel test runs never
/// collide).
fn sim_rt() -> RuntimeConfig {
    RuntimeConfig {
        round_deadline: Duration::from_secs(2),
        tick: Duration::from_millis(10),
        telemetry: TelemetryConfig {
            enabled: true,
            trace_dir: std::env::temp_dir()
                .join(format!("deta-runtime-faults-{}", std::process::id())),
            ..TelemetryConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

/// The fault verdict's flight-recorder dump must exist, parse as JSONL,
/// implicate (in its trailing `meta` line) the same node(s) the error
/// names, and carry timeline records for each implicated node.
fn assert_dump_matches(session: &ThreadedSession, err: &RuntimeError) {
    let path = session
        .trace_dump_path()
        .expect("a fault verdict must write a flight-recorder dump");
    let text = std::fs::read_to_string(path).expect("dump must be readable");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 1, "dump must hold a timeline, not just meta");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}') && line.contains("\"t_ns\":"),
            "not a JSONL record: {line}"
        );
    }
    let meta = lines.last().expect("dump has lines");
    assert!(
        meta.contains("\"kind\":\"meta\""),
        "dump must end with a meta line, got: {meta}"
    );
    let named = err.implicated();
    assert!(!named.is_empty(), "fault errors must name nodes: {err}");
    for node in &named {
        assert!(
            meta.contains(&format!("\"{node}\"")),
            "meta line must implicate {node}: {meta}"
        );
        assert!(
            lines[..lines.len() - 1]
                .iter()
                .any(|l| l.contains(&format!("\"node\":\"{node}\""))),
            "timeline must contain records for the implicated node {node}"
        );
    }
}

/// Runs a 3-party, 2-aggregator deployment under `plan` and returns the
/// error (panicking if the run succeeds), asserting every thread joined
/// and the error arrived within the supervision budget.
fn run_faulted(seed: u64, plan: FaultPlan) -> RuntimeError {
    let (shards, test, dim, classes) = data(3);
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = seed;
    let policy = Arc::new(SimPolicy::new(&plan));
    let mut session = ThreadedSession::setup_with(
        cfg,
        &move |rng| mlp(&[dim, 12, classes], rng),
        shards,
        sim_rt(),
        |parts| parts.network.set_fault_policy(policy),
    )
    .expect("faults strike after setup");
    let t0 = Instant::now();
    let err = session.run(&test).expect_err("the fault must be fatal");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "supervisor hung: {:?}",
        t0.elapsed()
    );
    assert!(session.is_shut_down(), "threads leaked after the failure");
    assert_dump_matches(&session, &err);
    err
}

/// The fault must be attributed to one of `expect` — the nodes incident
/// to the injected fault — whichever structured form it surfaces as.
fn assert_names_dark_node(err: &RuntimeError, expect: &[&str]) {
    let named: Vec<String> = match err {
        RuntimeError::NodeFailed { node, .. } | RuntimeError::NodePanicked { node } => {
            vec![node.clone()]
        }
        RuntimeError::Timeout { missing, .. } => missing.clone(),
        other => panic!("expected a node-attributed error, got: {other}"),
    };
    assert!(
        named.iter().any(|n| expect.contains(&n.as_str())),
        "error names {named:?}, none of which is in {expect:?}: {err}"
    );
}

// --- Stalled: the node keeps its mailbox but stops servicing it. ---

#[test]
fn stalled_follower_aggregator_times_out_structured_and_joins() {
    let (shards, test, dim, classes) = data(3);
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 5;
    let rt = RuntimeConfig {
        // agg-1 stops servicing its mailbox the moment the first
        // round-1 upload reaches it: the canonical "follower went dark"
        // failure.
        stalls: vec![StallFault {
            node: "agg-1".to_string(),
            round: 1,
        }],
        ..sim_rt()
    };
    let mut session =
        ThreadedSession::setup(cfg, &move |rng| mlp(&[dim, 12, classes], rng), shards, rt)
            .expect("setup completes before the stall triggers");

    let t0 = Instant::now();
    let err = session
        .run(&test)
        .expect_err("a stalled follower cannot converge");
    let elapsed = t0.elapsed();

    // Structured timeout, not a hang: the error arrives promptly after
    // the 2 s round deadline and names the dark aggregator.
    assert!(
        elapsed < Duration::from_secs(10),
        "supervisor hung: {elapsed:?}"
    );
    match &err {
        RuntimeError::Timeout {
            phase,
            round,
            missing,
            stalled,
            waited,
        } => {
            assert_eq!(*phase, Phase::Round);
            assert_eq!(*round, 1);
            assert!(
                missing.iter().any(|n| n == "agg-1"),
                "missing must name the stalled aggregator, got {missing:?}"
            );
            // Parties keep heartbeating while blocked on the missing
            // fragment, so only agg-1 is classified as stalled.
            assert_eq!(stalled, &vec!["agg-1".to_string()]);
            assert!(*waited >= Duration::from_secs(2));
        }
        other => panic!("expected a structured timeout, got: {other}"),
    }

    // `run` shuts the deployment down on the failure path: every thread
    // (including the deliberately stalled one) must already be joined.
    assert!(session.is_shut_down(), "threads leaked after the timeout");
    // The verdict ships with the flight-recorder dump naming agg-1.
    assert_dump_matches(&session, &err);
    // And an explicit shutdown stays a clean no-op.
    session.shutdown().expect("idempotent shutdown");
}

#[test]
fn stalled_initiator_times_out_and_is_named() {
    let (shards, test, dim, classes) = data(3);
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 6;
    let rt = RuntimeConfig {
        stalls: vec![StallFault {
            node: "agg-0".to_string(),
            round: 1,
        }],
        ..sim_rt()
    };
    let mut session =
        ThreadedSession::setup(cfg, &move |rng| mlp(&[dim, 12, classes], rng), shards, rt)
            .expect("setup completes before the stall triggers");
    let err = session.run(&test).expect_err("no initiator, no rounds");
    assert!(
        matches!(
            err,
            RuntimeError::Timeout {
                phase: Phase::Round,
                ..
            }
        ),
        "got: {err}"
    );
    assert_names_dark_node(&err, &["agg-0"]);
    assert!(session.is_shut_down());
    assert_dump_matches(&session, &err);
}

// --- Crashed: the node's mailbox closes, its sends are blackholed. ---

#[test]
fn crashed_follower_aggregator_is_named() {
    // agg-1's per-party link counts HelloReply (0) and RegisterAck (1)
    // during setup; send attempt 2 is its round-1 aggregate dispatch —
    // the crash strikes mid-round, after a healthy bootstrap.
    let err = run_faulted(
        11,
        FaultPlan::from_faults(vec![Fault {
            kind: FaultKind::Crash,
            from: "agg-1".into(),
            to: "party-0".into(),
            at: 2,
        }]),
    );
    assert_names_dark_node(&err, &["agg-1"]);
}

#[test]
fn crashed_initiator_is_named() {
    // Attempt 2 on agg-0 → party-0 is the round-1 `RoundStart`: the
    // initiator dies announcing the round.
    let err = run_faulted(
        12,
        FaultPlan::from_faults(vec![Fault {
            kind: FaultKind::Crash,
            from: "agg-0".into(),
            to: "party-0".into(),
            at: 2,
        }]),
    );
    assert_names_dark_node(&err, &["agg-0"]);
}

// --- Partitioned: one party⇄aggregator link severed both ways. ---

#[test]
fn partitioned_follower_link_is_named() {
    // party-0 ⇄ agg-1 severed from attempt 2 on: the round-1 fragment
    // upload never arrives, so agg-1 cannot aggregate and party-0 cannot
    // synchronize — the error must implicate one of the two.
    let err = run_faulted(
        13,
        FaultPlan::from_faults(vec![
            Fault {
                kind: FaultKind::Partition,
                from: "party-0".into(),
                to: "agg-1".into(),
                at: 2,
            },
            Fault {
                kind: FaultKind::Partition,
                from: "agg-1".into(),
                to: "party-0".into(),
                at: 2,
            },
        ]),
    );
    assert_names_dark_node(&err, &["party-0", "agg-1"]);
}

#[test]
fn partitioned_initiator_link_is_named() {
    // party-0 ⇄ agg-0 severed from attempt 2 on: the round-1
    // `RoundStart` announcement is swallowed, so party-0 never trains.
    let err = run_faulted(
        14,
        FaultPlan::from_faults(vec![
            Fault {
                kind: FaultKind::Partition,
                from: "party-0".into(),
                to: "agg-0".into(),
                at: 2,
            },
            Fault {
                kind: FaultKind::Partition,
                from: "agg-0".into(),
                to: "party-0".into(),
                at: 2,
            },
        ]),
    );
    assert_names_dark_node(&err, &["party-0", "agg-0"]);
}

// --- The same fault matrix, healed: `FailoverPolicy::Restart` turns
// --- each terminal aggregator failure above into a completed session.

/// The final flight-recorder dump must carry the failover event
/// timeline. (A fault the failover healed is not the session's failure
/// and writes no dump of its own; the recovery events land in the dump
/// forced here.)
fn assert_failover_events(session: &mut ThreadedSession) {
    let path = session
        .dump_trace()
        .expect("telemetry is on, so a dump must be writable");
    let text = std::fs::read_to_string(path).expect("dump must be readable");
    for event in ["failover_started", "reattested", "round_replayed"] {
        assert!(
            text.contains(event),
            "trace dump must record {event} for a recovered run"
        );
    }
}

/// Runs the same deployment as [`run_faulted`] with
/// `FailoverPolicy::Restart` armed: the session must heal, complete
/// every configured round, and record the failover in its trace. No
/// frame, the replacement's included, goes from one aggregator to
/// another.
fn run_healed(seed: u64, plan: FaultPlan) {
    let (shards, test, dim, classes) = data(3);
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = seed;
    let policy = Arc::new(SimPolicy::new(&plan));
    let tap = Arc::new(TapLog::new());
    let rt = RuntimeConfig {
        failover: FailoverPolicy::Restart,
        ..sim_rt()
    };
    let mut session = ThreadedSession::setup_with(
        cfg,
        &move |rng| mlp(&[dim, 12, classes], rng),
        shards,
        rt,
        |parts| {
            parts.network.set_fault_policy(policy);
            parts.network.set_tap(tap.clone());
        },
    )
    .expect("faults strike after setup");
    let t0 = Instant::now();
    let metrics = session.run(&test).expect("restart failover must heal");
    assert!(
        t0.elapsed() < Duration::from_secs(15),
        "recovery overran its budget: {:?}",
        t0.elapsed()
    );
    assert_eq!(metrics.len(), 2, "every configured round must complete");
    assert!(
        session.view().failovers > 0,
        "healing this fault requires at least one failover"
    );
    assert_failover_events(&mut session);
    session.shutdown().expect("clean shutdown after recovery");
    let records = tap.delivered();
    assert!(
        records.iter().any(|r| r.from.contains("#r")),
        "the replacement must have sent"
    );
    let is_agg = |name: &str| name.starts_with("agg-");
    let between_aggs: Vec<(&str, &str)> = (records.iter())
        .filter(|r| is_agg(&r.from) && is_agg(&r.to))
        .map(|r| (r.from.as_str(), r.to.as_str()))
        .collect();
    assert!(
        between_aggs.is_empty(),
        "frames crossed between aggregators: {between_aggs:?}"
    );
}

/// A follower stalled under `Restart` heals, whether it stalls in the
/// first round of two aggregators or mid-session, after a completed
/// round, as one of four.
#[test]
fn stalled_follower_heals_under_restart() {
    for (aggregators, stall_round) in [(2, 1), (4, 2)] {
        let (shards, test, dim, classes) = data(3);
        let rounds = stall_round as usize + 1;
        let mut cfg = DetaConfig::deta(3, rounds);
        cfg.n_aggregators = aggregators;
        cfg.seed = 5;
        let rt = RuntimeConfig {
            stalls: vec![StallFault {
                node: "agg-1".to_string(),
                round: stall_round,
            }],
            failover: FailoverPolicy::Restart,
            ..sim_rt()
        };
        let mut session =
            ThreadedSession::setup(cfg, &move |rng| mlp(&[dim, 12, classes], rng), shards, rt)
                .expect("setup completes before the stall triggers");
        // The stall is keyed to the original endpoint name, so the
        // respawned incarnation services its mailbox and the round
        // replays to completion.
        let metrics = session
            .run(&test)
            .expect("restart heals a stalled follower");
        assert_eq!(metrics.len(), rounds, "{aggregators} aggregators");
        assert!(session.view().failovers > 0, "{aggregators} aggregators");
        assert_failover_events(&mut session);
    }
}

#[test]
fn stalled_initiator_heals_under_restart() {
    let (shards, test, dim, classes) = data(3);
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 6;
    let rt = RuntimeConfig {
        stalls: vec![StallFault {
            node: "agg-0".to_string(),
            round: 1,
        }],
        failover: FailoverPolicy::Restart,
        ..sim_rt()
    };
    let mut session =
        ThreadedSession::setup(cfg, &move |rng| mlp(&[dim, 12, classes], rng), shards, rt)
            .expect("setup completes before the stall triggers");
    let metrics = session
        .run(&test)
        .expect("restart heals a stalled initiator");
    assert_eq!(metrics.len(), 2);
    assert!(session.view().failovers > 0);
    assert_failover_events(&mut session);
}

#[test]
fn crashed_follower_heals_under_restart() {
    run_healed(
        11,
        FaultPlan::from_faults(vec![Fault {
            kind: FaultKind::Crash,
            from: "agg-1".into(),
            to: "party-0".into(),
            at: 2,
        }]),
    );
}

#[test]
fn crashed_initiator_heals_under_restart() {
    run_healed(
        12,
        FaultPlan::from_faults(vec![Fault {
            kind: FaultKind::Crash,
            from: "agg-0".into(),
            to: "party-0".into(),
            at: 2,
        }]),
    );
}

#[test]
fn partitioned_follower_link_heals_under_restart() {
    run_healed(
        13,
        FaultPlan::from_faults(vec![
            Fault {
                kind: FaultKind::Partition,
                from: "party-0".into(),
                to: "agg-1".into(),
                at: 2,
            },
            Fault {
                kind: FaultKind::Partition,
                from: "agg-1".into(),
                to: "party-0".into(),
                at: 2,
            },
        ]),
    );
}

#[test]
fn partitioned_initiator_link_heals_under_restart() {
    run_healed(
        14,
        FaultPlan::from_faults(vec![
            Fault {
                kind: FaultKind::Partition,
                from: "party-0".into(),
                to: "agg-0".into(),
                at: 2,
            },
            Fault {
                kind: FaultKind::Partition,
                from: "agg-0".into(),
                to: "party-0".into(),
                at: 2,
            },
        ]),
    );
}

/// The one failover refusal left: under Paillier fusion a replayed
/// upload could not be byte-identical (re-encrypting draws fresh
/// randomness), so a stalled follower stays terminal with `Restart` armed
/// — attributed to it, nothing respawned, every thread joined.
#[test]
fn paillier_refuses_restart_and_names_the_stalled_aggregator() {
    let (shards, test, dim, classes) = data(2);
    let mut cfg = DetaConfig::deta(2, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 33;
    cfg.paillier = Some(PaillierFusionConfig {
        n_bits: 256,
        clip: 4.0,
        value_bits: 20,
    });
    let rt = RuntimeConfig {
        failover: FailoverPolicy::Restart,
        stalls: vec![StallFault {
            node: "agg-1".to_string(),
            round: 1,
        }],
        ..sim_rt()
    };
    let mut session =
        ThreadedSession::setup(cfg, &move |rng| mlp(&[dim, 12, classes], rng), shards, rt)
            .expect("setup completes before the stall triggers");
    let t0 = Instant::now();
    let err = session
        .run(&test)
        .expect_err("an encrypted round cannot be replayed");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "supervisor hung: {:?}",
        t0.elapsed()
    );
    assert!(session.is_shut_down(), "threads leaked after the refusal");
    match &err {
        RuntimeError::Timeout {
            phase: Phase::Round,
            round: 1,
            stalled,
            ..
        } => assert_eq!(stalled, &["agg-1"]),
        other => panic!("expected a round timeout, got: {other}"),
    }
    assert_eq!(err.implicated(), ["agg-1"]);
    assert_dump_matches(&session, &err);
    let view = session.view();
    assert_eq!(view.failovers, 0, "the refusal runs no failover");
    assert!(
        !view.tokens.contains_key("agg-1#r1"),
        "no replacement was attested"
    );
}

// --- Shutdown during and after recovery. ---

#[test]
fn shutdown_after_failover_is_prompt() {
    // Regression: `ThreadedSession::shutdown` closes every control channel
    // *before* joining, so no node — original or respawned mid-failover
    // — can extend shutdown by a blocking `recv_timeout` deadline. After
    // a heal, the deployment contains replacement threads; an explicit
    // shutdown must still complete well under one round deadline.
    let (shards, test, dim, classes) = data(3);
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 15;
    let plan = FaultPlan::from_faults(vec![Fault {
        kind: FaultKind::Crash,
        from: "agg-1".into(),
        to: "party-0".into(),
        at: 2,
    }]);
    let policy = Arc::new(SimPolicy::new(&plan));
    let rt = RuntimeConfig {
        failover: FailoverPolicy::Restart,
        ..sim_rt()
    };
    let mut session = ThreadedSession::setup_with(
        cfg,
        &move |rng| mlp(&[dim, 12, classes], rng),
        shards,
        rt,
        |parts| parts.network.set_fault_policy(policy),
    )
    .expect("faults strike after setup");
    session.run(&test).expect("restart heals the crash");
    assert!(session.view().failovers > 0);
    let t0 = Instant::now();
    session.shutdown().expect("clean shutdown");
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "shutdown with replacement nodes took {:?} — a control channel \
         was left open past a recv deadline",
        t0.elapsed()
    );
}

/// Blackholes every fragment-sized frame from `party-0` to any
/// aggregator incarnation — unlike a simnet partition (keyed to one
/// endpoint name), this chases replacements, so no restart can heal it
/// and the recovery budget must run dry.
struct UploadBlackhole;

impl FaultPolicy for UploadBlackhole {
    fn on_send(&self, from: &str, to: &str, payload: &[u8]) -> SendVerdict {
        if from == "party-0" && to.starts_with("agg") && payload.len() > 200 {
            SendVerdict::Drop
        } else {
            SendVerdict::Deliver
        }
    }
}

#[test]
fn exhausted_recovery_budget_degrades_to_structured_error() {
    // One recovery attempt per aggregator, against a fault that follows
    // the replacements: the supervisor must try exactly one failover,
    // then degrade to today's structured, attributed error — with every
    // thread (including the mid-flight replacements) joined promptly.
    let (shards, test, dim, classes) = data(3);
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 16;
    let rt = RuntimeConfig {
        failover: FailoverPolicy::Restart,
        recovery_attempts: 1,
        ..sim_rt()
    };
    let mut session = ThreadedSession::setup_with(
        cfg,
        &move |rng| mlp(&[dim, 12, classes], rng),
        shards,
        rt,
        |parts| parts.network.set_fault_policy(Arc::new(UploadBlackhole)),
    )
    .expect("uploads only start after setup");
    let t0 = Instant::now();
    let err = session
        .run(&test)
        .expect_err("an incarnation-chasing blackhole cannot be healed");
    // Two round-deadline waits (original + one replay), budget refusal,
    // then shutdown — never a hang, and shutdown must not add a deadline.
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "degradation overran the recovery budget: {:?}",
        t0.elapsed()
    );
    assert_eq!(
        session.view().failovers,
        1,
        "exactly one failover fits the budget"
    );
    assert!(
        matches!(err, RuntimeError::Timeout { .. }),
        "budget exhaustion surfaces the underlying timeout, got: {err}"
    );
    assert!(session.is_shut_down(), "threads leaked after degradation");
}

#[test]
fn healthy_deployment_does_not_false_positive() {
    // Tight (but sufficient) deadlines on a healthy deployment: the
    // supervisor must not misreport a live system.
    let (shards, test, dim, classes) = data(3);
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 8;
    let rt = RuntimeConfig {
        tick: Duration::from_millis(5),
        ..RuntimeConfig::default()
    };
    let mut session =
        ThreadedSession::setup(cfg, &move |rng| mlp(&[dim, 12, classes], rng), shards, rt)
            .expect("healthy setup");
    let metrics = session.run(&test).expect("healthy run");
    assert_eq!(metrics.len(), 2);
    assert_eq!(session.completed_rounds(), 2);
}

// --- Partial participation after a drop. ---

/// `party_drop` × `participation`: once a party is dropped, every later
/// cohort must be drawn from the parties still in the session. agg-1's
/// link to party-3 is severed one way from its round-1 download on, so
/// party-3 cannot finish round 1 and is dropped; with a quorum of three
/// and three survivors, every later round trains exactly the survivors.
/// Drawing the cohort from all four names instead leaves the first later
/// round that picks party-3 one upload short of the aggregators' quorum.
#[test]
fn dropped_party_leaves_later_cohorts_to_the_survivors() {
    let (shards, test, dim, classes) = data(4);
    let mut cfg = DetaConfig::deta(4, 4);
    cfg.n_aggregators = 2;
    cfg.participation = Some(3);
    cfg.seed = 31;
    let plan = FaultPlan::from_faults(vec![Fault {
        kind: FaultKind::Partition,
        from: "agg-1".into(),
        to: "party-3".into(),
        at: 2,
    }]);
    let policy = Arc::new(SimPolicy::new(&plan));
    let rt = RuntimeConfig {
        party_drop: true,
        ..sim_rt()
    };
    let mut session = ThreadedSession::setup_with(
        cfg,
        &move |rng| mlp(&[dim, 12, classes], rng),
        shards,
        rt,
        |parts| {
            parts.network.set_fault_policy(policy);
            for p in &mut parts.parties {
                p.record_updates = true;
            }
        },
    )
    .expect("the partition strikes after setup");
    let metrics = session
        .run(&test)
        .expect("the survivors must carry every remaining round");
    assert_eq!(metrics.len(), 4, "every configured round must complete");
    let view = session.view();
    let dropped: Vec<&str> = view.dropped_parties.iter().map(String::as_str).collect();
    assert_eq!(dropped, ["party-3"]);

    let party = |i: usize| match view.node(&format!("party-{i}")) {
        Some(Node::Party(p)) => p,
        _ => panic!("party-{i} must have been joined"),
    };
    let lost = party(3);
    let lost_at = lost.last_finished_round() + 1;
    assert!(
        lost.update_log.iter().all(|(round, _)| *round <= lost_at),
        "a dropped party must never be planned to train again"
    );
    let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let first = session.party_params(0).expect("recovered party-0");
    for i in 0..3 {
        let survivor = party(i);
        assert_eq!(survivor.last_finished_round(), 4);
        let trained: Vec<u64> = survivor.update_log.iter().map(|(r, _)| *r).collect();
        for round in lost_at + 1..=4 {
            assert!(
                trained.contains(&round),
                "party-{i} must be in round {round}'s cohort, trained {trained:?}"
            );
        }
        assert_eq!(
            bits(&first),
            bits(&survivor.model.flat_params()),
            "survivors' replicas must be bit-identical"
        );
    }
}

/// `party_drop` × failover: a failover's readiness barrier and replay
/// must address the parties still in the session. party-3 is dropped in
/// round 1 (as above); agg-1 stalls at round 2 with `Restart` armed.
/// Waiting for the dropped party to re-register would hold the barrier
/// to its deadline and end the session.
#[test]
fn failover_after_a_drop_addresses_only_the_survivors() {
    let (shards, test, dim, classes) = data(4);
    let mut cfg = DetaConfig::deta(4, 3);
    cfg.n_aggregators = 2;
    cfg.seed = 32;
    let plan = FaultPlan::from_faults(vec![Fault {
        kind: FaultKind::Partition,
        from: "agg-1".into(),
        to: "party-3".into(),
        at: 2,
    }]);
    let policy = Arc::new(SimPolicy::new(&plan));
    let rt = RuntimeConfig {
        party_drop: true,
        failover: FailoverPolicy::Restart,
        stalls: vec![StallFault {
            node: "agg-1".to_string(),
            round: 2,
        }],
        ..sim_rt()
    };
    let mut session = ThreadedSession::setup_with(
        cfg,
        &move |rng| mlp(&[dim, 12, classes], rng),
        shards,
        rt,
        |parts| parts.network.set_fault_policy(policy),
    )
    .expect("faults strike after setup");
    let t0 = Instant::now();
    let metrics = session
        .run(&test)
        .expect("a drop, then a failover, must both heal");
    assert!(
        t0.elapsed() < Duration::from_secs(9),
        "the failover barrier waited on a dropped party: {:?}",
        t0.elapsed()
    );
    assert_eq!(metrics.len(), 3);
    let view = session.view();
    assert_eq!(view.failovers, 1);
    assert_eq!(view.agg_names, ["agg-0", "agg-1#r1"]);
    let dropped: Vec<&str> = view.dropped_parties.iter().map(String::as_str).collect();
    assert_eq!(dropped, ["party-3"]);
}
