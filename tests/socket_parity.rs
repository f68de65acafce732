//! Socket-backend parity: a multi-node deployment bridged over real TCP
//! loopback must produce *bit-identical* round metrics to the in-process
//! `ThreadedSession` for the same seed.
//!
//! Children here are hosted on threads of this test process (each one
//! calling `deta_socket::run_node`, exactly what the `deta-cli node`
//! subcommand does in a real child process), so every byte still crosses
//! a real TCP socket with framing, sealing, sequencing, and the
//! challenge-response auth — only the OS process boundary is elided.
//! `crates/deta-cli/tests/multi_process.rs` covers the real-process
//! variant end to end.

use deta::core::session::SetupError;
use deta::core::{AggKind, DetaConfig, RoundMetrics};
use deta::datasets::{iid_partition, DatasetSpec};
use deta::nn::models::mlp;
use deta::nn::train::LabeledData;
use deta::runtime::{FailoverPolicy, RuntimeConfig, RuntimeError, ThreadedSession};
use deta::socket::{launch, run_node};
use deta::transport::{FaultPolicy, Network, SendVerdict};
use std::collections::HashMap;
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

/// The deterministic slice of a round's metrics. Latency fields are
/// wall-clock and excluded by construction.
fn fingerprint(metrics: &[RoundMetrics]) -> Vec<(f32, f32, f32, u64, u64)> {
    metrics
        .iter()
        .map(|m| {
            (
                m.train_loss,
                m.test_loss,
                m.test_accuracy,
                m.upload_bytes,
                m.download_bytes,
            )
        })
        .collect()
}

/// Loss/accuracy-only view, for runs where injected faults legitimately
/// change byte counts but must not change the learned model.
fn learning_fingerprint(metrics: &[RoundMetrics]) -> Vec<(f32, f32, f32)> {
    metrics
        .iter()
        .map(|m| (m.train_loss, m.test_loss, m.test_accuracy))
        .collect()
}

fn run_inprocess(
    cfg: DetaConfig,
    shards: Vec<LabeledData>,
    test: &LabeledData,
    dim: usize,
    classes: usize,
) -> Vec<RoundMetrics> {
    let mut session = ThreadedSession::setup(
        cfg,
        &move |rng| mlp(&[dim, 16, classes], rng),
        shards,
        RuntimeConfig::default(),
    )
    .expect("in-process setup");
    session.run(test).expect("in-process run")
}

/// Runs the same session with every node detached behind the TCP
/// bridge. `instrument` gets the hub network once every node is ready
/// and before any round runs (for fault-seam tests). Panics on any child
/// or hub error.
fn run_socket(
    cfg: DetaConfig,
    shards: Vec<LabeledData>,
    test: &LabeledData,
    dim: usize,
    classes: usize,
    instrument: impl FnOnce(&Network),
) -> Vec<RoundMetrics> {
    let calm = Conditions::default();
    run_socket_under(calm, cfg, shards, test, dim, classes, instrument).0
}

/// What a bridged run is subjected to: the supervisor's timers, and the
/// hub's chaos plan — per node, the cumulative ingress frame counts at
/// which the hub severs that node's link.
#[derive(Default)]
struct Conditions {
    rt: RuntimeConfig,
    chaos: HashMap<String, Vec<u64>>,
}

/// [`run_socket`] under `conditions`, also returning how many of the
/// planned cuts never happened.
fn run_socket_under(
    conditions: Conditions,
    cfg: DetaConfig,
    shards: Vec<LabeledData>,
    test: &LabeledData,
    dim: usize,
    classes: usize,
    instrument: impl FnOnce(&Network),
) -> (Vec<RoundMetrics>, usize) {
    let (child_cfg, child_shards) = (cfg.clone(), shards.clone());
    let host = |name: &str, addr| {
        let (name, cfg, shards) = (name.to_string(), child_cfg.clone(), child_shards.clone());
        Ok(std::thread::spawn(move || {
            let builder = move |rng: &mut deta::crypto::DetRng| mlp(&[dim, 16, classes], rng);
            run_node(
                addr,
                &name,
                cfg,
                &builder,
                shards,
                Duration::from_millis(10),
            )
        }))
    };
    let mut bridged = launch(
        cfg,
        &move |rng| mlp(&[dim, 16, classes], rng),
        shards,
        conditions.rt,
        conditions.chaos,
        host,
    )
    .expect("socket setup");
    instrument(bridged.session.network());
    let metrics = bridged.session.run(test).expect("socket run");
    for child in bridged.hosts {
        child
            .join()
            .expect("child thread must not panic")
            .expect("child must exit cleanly");
    }
    let unfired = bridged.hub.pending_severs();
    let hub_err = bridged.hub.join();
    assert!(hub_err.is_none(), "hub observed an error: {hub_err:?}");
    (metrics, unfired)
}

#[test]
fn socket_equals_inprocess_fedavg_k2() {
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 42;
    let (shards, test, dim, classes) = data(120, cfg.n_parties);
    let local = run_inprocess(cfg.clone(), shards.clone(), &test, dim, classes);
    let remote = run_socket(cfg, shards, &test, dim, classes, |_| {});
    assert_eq!(
        fingerprint(&local),
        fingerprint(&remote),
        "TCP deployment must be bit-exact with the in-process one"
    );
}

#[test]
fn socket_equals_inprocess_coordinate_median_k2() {
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.algorithm = AggKind::CoordinateMedian;
    cfg.seed = 7;
    let (shards, test, dim, classes) = data(120, cfg.n_parties);
    let local = run_inprocess(cfg.clone(), shards.clone(), &test, dim, classes);
    let remote = run_socket(cfg, shards, &test, dim, classes, |_| {});
    assert_eq!(
        fingerprint(&local),
        fingerprint(&remote),
        "robust aggregation over TCP must be bit-exact with in-process"
    );
}

/// Duplicates every large party→aggregator payload (model uploads; the
/// size floor skips the small Phase II handshake frames).
struct DuplicateUploads;

impl FaultPolicy for DuplicateUploads {
    fn on_send(&self, from: &str, to: &str, payload: &[u8]) -> SendVerdict {
        if from.starts_with("party-") && to.starts_with("agg-") && payload.len() > 1000 {
            SendVerdict::Duplicate
        } else {
            SendVerdict::Deliver
        }
    }
}

/// The simulator's idempotence invariant, unchanged over sockets: the
/// fault policy installed on the hub network duplicates uploads that now
/// arrive via TCP, and the learned model must not move. (Byte counters
/// legitimately differ — the duplicate is billed — so only the learning
/// fingerprint is compared.)
#[test]
fn socket_duplicated_uploads_are_idempotent() {
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 99;
    let (shards, test, dim, classes) = data(120, cfg.n_parties);
    let clean = run_socket(cfg.clone(), shards.clone(), &test, dim, classes, |_| {});
    let faulted = run_socket(cfg, shards, &test, dim, classes, |network| {
        network.set_fault_policy(Arc::new(DuplicateUploads));
    });
    assert_eq!(
        learning_fingerprint(&clean),
        learning_fingerprint(&faulted),
        "duplicated uploads over sockets must not change the model"
    );
}

/// Both directions of a resume over buffers that acknowledgements have
/// been pruning. Counting each node's ingress frames at the hub (setup
/// is about six from a party, nine from the initiator), party-1's seventh
/// is its first upload of round 1 — its link dies with the second upload
/// stamped or about to be — and agg-0's fifteenth is the second of three
/// `Aggregated` it fans out, so the hub -> child direction is cut with a
/// download in flight too. Heartbeats move the counts by a frame or two;
/// wherever the cuts land, nothing may be lost, doubled or billed twice.
///
/// Retries are pushed past the horizon in both arms, as in every
/// byte-compared chaos harness of the workspace: the bridge loses
/// nothing, so a retry cannot help, and a supervisor that re-triggers a
/// round because an outage outlasted its 100 ms timer has the initiator
/// fan `RoundStart` out again — 138 honest bytes that are the timer's
/// doing, not the link's.
#[test]
fn severed_party_and_aggregator_links_resume_bit_exact() {
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 42;
    let (shards, test, dim, classes) = data(120, cfg.n_parties);
    let run = |chaos: &[(&str, u64)]| {
        let conditions = Conditions {
            rt: RuntimeConfig {
                retry_initial: Duration::from_secs(3600),
                retry_max: Duration::from_secs(3600),
                ..RuntimeConfig::default()
            },
            chaos: chaos
                .iter()
                .map(|(node, at)| (node.to_string(), vec![*at]))
                .collect(),
        };
        let (cfg, shards) = (cfg.clone(), shards.clone());
        run_socket_under(conditions, cfg, shards, &test, dim, classes, |_| {})
    };
    let (clean, _) = run(&[]);
    let (severed, unfired) = run(&[("party-1", 7), ("agg-0", 15)]);
    assert_eq!(unfired, 0, "both planned cuts must have happened");
    assert_eq!(
        fingerprint(&clean),
        fingerprint(&severed),
        "a severed link must resume without a trace in the metrics"
    );
}

/// A bridged session cannot respawn a remote node, so `launch` refuses a
/// failover policy up front — structurally, before anything is built or
/// any host started.
#[test]
fn launch_refuses_a_failover_policy() {
    let cfg = DetaConfig::deta(3, 1);
    let (shards, _, dim, classes) = data(30, cfg.n_parties);
    let rt = RuntimeConfig {
        failover: FailoverPolicy::Restart,
        ..RuntimeConfig::default()
    };
    let host = |name: &str, _| -> Result<(), RuntimeError> { panic!("host started for {name}") };
    let builder = move |rng: &mut deta::crypto::DetRng| mlp(&[dim, 16, classes], rng);
    let refused = launch(cfg, &builder, shards, rt, Default::default(), host);
    assert!(
        matches!(
            refused,
            Err(RuntimeError::Setup(SetupError::Config(why))) if why.contains("failover")
        ),
        "expected a structured configuration error"
    );
}
