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
        RuntimeConfig::default(),
        Default::default(),
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
    let hub_err = bridged.hub.join();
    assert!(hub_err.is_none(), "hub observed an error: {hub_err:?}");
    metrics
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
