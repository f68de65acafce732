//! Multi-process deployment: the same DeTA session as
//! `threaded_deployment`, but with every party and aggregator as its
//! own *OS process*, connected to the coordinator over real TCP
//! loopback sockets — framing, sealing, sequencing, and the
//! challenge-response identity binding all live.
//!
//! The example re-executes its own binary for each node (the same trick
//! `deta-cli cluster` uses): the parent runs the coordinator and the
//! socket hub; each child builds its one node from the shared seed —
//! bit-identical to the coordinator's copy — and dials back in. For a
//! fixed seed the result is bit-identical to the fully in-process
//! `ThreadedSession`; this example runs both and checks.
//!
//! ```text
//! cargo run --release --example multi_process
//! ```

use deta::core::{DetaConfig, RoundMetrics};
use deta::datasets::{iid_partition, DatasetSpec};
use deta::nn::models::mlp;
use deta::nn::train::LabeledData;
use deta::runtime::{FailoverPolicy, RuntimeConfig, RuntimeError, ThreadedSession};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const SEED: u64 = 42;
const PARTIES: usize = 3;
const AGGREGATORS: usize = 2;
const ROUNDS: usize = 3;

fn config() -> DetaConfig {
    let mut config = DetaConfig::deta(PARTIES, ROUNDS);
    config.n_aggregators = AGGREGATORS;
    config.local_epochs = 2;
    config.lr = 0.25;
    config.seed = SEED;
    config
}

/// Everything derives from the seed, so parent and children rebuild
/// identical data without any of it crossing a socket.
fn data() -> (Vec<LabeledData>, LabeledData, usize, usize) {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let train = spec.generate(240, 1);
    let test = spec.generate(80, 2);
    (
        iid_partition(&train, PARTIES, 3),
        test,
        spec.dim(),
        spec.classes,
    )
}

fn runtime() -> RuntimeConfig {
    RuntimeConfig {
        // The supervisor cannot respawn an OS process, so fail
        // structurally instead of healing.
        failover: FailoverPolicy::None,
        ..RuntimeConfig::default()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Child role: `multi_process --node <name> <hub-addr>`.
    if args.first().map(String::as_str) == Some("--node") {
        let (Some(name), Some(addr)) = (args.get(1), args.get(2)) else {
            eprintln!("usage: multi_process --node <name> <hub-addr>");
            return ExitCode::FAILURE;
        };
        return child(name, addr);
    }
    coordinator()
}

fn child(name: &str, addr: &str) -> ExitCode {
    let (shards, _test, dim, classes) = data();
    let builder = move |rng: &mut deta::crypto::DetRng| mlp(&[dim, 16, classes], rng);
    let addr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{name}: bad hub address: {e}");
            return ExitCode::FAILURE;
        }
    };
    match deta::socket::run_node(
        addr,
        name,
        config(),
        &builder,
        shards,
        Duration::from_millis(20),
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn coordinator() -> ExitCode {
    let (shards, test, dim, classes) = data();
    let builder = move |rng: &mut deta::crypto::DetRng| mlp(&[dim, 16, classes], rng);
    let exe = std::env::current_exe().expect("own binary path");

    println!(
        "== multi-process deployment: {PARTIES} parties + {AGGREGATORS} aggregators, \
         one OS process each, TCP loopback =="
    );
    let host = |name: &str, addr: std::net::SocketAddr| {
        println!("   spawning process for {name}");
        std::process::Command::new(&exe)
            .args(["--node", name, &addr.to_string()])
            .spawn()
            .map_err(RuntimeError::Spawn)
    };
    let no_chaos = Default::default();
    let mut cluster = deta::socket::launch(
        config(),
        &builder,
        shards.clone(),
        runtime(),
        no_chaos,
        host,
    )
    .expect("socket setup");
    let metrics = cluster.session.run(&test).expect("socket run");
    reap(&mut cluster.hosts);
    if let Some(e) = cluster.hub.join() {
        eprintln!("hub error: {e}");
        return ExitCode::FAILURE;
    }
    for m in &metrics {
        println!(
            "round {:2}  loss {:.4}  acc {:5.1}%  up {} bytes",
            m.round,
            m.test_loss,
            m.test_accuracy * 100.0,
            m.upload_bytes,
        );
    }

    println!("\n== in-process reference ==");
    let mut reference =
        ThreadedSession::setup(config(), &builder, shards, runtime()).expect("in-process setup");
    let reference_metrics = reference.run(&test).expect("in-process run");

    let identical = fingerprint(&metrics) == fingerprint(&reference_metrics);
    println!(
        "\nsocket metrics bit-identical to in-process: {}",
        if identical { "YES" } else { "NO" }
    );
    if identical {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

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

/// Waits for every child with a hard bound; a wedged node is killed.
fn reap(children: &mut [std::process::Child]) {
    let deadline = Instant::now() + Duration::from_secs(60);
    for child in children {
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
    }
}
