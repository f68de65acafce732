//! Telemetry tour: runs a small threaded DeTA deployment with the
//! observability sink enabled, then shows what you get — per-node
//! flight-recorder timelines (JSONL), a Prometheus-text metrics
//! snapshot, and the per-round byte accounting taken from the
//! transport's exact per-link counters.
//!
//! ```text
//! cargo run --release --example telemetry_tour
//! ```
//!
//! The dump lands under `results/traces/`. For a *fault* timeline (the
//! dump the supervisor writes automatically when it constructs a
//! `RuntimeError`), see `sim_sweep --seed N --trace`.

use deta::core::DetaConfig;
use deta::datasets::{iid_partition, DatasetSpec};
use deta::nn::models::mlp;
use deta::runtime::{RuntimeConfig, TelemetryConfig, ThreadedSession};

fn main() {
    let spec = DatasetSpec::mnist_like().at_resolution(10);
    let train = spec.generate(240, 1);
    let test = spec.generate(80, 2);
    let shards = iid_partition(&train, 3, 3);

    let mut config = DetaConfig::deta(3, 2);
    config.n_aggregators = 2;
    config.seed = 7;

    let dim = spec.dim();
    let classes = spec.classes;
    let builder = move |rng: &mut deta::crypto::DetRng| mlp(&[dim, 16, classes], rng);

    let rt = RuntimeConfig {
        telemetry: TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        },
        ..RuntimeConfig::default()
    };

    println!("== threaded deployment with telemetry enabled ==");
    let mut session = ThreadedSession::setup(config, &builder, shards, rt).expect("threaded setup");
    let metrics = session.run(&test).expect("threaded run");
    for m in &metrics {
        println!(
            "round {:2}  acc {:5.1}%  upload {:6} B  download {:6} B",
            m.round,
            m.test_accuracy * 100.0,
            m.upload_bytes,
            m.download_bytes,
        );
    }

    // Healthy runs don't dump automatically (only fault verdicts do);
    // force one so the tour has a timeline to show.
    let dump = session.dump_trace().expect("telemetry is enabled");
    println!("\n== flight-recorder dump: {} ==", dump.display());
    let text = std::fs::read_to_string(&dump).expect("dump readable");
    let lines: Vec<&str> = text.lines().collect();
    println!("({} timeline records; last 5 below)", lines.len());
    for line in lines.iter().rev().take(5).rev() {
        println!("  {line}");
    }

    println!("\n== metrics snapshot (excerpt) ==");
    for line in deta::obs::metrics::prometheus_snapshot()
        .lines()
        .filter(|l| l.contains("deta_net_bytes_total") || l.contains("deta_net_frames_total"))
        .take(12)
    {
        println!("  {line}");
    }
    println!(
        "\n{} telemetry records/observations were emitted in total",
        deta::obs::emits()
    );
}
