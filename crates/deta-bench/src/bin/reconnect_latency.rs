//! Link-resilience benchmark: the recovery latency of an actual
//! sever-park-resume cycle on the TCP bridge. Emits
//! `BENCH_reconnect.json` (to a temp directory; into the committed
//! `results/` tree only under `DETA_BENCH_REWRITE=1`).
//!
//! The same bridged session runs fault-free and under a chaos plan that
//! severs one party's TCP connection mid-stream several times (no `Bye`,
//! the hub parks the seat, the child backs off and resumes). The metrics
//! must stay bit-exact with the fault-free run; the wall-time delta
//! divided by the sever count is the per-reconnect recovery cost,
//! dominated by the child's first backoff step.
//!
//! ```text
//! cargo run --release -p deta-bench --bin reconnect_latency
//! ```

use deta_bench::{bench_output_dir, Args};
use deta_core::{DetaConfig, RoundMetrics};
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_nn::train::LabeledData;
use deta_runtime::RuntimeConfig;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The deterministic slice of the metrics (latency excluded).
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

/// Runs the session with every node detached behind the TCP bridge
/// (children hosted on threads of this process), under the given chaos
/// plan. Returns the metrics and the measured wall time.
fn run_socket(
    cfg: DetaConfig,
    shards: &[LabeledData],
    test: &LabeledData,
    dim: usize,
    classes: usize,
    chaos: HashMap<String, Vec<u64>>,
) -> (Vec<RoundMetrics>, f64) {
    let t0 = Instant::now();
    let (child_cfg, child_shards) = (cfg.clone(), shards.to_vec());
    let host = |name: &str, addr| {
        let (name, cfg, shards) = (name.to_string(), child_cfg.clone(), child_shards.clone());
        Ok(std::thread::spawn(move || {
            let builder = move |rng: &mut deta_crypto::DetRng| mlp(&[dim, 16, classes], rng);
            deta_socket::run_node(
                addr,
                &name,
                cfg,
                &builder,
                shards,
                Duration::from_millis(10),
            )
        }))
    };
    let rt = RuntimeConfig::default();
    let builder = move |rng: &mut deta_crypto::DetRng| mlp(&[dim, 16, classes], rng);
    let mut bridged =
        deta_socket::launch(cfg, &builder, shards.to_vec(), rt, chaos, host).expect("socket setup");
    let metrics = bridged.session.run(test).expect("socket run");
    for child in bridged.hosts {
        child
            .join()
            .expect("child thread")
            .expect("child exited cleanly");
    }
    let err = bridged.hub.join();
    assert!(err.is_none(), "hub error: {err:?}");
    (metrics, t0.elapsed().as_secs_f64())
}

fn config(seed: u64, aggregators: usize, parties: usize, rounds: usize) -> DetaConfig {
    let mut cfg = DetaConfig::deta(parties, rounds);
    cfg.n_aggregators = aggregators;
    cfg.seed = seed;
    cfg
}

fn main() {
    let args = Args::parse();
    let parties: usize = args.get("parties", 4);
    let aggregators: usize = args.get("aggregators", 2);
    let rounds: usize = args.get("rounds", 10);
    let per_party: usize = args.get("examples", 120);
    let seed: u64 = args.get("seed", 42);
    let reps: usize = args.get("reps", 5);

    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let train = spec.generate(per_party * parties, 1);
    let test = spec.generate(200, 2);
    let shards = iid_partition(&train, parties, 3);
    let (dim, classes) = (spec.dim(), spec.classes);

    // Fault-free reference: the parity baseline and the wall time the
    // chaos arm is compared against. The first run is an unmeasured
    // warmup (allocator arenas, page cache); then best-of-N, the minimum
    // being the stable estimator for a fixed workload.
    let run = |chaos: HashMap<String, Vec<u64>>| {
        let cfg = config(seed, aggregators, parties, rounds);
        let (metrics, wall) = run_socket(cfg, &shards, &test, dim, classes, chaos);
        (fingerprint(&metrics), wall)
    };
    let (baseline, _) = run(HashMap::new());
    let mut wall_clean = f64::INFINITY;
    for _ in 0..reps {
        let (fp, wall) = run(HashMap::new());
        assert_eq!(baseline, fp, "parity gate: fault-free runs diverged");
        wall_clean = wall_clean.min(wall);
    }

    // Recovery latency. The hub severs party-0's connection after the
    // given cumulative ingress Data-frame counts; each sever forces a
    // full park → backoff → re-auth → resume → replay cycle.
    let severs: Vec<u64> = vec![4, 9, 15];
    let chaos: HashMap<String, Vec<u64>> = HashMap::from([("party-0".to_string(), severs.clone())]);
    let mut wall_chaos = f64::INFINITY;
    for _ in 0..reps {
        let (fp, wall) = run(chaos.clone());
        assert_eq!(
            baseline, fp,
            "parity gate: metrics diverged under chaos severs"
        );
        wall_chaos = wall_chaos.min(wall);
    }
    let recovery_s = (wall_chaos - wall_clean).max(0.0) / severs.len() as f64;

    println!("\n=== reconnect latency ({parties} parties, {rounds} rounds, parity-gated) ===");
    println!("fault-free:                 {wall_clean:7.3}s wall (best of {reps})");
    println!(
        "{} severs of party-0:        {wall_chaos:7.3}s wall -> {:.1} ms recovery per reconnect",
        severs.len(),
        recovery_s * 1e3
    );

    // Hand-rolled JSON (the workspace is dependency-free by design).
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"reconnect_latency\",");
    let _ = writeln!(json, "  \"parties\": {parties},");
    let _ = writeln!(json, "  \"aggregators\": {aggregators},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"examples_per_party\": {per_party},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"parity_checked\": true,");
    let _ = writeln!(json, "  \"wall_s_fault_free\": {wall_clean:.6},");
    let _ = writeln!(json, "  \"severs\": {},", severs.len());
    let _ = writeln!(json, "  \"wall_s_chaos\": {wall_chaos:.6},");
    let _ = writeln!(json, "  \"recovery_s_per_reconnect\": {recovery_s:.6}");
    let _ = writeln!(json, "}}");
    let path = bench_output_dir().join("BENCH_reconnect.json");
    std::fs::write(&path, json).expect("write BENCH_reconnect.json");
    println!("\nwrote {}", path.display());
}
