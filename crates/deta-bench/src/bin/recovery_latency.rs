//! Recovery latency: the cost of healing one mid-session aggregator
//! failure under `FailoverPolicy::Restart`, at the 4-party /
//! 4-aggregator configuration. Emits `BENCH_recovery.json` (to a temp
//! directory; into the committed `results/` tree only under
//! `DETA_BENCH_REWRITE=1`) and exits non-zero when the faulted run
//! fails to heal every round.
//!
//! ```text
//! cargo run --release -p deta-bench --bin recovery_latency
//! ```
//!
//! Two measured modes, each the *median* of `--runs` wall times — on a
//! loaded CI box a single descheduled run can double one sample, and
//! the median absorbs that where a minimum biases the comparison:
//!
//! 1. fault-free — the baseline,
//! 2. one follower aggregator stalled mid-session with `Restart` armed
//!    — reports rounds-to-heal (the failover count; each failover
//!    replays exactly one round) and the healing latency over the
//!    baseline.
//!
//! The faulted mode's round deadline is derived from the measured
//! baseline round time (3x + margin) rather than fixed: recovery
//! latency is dominated by the deadline wait that *detects* the dead
//! node, so an honest number needs a deadline proportioned to the
//! machine actually running the bench.

use deta_bench::{bench_output_dir, Args};
use deta_core::DetaConfig;
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_nn::train::LabeledData;
use deta_runtime::{FailoverPolicy, RuntimeConfig, StallFault, ThreadedSession};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Hidden width of the benchmarked MLP — large enough that per-round
/// training compute dominates OS scheduling jitter (see
/// `telemetry_overhead`, which uses the same configuration).
const HIDDEN: usize = 256;

/// One full threaded run; returns the wall time in seconds and the
/// failover count.
fn run_once(
    cfg: &DetaConfig,
    shards: &[LabeledData],
    test: &LabeledData,
    dim: usize,
    classes: usize,
    rt: RuntimeConfig,
    rounds: usize,
) -> (f64, u64) {
    let build = move |rng: &mut deta_crypto::DetRng| mlp(&[dim, HIDDEN, classes], rng);
    let t0 = Instant::now();
    let mut session =
        ThreadedSession::setup(cfg.clone(), &build, shards.to_vec(), rt).expect("threaded setup");
    let metrics = session.run(test).expect("threaded run");
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(metrics.len(), rounds, "every round must complete");
    (wall, session.view().failovers)
}

fn main() {
    let args = Args::parse();
    let parties: usize = args.get("parties", 4);
    let aggregators: usize = args.get("aggregators", 4);
    let rounds: usize = args.get("rounds", 10);
    let per_party: usize = args.get("examples", 240);
    let seed: u64 = args.get("seed", 42);
    let runs: usize = args.get("runs", 3);

    let spec = DatasetSpec::mnist_like().at_resolution(10);
    let train = spec.generate(per_party * parties, 1);
    let test = spec.generate(200, 2);
    let shards = iid_partition(&train, parties, 3);
    let (dim, classes) = (spec.dim(), spec.classes);

    let mut cfg = DetaConfig::deta(parties, rounds);
    cfg.n_aggregators = aggregators;
    cfg.seed = seed;

    let stall_round = (rounds as u64 / 2).max(1);

    // Warm-up (page cache, thread pools), then the fault-free baseline.
    let plain = RuntimeConfig::default();
    run_once(&cfg, &shards, &test, dim, classes, plain.clone(), rounds);
    let baseline: Vec<f64> = (0..runs)
        .map(|_| run_once(&cfg, &shards, &test, dim, classes, plain.clone(), rounds).0)
        .collect();
    let wall_baseline_s = deta_bench::median(&baseline);

    // Faulted mode: a follower stalls when the mid-session round is
    // announced; the supervisor must detect it (one round-deadline
    // wait), respawn it, and replay the round.
    let round_deadline = Duration::from_secs_f64((wall_baseline_s / rounds as f64 * 3.0) + 2.0);
    let faulted = RuntimeConfig {
        failover: FailoverPolicy::Restart,
        round_deadline,
        stalls: vec![StallFault {
            node: "agg-1".to_string(),
            round: stall_round,
        }],
        ..plain
    };
    let mut faulted_runs: Vec<(f64, u64)> = (0..runs)
        .map(|_| run_once(&cfg, &shards, &test, dim, classes, faulted.clone(), rounds))
        .collect();
    faulted_runs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite wall times"));
    let wall_faulted_s = deta_bench::median(&faulted_runs.iter().map(|r| r.0).collect::<Vec<_>>());
    // The replay count from the median run — every run should heal
    // identically, so this is just the representative sample.
    let rounds_to_heal = faulted_runs[faulted_runs.len() / 2].1;
    let heal_latency_s = wall_faulted_s - wall_baseline_s;
    let pass = rounds_to_heal > 0;

    println!("\n=== recovery latency ({parties} parties, k={aggregators}, {rounds} rounds) ===");
    println!("fault-free baseline:       {wall_baseline_s:8.3}s  (median of {runs})");
    println!("faulted + restart:         {wall_faulted_s:8.3}s  (deadline {round_deadline:?})");
    println!("rounds to heal:            {rounds_to_heal}  (replayed rounds)");
    println!("healing latency:           {heal_latency_s:8.3}s  (detect + respawn + replay)");

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"benchmark\": \"recovery_latency\",");
    let _ = writeln!(json, "  \"parties\": {parties},");
    let _ = writeln!(json, "  \"aggregators\": {aggregators},");
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(json, "  \"examples_per_party\": {per_party},");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"runs_per_mode\": {runs},");
    let _ = writeln!(json, "  \"wall_baseline_s\": {wall_baseline_s:.6},");
    let _ = writeln!(json, "  \"wall_faulted_s\": {wall_faulted_s:.6},");
    let _ = writeln!(
        json,
        "  \"round_deadline_s\": {:.6},",
        round_deadline.as_secs_f64()
    );
    let _ = writeln!(json, "  \"stall_round\": {stall_round},");
    let _ = writeln!(json, "  \"rounds_to_heal\": {rounds_to_heal},");
    let _ = writeln!(json, "  \"heal_latency_s\": {heal_latency_s:.6},");
    let _ = writeln!(json, "  \"pass\": {pass}");
    let _ = writeln!(json, "}}");
    let path = bench_output_dir().join("BENCH_recovery.json");
    std::fs::write(&path, json).expect("write BENCH_recovery.json");
    println!("[json] {}", path.display());

    if !pass {
        eprintln!("recovery gate FAILED");
        std::process::exit(1);
    }
}
