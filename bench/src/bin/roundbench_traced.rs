//! `roundbench-traced`: the per-layer metrics of one workload.
//!
//! Level 1 drives a sequential round by hand with a span around every
//! public call (see `level1`), next to an untouched `DetaSession` that
//! runs the same rounds through `step` as the reference. Level 2 times
//! each layer's functions in isolation (see `layers`). The budget table
//! multiplies level-2 times by their calls per round and compares the
//! sum with the level-1 round.

use deta_core::DetaSession;
use deta_roundbench::cli;
use deta_roundbench::layers::{runtime_layer, socket_layer, LayerBenches, PASSES, SAMPLE_S};
use deta_roundbench::level1::{HandSession, RoundPhases};
use deta_roundbench::report::{Metric, Report};
use deta_roundbench::run::bits_equal;
use deta_roundbench::stats::median;
use deta_roundbench::trace::{CountingAlloc, Tracer};
use deta_roundbench::traced::{budget_rows, per_layer_unit, PER_LAYER};
use deta_roundbench::workload::Workload;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Hand-driven rounds reported (one more warms up), beside as many
/// step-driven reference rounds.
const HAND_ROUNDS: usize = 6;

/// Rounds of the threaded and of the socket deployment; the first is
/// warm-up.
const DEPLOYMENT_ROUNDS: usize = 4;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("roundbench-traced: {e}\n{}", cli::usage());
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::find(&cli.command) else {
        eprintln!("roundbench-traced: name one workload\n{}", cli::usage());
        return ExitCode::from(2);
    };
    let seed = cli.seed;
    // The threaded and socket layers always run the socket workload's
    // configuration, whichever workload's data path is being traced.
    let deployed = Workload::find("fedavg_tcp").expect("the socket workload exists");
    println!(
        "roundbench-traced {}  seed {seed}  ({HAND_ROUNDS} hand-driven rounds beside \
         {HAND_ROUNDS} reference rounds, {} cores)",
        w.name,
        std::thread::available_parallelism().map_or(0, usize::from),
    );
    let test = w.test_set(seed);
    let mut problems: Vec<String> = Vec::new();

    // ---- Level 2 is sampled in three passes, seconds apart: before level
    // 1, after it, and after the deployments.
    let shard = w.shards(seed).swap_remove(0);
    let mut layers = LayerBenches::new(w, &shard, &test);
    drop(shard);
    println!("  layer functions: fastest of {PASSES} samples of at least {SAMPLE_S} s each");

    // ---- Level 1: hand-driven rounds beside step-driven reference rounds.
    let mut reference =
        DetaSession::setup(w.config(seed, 0), &|rng| w.build_model(rng), w.shards(seed))
            .expect("reference set-up");
    let mut hand = HandSession::setup(w, seed, w.shards(seed));
    let mut tracer =
        Tracer::with_capacity((HAND_ROUNDS + 1) * (8 + 4 * w.parties + 8 * w.aggregators));
    let mut reference_s = Vec::with_capacity(HAND_ROUNDS);
    let mut rounds: Vec<RoundPhases> = Vec::with_capacity(HAND_ROUNDS);
    // Round 0 warms both sessions up and is not reported.
    for i in 0..=HAND_ROUNDS {
        let t0 = Instant::now();
        let by_step = reference.step(&test);
        let step_s = t0.elapsed().as_secs_f64();
        let (_, by_hand) = hand.round(&mut tracer, &test);
        let same = by_step.train_loss.to_bits() == by_hand.train_loss.to_bits()
            && by_step.test_loss.to_bits() == by_hand.test_loss.to_bits()
            && by_step.test_accuracy.to_bits() == by_hand.test_accuracy.to_bits();
        if !same {
            problems.push(format!(
                "round {}: the hand-driven round and DetaSession::step disagree",
                i + 1
            ));
        }
        if i > 0 {
            reference_s.push(step_s);
            rounds.push(by_hand);
        }
    }
    let first = hand.party_params(0);
    if !(1..w.parties).all(|i| bits_equal(&first, &hand.party_params(i))) {
        problems.push("hand-driven party replicas diverged".to_string());
    }
    if !bits_equal(&first, &reference.party_params(0)) {
        problems.push("hand-driven and reference parameters differ".to_string());
    }
    drop((reference, first));
    let n_aggs = hand.aggregators() as f64;
    drop(hand);

    // Timings come from the fastest round on each side (the box only ever
    // adds time), with its own phases so that they still sum to it;
    // counts are medians over all rounds.
    let fastest = rounds
        .iter()
        .min_by(|a, b| a.round_s.total_cmp(&b.round_s))
        .expect("at least one reported round");
    let med = |f: fn(&RoundPhases) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let round_s = fastest.round_s;
    let reference_round_s = reference_s.iter().copied().fold(f64::INFINITY, f64::min);
    let phase_sum = |r: &RoundPhases| {
        r.announce_s + r.party_local_s + r.agg_pump_s + r.party_finish_s + r.eval_s
    };
    let phase_coverage = rounds
        .iter()
        .map(|r| phase_sum(r) / r.round_s)
        .fold(f64::INFINITY, f64::min);
    if phase_coverage < 0.98 {
        problems.push(format!(
            "phase spans cover only {phase_coverage:.4} of their round span"
        ));
    }
    let alloc_bytes: Vec<u64> = rounds.iter().map(|r| r.alloc_bytes).collect();
    let last = rounds.last().expect("at least one reported round");

    let mut values: Vec<(&str, f64)> = vec![
        ("session.announce_s", fastest.announce_s),
        ("session.party_local_s", fastest.party_local_s),
        ("session.agg_pump_s", fastest.agg_pump_s),
        ("session.party_finish_s", fastest.party_finish_s),
        ("session.eval_s", fastest.eval_s),
        ("session.driver_self_s", fastest.driver_self_s),
        (
            "session.alloc_bytes_per_round",
            med(|r| r.alloc_bytes as f64),
        ),
        ("session.allocs_per_round", med(|r| r.allocs as f64)),
        ("session.final_test_loss", f64::from(last.test_loss)),
        ("aggregator.pump_s", fastest.agg_pump_s / n_aggs),
        (
            "aggregator.non_kernel_s",
            (fastest.agg_pump_s - fastest.agg_kernel_s) / n_aggs,
        ),
        ("transport.msgs_per_round", med(|r| r.messages as f64)),
        ("trace.overhead_ratio", round_s / reference_round_s),
    ];

    layers.pass();

    // ---- The same configuration threaded in-process and over TCP.
    let deployed_test = deployed.test_set(seed);
    let (runtime, bytes) = runtime_layer(deployed, seed, DEPLOYMENT_ROUNDS, &deployed_test);
    let socket = socket_layer(deployed, seed, DEPLOYMENT_ROUNDS, &deployed_test);
    layers.pass();
    let isolated = layers.finish();
    values.extend([
        ("transport.bytes_party_agg", bytes.party_agg),
        ("transport.bytes_agg_agg", bytes.agg_agg),
        ("transport.bytes_ctl", bytes.ctl),
        ("runtime.setup_s", runtime.setup_s),
        ("runtime.round_s", runtime.round_s),
        ("runtime.upload_phase_s", runtime.upload_phase_s),
        ("runtime.agg_phase_s", runtime.agg_phase_s),
        ("runtime.download_phase_s", runtime.download_phase_s),
        ("socket.upload_phase_s", socket.upload_phase_s),
        ("socket.agg_phase_s", socket.agg_phase_s),
        ("socket.download_phase_s", socket.download_phase_s),
        ("socket.round_tax_s", socket.round_s - runtime.round_s),
    ]);

    // ---- Budget: level-2 time x calls per round against the level-1 round.
    let small_msgs = med(|r| r.messages as f64) - (2 * w.parties * w.aggregators) as f64;
    let rows = budget_rows(w, &isolated, small_msgs.max(0.0));
    let attributed: f64 = rows.iter().map(|r| r.per_round_s()).sum();
    let coverage = attributed / round_s;
    values.push(("budget.coverage", coverage));

    let mut metrics: Vec<Metric> = values
        .iter()
        .map(|(name, value)| Metric::new(name, per_layer_unit(name), *value))
        .collect();
    metrics.extend(isolated.iter().cloned());
    // Emit in the declared order, and exactly the declared names.
    let declared: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
    for m in &metrics {
        assert!(
            declared.contains(&m.name.as_str()),
            "undeclared metric {}",
            m.name
        );
    }
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let m = metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("declared metric {name} was not measured"));
            Metric::new(name, unit, m.value)
        })
        .collect();

    // ---- Output: spans, tables, closing checks, the result line.
    let spans_path = cli::out_dir().join(format!("{}.seed{seed}.spans.jsonl", w.name));
    if let Err(e) = tracer.write_jsonl(&spans_path) {
        eprintln!("roundbench-traced: spans not written: {e}");
    }
    let report = Report {
        correct: problems.is_empty(),
        attempted: (HAND_ROUNDS + 1) as u64,
        failed: 0,
        metrics,
        problems,
        notes: Vec::new(),
    };
    print!("{}", report.table());
    println!(
        "\nbudget of one {} round ({:.4} s hand-driven, {} params, {} parties, {} aggregators)",
        w.name,
        round_s,
        w.n_params(),
        w.parties,
        w.aggregators
    );
    println!("| layer function | s per call | calls per round | s per round | share of round |");
    println!("|---|---:|---:|---:|---:|");
    let mut sorted = rows.clone();
    sorted.sort_by(|a, b| b.per_round_s().total_cmp(&a.per_round_s()));
    for r in &sorted {
        println!(
            "| `{}` | {:.6} | {} | {:.4} | {:.1} % |",
            r.name,
            r.per_call_s,
            r.calls,
            r.per_round_s(),
            100.0 * r.per_round_s() / round_s
        );
    }
    println!(
        "| attributed | | | {:.4} | {:.1} % |\n| unattributed remainder | | | {:.4} | {:.1} % |",
        attributed,
        100.0 * coverage,
        round_s - attributed,
        100.0 * (1.0 - coverage)
    );
    let top: Vec<String> = sorted
        .iter()
        .take(3)
        .map(|r| format!("`{}` {:.1} %", r.name, 100.0 * r.per_round_s() / round_s))
        .collect();
    println!("top three: {}", top.join(", "));
    println!(
        "deployments of {} ({} rounds each): threaded set-up {:.4} s, round {:.4} s; \
         socket set-up {:.4} s, round {:.4} s",
        deployed.name,
        DEPLOYMENT_ROUNDS,
        runtime.setup_s,
        runtime.round_s,
        socket.setup_s,
        socket.round_s
    );
    let check = |ok: bool| if ok { "PASS" } else { "MISS" };
    let overhead = round_s / reference_round_s;
    println!("\nclosing checks");
    println!(
        "  {}  phase spans sum to {:.2} % of their round span (>= 98 %)",
        check(phase_coverage >= 0.98),
        100.0 * phase_coverage
    );
    println!(
        "  {}  trace.overhead_ratio {:.4}: hand-driven {:.4} s against step-driven {:.4} s (<= 1.05)",
        check(overhead <= 1.05),
        overhead,
        round_s,
        reference_round_s
    );
    println!(
        "  {}  budget.coverage {:.4} (0.85 to 1.10)",
        check((0.85..=1.10).contains(&coverage)),
        coverage
    );
    let typical = med(|r| r.alloc_bytes as f64) as u64;
    let worst = alloc_bytes
        .iter()
        .map(|b| b.abs_diff(typical))
        .max()
        .unwrap_or(0);
    println!(
        "  {}  session.alloc_bytes_per_round {typical} in {} of {} rounds, the others within \
         {worst} bytes (hash-map growth inside the program is randomly seeded)",
        check(worst <= 4096),
        alloc_bytes.iter().filter(|&&b| b == typical).count(),
        alloc_bytes.len(),
    );
    println!("  spans: {}", spans_path.display());
    println!("{}", report.to_json_line());
    ExitCode::SUCCESS
}
