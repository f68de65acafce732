//! Seed-sweep driver: runs the DeTA deployment under N fault seeds,
//! checks every invariant on every run, verifies verdict-class
//! determinism (each seed runs twice), and records/verifies the seed
//! corpus in `results/SIM_SEEDS.json`.
//!
//! Usage:
//!   sim_sweep                  # full sweep, verify against the corpus
//!   sim_sweep --seed 17        # one seed, verbose report (repro mode)
//!   sim_sweep --seed 17 --trace  # ...plus a flight-recorder dump under results/traces/
//!   sim_sweep --seeds 50       # sweep the first 50 seeds
//!   sim_sweep --json PATH      # corpus location (default results/SIM_SEEDS.json)
//!   sim_sweep --failover none  # supervisor policy (default restart)
//!   sim_sweep --only-class recovered  # list matching seeds, skip corpus verify
//!   DETA_SIM_REWRITE=1 sim_sweep   # regenerate the corpus instead of verifying
//!
//! `--trace` is single-seed only: telemetry enablement is sticky
//! process-wide, so tracing a whole sweep would contaminate every run.

use deta_core::supervise::FailoverPolicy;
use deta_simnet::{FaultPlan, SeedReport, SimFleet, SimSpec};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

const DEFAULT_SEEDS: u64 = 200;
const DEFAULT_JSON: &str = "results/SIM_SEEDS.json";

fn main() {
    let mut seeds = DEFAULT_SEEDS;
    let mut json_path = DEFAULT_JSON.to_string();
    let mut single: Option<u64> = None;
    let mut trace = false;
    let mut failover = FailoverPolicy::Restart;
    let mut only_class: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => single = args.next().and_then(|v| v.parse().ok()),
            "--seeds" => seeds = args.next().and_then(|v| v.parse().ok()).unwrap_or(seeds),
            "--json" => json_path = args.next().unwrap_or(json_path),
            "--trace" => trace = true,
            "--failover" => {
                failover = match args.next().as_deref() {
                    Some("none") => FailoverPolicy::None,
                    Some("restart") => FailoverPolicy::Restart,
                    Some("repartition") => FailoverPolicy::Repartition,
                    other => {
                        eprintln!("--failover expects none|restart|repartition, got {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "--only-class" => only_class = args.next(),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if trace && single.is_none() {
        eprintln!("--trace requires --seed N (see the usage note)");
        std::process::exit(2);
    }

    let fleet = SimFleet::new(SimSpec {
        trace,
        failover,
        ..SimSpec::default()
    });

    if let Some(seed) = single {
        let plan = FaultPlan::from_seed(seed, fleet.topology());
        println!("seed {seed}: plan = {:?}", plan.faults);
        let report = fleet.run_seed(seed);
        println!("verdict: {} ({:?})", report.verdict.class(), report.verdict);
        println!("fired:   {:?}", report.fired_kinds);
        println!("error:   {:?}", report.error);
        println!(
            "virtual: {:?} (time the run waited on timers)",
            report.elapsed
        );
        if let Some(path) = &report.trace_path {
            println!("trace:   {path}");
        }
        for v in &report.violations {
            println!("VIOLATION: {v}");
        }
        std::process::exit(if report.violations.is_empty() { 0 } else { 1 });
    }

    // Full sweep: every seed twice, in parallel. A run only computes — its
    // deadlines pass on a virtual clock — so one worker per core.
    let started = Instant::now();
    let todo: Vec<u64> = (0..seeds).flat_map(|s| [s, s]).collect();
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let mut results: Vec<(u64, SeedReport)> = std::thread::scope(|scope| {
        let worker = || {
            let seeds = std::iter::from_fn(|| todo.get(next.fetch_add(1, Ordering::Relaxed)));
            seeds.map(|&s| (s, fleet.run_seed(s))).collect::<Vec<_>>()
        };
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker"))
            .collect()
    });
    results.sort_by_key(|(s, _)| *s);

    let mut failures = 0usize;
    let mut fired_union: BTreeSet<&'static str> = BTreeSet::new();
    let mut corpus: Vec<(u64, String, Vec<&'static str>)> = Vec::new();
    for pair in results.chunks(2) {
        let (seed, a) = &pair[0];
        let (_, b) = &pair[1];
        for r in [a, b] {
            for v in &r.violations {
                eprintln!("seed {seed}: VIOLATION: {v}");
                failures += 1;
            }
        }
        if a.verdict.class() != b.verdict.class() || a.fired_kinds != b.fired_kinds {
            eprintln!(
                "seed {seed}: NONDETERMINISTIC: run1 {}/{:?} vs run2 {}/{:?}",
                a.verdict.class(),
                a.fired_kinds,
                b.verdict.class(),
                b.fired_kinds
            );
            failures += 1;
        }
        fired_union.extend(a.fired_kinds.iter());
        corpus.push((
            *seed,
            a.verdict.class().to_string(),
            a.fired_kinds.iter().copied().collect(),
        ));
    }
    for kind in [
        "drop",
        "duplicate",
        "delay",
        "corrupt",
        "partition",
        "crash",
        "link_restart",
    ] {
        if !fired_union.contains(kind) {
            eprintln!("coverage: no seed in the sweep fired a {kind} fault");
            failures += 1;
        }
    }

    if let Some(class) = &only_class {
        // Exploration mode: list the matching seeds (e.g. every
        // `recovered` seed to drill into) and skip corpus verification —
        // a filtered view must not overwrite or judge the full corpus.
        let mut matched = 0usize;
        for (seed, c, kinds) in &corpus {
            if c == class {
                println!("seed {seed}: {c} {kinds:?}");
                matched += 1;
            }
        }
        println!(
            "swept {seeds} seeds x2: {matched} seed(s) in class {class:?} \
             (corpus verification skipped)"
        );
        if failures > 0 {
            eprintln!("{failures} sweep failure(s)");
            std::process::exit(1);
        }
        return;
    }

    let json = render_corpus(&corpus);
    let rewrite = std::env::var("DETA_SIM_REWRITE").is_ok_and(|v| v == "1");
    match std::fs::read_to_string(&json_path) {
        Ok(existing) if !rewrite => {
            if existing.trim() != json.trim() {
                eprintln!(
                    "corpus mismatch: {json_path} disagrees with this sweep \
                     (set DETA_SIM_REWRITE=1 to regenerate)"
                );
                failures += 1;
            }
        }
        _ => {
            if let Some(dir) = std::path::Path::new(&json_path).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(&json_path, &json) {
                eprintln!("cannot write {json_path}: {e}");
                failures += 1;
            } else {
                println!("wrote {json_path}");
            }
        }
    }

    let parity = corpus.iter().filter(|(_, c, _)| c == "parity").count();
    let recovered = corpus.iter().filter(|(_, c, _)| c == "recovered").count();
    println!(
        "swept {seeds} seeds x2 on {workers} workers in {:.1} s: {parity} parity, \
         {recovered} recovered, {} failed, fired kinds {:?}",
        started.elapsed().as_secs_f64(),
        corpus.len() - parity - recovered,
        fired_union
    );
    if failures > 0 {
        eprintln!("{failures} sweep failure(s)");
        std::process::exit(1);
    }
}

/// Hand-rolled corpus JSON (the workspace is dependency-free by policy):
/// `[{"seed":0,"verdict":"parity","kinds":["drop"]}, ...]`.
fn render_corpus(corpus: &[(u64, String, Vec<&'static str>)]) -> String {
    let mut out = String::from("[\n");
    for (i, (seed, class, kinds)) in corpus.iter().enumerate() {
        let kinds_json = kinds
            .iter()
            .map(|k| format!("\"{k}\""))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "  {{\"seed\":{seed},\"verdict\":\"{class}\",\"kinds\":[{kinds_json}]}}"
        ));
        out.push_str(if i + 1 < corpus.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}
