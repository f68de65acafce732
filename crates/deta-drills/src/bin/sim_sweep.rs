//! Seed-sweep driver: runs the DeTA deployment under N fault seeds,
//! checks every invariant on every run, verifies verdict-class
//! determinism (each seed runs twice), and records/verifies the seed
//! corpus in `results/SIM_SEEDS.json`.
//!
//! Usage:
//!   sim_sweep                  # full sweep, verify against the corpus
//!   sim_sweep --seed 17        # one seed, verbose report (repro mode)
//!   sim_sweep --seed 17 --trace  # ...plus a flight-recorder dump under results/traces/
//!   sim_sweep --seeds 50       # sweep and verify the first 50 seeds
//!   sim_sweep --json PATH      # corpus location (default results/SIM_SEEDS.json)
//!   sim_sweep --failover none  # supervisor policy (default restart)
//!   DETA_SIM_REWRITE=1 sim_sweep   # regenerate the corpus instead of verifying
//!
//! Only the full sweep writes the corpus: `--seeds N` compares its N
//! verdicts with the corpus's first N entries and never rewrites it.
//!
//! `--trace` is single-seed only: telemetry enablement is sticky
//! process-wide, so tracing a whole sweep would contaminate every run.

use deta_core::supervise::FailoverPolicy;
use deta_drills::sim::sweep::{self, Sweep};
use deta_drills::sim::{FaultPlan, SimFleet, SimSpec};
use std::time::Instant;

const DEFAULT_JSON: &str = "results/SIM_SEEDS.json";

fn main() {
    let mut seeds: Option<u64> = None;
    let mut json_path = DEFAULT_JSON.to_string();
    let mut single: Option<u64> = None;
    let mut trace = false;
    let mut failover = FailoverPolicy::Restart;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => single = Some(number("--seed", args.next())),
            "--seeds" => seeds = Some(number("--seeds", args.next())),
            "--json" => json_path = args.next().unwrap_or(json_path),
            "--trace" => trace = true,
            "--failover" => {
                failover = match args.next().as_deref() {
                    Some("none") => FailoverPolicy::None,
                    Some("restart") => FailoverPolicy::Restart,
                    other => {
                        eprintln!("--failover expects none|restart, got {other:?}");
                        std::process::exit(2);
                    }
                }
            }
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

    // The sweep: every seed twice, in parallel, one worker per core.
    let (partial, seeds) = (seeds.is_some(), seeds.unwrap_or(sweep::SEEDS));
    let started = Instant::now();
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let Sweep {
        problems,
        corpus,
        fired: fired_union,
    } = sweep::sweep(&fleet, seeds, workers);
    for problem in &problems {
        eprintln!("{problem}");
    }
    let mut failures = problems.len();
    // Coverage is the full sweep's gate; a partial one only reports it.
    for kind in sweep::FAULT_KINDS {
        if !fired_union.contains(kind) {
            eprintln!("coverage: no seed in the sweep fired a {kind} fault");
            failures += usize::from(!partial);
        }
    }

    let json = sweep::render_corpus(&corpus);
    let rewrite = std::env::var("DETA_SIM_REWRITE").is_ok_and(|v| v == "1");
    match std::fs::read_to_string(&json_path) {
        // A partial sweep checks a prefix of the corpus, and never writes it.
        Ok(existing) if !rewrite || partial => {
            let committed = sweep::corpus_entries(&existing);
            let swept = sweep::corpus_entries(&json);
            let cover = if partial {
                committed.get(..swept.len())
            } else {
                Some(&committed[..])
            };
            if cover != Some(&swept[..]) {
                let regenerate = if partial {
                    "a full sweep with DETA_SIM_REWRITE=1 regenerates it"
                } else {
                    "set DETA_SIM_REWRITE=1 to regenerate"
                };
                eprintln!(
                    "corpus mismatch: {json_path} disagrees with this sweep of {seeds} \
                     seed(s) ({regenerate})"
                );
                failures += 1;
            }
        }
        Err(e) if partial => {
            eprintln!("cannot read {json_path} to verify a partial sweep: {e}");
            failures += 1;
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

/// The value of `flag`, a number; a missing or unparsable one is a usage
/// error.
fn number(flag: &str, value: Option<String>) -> u64 {
    match value.as_deref().map(str::parse) {
        Some(Ok(n)) => n,
        _ => {
            eprintln!("{flag} expects a number, got {value:?}");
            std::process::exit(2);
        }
    }
}
