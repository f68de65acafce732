//! The seed sweep: every seed run twice, each run's invariants checked,
//! the two runs of a seed compared, and the verdicts set against the
//! committed corpus (`results/SIM_SEEDS.json`). `sim_sweep` runs it from
//! the command line and `tests/corpus.rs` runs it in the test suite.

use crate::{SeedReport, SimFleet};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Seeds in the full sweep, and in the committed corpus.
pub const SEEDS: u64 = 200;

/// Fault kinds the full sweep must see fire at least once.
pub const FAULT_KINDS: [&str; 7] = [
    "drop",
    "duplicate",
    "delay",
    "corrupt",
    "partition",
    "crash",
    "link_restart",
];

/// One corpus entry: a seed, its verdict class and the fault kinds that
/// fired in it.
pub type CorpusEntry = (u64, String, Vec<&'static str>);

/// What a sweep found.
pub struct Sweep {
    /// One line per invariant violation and per seed whose two runs
    /// disagree on verdict class or fired kinds. Empty on a healthy
    /// sweep.
    pub problems: Vec<String>,
    /// Each seed's entry, from its first run, in seed order.
    pub corpus: Vec<CorpusEntry>,
    /// Every fault kind that fired in some run.
    pub fired: BTreeSet<&'static str>,
}

/// Runs seeds `0..seeds` twice each on `workers` threads. A run only
/// computes — its deadlines pass on a virtual clock — so one worker per
/// core is the most that helps.
pub fn sweep(fleet: &SimFleet, seeds: u64, workers: usize) -> Sweep {
    let todo: Vec<u64> = (0..seeds).flat_map(|s| [s, s]).collect();
    let next = AtomicUsize::new(0);
    let mut results: Vec<(u64, SeedReport)> = std::thread::scope(|scope| {
        let worker = || {
            let seeds = std::iter::from_fn(|| todo.get(next.fetch_add(1, Ordering::Relaxed)));
            seeds.map(|&s| (s, fleet.run_seed(s))).collect::<Vec<_>>()
        };
        let handles: Vec<_> = (0..workers.max(1)).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sweep worker"))
            .collect()
    });
    results.sort_by_key(|(s, _)| *s);

    let mut problems = Vec::new();
    let mut fired = BTreeSet::new();
    let mut corpus = Vec::new();
    for pair in results.chunks(2) {
        let (seed, a) = &pair[0];
        let (_, b) = &pair[1];
        for r in [a, b] {
            for v in &r.violations {
                problems.push(format!("seed {seed}: VIOLATION: {v}"));
            }
        }
        if a.verdict.class() != b.verdict.class() || a.fired_kinds != b.fired_kinds {
            problems.push(format!(
                "seed {seed}: NONDETERMINISTIC: run1 {}/{:?} vs run2 {}/{:?}",
                a.verdict.class(),
                a.fired_kinds,
                b.verdict.class(),
                b.fired_kinds
            ));
        }
        fired.extend(a.fired_kinds.iter());
        corpus.push((
            *seed,
            a.verdict.class().to_string(),
            a.fired_kinds.iter().copied().collect(),
        ));
    }
    Sweep {
        problems,
        corpus,
        fired,
    }
}

/// Hand-rolled corpus JSON (the workspace is dependency-free by policy):
/// `[{"seed":0,"verdict":"parity","kinds":["drop"]}, ...]`.
pub fn render_corpus(corpus: &[CorpusEntry]) -> String {
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

/// The entries of a corpus in [`render_corpus`]'s form, one string each,
/// so a sweep of the first `n` seeds compares with the first `n` lines.
pub fn corpus_entries(text: &str) -> Vec<String> {
    let lines = text.lines().map(|l| l.trim().trim_end_matches(','));
    lines
        .filter(|l| l.starts_with('{'))
        .map(str::to_string)
        .collect()
}
