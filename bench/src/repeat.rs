//! `roundbench all` and `roundbench repeat`: run every workload as a
//! child process (so `peak_rss_mb` is each workload's own), and for
//! `repeat` compare sets of runs of the same code against the bounds.

use crate::cli::{out_dir, Cli};
use crate::report::{MetricSpec, END_TO_END};
use crate::stats::median;
use crate::workload::WORKLOADS;
use deta_obs::Json;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Where the detail JSON of one end-to-end run is kept.
pub fn detail_path(workload: &str, seed: u64) -> PathBuf {
    out_dir().join(format!("{workload}.seed{seed}.json"))
}

/// Runs one workload in a child `roundbench`, echoing its table, and
/// returns its parsed result line.
///
/// # Errors
///
/// The child failed to start, exited non-zero, or printed no result.
pub fn run_child(workload: &str, cli: &Cli) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args([workload, "--seed", &cli.seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{table}");
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    Json::parse(line).ok_or_else(|| format!("{workload} printed no result line"))
}

/// `roundbench all`: every workload once. Returns whether all were
/// correct.
pub fn run_all(cli: &Cli) -> bool {
    let mut ok = true;
    for w in &WORKLOADS {
        match run_child(w.name, cli) {
            Ok(result) => ok &= result.get("correct") == Some(&Json::Bool(true)),
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    ok
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Largest deviation of any set from the median of the sets, as a share
/// of that median; for two sets this is half their distance, so the
/// printed figure is doubled there to read as "set 2 against set 1".
pub fn deviation(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return if values.iter().all(|&v| v == 0.0) {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let worst = values
        .iter()
        .map(|v| (v - m).abs() / m.abs())
        .fold(0.0, f64::max);
    if values.len() == 2 {
        2.0 * worst
    } else {
        worst
    }
}

/// `roundbench repeat`: `cli.sets` sets of every workload; prints the
/// deviation between sets beside each metric's bound. Returns whether
/// every run was correct, every deviation within its bound, and the
/// sequential and socket FedAvg rows ran the same computation.
pub fn run_repeat(cli: &Cli) -> bool {
    let mut ok = true;
    // results[workload][set]
    let mut results: Vec<Vec<Json>> = vec![Vec::new(); WORKLOADS.len()];
    for set in 1..=cli.sets {
        println!("=== set {set} of {} ===", cli.sets);
        for (wi, w) in WORKLOADS.iter().enumerate() {
            match run_child(w.name, cli) {
                Ok(result) => {
                    ok &= result.get("correct") == Some(&Json::Bool(true));
                    results[wi].push(result);
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    println!("=== deviation between {} sets (bound) ===", cli.sets);
    for (w, runs) in WORKLOADS.iter().zip(&results) {
        for spec in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(r, spec.name))
                .collect();
            if values.len() != cli.sets {
                println!("  {:<12} {:<22} missing", w.name, spec.name);
                ok = false;
                continue;
            }
            let dev = deviation(&values);
            let verdict = verdict(spec, dev);
            ok &= verdict != "EXCEEDS";
            println!(
                "  {:<12} {:<22} {:>9.4} %  ({:>5.1} %)  {verdict}",
                w.name,
                spec.name,
                dev * 100.0,
                spec.bound * 100.0
            );
        }
    }
    match same_computation(cli.seed) {
        Ok(rounds) => println!(
            "fedavg_seq and fedavg_tcp: identical (train_loss, test_accuracy) and matching wire \
             bytes over their common {rounds} rounds"
        ),
        Err(e) => {
            println!("fedavg_seq and fedavg_tcp DIFFER: {e}");
            ok = false;
        }
    }
    ok
}

fn verdict(spec: &MetricSpec, deviation: f64) -> &'static str {
    if deviation > spec.bound {
        "EXCEEDS"
    } else if deviation > spec.bound / 3.0 {
        "over a third of the bound"
    } else {
        "ok"
    }
}

/// Per-round `(train_loss bits, test_accuracy bits, wire bytes)` from a
/// run's detail file.
fn load_rounds(workload: &str, seed: u64) -> Result<Vec<(u64, u64, u64)>, String> {
    let path = detail_path(workload, seed);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let detail = Json::parse(&text).ok_or_else(|| format!("{}: not JSON", path.display()))?;
    let Some(Json::Arr(rounds)) = detail.get("rounds") else {
        return Err(format!("{}: no rounds", path.display()));
    };
    rounds
        .iter()
        .map(|r| match r {
            Json::Arr(f) if f.len() == 4 => Some((f[0].as_u64()?, f[1].as_u64()?, f[2].as_u64()?)),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed round", path.display()))
}

/// Checks that the sequential and the socket FedAvg workloads ran the
/// same computation at `seed`: bit-identical training loss and test
/// accuracy in every common round, and wire bytes that differ by the
/// same small constant every round — the sequential session opens its
/// byte window after the round announcement, the threaded one before,
/// so the socket row carries one sealed `RoundStart` per party more.
fn same_computation(seed: u64) -> Result<usize, String> {
    let seq = load_rounds("fedavg_seq", seed)?;
    let tcp = load_rounds("fedavg_tcp", seed)?;
    let common = seq.len().min(tcp.len());
    let announce = tcp
        .first()
        .zip(seq.first())
        .map(|(t, s)| t.2.wrapping_sub(s.2))
        .ok_or("no rounds to compare")?;
    if announce > 64 * 4 {
        return Err(format!("wire bytes differ by {announce} per round"));
    }
    for (i, (s, t)) in seq.iter().zip(&tcp).enumerate() {
        if (s.0, s.1) != (t.0, t.1) {
            return Err(format!("round {}: losses or accuracies differ", i + 1));
        }
        if t.2.wrapping_sub(s.2) != announce {
            return Err(format!("round {}: wire bytes differ irregularly", i + 1));
        }
    }
    Ok(common)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_of_two_sets_reads_as_their_relative_distance() {
        assert!((deviation(&[1.0, 1.1]) - 0.1 / 1.05).abs() < 1e-12);
        assert_eq!(deviation(&[2.0, 2.0]), 0.0);
        assert_eq!(deviation(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn deviation_of_many_sets_is_the_worst_from_their_median() {
        let d = deviation(&[1.0, 1.02, 0.9, 1.01, 1.0]);
        assert!((d - 0.1).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_the_bound_and_its_third() {
        let spec = &END_TO_END[1];
        assert_eq!(verdict(spec, spec.bound * 1.01), "EXCEEDS");
        assert_eq!(verdict(spec, spec.bound * 0.5), "over a third of the bound");
        assert_eq!(verdict(spec, spec.bound * 0.2), "ok");
    }
}
