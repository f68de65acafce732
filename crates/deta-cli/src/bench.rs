//! Shared harness of the table and figure binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure from the
//! paper's evaluation (see `EXPERIMENTS.md` at the repository root for the
//! full index and the scale substitutions):
//!
//! | binary        | paper artifact |
//! |---------------|----------------|
//! | `table1_dlg`  | Table 1 — DLG MSE buckets vs partition/shuffle |
//! | `table2_idlg` | Table 2 — iDLG MSE buckets |
//! | `table3_ig`   | Table 3 — IG cosine-distance buckets |
//! | `fig3_reconstructions` | Figure 3/4 — reconstruction image dumps |
//! | `fig5_mnist`  | Figure 5 — MNIST loss/acc/latency, 3 algorithms |
//! | `fig6_cifar`  | Figure 6 — CIFAR-10, 4 vs 8 parties |
//! | `fig7_rvlcdip`| Figure 7 — RVL-CDIP non-IID transfer learning |

pub mod tables;

use deta_core::RoundMetrics;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The `--name value` options and `--name` switches of one command,
/// checked against the ones it declares.
#[derive(Debug)]
pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Reads the process arguments against `flags`, the `--name value`
    /// options this binary takes. Anything else ends the process with
    /// status 1 and names the argument, before the binary writes a file.
    pub fn parse(flags: &[&str]) -> Args {
        Args::from_args(std::env::args().skip(1), flags, &[]).unwrap_or_else(|e| refuse(&e))
    }

    /// Reads `raw` against the declared `flags` (`--name value`) and
    /// `switches` (`--name`).
    ///
    /// # Errors
    ///
    /// Names the argument that is undeclared, repeated, not a flag, or a
    /// flag with no value.
    pub fn from_args(
        raw: impl IntoIterator<Item = String>,
        flags: &[&str],
        switches: &[&str],
    ) -> Result<Args, String> {
        let mut args = Args {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut raw = raw.into_iter().peekable();
        while let Some(arg) = raw.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument {arg:?}"));
            };
            if args
                .switches
                .iter()
                .chain(args.values.iter().map(|(n, _)| n))
                .any(|n| n == name)
            {
                return Err(format!("repeated flag {arg:?}"));
            }
            if switches.contains(&name) {
                args.switches.push(name.to_string());
            } else if flags.contains(&name) {
                match raw.next_if(|v| !v.starts_with("--")) {
                    Some(value) => args.values.push((name.to_string(), value)),
                    None => return Err(format!("flag {arg:?} needs a value")),
                }
            } else {
                return Err(format!("unknown flag {arg:?}"));
            }
        }
        Ok(args)
    }

    /// The value of `--name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|n| n == name)
    }

    /// The value of `--name`, parsed, or `default`. A value that does not
    /// parse ends the process with status 1, naming the flag.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| refuse(&format!("bad value {v:?} for \"--{name}\""))),
        }
    }

    /// Like [`Args::get`] for a count of images, rounds, examples, ...:
    /// zero ends the process with status 1, naming the flag.
    pub fn count(&self, name: &str, default: usize) -> usize {
        match self.get(name, default) {
            0 => refuse(&format!("\"--{name}\" must be at least 1")),
            n => n,
        }
    }
}

/// Prints `error` and ends the process with status 1.
fn refuse(error: &str) -> ! {
    eprintln!("error: {error}");
    std::process::exit(1)
}

/// Returns (and creates) the results directory.
pub fn results_dir() -> PathBuf {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    dir.to_path_buf()
}

/// Writes rows as CSV under `results/`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = results_dir().join(name);
    let mut out = String::new();
    let _ = writeln!(out, "{header}");
    for r in rows {
        let _ = writeln!(out, "{r}");
    }
    std::fs::write(&path, out).expect("write csv");
    println!("[csv] {}", path.display());
}

/// Prints one line per round of a training series, after `tag` padded
/// to `width` (no prefix when `tag` is empty), and returns the series'
/// CSV rows: `tag,round,test_loss,test_accuracy,round_latency_s,
/// cumulative_latency_s`.
pub fn print_series(tag: &str, width: usize, metrics: &[RoundMetrics]) -> Vec<String> {
    let prefix = if tag.is_empty() {
        String::new()
    } else {
        format!("{tag:<width$} ")
    };
    let mut rows = Vec::with_capacity(metrics.len());
    for m in metrics {
        println!(
            "{prefix}round {:2}  loss {:.4}  acc {:5.1}%  latency {:7.3}s  cum {:8.3}s",
            m.round,
            m.test_loss,
            m.test_accuracy * 100.0,
            m.round_latency_s,
            m.cumulative_latency_s
        );
        rows.push(format!(
            "{tag},{},{:.6},{:.6},{:.6},{:.6}",
            m.round, m.test_loss, m.test_accuracy, m.round_latency_s, m.cumulative_latency_s
        ));
    }
    rows
}

/// Renders a percentage table in the paper's layout: one row per bucket,
/// one column per view configuration.
pub fn print_bucket_table(
    title: &str,
    bucket_labels: &[&str],
    column_labels: &[String],
    percentages: &[Vec<f64>],
) {
    println!("\n=== {title} ===");
    print!("{:<12}", "");
    for c in column_labels {
        print!(" {c:>16}");
    }
    println!();
    for (bi, bl) in bucket_labels.iter().enumerate() {
        print!("{bl:<12}");
        for col in percentages {
            print!(" {:>15.1}%", col[bi]);
        }
        println!();
    }
}

/// Simple geometric comparison helper for the latency summaries.
pub fn overhead(deta: f64, ffl: f64) -> f64 {
    if ffl == 0.0 {
        0.0
    } else {
        deta / ffl - 1.0
    }
}

/// Median of a sample set (mean of the middle pair for even counts).
/// Timing gates compare medians rather than sums: on a loaded CI box a
/// single descheduled run can double one sample, and a median of N
/// trials shrugs that off where a mean (or sum) fails the gate.
///
/// # Panics
///
/// Panics on an empty slice or non-finite samples.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
