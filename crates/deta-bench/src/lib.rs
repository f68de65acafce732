//! Shared harness utilities for the table/figure reproduction binaries.
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

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Parses `--key value` style CLI options with defaults.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Args {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Returns the value following `--name`, parsed, or `default`.
    ///
    /// # Panics
    ///
    /// Panics when a present value fails to parse.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .map(|v| v.parse().unwrap_or_else(|e| panic!("bad --{name}: {e:?}")))
            .unwrap_or(default)
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        assert!((overhead(1.4, 1.0) - 0.4).abs() < 1e-12);
        assert!((overhead(0.96, 1.0) + 0.04).abs() < 1e-12);
        assert_eq!(overhead(1.0, 0.0), 0.0);
    }

    #[test]
    fn median_resists_one_outlier() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 100.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // The property the perf gates rely on: one wild sample moves a
        // sum by its full magnitude but the median not at all.
        assert_eq!(median(&[0.5, 0.5, 0.5, 0.5, 50.0]), 0.5);
    }
}
