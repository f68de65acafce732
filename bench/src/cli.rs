//! Command line shared by both binaries, and where their files go.
//!
//! ```text
//! roundbench <workload>|all|repeat [--seed N] [--sets K]
//! roundbench --workload <name> --seed N --seconds S --trace 0|1   (the driver's form)
//! roundbench-traced <workload> [--seed N]
//! ```
//!
//! `--seconds` is accepted because the driver passes it (the
//! `run_seconds` of `BENCHMARK.json`) and is echoed; the work of a run is
//! fixed by the workload's round counts, not by it.

use crate::workload::{Workload, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;

/// Parsed arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cli {
    /// A workload name, `all` or `repeat`.
    pub command: String,
    pub seed: u64,
    /// Echoed only.
    pub seconds: u64,
    /// `--trace 1`: the per-layer run was asked for.
    pub trace: bool,
    /// `repeat` only: how many sets of runs to compare.
    pub sets: usize,
}

pub fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: roundbench <workload>|all|repeat [--seed N] [--seconds S] [--trace 0|1] \
         [--sets K]\n       roundbench-traced <workload> [--seed N]\n\
         workloads: {}",
        names.join(", ")
    )
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the offending argument; callers print it with
/// [`usage`] and exit non-zero.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        sets: 2,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value ({what})"))
        };
        match arg.as_str() {
            "--workload" => cli.command = value("a workload name")?.clone(),
            "--seed" => cli.seed = number(arg, value("a whole number")?)?,
            "--seconds" => cli.seconds = number(arg, value("a whole number")?)?,
            "--sets" => cli.sets = number(arg, value("2 or more")?)? as usize,
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            positional if cli.command.is_empty() => cli.command = positional.to_string(),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    if cli.sets < 2 {
        return Err("--sets must be at least 2".to_string());
    }
    let known =
        matches!(cli.command.as_str(), "all" | "repeat") || Workload::find(&cli.command).is_some();
    if !known {
        return Err(if cli.command.is_empty() {
            "no workload named".to_string()
        } else {
            format!("unknown workload {:?}", cli.command)
        });
    }
    Ok(cli)
}

fn number(flag: &str, text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{flag} takes a whole number, not {text:?}"))
}

/// Directory for the files a run leaves behind (per-run detail JSON,
/// span JSONL): `roundbench-out/` beside the running binary, i.e. inside
/// the Cargo target directory, which the repository ignores.
///
/// # Panics
///
/// Panics when the binary's own path is unknown or the directory cannot
/// be created.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running binary");
    let dir = exe
        .parent()
        .expect("a binary lives in a directory")
        .join("roundbench-out");
    std::fs::create_dir_all(&dir).expect("create roundbench-out");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_form_and_positional_form_agree() {
        let a = parse(&args(
            "--workload fedavg_tcp --seed 7 --seconds 20 --trace 0",
        ))
        .unwrap();
        let b = parse(&args("fedavg_tcp --seed 7")).unwrap();
        assert_eq!(a, b);
        assert_eq!((a.seed, a.seconds, a.trace), (7, RUN_SECONDS, false));
        assert!(
            parse(&args(
                "--workload median_32p --seed 1 --seconds 5 --trace 1"
            ))
            .unwrap()
            .trace
        );
    }

    #[test]
    fn defaults() {
        let c = parse(&args("repeat")).unwrap();
        assert_eq!((c.seed, c.seconds, c.sets), (DEFAULT_SEED, RUN_SECONDS, 2));
        assert_eq!(parse(&args("repeat --sets 5")).unwrap().sets, 5);
    }

    #[test]
    fn bad_input_is_refused_with_the_reason() {
        for (input, needle) in [
            ("", "no workload"),
            ("bogus", "unknown workload"),
            ("fedavg_seq --seed", "needs a value"),
            ("fedavg_seq --seed x", "whole number"),
            ("fedavg_seq --trace 2", "0 or 1"),
            ("fedavg_seq --frobnicate", "unknown option"),
            ("fedavg_seq train_conv", "unexpected argument"),
            ("repeat --sets 1", "at least 2"),
        ] {
            let err = parse(&args(input)).expect_err(input);
            assert!(err.contains(needle), "{input:?} -> {err}");
        }
    }
}
