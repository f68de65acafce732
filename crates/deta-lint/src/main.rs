//! The `deta-lint` binary: lints the workspace and exits non-zero on
//! any unsuppressed violation or stale allowlist entry.
//!
//! Usage: `cargo run -p deta-lint [--json] [--self-check] [workspace-root]`.
//!
//! * `--json` prints the report as stable machine-readable JSON (the CI
//!   artifact format) instead of the human-readable listing.
//! * `--self-check` runs the meta-check (fixture coverage for
//!   every rule, allowlist within budget) instead of linting.
//!
//! Without a root argument the workspace root is found by walking up
//! from the current directory to the first `Cargo.toml` declaring
//! `[workspace]`.

use std::path::PathBuf;
use std::process::ExitCode;

fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut self_check = false;
    let mut root_arg: Option<PathBuf> = None;
    for arg in std::env::args_os().skip(1) {
        match arg.to_str() {
            Some("--json") => json = true,
            Some("--self-check") => self_check = true,
            Some(s) if s.starts_with("--") => {
                eprintln!("deta-lint: unknown flag `{s}`");
                return ExitCode::FAILURE;
            }
            _ => root_arg = Some(PathBuf::from(arg)),
        }
    }
    let root = match root_arg {
        Some(root) => root,
        None => match find_workspace_root() {
            Some(root) => root,
            None => {
                eprintln!("deta-lint: no workspace root found (pass it as an argument)");
                return ExitCode::FAILURE;
            }
        },
    };
    if self_check {
        return match deta_lint::self_check(&root) {
            Ok(summary) => {
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(problems) => {
                eprintln!("deta-lint self-check failed:\n{problems}");
                ExitCode::FAILURE
            }
        };
    }
    match deta_lint::run_lint(&root) {
        Ok(report) => {
            if json {
                let text = report.to_json();
                // Self-guard: a schema regression must fail the gate
                // loudly, never ship a malformed CI artifact.
                if let Err(e) = deta_lint::validate_report_json(&text) {
                    eprintln!("deta-lint: emitted JSON violates the report schema: {e}");
                    return ExitCode::FAILURE;
                }
                println!("{text}");
            } else {
                println!("{report}");
            }
            if report.files_scanned == 0 {
                // A clean report over zero files is a mispointed root,
                // not a clean workspace.
                eprintln!("deta-lint: no .rs files found under {}", root.display());
                return ExitCode::FAILURE;
            }
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("deta-lint: {e}");
            ExitCode::FAILURE
        }
    }
}
