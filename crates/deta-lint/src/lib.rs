//! deta-lint: a static analyzer, with no dependency outside the
//! workspace, enforcing DeTA's threat-model invariants across it.
//!
//! That a secret never reaches a log, a metric or the wire is a property
//! of one type, `deta_crypto::Secret`; what is left for an analyzer is
//! what no type checks: key bytes are read only where they are computed
//! with, authentication comparisons must be constant-time,
//! permutation-critical code must iterate deterministically, protocol
//! hot paths must not panic on attacker input, wire serialization must
//! not truncate, waits must be bounded and protocol matches exhaustive.
//! The analyzer has two layers:
//!
//! * **Token rules** (`secret-expose`, 2–5) over a hand-rolled token
//!   stream (see [`lex`]).
//! * **Flow rules** (8–9) over an item-level parse (see [`parse`]):
//!   channel-liveness (unbounded waits and inconsistent lock order) and
//!   exhaustive protocol-message handling.
//!
//! Findings resolve against a checked-in `lint-allow.toml` of justified
//! suppressions (see [`allow`]). Run it as `cargo run -p deta-lint`
//! (`--json` for machine-readable output, `--self-check` for the CI
//! meta-check); `tests/lint_clean.rs` at the workspace root enforces a
//! clean report in `cargo test`.

pub mod allow;
pub mod lex;
pub mod parse;
pub mod rules;

pub use allow::{parse_allowlist, AllowEntry, MAX_ALLOW_ENTRIES};
pub use rules::{check_source, check_tokens, Violation};

use deta_obs::Json;
use std::path::{Path, PathBuf};

/// Result of linting a workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations not covered by the allowlist.
    pub violations: Vec<Violation>,
    /// Allowlist entries that matched nothing (stale suppressions are
    /// reported so the list cannot rot).
    pub stale_allows: Vec<AllowEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of violations suppressed by the allowlist.
    pub suppressed: usize,
}

impl LintReport {
    /// True when nothing is wrong: no violations and no stale entries.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.stale_allows.is_empty()
    }

    /// Stable machine-readable form of the report, for CI artifacts.
    ///
    /// The schema is part of the tool's interface: top-level keys
    /// `files_scanned`, `suppressed`, `clean`, `violations` (objects
    /// with `rule`, `path`, `line`, `ident`, `message`), and
    /// `stale_allows` (objects with `rule`, `path`, `identifier`,
    /// `reason`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"suppressed\": {},\n", self.suppressed));
        out.push_str(&format!("  \"clean\": {},\n", self.clean()));
        out.push_str("  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"ident\": {}, \
                 \"message\": {}}}",
                json_str(v.rule),
                json_str(&v.path),
                v.line,
                json_str(&v.ident),
                json_str(&v.message)
            ));
        }
        out.push_str(if self.violations.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"stale_allows\": [");
        for (i, e) in self.stale_allows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"path\": {}, \"identifier\": {}, \"reason\": {}}}",
                json_str(&e.rule),
                json_str(&e.path),
                json_str(&e.identifier),
                json_str(&e.reason)
            ));
        }
        out.push_str(if self.stale_allows.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push('}');
        out
    }
}

fn field<'j>(obj: &'j Json, ctx: &str, key: &str) -> Result<&'j Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing key `{key}`"))
}

fn str_field<'j>(obj: &'j Json, ctx: &str, key: &str) -> Result<&'j str, String> {
    let value = field(obj, ctx, key)?;
    value
        .as_str()
        .ok_or_else(|| format!("{ctx}: key `{key}` must be a string, got {value:?}"))
}

fn num_field(obj: &Json, ctx: &str, key: &str) -> Result<u64, String> {
    let value = field(obj, ctx, key)?;
    value
        .as_u64()
        .ok_or_else(|| format!("{ctx}: key `{key}` must be a number, got {value:?}"))
}

fn arr_field<'j>(obj: &'j Json, ctx: &str, key: &str) -> Result<&'j [Json], String> {
    match field(obj, ctx, key)? {
        Json::Arr(items) => Ok(items),
        other => Err(format!(
            "{ctx}: key `{key}` must be an array, got {other:?}"
        )),
    }
}

/// Validates that `text` conforms to the stable [`LintReport::to_json`]
/// schema the CI artifact consumers rely on: the documented top-level
/// keys with the documented types, every violation and stale-allow
/// carrying its full field set, and every violation's `rule` drawn from
/// [`rules::ALL_RULES`]. The `--json` CLI path runs this on its own
/// output before printing, so a schema regression fails the gate
/// instead of shipping a malformed artifact.
///
/// # Errors
///
/// A message naming the offending key, field, or rule.
pub fn validate_report_json(text: &str) -> Result<(), String> {
    let top = Json::parse(text).ok_or("report: not well-formed JSON")?;
    num_field(&top, "report", "files_scanned")?;
    num_field(&top, "report", "suppressed")?;
    let clean = match field(&top, "report", "clean")? {
        Json::Bool(b) => *b,
        other => return Err(format!("report: key `clean` must be a bool, got {other:?}")),
    };
    let violations = arr_field(&top, "report", "violations")?;
    for (i, v) in violations.iter().enumerate() {
        let ctx = format!("violations[{i}]");
        let rule = str_field(v, &ctx, "rule")?;
        if !rules::ALL_RULES.contains(&rule) {
            return Err(format!("{ctx}: unknown rule `{rule}`"));
        }
        str_field(v, &ctx, "path")?;
        num_field(v, &ctx, "line")?;
        str_field(v, &ctx, "ident")?;
        str_field(v, &ctx, "message")?;
    }
    let stale = arr_field(&top, "report", "stale_allows")?;
    for (i, e) in stale.iter().enumerate() {
        let ctx = format!("stale_allows[{i}]");
        for key in ["rule", "path", "identifier", "reason"] {
            str_field(e, &ctx, key)?;
        }
    }
    if clean && (!violations.is_empty() || !stale.is_empty()) {
        return Err("report: `clean` is true but findings are present".to_string());
    }
    Ok(())
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    format!("\"{}\"", deta_obs::json::escape(s))
}

impl std::fmt::Display for LintReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for v in &self.violations {
            writeln!(f, "{v}")?;
        }
        for e in &self.stale_allows {
            writeln!(
                f,
                "stale allowlist entry: rule `{}` path `{}` identifier `{}` matches nothing",
                e.rule, e.path, e.identifier
            )?;
        }
        write!(
            f,
            "{} file(s) scanned, {} violation(s), {} suppressed, {} stale allow(s)",
            self.files_scanned,
            self.violations.len(),
            self.suppressed,
            self.stale_allows.len()
        )
    }
}

/// Lints every workspace source file under `root`.
///
/// Scans `src/` of the root package and of each `crates/*` member;
/// `tests/`, `benches/`, and `target/` are out of scope by construction
/// (the rules govern shipped code, and unit tests inside `src/` are
/// excluded by [`lex::strip_test_regions`]).
///
/// # Errors
///
/// Fails on unreadable files or a malformed `lint-allow.toml`.
pub fn run_lint(root: &Path) -> Result<LintReport, String> {
    let allow_path = root.join("lint-allow.toml");
    let allows = match std::fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("cannot read {}: {e}", allow_path.display())),
    };

    let mut files = Vec::new();
    collect_rs_files(&root.join("src"), &mut files);
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut members: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs_files(&member.join("src"), &mut files);
        }
    }

    let mut report = LintReport {
        files_scanned: files.len(),
        ..LintReport::default()
    };
    // Parse every file once; the token rules and the flow passes share
    // the stream.
    let mut analyses = Vec::with_capacity(files.len());
    for file in &files {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = relative_path(root, file);
        analyses.push(parse::FileAnalysis::new(&rel, &src));
    }
    let mut found = Vec::new();
    for fa in &analyses {
        found.extend(check_tokens(&fa.path, &fa.toks));
        found.extend(rules::channel_liveness(fa));
        found.extend(rules::exhaustive_handling(fa));
    }
    found.extend(rules::lock_order(&analyses.iter().collect::<Vec<_>>()));
    let mut used = vec![false; allows.len()];
    for v in found {
        let allowed = allows.iter().enumerate().find(|(_, a)| a.matches(&v));
        if let Some((idx, _)) = allowed {
            used[idx] = true;
            report.suppressed += 1;
        } else {
            report.violations.push(v);
        }
    }
    report.stale_allows = allows
        .into_iter()
        .zip(used)
        .filter(|(_, u)| !u)
        .map(|(a, _)| a)
        .collect();
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

/// The self-check, run by `scripts/check.sh`: verifies the
/// analyzer's own guardrails rather than the workspace's code.
///
/// Fails when (a) any rule in [`rules::ALL_RULES`] appears fewer than
/// twice in the fixture tests under `crates/deta-lint/tests/` — every
/// rule must keep at least a positive and a negative fixture — or
/// (b) `lint-allow.toml` is malformed or past [`MAX_ALLOW_ENTRIES`]
/// (the parser enforces the cap; re-checked here so the failure names
/// this check). Returns a one-line summary on success.
///
/// # Errors
///
/// A human-readable list of everything that failed.
pub fn self_check(root: &Path) -> Result<String, String> {
    let mut problems = Vec::new();

    let tests_dir = root.join("crates/deta-lint/tests");
    let mut fixture_text = String::new();
    let mut fixture_files = 0usize;
    if let Ok(entries) = std::fs::read_dir(&tests_dir) {
        let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        paths.sort();
        for p in paths {
            if p.extension().is_some_and(|e| e == "rs") {
                fixture_files += 1;
                fixture_text.push_str(&std::fs::read_to_string(&p).unwrap_or_default());
            }
        }
    }
    if fixture_files == 0 {
        problems.push(format!(
            "no fixture tests found under {}",
            tests_dir.display()
        ));
    }
    for rule in rules::ALL_RULES {
        let count = fixture_text.matches(rule).count();
        if count < 2 {
            problems.push(format!(
                "rule `{rule}` has {count} fixture reference(s); every rule needs \
                 at least a positive and a negative fixture"
            ));
        }
    }

    let allow_path = root.join("lint-allow.toml");
    let allow_count = match std::fs::read_to_string(&allow_path) {
        Ok(text) => match parse_allowlist(&text) {
            Ok(entries) => entries.len(),
            Err(e) => {
                problems.push(format!("lint-allow.toml: {e}"));
                0
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
        Err(e) => {
            problems.push(format!("cannot read {}: {e}", allow_path.display()));
            0
        }
    };
    if allow_count > MAX_ALLOW_ENTRIES {
        problems.push(format!(
            "lint-allow.toml has {allow_count} entries (max {MAX_ALLOW_ENTRIES})"
        ));
    }

    if problems.is_empty() {
        Ok(format!(
            "self-check ok: {} rule(s) fixture-covered across {} test file(s), \
             {} / {} allowlist entries used",
            rules::ALL_RULES.len(),
            fixture_files,
            allow_count,
            MAX_ALLOW_ENTRIES
        ))
    } else {
        Err(problems.join("\n"))
    }
}

/// Recursively collects `.rs` files under `dir` in sorted order.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Workspace-relative path with forward slashes (the rules' and the
/// allowlist's path convention, stable across platforms).
fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/w");
        let file = Path::new("/w/crates/deta-core/src/wire.rs");
        assert_eq!(relative_path(root, file), "crates/deta-core/src/wire.rs");
    }
}
