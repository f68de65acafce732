//! The DeTA threat-model rules.
//!
//! Two layers live here. Rules 1–6 are *token* rules: standalone
//! functions from `(workspace-relative path, token stream)` to
//! violations. Rules 8–9 are *flow* rules over the item-level parse
//! ([`crate::parse`]); rule 7 (`secret-taint-flow`) is the
//! interprocedural pass in [`crate::taint`]. Fixture tests exercise
//! every rule in isolation. Paths use forward slashes relative to the
//! workspace root (e.g. `crates/deta-core/src/wire.rs`).

use crate::lex::{Tok, TokKind};
use crate::parse::{split_top_level, FileAnalysis};

/// Every rule name, token and flow layers together. The self-check and
/// the JSON report treat this as the registry of record: a rule absent
/// here is a rule CI cannot prove has fixture coverage.
pub const ALL_RULES: &[&str] = &[
    "no-secret-debug",
    "no-variable-time-eq",
    "deterministic-iteration",
    "no-panic-in-aggregation",
    "no-truncating-cast",
    "no-secret-telemetry",
    "secret-taint-flow",
    "channel-liveness",
    "exhaustive-handling",
];

/// One rule finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule name (stable, used as the allowlist key).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// The offending identifier (allowlist key).
    pub ident: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} ({})",
            self.path, self.line, self.rule, self.message, self.ident
        )
    }
}

/// Runs every rule over one already-tokenized, test-stripped file.
pub fn check_tokens(path: &str, toks: &[Tok]) -> Vec<Violation> {
    let mut out = Vec::new();
    out.extend(no_secret_debug(path, toks));
    out.extend(no_variable_time_eq(path, toks));
    out.extend(deterministic_iteration(path, toks));
    out.extend(no_panic_in_aggregation(path, toks));
    out.extend(no_truncating_cast(path, toks));
    out.extend(no_secret_telemetry(path, toks));
    out
}

/// Convenience entry point: tokenize `src`, strip test regions, check.
pub fn check_source(path: &str, src: &str) -> Vec<Violation> {
    let toks = crate::lex::strip_test_regions(crate::lex::tokenize(src));
    check_tokens(path, &toks)
}

/// Splits an identifier into lowercase words at `_` and camel-case
/// boundaries: `SigningKey` -> ["signing", "key"].
pub(crate) fn words(ident: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in ident.chars() {
        if c == '_' {
            if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
        } else if c.is_uppercase() && !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
            cur.push(c.to_ascii_lowercase());
        } else {
            cur.push(c.to_ascii_lowercase());
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

pub(crate) fn has_word(ident: &str, set: &[&str]) -> bool {
    words(ident).iter().any(|w| set.contains(&w.as_str()))
}

// ---------------------------------------------------------------------
// Rule 1: no-secret-debug
// ---------------------------------------------------------------------

/// Words that mark a struct *name* as holding secret material.
const SECRET_NAME_WORDS: &[&str] = &["secret", "signing", "private", "seed", "sk"];
/// Words that mark a *field* as secret when its type is raw bytes.
const SECRET_FIELD_WORDS: &[&str] = &["secret", "seed", "key", "sk", "token", "private", "signing"];

/// Secret-bearing structs must not `derive(Debug)`: key/seed bytes would
/// flow into logs and breach dumps. Write a redacting manual impl (see
/// `deta_paillier::PrivateKey`) instead. Applies to every source file.
pub fn no_secret_debug(path: &str, toks: &[Tok]) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = toks.len();
    let mut i = 0;
    while i < n {
        // Find #[derive( .. Debug .. )].
        if !(toks[i].is_punct('#')
            && i + 2 < n
            && toks[i + 1].is_punct('[')
            && toks[i + 2].ident() == Some("derive"))
        {
            i += 1;
            continue;
        }
        let close = balanced_end(toks, i + 3, '(', ')');
        let derives_debug = toks[i + 3..close]
            .iter()
            .any(|t| t.ident() == Some("Debug"));
        // Move past the attribute's closing `]`.
        let mut j = close;
        if j < n && toks[j].is_punct(']') {
            j += 1;
        }
        i = j;
        if !derives_debug {
            continue;
        }
        // Skip further attributes / visibility to reach `struct Name`.
        while j < n {
            if toks[j].is_punct('#') && j + 1 < n && toks[j + 1].is_punct('[') {
                j = balanced_end(toks, j + 1, '[', ']');
                if j < n && toks[j].is_punct(']') {
                    j += 1;
                }
            } else if toks[j].ident() == Some("pub") {
                j += 1;
                if j < n && toks[j].is_punct('(') {
                    j = balanced_end(toks, j, '(', ')');
                }
            } else {
                break;
            }
        }
        if j + 1 >= n || toks[j].ident() != Some("struct") {
            continue;
        }
        let Some(name) = toks[j + 1].ident() else {
            continue;
        };
        let line = toks[j + 1].line;
        if has_word(name, SECRET_NAME_WORDS) {
            out.push(Violation {
                rule: "no-secret-debug",
                path: path.to_string(),
                line,
                ident: name.to_string(),
                message: format!(
                    "struct `{name}` holds secret material but derives Debug; \
                     write a redacting manual impl"
                ),
            });
            continue;
        }
        // Inspect fields: a secret-named field of raw-byte type also
        // makes the derive dangerous.
        let mut k = j + 2;
        // Generics: skip `<...>` by angle-depth counting.
        if k < n && toks[k].is_punct('<') {
            let mut depth = 0i32;
            while k < n {
                if toks[k].is_punct('<') {
                    depth += 1;
                } else if toks[k].is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        if k < n && toks[k].is_punct('{') {
            let body_end = balanced_end(toks, k, '{', '}');
            out.extend(check_named_fields(path, name, toks, k + 1, body_end));
        } else if k < n && toks[k].is_punct('(') {
            let body_end = balanced_end(toks, k, '(', ')');
            if has_word(name, SECRET_FIELD_WORDS)
                && !has_word(name, &["public", "verifying", "pub"])
                && type_is_raw_bytes(&toks[k + 1..body_end])
            {
                out.push(Violation {
                    rule: "no-secret-debug",
                    path: path.to_string(),
                    line,
                    ident: name.to_string(),
                    message: format!("tuple struct `{name}` wraps raw key bytes but derives Debug"),
                });
            }
        }
    }
    out
}

/// Checks named fields in `toks[start..end]` (inside the struct braces).
fn check_named_fields(
    path: &str,
    struct_name: &str,
    toks: &[Tok],
    start: usize,
    end: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut i = start;
    let mut depth = 0i32;
    while i + 1 < end {
        match &toks[i].kind {
            TokKind::Punct(c) if "([{<".contains(*c) => depth += 1,
            TokKind::Punct(c) if ")]}>".contains(*c) => depth -= 1,
            TokKind::Ident(field) if depth == 0 && toks[i + 1].is_punct(':') && field != "pub" => {
                // Type tokens run to the next top-level comma.
                let mut t = i + 2;
                let mut tdepth = 0i32;
                let ty_start = t;
                while t < end {
                    match &toks[t].kind {
                        TokKind::Punct(c) if "([{<".contains(*c) => tdepth += 1,
                        TokKind::Punct(c) if ")]}>".contains(*c) => tdepth -= 1,
                        TokKind::Punct(',') if tdepth == 0 => break,
                        _ => {}
                    }
                    t += 1;
                }
                if has_word(field, SECRET_FIELD_WORDS) && type_is_raw_bytes(&toks[ty_start..t]) {
                    out.push(Violation {
                        rule: "no-secret-debug",
                        path: path.to_string(),
                        line: toks[i].line,
                        ident: field.clone(),
                        message: format!(
                            "field `{field}` of `{struct_name}` holds raw key bytes \
                             but the struct derives Debug"
                        ),
                    });
                }
                i = t;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// True if a type token sequence is a raw byte container: `[u8; N]` or
/// `Vec<u8>` (possibly behind `pub`).
fn type_is_raw_bytes(ty: &[Tok]) -> bool {
    let sig: Vec<&Tok> = ty.iter().filter(|t| t.ident() != Some("pub")).collect();
    if sig.len() >= 2 && sig[0].is_punct('[') && sig[1].ident() == Some("u8") {
        return true;
    }
    sig.len() >= 3
        && sig[0].ident() == Some("Vec")
        && sig[1].is_punct('<')
        && sig[2].ident() == Some("u8")
}

// ---------------------------------------------------------------------
// Rule 2: no-variable-time-eq
// ---------------------------------------------------------------------

/// Identifier words that mark a comparison as authentication-relevant.
const AUTH_WORDS: &[&str] = &[
    "sig",
    "signature",
    "tag",
    "mac",
    "hmac",
    "digest",
    "measurement",
    "token",
];
/// Window idents that mark a comparison as structural, not secret.
const EQ_SUPPRESS: &[&str] = &["len", "is_empty", "count", "capacity"];

fn rule2_in_scope(path: &str) -> bool {
    path.starts_with("crates/deta-crypto/src/")
        || path.starts_with("crates/deta-transport/src/")
        || path.starts_with("crates/deta-sev-sim/src/")
        || path == "crates/deta-core/src/proxy.rs"
        || path == "crates/deta-core/src/aggregator.rs"
}

/// `==`/`!=` on signatures, MAC tags, digests, or measurements leaks how
/// many leading bytes matched; authentication comparisons must use
/// `deta_crypto::ct_eq`.
pub fn no_variable_time_eq(path: &str, toks: &[Tok]) -> Vec<Violation> {
    if !rule2_in_scope(path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let n = toks.len();
    for i in 0..n.saturating_sub(1) {
        let eq = (toks[i].is_punct('=') && toks[i + 1].is_punct('=')
            // Not the tail of <=, >=, !=, ==, or a compound assign.
            && !(i > 0
                && matches!(&toks[i - 1].kind,
                    TokKind::Punct(c) if "<>!=+-*/%&|^".contains(*c))))
            || (toks[i].is_punct('!') && toks[i + 1].is_punct('='));
        if !eq {
            continue;
        }
        let lo = i.saturating_sub(6);
        let hi = (i + 8).min(n);
        let window = &toks[lo..hi];
        if window
            .iter()
            .any(|t| t.ident().is_some_and(|id| has_word(id, EQ_SUPPRESS)))
        {
            continue;
        }
        let trigger = window
            .iter()
            .find(|t| t.ident().is_some_and(|id| has_word(id, AUTH_WORDS)));
        if let Some(t) = trigger {
            let ident = t.ident().unwrap_or_default().to_string();
            out.push(Violation {
                rule: "no-variable-time-eq",
                path: path.to_string(),
                line: toks[i].line,
                ident: ident.clone(),
                message: format!(
                    "`==`/`!=` near `{ident}` compares authentication material \
                     in variable time; use deta_crypto::ct_eq"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 3: deterministic-iteration
// ---------------------------------------------------------------------

const RULE3_FILES: &[&str] = &[
    "mapper.rs",
    "shuffle.rs",
    "wire.rs",
    "transform.rs",
    "keybroker.rs",
    // Its tables' iteration order is the order its fan-outs reach the
    // network in.
    "aggregator.rs",
];

fn rule3_in_scope(path: &str) -> bool {
    path.contains("/src/") && RULE3_FILES.iter().any(|f| path.ends_with(&format!("/{f}")))
}

/// Permutation derivation, partition layout, and wire encoding must be
/// bit-reproducible across every party and aggregator; `HashMap` /
/// `HashSet` iteration order is randomized per process and silently
/// breaks `Trans`/`Trans^-1` symmetry — or, in the aggregator, sends one
/// seed's fan-outs in a different order every run. Use `BTreeMap` or
/// vectors.
pub fn deterministic_iteration(path: &str, toks: &[Tok]) -> Vec<Violation> {
    if !rule3_in_scope(path) {
        return Vec::new();
    }
    toks.iter()
        .filter(|t| matches!(t.ident(), Some("HashMap" | "HashSet")))
        .map(|t| {
            let ident = t.ident().unwrap_or_default().to_string();
            Violation {
                rule: "deterministic-iteration",
                path: path.to_string(),
                line: t.line,
                ident: ident.clone(),
                message: format!(
                    "`{ident}` in permutation-critical code has nondeterministic \
                     iteration order; use BTreeMap/BTreeSet or a Vec"
                ),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Rule 4: no-panic-in-aggregation
// ---------------------------------------------------------------------

const RULE4_FILES: &[&str] = &[
    "crates/deta-core/src/agg.rs",
    "crates/deta-core/src/aggregator.rs",
    "crates/deta-core/src/party.rs",
    "crates/deta-core/src/proxy.rs",
    "crates/deta-core/src/mapper.rs",
    "crates/deta-core/src/recovery.rs",
    "crates/deta-core/src/wire.rs",
];

fn rule4_in_scope(path: &str) -> bool {
    RULE4_FILES.contains(&path)
        || path.starts_with("crates/deta-transport/src/")
        // The runtime's actor loops and supervisor process frames from
        // every node; a reachable panic there takes down the deployment.
        || path.starts_with("crates/deta-runtime/src/")
        // The socket bridge parses attacker-reachable bytes straight off
        // TCP; a reachable panic there is a remote kill switch.
        || path.starts_with("crates/deta-socket/src/")
}

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// The one file whose every input — update values, lengths, counts,
/// weights — is shaped by remote parties, so that it has no internal
/// invariant an `assert!` could be about.
const RULE4_NO_ASSERT_FILE: &str = "crates/deta-core/src/agg.rs";

const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// A panic in an aggregator, party, proxy, or transport hot path is a
/// remote denial-of-service: any peer (or byzantine party) that can
/// reach the code path can take the node down. Protocol code must return
/// errors; `assert!` of internal invariants is allowed, except in the
/// aggregation kernels, where what it would check is a party's input.
pub fn no_panic_in_aggregation(path: &str, toks: &[Tok]) -> Vec<Violation> {
    if !rule4_in_scope(path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let n = toks.len();
    for i in 0..n {
        let Some(id) = toks[i].ident() else { continue };
        let method_call = (id == "unwrap" || id == "expect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && i + 1 < n
            && toks[i + 1].is_punct('(');
        let panics = PANIC_MACROS.contains(&id)
            || (path == RULE4_NO_ASSERT_FILE && ASSERT_MACROS.contains(&id));
        let macro_call = panics && i + 1 < n && toks[i + 1].is_punct('!');
        if method_call || macro_call {
            out.push(Violation {
                rule: "no-panic-in-aggregation",
                path: path.to_string(),
                line: toks[i].line,
                ident: id.to_string(),
                message: format!(
                    "`{id}` can panic in a protocol hot path (remote DoS); \
                     return an error instead"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 5: no-truncating-cast
// ---------------------------------------------------------------------

const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

fn rule5_in_scope(path: &str) -> bool {
    path.ends_with("/src/wire.rs")
}

/// `as` casts to narrow integers silently truncate; on the wire that
/// corrupts length prefixes and frame layout (a 4 GiB payload whose
/// `len as u32` wraps decodes as a different message). Use `try_from`.
pub fn no_truncating_cast(path: &str, toks: &[Tok]) -> Vec<Violation> {
    if !rule5_in_scope(path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let n = toks.len();
    for i in 0..n.saturating_sub(1) {
        if toks[i].ident() != Some("as") {
            continue;
        }
        let Some(ty) = toks[i + 1].ident() else {
            continue;
        };
        if NARROW_TYPES.contains(&ty) {
            out.push(Violation {
                rule: "no-truncating-cast",
                path: path.to_string(),
                line: toks[i].line,
                ident: ty.to_string(),
                message: format!(
                    "`as {ty}` silently truncates in wire serialization; \
                     use {ty}::try_from and propagate the error"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 6: no-secret-telemetry
// ---------------------------------------------------------------------

/// Telemetry sink calls whose arguments leave the trust boundary: they
/// land in flight-recorder rings, JSONL trace dumps, and Prometheus
/// snapshots that operators read outside any CVM.
const TELEMETRY_SINKS: &[&str] = &[
    "event",
    "span",
    "counter_add",
    "histogram_observe",
    "with_field",
];

/// Identifier words that mark a value as secret or sealed material.
const TELEMETRY_SECRET_WORDS: &[&str] = &[
    "sealed",
    "secret",
    "signing",
    "signature",
    "sk",
    "private",
    "key",
    "keys",
    "token",
    "seed",
];

/// Telemetry must stay secret-free *by construction*: field values are
/// restricted to the closed `TelemetryValue` set, but nothing in the
/// type system stops a caller from stringifying a sealed fragment or a
/// signing key into one. This rule scans every telemetry sink call —
/// `event`, `span`, `counter_add`, `histogram_observe`, `with_field` —
/// and flags any argument identifier whose name marks it as secret
/// material. A file is in scope once it names `deta_telemetry`; string
/// literals (metric and field *names*) are opaque and never trigger.
pub fn no_secret_telemetry(path: &str, toks: &[Tok]) -> Vec<Violation> {
    if !toks.iter().any(|t| t.ident() == Some("deta_telemetry")) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let n = toks.len();
    let mut i = 0;
    while i < n {
        let is_sink = toks[i]
            .ident()
            .is_some_and(|id| TELEMETRY_SINKS.contains(&id));
        if !is_sink || i + 1 >= n || !toks[i + 1].is_punct('(') {
            i += 1;
            continue;
        }
        // `fn event(..)` defines a sink rather than feeding one.
        if i > 0 && toks[i - 1].ident() == Some("fn") {
            i += 1;
            continue;
        }
        let sink = toks[i].ident().unwrap_or_default().to_string();
        let close = balanced_end(toks, i + 1, '(', ')');
        let args_end = close.saturating_sub(1).max(i + 2);
        let mut seen: Vec<&str> = Vec::new();
        for t in &toks[i + 2..args_end.min(n)] {
            let Some(id) = t.ident() else { continue };
            if has_word(id, TELEMETRY_SECRET_WORDS) && !seen.contains(&id) {
                seen.push(id);
                out.push(Violation {
                    rule: "no-secret-telemetry",
                    path: path.to_string(),
                    line: t.line,
                    ident: id.to_string(),
                    message: format!(
                        "`{id}` names secret material but flows into telemetry \
                         sink `{sink}`; traces and metrics leave the CVM"
                    ),
                });
            }
        }
        i = close.max(i + 1);
    }
    out
}

// ---------------------------------------------------------------------
// Rule 8: channel-liveness
// ---------------------------------------------------------------------

fn rule8_in_scope(path: &str) -> bool {
    path.starts_with("crates/deta-runtime/src/") || path.starts_with("crates/deta-transport/src/")
}

/// Blocking waits without a bound are how a lost wake-up becomes a hung
/// deployment: `Condvar::wait` (one argument, no timeout) and a bare
/// `.recv()` in actor loops park a thread forever if the peer dies
/// between check and wait. Use the `_timeout` variants or a supervised
/// loop. The transport's `recv` is a non-blocking pop and is exempt;
/// multi-argument `wait(..)` methods (the supervisor's bounded wait)
/// are not Condvar waits and are exempt by arity.
pub fn channel_liveness(fa: &FileAnalysis) -> Vec<Violation> {
    if !rule8_in_scope(&fa.path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in &fa.fns {
        for c in &f.calls {
            if !c.is_method || c.is_macro {
                continue;
            }
            let argc = call_arity(fa, c);
            if c.callee == "wait" && argc == 1 {
                out.push(Violation {
                    rule: "channel-liveness",
                    path: fa.path.clone(),
                    line: c.line,
                    ident: "wait".to_string(),
                    message: format!(
                        "`Condvar::wait` without a timeout in fn `{}` parks the thread \
                         forever on a lost wake-up; use wait_timeout",
                        f.name
                    ),
                });
            }
            if c.callee == "recv" && argc == 0 && fa.path.starts_with("crates/deta-runtime/src/") {
                out.push(Violation {
                    rule: "channel-liveness",
                    path: fa.path.clone(),
                    line: c.line,
                    ident: "recv".to_string(),
                    message: format!(
                        "bare `.recv()` in fn `{}` blocks without a timeout or \
                         supervision path; use recv_timeout",
                        f.name
                    ),
                });
            }
        }
    }
    out
}

/// Number of top-level arguments at a call site.
fn call_arity(fa: &FileAnalysis, c: &crate::parse::CallSite) -> usize {
    let (s, e) = c.args;
    if s >= e {
        return 0;
    }
    split_top_level(&fa.toks, s, e, ',')
        .iter()
        .filter(|(a, b)| a < b)
        .count()
}

/// Cross-function Mutex acquisition order, per crate. Each function
/// contributes ordered pairs of distinct lock identities (the receiver
/// of `.lock()` or the last argument identifier of the workspace's
/// poison-recovering `lock(&...)` helper); two functions acquiring the
/// same pair in opposite orders is a latent deadlock the threaded
/// deployment will eventually schedule.
pub fn lock_order(files: &[&FileAnalysis]) -> Vec<Violation> {
    use std::collections::BTreeMap;
    // (first, second) -> first witness (path, line, fn name).
    let mut edges: BTreeMap<(String, String), (String, u32, String)> = BTreeMap::new();
    let mut out = Vec::new();
    for fa in files {
        if !rule8_in_scope(&fa.path) {
            continue;
        }
        for f in &fa.fns {
            let mut seq: Vec<(String, u32)> = Vec::new();
            for c in &f.calls {
                if c.callee != "lock" || c.is_macro {
                    continue;
                }
                let identity = if c.is_method {
                    c.receiver.clone()
                } else {
                    let (s, e) = c.args;
                    fa.toks[s..e.min(fa.toks.len())]
                        .iter()
                        .rev()
                        .find_map(|t| t.ident())
                        .map(str::to_string)
                };
                if let Some(id) = identity {
                    seq.push((id, c.line));
                }
            }
            for i in 0..seq.len() {
                for j in i + 1..seq.len() {
                    let (a, _) = &seq[i];
                    let (b, line_b) = &seq[j];
                    if a == b {
                        continue;
                    }
                    let key = (a.clone(), b.clone());
                    let rev = (b.clone(), a.clone());
                    if let Some((wp, wl, wf)) = edges.get(&rev) {
                        out.push(Violation {
                            rule: "channel-liveness",
                            path: fa.path.clone(),
                            line: *line_b,
                            ident: b.clone(),
                            message: format!(
                                "fn `{}` locks `{a}` then `{b}`, but fn `{wf}` \
                                 ({wp}:{wl}) acquires them in the opposite order; \
                                 inconsistent lock order deadlocks under contention",
                                f.name
                            ),
                        });
                    } else {
                        edges
                            .entry(key)
                            .or_insert_with(|| (fa.path.clone(), *line_b, f.name.clone()));
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Rule 9: exhaustive-handling
// ---------------------------------------------------------------------

/// Protocol enums whose silent partial handling this rule polices.
const PROTOCOL_ENUMS: &[&str] = &["Msg", "CtlMsg", "WireMsg"];

/// A `match` over a protocol message enum whose wildcard arm has an
/// empty body silently discards every variant added after the match was
/// written — exactly how a new control message becomes a no-op on old
/// handlers. Enumerate the intentionally-ignored variants, or bind the
/// wildcard (`other => ...`) and route it to a counted drop.
pub fn exhaustive_handling(fa: &FileAnalysis) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in &fa.fns {
        for m in &f.matches {
            let enum_name = m.arms.iter().find_map(|arm| {
                let (s, e) = arm.pat;
                let toks = &fa.toks[s..e.min(fa.toks.len())];
                toks.iter().enumerate().find_map(|(i, t)| {
                    t.ident()
                        .filter(|id| PROTOCOL_ENUMS.contains(id))
                        .filter(|_| {
                            i + 2 < toks.len()
                                && toks[i + 1].is_punct(':')
                                && toks[i + 2].is_punct(':')
                        })
                })
            });
            let Some(enum_name) = enum_name else { continue };
            for arm in &m.arms {
                if arm.is_bare_wildcard(&fa.toks) && arm.body_is_empty(&fa.toks) {
                    out.push(Violation {
                        rule: "exhaustive-handling",
                        path: fa.path.clone(),
                        line: arm.line,
                        ident: enum_name.to_string(),
                        message: format!(
                            "wildcard arm in fn `{}` silently discards `{enum_name}` \
                             variants; enumerate the ignored variants or route them \
                             to a counted drop",
                            f.name
                        ),
                    });
                }
            }
        }
    }
    out
}

/// Shared balanced-delimiter scan (forwarded to the lexer's helper
/// semantics, local to avoid exposing lexer internals).
fn balanced_end(toks: &[Tok], i: usize, open: char, close: char) -> usize {
    let n = toks.len();
    let mut depth = 0usize;
    let mut j = i;
    // Allow being called either at the opening punct or just before it.
    while j < n && !toks[j].is_punct(open) {
        if j > i + 2 {
            return j;
        }
        j += 1;
    }
    while j < n {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    n
}
