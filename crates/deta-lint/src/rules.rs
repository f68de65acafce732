//! The DeTA threat-model rules.
//!
//! Two layers live here. `secret-expose` and rules 2–5 are *token*
//! rules: standalone functions from `(workspace-relative path, token
//! stream)` to violations. Rules 8–9 are *flow* rules over the
//! item-level parse ([`crate::parse`]). Numbers are historical — 6 and 7
//! were word-list and taint heuristics that `deta_crypto::Secret`
//! replaced — and names are what the allowlist and the report key on.
//! Fixture tests exercise every rule in isolation. Paths use forward
//! slashes relative to the workspace root (e.g.
//! `crates/deta-core/src/wire.rs`).

use crate::lex::{Tok, TokKind};
use crate::parse::{split_top_level, FileAnalysis};

/// Every rule name, token and flow layers together. The self-check and
/// the JSON report treat this as the registry of record: a rule absent
/// here is a rule CI cannot prove has fixture coverage.
pub const ALL_RULES: &[&str] = &[
    "secret-expose",
    "no-variable-time-eq",
    "deterministic-iteration",
    "no-panic-in-aggregation",
    "no-truncating-cast",
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
    out.extend(secret_expose(path, toks));
    out.extend(no_variable_time_eq(path, toks));
    out.extend(deterministic_iteration(path, toks));
    out.extend(no_panic_in_aggregation(path, toks));
    out.extend(no_truncating_cast(path, toks));
    out
}

/// Convenience entry point: tokenize `src`, strip test regions, check.
pub fn check_source(path: &str, src: &str) -> Vec<Violation> {
    let toks = crate::lex::strip_test_regions(crate::lex::tokenize(src));
    check_tokens(path, &toks)
}

/// Splits an identifier into lowercase words at `_` and camel-case
/// boundaries: `SigningKey` -> ["signing", "key"].
fn words(ident: &str) -> Vec<String> {
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

fn has_word(ident: &str, set: &[&str]) -> bool {
    words(ident).iter().any(|w| set.contains(&w.as_str()))
}

// ---------------------------------------------------------------------
// Rule 1: secret-expose
// ---------------------------------------------------------------------

/// The files that may read a key's bytes: the wrapper itself, the
/// primitives that compute with a key, the two derivations that turn
/// one key into another, and simnet's privacy oracle — a reference
/// implementation that recomputes what an aggregator was entitled to.
const EXPOSE_FILES: &[&str] = &[
    "crates/deta-crypto/src/secret.rs",
    "crates/deta-crypto/src/aead.rs",
    "crates/deta-crypto/src/sign.rs",
    "crates/deta-crypto/src/dh.rs",
    "crates/deta-transport/src/secure.rs",
    "crates/deta-core/src/transform.rs",
    "crates/deta-paillier/src/lib.rs",
    "crates/deta-simnet/src/fleet.rs",
];

/// Every key lives in a `deta_crypto::Secret`, which cannot be printed,
/// compared, copied or made a telemetry field; `expose` is the one way
/// to its bytes. Outside [`EXPOSE_FILES`] nothing names it — as a method
/// call or as the path `Secret::expose` — so a key reaching a log, a
/// metric or the wire has to start in a file this list makes reviewable.
pub fn secret_expose(path: &str, toks: &[Tok]) -> Vec<Violation> {
    if EXPOSE_FILES.contains(&path) {
        return Vec::new();
    }
    toks.iter()
        .enumerate()
        .filter(|(i, t)| {
            t.ident() == Some("expose") && !(*i > 0 && toks[i - 1].ident() == Some("fn"))
        })
        .map(|(_, t)| Violation {
            rule: "secret-expose",
            path: path.to_string(),
            line: t.line,
            ident: "expose".to_string(),
            message: "`expose` reads a key's bytes outside the files that may; \
                      pass the `Secret` to code in one of them instead"
                .to_string(),
        })
        .collect()
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
// Rule 8: channel-liveness
// ---------------------------------------------------------------------

/// The crates whose threads block on each other: the actor fabric, the
/// network under it, and the bridge with its written `network → egress`.
fn rule8_in_scope(path: &str) -> bool {
    ["runtime", "transport", "socket"]
        .iter()
        .any(|krate| path.starts_with(&format!("crates/deta-{krate}/src/")))
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
