//! A lightweight item-level parse over the lint token stream.
//!
//! This is deliberately not a Rust grammar: it recovers exactly the
//! structure the flow rules need — function items, their call sites
//! (plain, method, and macro) and their `match` expressions with their
//! arms — while staying total on arbitrary token soup. Everything is
//! expressed as index ranges into the file's token vector so the rules
//! can re-scan regions without copying.

use crate::lex::{strip_test_regions, tokenize, Tok, TokKind};

/// A half-open token index range `[start, end)`.
pub type Range = (usize, usize);

/// One parsed source file, ready for flow analysis.
pub struct FileAnalysis {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// The test-stripped token stream.
    pub toks: Vec<Tok>,
    /// Every function item found (including nested ones).
    pub fns: Vec<FnItem>,
}

impl FileAnalysis {
    /// Tokenizes, strips test regions, and parses `src`.
    pub fn new(path: &str, src: &str) -> FileAnalysis {
        let toks = strip_test_regions(tokenize(src));
        let fns = parse_fns(&toks);
        FileAnalysis {
            path: path.to_string(),
            toks,
            fns,
        }
    }
}

/// One call site: `f(..)`, `recv.f(..)`, `Path::f(..)`, or `f!(..)`.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called identifier (method or function name, or macro name).
    pub callee: String,
    /// True for `recv.f(..)`.
    pub is_method: bool,
    /// True for `f!(..)`.
    pub is_macro: bool,
    /// The receiver identifier for a method call when it is a plain
    /// identifier or field path tail (`self.state.lock()` -> `state`).
    pub receiver: Option<String>,
    /// Token range of the arguments (inside the delimiters).
    pub args: Range,
    /// Source line of the callee token.
    pub line: u32,
}

/// One arm of a `match`.
#[derive(Debug, Clone)]
pub struct MatchArm {
    /// Token range of the pattern (including any `if` guard).
    pub pat: Range,
    /// Token range of the arm body (inside braces for block bodies).
    pub body: Range,
    /// Source line of the pattern's first token.
    pub line: u32,
}

impl MatchArm {
    /// True if the pattern is exactly the bare wildcard `_` (no guard).
    pub fn is_bare_wildcard(&self, toks: &[Tok]) -> bool {
        let (s, e) = self.pat;
        e == s + 1 && toks[s].ident() == Some("_")
    }

    /// True if the body contains no tokens (or only the unit `()`).
    pub fn body_is_empty(&self, toks: &[Tok]) -> bool {
        let (s, e) = self.body;
        let body = &toks[s..e.min(toks.len())];
        body.is_empty() || (body.len() == 2 && body[0].is_punct('(') && body[1].is_punct(')'))
    }
}

/// One `match` expression.
#[derive(Debug, Clone)]
pub struct MatchExpr {
    /// The arms in source order.
    pub arms: Vec<MatchArm>,
}

/// One function item: what `channel-liveness` and `exhaustive-handling`
/// read of it.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Call sites anywhere in the body.
    pub calls: Vec<CallSite>,
    /// `match` expressions anywhere in the body.
    pub matches: Vec<MatchExpr>,
}

/// Keywords that look like calls when followed by `(`.
const CALLISH_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "let", "else", "in", "as", "move", "unsafe",
    "fn", "impl", "pub", "use", "mod", "where", "break", "continue",
];

/// Parses every function item in the stream (nested functions are
/// discovered too, because scanning resumes at the body's first token).
pub fn parse_fns(toks: &[Tok]) -> Vec<FnItem> {
    let n = toks.len();
    let mut out = Vec::new();
    let mut i = 0;
    while i < n {
        if toks[i].ident() == Some("fn") && i + 1 < n {
            if let Some((item, body_start)) = parse_fn(toks, i) {
                out.push(item);
                i = body_start;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Parses one `fn` item whose `fn` keyword is at `i`, returning it with
/// the index of its body's first token. Returns `None` for bodyless
/// declarations (trait methods, extern decls) and malformed streams.
fn parse_fn(toks: &[Tok], i: usize) -> Option<(FnItem, usize)> {
    let n = toks.len();
    let name = toks.get(i + 1)?.ident()?.to_string();
    let mut j = i + 2;
    // Generic parameters: skip `<...>` (arrow `->` cannot appear here).
    if j < n && toks[j].is_punct('<') {
        j = skip_angles(toks, j);
    }
    if j >= n || !toks[j].is_punct('(') {
        return None;
    }
    // Find the body `{`, skipping the return type and where clause.
    // Angle depth guards against `Result<A, B>`; a `>` preceded by `-`
    // is an arrow, not a closer.
    let mut k = balanced(toks, j, '(', ')');
    let mut angle = 0i32;
    loop {
        if k >= n {
            return None;
        }
        match &toks[k].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !toks[k - 1].is_punct('-') => angle -= 1,
            TokKind::Punct('{') if angle <= 0 => break,
            TokKind::Punct(';') if angle <= 0 => return None,
            _ => {}
        }
        k += 1;
    }
    let body = (k + 1, balanced(toks, k, '{', '}').saturating_sub(1));
    let item = FnItem {
        name,
        calls: parse_calls(toks, body),
        matches: parse_matches(toks, body),
    };
    Some((item, body.0))
}

/// Parses every call site inside `range`.
fn parse_calls(toks: &[Tok], range: Range) -> Vec<CallSite> {
    let (start, end) = range;
    let mut out = Vec::new();
    for i in start..end {
        let Some(id) = toks[i].ident() else { continue };
        if CALLISH_KEYWORDS.contains(&id) {
            continue;
        }
        // Macro call: `id ! (` / `id ! [` / `id ! {`.
        if i + 2 < end && toks[i + 1].is_punct('!') {
            let open = match &toks[i + 2].kind {
                TokKind::Punct(c @ ('(' | '[' | '{')) => Some(*c),
                _ => None,
            };
            if let Some(open) = open {
                let close = matching_close(open);
                let args_end = balanced(toks, i + 2, open, close);
                out.push(CallSite {
                    callee: id.to_string(),
                    is_method: false,
                    is_macro: true,
                    receiver: None,
                    args: (i + 3, args_end.saturating_sub(1)),
                    line: toks[i].line,
                });
                continue;
            }
        }
        if i + 1 >= end || !toks[i + 1].is_punct('(') {
            continue;
        }
        // Skip definitions: `fn id(..)`.
        if i > 0 && toks[i - 1].ident() == Some("fn") {
            continue;
        }
        let args_end = balanced(toks, i + 1, '(', ')');
        let is_method = i > 0 && toks[i - 1].is_punct('.');
        let receiver = if is_method && i >= 2 {
            toks[i - 2].ident().map(str::to_string)
        } else {
            None
        };
        out.push(CallSite {
            callee: id.to_string(),
            is_method,
            is_macro: false,
            receiver,
            args: (i + 2, args_end.saturating_sub(1)),
            line: toks[i].line,
        });
    }
    out
}

/// Parses every `match` expression inside `range`.
fn parse_matches(toks: &[Tok], range: Range) -> Vec<MatchExpr> {
    let (start, end) = range;
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if toks[i].ident() != Some("match") {
            i += 1;
            continue;
        }
        // Scrutinee: to the first `{` at relative delimiter depth 0.
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < end {
            match &toks[j].kind {
                TokKind::Punct(c) if "([".contains(*c) => depth += 1,
                TokKind::Punct(c) if ")]".contains(*c) => depth -= 1,
                TokKind::Punct('{') if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= end {
            i += 1;
            continue;
        }
        let body_end = balanced(toks, j, '{', '}').saturating_sub(1);
        let arms = parse_arms(toks, j + 1, body_end.min(end));
        out.push(MatchExpr { arms });
        i = j + 1;
    }
    out
}

/// Parses match arms in `toks[start..end]` (inside the match braces).
fn parse_arms(toks: &[Tok], start: usize, end: usize) -> Vec<MatchArm> {
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        // Pattern: to `=>` at relative depth 0.
        let pat_start = i;
        let mut depth = 0i32;
        let mut arrow = None;
        let mut j = i;
        while j < end {
            match &toks[j].kind {
                TokKind::Punct(c) if "([{".contains(*c) => depth += 1,
                TokKind::Punct(c) if ")]}".contains(*c) => depth -= 1,
                TokKind::Punct('=') if depth == 0 && j + 1 < end && toks[j + 1].is_punct('>') => {
                    arrow = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(arrow) = arrow else { break };
        let body_start = arrow + 2;
        if body_start >= end {
            break;
        }
        let (body, next) = if toks[body_start].is_punct('{') {
            let close = balanced(toks, body_start, '{', '}');
            let mut nx = close;
            if nx < end && toks[nx].is_punct(',') {
                nx += 1;
            }
            ((body_start + 1, close.saturating_sub(1)), nx)
        } else {
            // Expression body: to `,` at relative depth 0, or arm list end.
            let mut depth = 0i32;
            let mut k = body_start;
            while k < end {
                match &toks[k].kind {
                    TokKind::Punct(c) if "([{".contains(*c) => depth += 1,
                    TokKind::Punct(c) if ")]}".contains(*c) => depth -= 1,
                    TokKind::Punct(',') if depth == 0 => break,
                    _ => {}
                }
                k += 1;
            }
            ((body_start, k), (k + 1).min(end))
        };
        out.push(MatchArm {
            pat: (pat_start, arrow),
            body,
            line: toks[pat_start].line,
        });
        i = next;
    }
    out
}

/// Splits `toks[start..end]` at top-level occurrences of `sep`.
pub fn split_top_level(toks: &[Tok], start: usize, end: usize, sep: char) -> Vec<Range> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut seg_start = start;
    for i in start..end.min(toks.len()) {
        match &toks[i].kind {
            TokKind::Punct(c) if "([{".contains(*c) => depth += 1,
            TokKind::Punct(c) if ")]}".contains(*c) => depth -= 1,
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if i == 0 || !toks[i - 1].is_punct('-') => angle -= 1,
            TokKind::Punct(c) if *c == sep && depth == 0 && angle <= 0 => {
                out.push((seg_start, i));
                seg_start = i + 1;
            }
            _ => {}
        }
    }
    if seg_start < end || out.is_empty() {
        out.push((seg_start, end));
    }
    out
}

/// Given `i` at an `open` punct, returns the index just past its match.
pub fn balanced(toks: &[Tok], i: usize, open: char, close: char) -> usize {
    let n = toks.len();
    let mut depth = 0usize;
    let mut j = i;
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

/// The closing delimiter matching `open`.
fn matching_close(open: char) -> char {
    match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    }
}

/// Skips `<...>` generics starting at `i` (at the `<`).
fn skip_angles(toks: &[Tok], i: usize) -> usize {
    let n = toks.len();
    let mut depth = 0i32;
    let mut j = i;
    while j < n {
        if toks[j].is_punct('<') {
            depth += 1;
        } else if toks[j].is_punct('>') && !(j > 0 && toks[j - 1].is_punct('-')) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> FileAnalysis {
        FileAnalysis::new("crates/deta-core/src/party.rs", src)
    }

    #[test]
    fn fn_items_params_and_body_are_found() {
        let fa = analyze(
            "pub fn seal(key: &[u8; 32], plain: &[u8]) -> Result<Vec<u8>, E> { body() }\n\
             fn decl_only(x: u32);\n",
        );
        assert_eq!(fa.fns.len(), 1);
        let f = &fa.fns[0];
        assert_eq!(f.name, "seal");
        assert_eq!(f.calls.len(), 1);
        assert_eq!(f.calls[0].callee, "body");
    }

    #[test]
    fn calls_record_shape() {
        let fa =
            analyze("fn f() { g(1); self.state.lock(); Msg::decode(b); format!(\"{x}\", 1); }");
        let f = &fa.fns[0];
        let by_name = |n: &str| f.calls.iter().find(|c| c.callee == n).unwrap();
        assert!(!by_name("g").is_method);
        let lock = by_name("lock");
        assert!(lock.is_method);
        assert_eq!(lock.receiver.as_deref(), Some("state"));
        assert!(!by_name("decode").is_method);
        assert!(by_name("format").is_macro);
    }

    #[test]
    fn match_arms_and_wildcards_are_parsed() {
        let fa = analyze(
            "fn f(m: Msg) {\n\
             match m {\n\
                 Msg::Hello { x } => handle(x),\n\
                 Msg::Bye if x > 1 => { a(); b(); }\n\
                 _ => {}\n\
             }\n\
             }",
        );
        let f = &fa.fns[0];
        assert_eq!(f.matches.len(), 1);
        let m = &f.matches[0];
        assert_eq!(m.arms.len(), 3);
        assert!(!m.arms[0].is_bare_wildcard(&fa.toks));
        assert!(!m.arms[1].is_bare_wildcard(&fa.toks));
        assert!(m.arms[2].is_bare_wildcard(&fa.toks));
        assert!(!m.arms[1].body_is_empty(&fa.toks));
        assert!(m.arms[2].body_is_empty(&fa.toks));
    }
}
