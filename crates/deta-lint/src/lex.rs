//! A minimal Rust tokenizer for lint analysis.
//!
//! This is not a full lexer: it produces exactly the token stream the
//! rules need — identifiers, punctuation, and opaque literals — while
//! guaranteeing that nothing inside comments, string/char literals, or
//! test-only code regions can ever trigger a rule. Handles line comments,
//! nested block comments, string escapes, raw strings with arbitrary
//! hash fences (`r#"..."#`), byte strings, and the char-versus-lifetime
//! ambiguity of `'`.

/// One significant token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword.
    Ident(String),
    /// A single punctuation character.
    Punct(char),
    /// A string literal; its contents are opaque to the rules.
    Str,
    /// A character literal.
    Char,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// A numeric literal.
    Num,
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// Line the token starts on (1-based).
    pub line: u32,
}

impl Tok {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Tokenizes Rust source, discarding comments and literal contents.
pub fn tokenize(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut toks = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            while i < n && chars[i] != '\n' {
                i += 1;
            }
        } else if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            i = skip_block_comment(&chars, i, &mut line);
        } else if c == '"' {
            let start = line;
            i = skip_string(&chars, i, &mut line);
            toks.push(Tok {
                kind: TokKind::Str,
                line: start,
            });
        } else if c == '\'' {
            let start = line;
            let (next, kind) = char_or_lifetime(&chars, i, &mut line);
            i = next;
            toks.push(Tok { kind, line: start });
        } else if c.is_ascii_digit() {
            toks.push(Tok {
                kind: TokKind::Num,
                line,
            });
            i = skip_number(&chars, i);
        } else if c.is_alphabetic() || c == '_' {
            let start_line = line;
            let mut j = i;
            while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            let ident: String = chars[i..j].iter().collect();
            // Raw / byte string prefixes: r"..", r#".."#, b"..", br#".."#.
            if let Some(end) = string_after_prefix(&chars, j, &ident, &mut line) {
                toks.push(Tok {
                    kind: TokKind::Str,
                    line: start_line,
                });
                i = end;
            } else {
                toks.push(Tok {
                    kind: TokKind::Ident(ident),
                    line: start_line,
                });
                i = j;
            }
        } else {
            toks.push(Tok {
                kind: TokKind::Punct(c),
                line,
            });
            i += 1;
        }
    }
    toks
}

/// Skips a (possibly nested) block comment starting at `i` (`/*`).
fn skip_block_comment(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = chars.len();
    let mut depth = 1usize;
    i += 2;
    while i < n && depth > 0 {
        if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
            depth += 1;
            i += 2;
        } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
            depth -= 1;
            i += 2;
        } else {
            if chars[i] == '\n' {
                *line += 1;
            }
            i += 1;
        }
    }
    i
}

/// Skips a `"..."` string (with escapes) starting at the opening quote.
/// Returns the index past the closing quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let n = chars.len();
    i += 1;
    while i < n {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            c => {
                if c == '\n' {
                    *line += 1;
                }
                i += 1;
            }
        }
    }
    i
}

/// If the identifier just read is a raw/byte string prefix and a literal
/// follows at `j`, skips it and returns the end index.
fn string_after_prefix(chars: &[char], j: usize, ident: &str, line: &mut u32) -> Option<usize> {
    let n = chars.len();
    match ident {
        // Escaped byte string: b"...".
        "b" if j < n && chars[j] == '"' => Some(skip_string(chars, j, line)),
        // Raw forms: zero or more hashes then a quote. `r#ident` (raw
        // identifier) has no quote after the hash and falls through.
        "r" | "br" | "rb" => {
            let mut k = j;
            let mut hashes = 0usize;
            while k < n && chars[k] == '#' {
                hashes += 1;
                k += 1;
            }
            if k >= n || chars[k] != '"' {
                return None;
            }
            k += 1;
            // Scan for `"` followed by `hashes` hashes; no escapes.
            while k < n {
                if chars[k] == '\n' {
                    *line += 1;
                } else if chars[k] == '"' {
                    let mut h = 0usize;
                    while k + 1 + h < n && h < hashes && chars[k + 1 + h] == '#' {
                        h += 1;
                    }
                    if h == hashes {
                        return Some(k + 1 + hashes);
                    }
                }
                k += 1;
            }
            Some(k)
        }
        _ => None,
    }
}

/// Distinguishes `'x'` char literals from `'lifetime` and skips either.
fn char_or_lifetime(chars: &[char], i: usize, line: &mut u32) -> (usize, TokKind) {
    let n = chars.len();
    if i + 1 >= n {
        return (i + 1, TokKind::Punct('\''));
    }
    let next = chars[i + 1];
    if next == '\\' {
        // Escaped char literal: scan to the closing quote.
        let mut j = i + 2;
        if j < n {
            j += 1; // The escaped character itself (or `u` of `\u{..}`).
        }
        while j < n && chars[j] != '\'' {
            if chars[j] == '\n' {
                *line += 1;
            }
            j += 1;
        }
        return (j + 1, TokKind::Char);
    }
    if (next.is_alphabetic() || next == '_') && !(i + 2 < n && chars[i + 2] == '\'') {
        // A lifetime: consume the identifier.
        let mut j = i + 1;
        while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        return (j, TokKind::Lifetime);
    }
    // Plain char literal such as 'a' or '('.
    if i + 2 < n && chars[i + 2] == '\'' {
        return (i + 3, TokKind::Char);
    }
    (i + 1, TokKind::Punct('\''))
}

/// Skips a numeric literal (incl. `0x..`, `1_000`, `1.5`); `0..n` ranges
/// are not swallowed because `.` is only consumed when a digit follows.
fn skip_number(chars: &[char], mut i: usize) -> usize {
    let n = chars.len();
    while i < n {
        let c = chars[i];
        let digit_dot = c == '.' && i + 1 < n && chars[i + 1].is_ascii_digit();
        if c.is_alphanumeric() || c == '_' || digit_dot {
            i += 1;
        } else {
            break;
        }
    }
    i
}

/// Removes tokens inside test-only regions: items annotated
/// `#[cfg(test)]` (including any `cfg(...)` whose arguments mention
/// `test`) and `mod tests { .. }` blocks. A file-level `#![cfg(test)]`
/// empties the whole stream.
pub fn strip_test_regions(toks: Vec<Tok>) -> Vec<Tok> {
    let n = toks.len();
    let mut masked = vec![false; n];
    let mut i = 0;
    while i < n {
        // Inner attribute #![cfg(test)] masks the entire file.
        if toks[i].is_punct('#') && i + 1 < n && toks[i + 1].is_punct('!') {
            if let Some((end, is_test)) = parse_cfg_attr(&toks, i + 2) {
                if is_test {
                    return Vec::new();
                }
                i = end;
                continue;
            }
        }
        if toks[i].is_punct('#') {
            if let Some((after_attr, is_test)) = parse_cfg_attr(&toks, i + 1) {
                if is_test {
                    let end = mask_item(&toks, after_attr);
                    for m in masked.iter_mut().take(end).skip(i) {
                        *m = true;
                    }
                    i = end;
                    continue;
                }
                i = after_attr;
                continue;
            }
        }
        // A bare `mod tests {` block is test code even without cfg.
        if toks[i].ident() == Some("mod")
            && i + 2 < n
            && toks[i + 1].ident() == Some("tests")
            && toks[i + 2].is_punct('{')
        {
            let end = skip_balanced(&toks, i + 2, '{', '}');
            for m in masked.iter_mut().take(end).skip(i) {
                *m = true;
            }
            i = end;
            continue;
        }
        i = i.saturating_add(1);
    }
    toks.into_iter()
        .zip(masked)
        .filter(|(_, m)| !m)
        .map(|(t, _)| t)
        .collect()
}

/// Parses `[cfg( .. )]` starting at the token after `#` (or `#!`).
/// Returns `(index after the closing ']', args mention `test`)`, or
/// `None` if this is not a `cfg` attribute.
fn parse_cfg_attr(toks: &[Tok], i: usize) -> Option<(usize, bool)> {
    let n = toks.len();
    if i >= n || !toks[i].is_punct('[') {
        return None;
    }
    if toks.get(i + 1)?.ident() != Some("cfg") || !toks.get(i + 2)?.is_punct('(') {
        // Some other attribute: skip it whole so callers can continue.
        let end = skip_balanced(toks, i, '[', ']');
        return Some((end, false));
    }
    let close = skip_balanced(toks, i + 2, '(', ')');
    let is_test = toks[i + 3..close.saturating_sub(1)]
        .iter()
        .any(|t| t.ident() == Some("test"));
    let mut j = close;
    if j < n && toks[j].is_punct(']') {
        j += 1;
    }
    Some((j, is_test))
}

/// Given `i` at an `open` punct, returns the index just past its
/// matching `close`.
fn skip_balanced(toks: &[Tok], i: usize, open: char, close: char) -> usize {
    let n = toks.len();
    let mut depth = 0usize;
    let mut j = i;
    while j < n {
        if toks[j].is_punct(open) {
            depth += 1;
        } else if toks[j].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    n
}

/// Masks one item starting at `i`: further attributes are skipped, then
/// everything through the item's closing `}` (or terminating `;` for
/// brace-less items) is consumed.
fn mask_item(toks: &[Tok], mut i: usize) -> usize {
    let n = toks.len();
    // Skip stacked attributes (e.g. #[cfg(test)] #[allow(..)] mod t {..}).
    while i < n && toks[i].is_punct('#') {
        if i + 1 < n && toks[i + 1].is_punct('[') {
            i = skip_balanced(toks, i + 1, '[', ']');
        } else {
            break;
        }
    }
    let mut depth_paren = 0usize;
    while i < n {
        let t = &toks[i];
        if t.is_punct('{') {
            return skip_balanced(toks, i, '{', '}');
        }
        if t.is_punct('(') || t.is_punct('[') {
            depth_paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth_paren = depth_paren.saturating_sub(1);
        } else if t.is_punct(';') && depth_paren == 0 {
            return i + 1;
        }
        i += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn line_and_block_comments_are_skipped() {
        let src = "let a = 1; // unwrap() here\n/* expect( */ let b = 2;";
        let ids = idents(src);
        assert_eq!(ids, ["let", "a", "let", "b"]);
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner unwrap() */ still comment */ fn ok() {}";
        assert_eq!(idents(src), ["fn", "ok"]);
    }

    #[test]
    fn string_contents_are_opaque() {
        let src = r#"let s = "call .unwrap() and panic!"; s"#;
        let ids = idents(src);
        assert_eq!(ids, ["let", "s", "s"]);
    }

    #[test]
    fn raw_strings_with_hash_fences() {
        let src = "let s = r#\"contains \"quoted\" unwrap()\"#; done";
        assert_eq!(idents(src), ["let", "s", "done"]);
        let src2 = "let s = r##\"x \"# y\"##; done";
        assert_eq!(idents(src2), ["let", "s", "done"]);
        let src3 = "let b = br#\"bytes unwrap()\"#; done";
        assert_eq!(idents(src3), ["let", "b", "done"]);
    }

    #[test]
    fn raw_identifier_is_not_a_string() {
        let src = "let r#fn = 1; after";
        let ids = idents(src);
        assert!(ids.contains(&"after".to_string()));
        assert!(ids.contains(&"r".to_string()) || ids.contains(&"fn".to_string()));
    }

    #[test]
    fn char_versus_lifetime() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }";
        let toks = tokenize(src);
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars_ = toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars_, 2);
    }

    #[test]
    fn line_numbers_are_tracked() {
        let src = "a\nb\n\nc";
        let toks = tokenize(src);
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn cfg_test_mod_is_stripped() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn after() {}";
        let toks = strip_test_regions(tokenize(src));
        let ids: Vec<&str> = toks.iter().filter_map(|t| t.ident()).collect();
        assert!(ids.contains(&"live"));
        assert!(ids.contains(&"after"));
        assert!(!ids.contains(&"unwrap"));
        assert!(!ids.contains(&"tests"));
    }

    #[test]
    fn cfg_test_single_item_is_stripped() {
        let src = "#[cfg(test)]\nfn helper() { y.expect(\"boom\"); }\nfn live() {}";
        let toks = strip_test_regions(tokenize(src));
        let ids: Vec<&str> = toks.iter().filter_map(|t| t.ident()).collect();
        assert!(!ids.contains(&"expect"));
        assert!(ids.contains(&"live"));
    }

    #[test]
    fn bare_mod_tests_is_stripped() {
        let src = "fn live() {}\nmod tests { fn t() { a.unwrap(); } }";
        let toks = strip_test_regions(tokenize(src));
        assert!(!toks.iter().any(|t| t.ident() == Some("unwrap")));
    }

    #[test]
    fn non_test_cfg_attr_is_kept() {
        let src = "#[cfg(feature = \"x\")]\nfn gated() { a.unwrap(); }";
        let toks = strip_test_regions(tokenize(src));
        assert!(toks.iter().any(|t| t.ident() == Some("unwrap")));
    }

    #[test]
    fn inner_cfg_test_masks_whole_file() {
        let src = "#![cfg(test)]\nfn anything() { a.unwrap(); }";
        assert!(strip_test_regions(tokenize(src)).is_empty());
    }
}
