//! A minimal recursive-descent JSON reader for the trace schema this
//! workspace emits (see `results/traces/README.md`).
//!
//! Numbers are kept as their raw text: trace message ids are
//! `(pid << 40) | counter`, which exceeds the 2^53 range `f64` can
//! represent exactly, so parsing every number through a float would
//! silently corrupt the causal edges the merge step depends on. Callers
//! ask for the view they need ([`Json::as_u64`], [`Json::as_f64`], ...)
//! and only that conversion is performed.

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text (see module docs).
    Num(String),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (our schema never repeats keys).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON value; `None` on any syntax error or
    /// trailing garbage. Total: never panics on arbitrary input.
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos == p.bytes.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a number that parses
    /// as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is a number that parses as
    /// one.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Renders the value back to compact JSON. Numbers round-trip
    /// byte-for-byte because their source text was kept.
    pub fn render(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes a string for inclusion inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nesting cap: trace lines are two levels deep; anything deeper is not
/// ours and must not recurse unboundedly.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Option<Json> {
        if self.depth >= MAX_DEPTH {
            return None;
        }
        match self.peek()? {
            b'n' => self.literal("null").then_some(Json::Null),
            b't' => self.literal("true").then_some(Json::Bool(true)),
            b'f' => self.literal("false").then_some(Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    fn number(&mut self) -> Option<Json> {
        let start = self.pos;
        self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        // Must parse as a float to be a number at all (rejects "-", "1.").
        raw.parse::<f64>().ok()?;
        Some(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            // Our emitter only writes \u for control
                            // chars; treat unpaired surrogates as the
                            // replacement character rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                b => {
                    // Copy one whole UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                    let c = rest.chars().next()?;
                    if (b as u32) < 0x20 {
                        return None;
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.eat(b'[');
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            self.depth -= 1;
            return Some(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                self.depth -= 1;
                return Some(Json::Arr(items));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    fn object(&mut self) -> Option<Json> {
        self.eat(b'{');
        self.depth += 1;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            self.depth -= 1;
            return Some(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return None;
            }
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                self.depth -= 1;
                return Some(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_schema_v2_line() {
        let line = "{\"t_ns\":9,\"node\":\"agg-0\",\"kind\":\"event\",\"name\":\"net_send\",\
                    \"trace_id\":4,\"parent\":1099511627777,\
                    \"fields\":{\"msg_id\":1099511627778,\"to\":\"party-0\",\"bytes\":512}}";
        let v = Json::parse(line).expect("schema line must parse");
        assert_eq!(v.get("t_ns").unwrap().as_u64(), Some(9));
        assert_eq!(v.get("node").unwrap().as_str(), Some("agg-0"));
        assert_eq!(v.get("parent").unwrap().as_u64(), Some(1_099_511_627_777));
        let fields = v.get("fields").unwrap();
        // Above 2^53: must survive exactly, not via f64.
        assert_eq!(
            fields.get("msg_id").unwrap().as_u64(),
            Some(1_099_511_627_778)
        );
    }

    #[test]
    fn big_integers_round_trip_exactly() {
        let raw = format!("{{\"msg_id\":{}}}", (u64::from(u32::MAX) << 40) | 7);
        let v = Json::parse(&raw).unwrap();
        let mut out = String::new();
        v.render(&mut out);
        assert_eq!(out, raw);
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "nul",
            "\"\\x\"",
            "1 2",
            "{\"a\" 1}",
            "-",
            "\u{1}",
            "[[[[",
        ] {
            assert!(Json::parse(bad).is_none(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::parse("\"a\\\"b\\\\c\\n\\t\\u0007\"").unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\n\t\u{7}"));
        let mut out = String::new();
        v.render(&mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\t\\u0007\"");
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(4096) + &"]".repeat(4096);
        assert!(Json::parse(&deep).is_none());
    }
}
