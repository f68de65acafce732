//! The closed set of values a span, event, or metric label may carry.
//!
//! Telemetry is secret-free *by construction*: [`TelemetryValue`] has
//! conversions from booleans, integers, floats, and text — and nothing
//! else. There is deliberately no `From<&[u8]>`, no `From<Vec<u8>>`, and
//! no conversion from any crypto type, so sealed records, keys, and
//! signatures cannot reach a trace without an explicit re-encoding at
//! the call site — which, for a key, starts at `Secret::expose`, a
//! method the workspace's `clippy.toml` disallows outside a few files
//! that compute with a key.

/// One telemetry field value.
#[derive(Clone, Debug, PartialEq)]
pub enum TelemetryValue {
    /// A boolean flag.
    Bool(bool),
    /// An unsigned count, size, or sequence number.
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// A duration, rate, or loss value.
    F64(f64),
    /// A short human-readable label (node names, phases, fault kinds).
    Str(String),
}

impl TelemetryValue {
    /// Renders the value as a JSON fragment (non-finite floats become
    /// `null`, which keeps every emitted line valid JSON).
    pub fn to_json(&self) -> String {
        match self {
            TelemetryValue::Bool(b) => b.to_string(),
            TelemetryValue::U64(v) => v.to_string(),
            TelemetryValue::I64(v) => v.to_string(),
            TelemetryValue::F64(v) if v.is_finite() => format!("{v}"),
            TelemetryValue::F64(_) => "null".to_string(),
            TelemetryValue::Str(s) => format!("\"{}\"", json_escape(s)),
        }
    }
}

impl From<bool> for TelemetryValue {
    fn from(v: bool) -> TelemetryValue {
        TelemetryValue::Bool(v)
    }
}

impl From<u64> for TelemetryValue {
    fn from(v: u64) -> TelemetryValue {
        TelemetryValue::U64(v)
    }
}

impl From<u32> for TelemetryValue {
    fn from(v: u32) -> TelemetryValue {
        TelemetryValue::U64(u64::from(v))
    }
}

impl From<usize> for TelemetryValue {
    fn from(v: usize) -> TelemetryValue {
        TelemetryValue::U64(u64::try_from(v).unwrap_or(u64::MAX))
    }
}

impl From<i64> for TelemetryValue {
    fn from(v: i64) -> TelemetryValue {
        TelemetryValue::I64(v)
    }
}

impl From<f64> for TelemetryValue {
    fn from(v: f64) -> TelemetryValue {
        TelemetryValue::F64(v)
    }
}

impl From<f32> for TelemetryValue {
    fn from(v: f32) -> TelemetryValue {
        TelemetryValue::F64(f64::from(v))
    }
}

impl From<&str> for TelemetryValue {
    fn from(v: &str) -> TelemetryValue {
        TelemetryValue::Str(v.to_string())
    }
}

impl From<String> for TelemetryValue {
    fn from(v: String) -> TelemetryValue {
        TelemetryValue::Str(v)
    }
}

/// Escapes a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_as_json() {
        assert_eq!(TelemetryValue::from(true).to_json(), "true");
        assert_eq!(TelemetryValue::from(42u64).to_json(), "42");
        assert_eq!(TelemetryValue::from(-3i64).to_json(), "-3");
        assert_eq!(TelemetryValue::from(0.5f64).to_json(), "0.5");
        assert_eq!(TelemetryValue::F64(f64::NAN).to_json(), "null");
        assert_eq!(
            TelemetryValue::from("agg-0").to_json(),
            "\"agg-0\"".to_string()
        );
    }

    #[test]
    fn strings_escape_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
