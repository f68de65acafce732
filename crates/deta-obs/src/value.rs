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

use crate::Json;

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

/// The schema's value for a field: integers as their decimal text,
/// finite floats as their `{}` text, non-finite floats as `null` (which
/// keeps every written line valid JSON), strings and booleans as they
/// are.
impl From<&TelemetryValue> for Json {
    fn from(v: &TelemetryValue) -> Json {
        match v {
            TelemetryValue::Bool(b) => Json::Bool(*b),
            TelemetryValue::U64(v) => Json::Num(v.to_string()),
            TelemetryValue::I64(v) => Json::Num(v.to_string()),
            TelemetryValue::F64(v) if v.is_finite() => Json::Num(format!("{v}")),
            TelemetryValue::F64(_) => Json::Null,
            TelemetryValue::Str(s) => Json::Str(s.clone()),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn render(v: TelemetryValue) -> String {
        let mut out = String::new();
        Json::from(&v).render(&mut out);
        out
    }

    #[test]
    fn values_render_as_json() {
        assert_eq!(render(true.into()), "true");
        assert_eq!(render(42u64.into()), "42");
        assert_eq!(render((-3i64).into()), "-3");
        assert_eq!(render(0.5f64.into()), "0.5");
        assert_eq!(render(TelemetryValue::F64(f64::NAN)), "null");
        assert_eq!(render("agg-0".into()), "\"agg-0\"".to_string());
    }

    #[test]
    fn strings_escape_quotes_and_controls() {
        assert_eq!(render("a\"b\\c".into()), "\"a\\\"b\\\\c\"");
        assert_eq!(render("x\ny".into()), "\"x\\ny\"");
        assert_eq!(render("\u{1}".into()), "\"\\u0001\"");
    }
}
