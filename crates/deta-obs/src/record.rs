//! The trace schema's record, and its writer and reader.
//!
//! [`ObsRecord`] is the one owned record of the JSONL schema
//! (`results/traces/README.md`). Every line of it is written here:
//! a flight recorder's ring is converted into `ObsRecord`s
//! ([`crate::TelemetryRecord::to_obs`]) and rendered by
//! [`render_jsonl`]; a dump closes with [`meta_line`]; [`parse_jsonl`]
//! reads both back.

use crate::json::Json;

/// One span or event, parsed from a schema-v2 trace line.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsRecord {
    /// Timestamp in nanoseconds. Raw per-process monotonic time at
    /// parse; rebased onto the merged timeline by [`fn@crate::merge`].
    /// Signed so clock alignment can shift it below zero before the
    /// final normalization.
    pub t_ns: i64,
    /// Node the record is attributed to.
    pub node: String,
    /// `true` for spans (timed), `false` for events (instantaneous).
    pub span: bool,
    /// Record name (`local_train`, `net_send`, ...).
    pub name: String,
    /// Span duration in ns; 0 for events.
    pub dur_ns: u64,
    /// Round-scoped trace id; 0 = untraced.
    pub trace_id: u64,
    /// Id of the message whose delivery caused this record; 0 = local.
    pub parent: u64,
    /// Structured payload, kept as parsed JSON.
    pub fields: Vec<(String, Json)>,
}

impl ObsRecord {
    /// Span end time (equals `t_ns` for events).
    pub fn end_ns(&self) -> i64 {
        self.t_ns
            .saturating_add(i64::try_from(self.dur_ns).unwrap_or(i64::MAX))
    }

    /// An unsigned-integer field, if present.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_u64())
    }

    /// A string field, if present.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_str())
    }

    /// Renders the record back to one schema-v2 JSONL line.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"t_ns\":{},\"node\":\"{}\",\"kind\":\"{}\",\"name\":\"{}\"",
            self.t_ns,
            crate::json::escape(&self.node),
            if self.span { "span" } else { "event" },
            crate::json::escape(&self.name)
        );
        if self.span {
            out.push_str(&format!(",\"dur_ns\":{}", self.dur_ns));
        }
        if self.trace_id != 0 {
            out.push_str(&format!(",\"trace_id\":{}", self.trace_id));
            if self.parent != 0 {
                out.push_str(&format!(",\"parent\":{}", self.parent));
            }
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":");
            Json::Obj(self.fields.clone()).render(&mut out);
        }
        out.push('}');
        out
    }
}

/// Renders `records` as JSONL, one line each, every line ended by a
/// newline — the schema's one document writer (a dump closes it with
/// [`meta_line`]).
pub fn render_jsonl(records: &[ObsRecord]) -> String {
    records.iter().map(|rec| rec.to_json() + "\n").collect()
}

/// The `meta` line that closes a dump, newline included: the time it
/// was written, the node(s) a fault verdict implicates, and how many
/// records each node's ring overwrote.
pub fn meta_line(t_ns: i64, implicated: &[String], overflow: &[(String, u64)]) -> String {
    let meta = Json::Obj(vec![
        ("t_ns".to_string(), Json::Num(t_ns.to_string())),
        ("kind".to_string(), Json::Str("meta".to_string())),
        (
            "implicated".to_string(),
            Json::Arr(implicated.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "ring_overflow".to_string(),
            Json::Obj(
                (overflow.iter())
                    .map(|(n, c)| (n.clone(), Json::Num(c.to_string())))
                    .collect(),
            ),
        ),
    ]);
    let mut out = String::new();
    meta.render(&mut out);
    out.push('\n');
    out
}

/// Everything a trace dump file (or shipped ring) parses into.
#[derive(Clone, Debug, Default)]
pub struct ParsedTrace {
    /// Span/event records, in file order.
    pub records: Vec<ObsRecord>,
    /// Nodes named by a `meta` line's `implicated` list, if any.
    pub implicated: Vec<String>,
    /// Per-node ring-overflow counts from `meta` lines.
    pub overflow: Vec<(String, u64)>,
    /// Lines that failed to parse (count only; the merge refuses
    /// nothing, but the report surfaces lossage).
    pub skipped: u64,
}

/// Parses schema-v1/v2 JSONL text. Unparseable lines are counted, not
/// fatal — a trace cut short by a crash must still merge.
pub fn parse_jsonl(text: &str) -> ParsedTrace {
    let mut out = ParsedTrace::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Some(v) = Json::parse(line) else {
            out.skipped += 1;
            continue;
        };
        match v.get("kind").and_then(Json::as_str) {
            Some("meta") => {
                if let Some(Json::Arr(names)) = v.get("implicated") {
                    for n in names {
                        if let Some(s) = n.as_str() {
                            out.implicated.push(s.to_string());
                        }
                    }
                }
                if let Some(Json::Obj(counts)) = v.get("ring_overflow") {
                    for (node, c) in counts {
                        if let Some(c) = c.as_u64() {
                            out.overflow.push((node.clone(), c));
                        }
                    }
                }
            }
            Some(kind @ ("span" | "event")) => {
                let parsed = (|| {
                    Some(ObsRecord {
                        t_ns: v.get("t_ns")?.as_i64()?,
                        node: v.get("node")?.as_str()?.to_string(),
                        span: kind == "span",
                        name: v.get("name")?.as_str()?.to_string(),
                        dur_ns: v.get("dur_ns").and_then(Json::as_u64).unwrap_or(0),
                        trace_id: v.get("trace_id").and_then(Json::as_u64).unwrap_or(0),
                        parent: v.get("parent").and_then(Json::as_u64).unwrap_or(0),
                        fields: match v.get("fields") {
                            Some(Json::Obj(fields)) => fields.clone(),
                            _ => Vec::new(),
                        },
                    })
                })();
                match parsed {
                    Some(rec) => out.records.push(rec),
                    None => out.skipped += 1,
                }
            }
            _ => out.skipped += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_spans_events_and_meta() {
        let text = "\
{\"t_ns\":5,\"node\":\"agg-0\",\"kind\":\"span\",\"name\":\"aggregate\",\"dur_ns\":11,\"trace_id\":2}\n\
{\"t_ns\":9,\"node\":\"party-0\",\"kind\":\"event\",\"name\":\"net_send\",\"trace_id\":2,\"parent\":7,\"fields\":{\"msg_id\":12,\"to\":\"agg-0\",\"bytes\":64}}\n\
not json\n\
{\"t_ns\":0,\"kind\":\"meta\",\"implicated\":[\"agg-1\"],\"ring_overflow\":{\"party-0\":3}}\n";
        let parsed = parse_jsonl(text);
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.skipped, 1);
        assert_eq!(parsed.implicated, vec!["agg-1".to_string()]);
        assert_eq!(parsed.overflow, vec![("party-0".to_string(), 3)]);
        let span = &parsed.records[0];
        assert!(span.span);
        assert_eq!(span.end_ns(), 16);
        assert_eq!(span.trace_id, 2);
        let ev = &parsed.records[1];
        assert_eq!(ev.field_u64("msg_id"), Some(12));
        assert_eq!(ev.field_str("to"), Some("agg-0"));
        assert_eq!(ev.parent, 7);
    }

    #[test]
    fn a_span_never_ends_before_it_starts() {
        let span = |t_ns, dur_ns| ObsRecord {
            t_ns,
            node: "party-0".to_string(),
            span: true,
            name: "local_train".to_string(),
            dur_ns,
            trace_id: 0,
            parent: 0,
            fields: Vec::new(),
        };
        assert_eq!(span(1, u64::MAX).end_ns(), i64::MAX);
        assert_eq!(span(i64::MIN, u64::MAX).end_ns(), -1);
        assert_eq!(span(-5, 7).end_ns(), 2);
    }

    #[test]
    fn rendering_round_trips_through_the_parser() {
        let line = "{\"t_ns\":9,\"node\":\"party-0\",\"kind\":\"event\",\"name\":\"net_send\",\
                    \"trace_id\":2,\"parent\":7,\"fields\":{\"msg_id\":1234567890123456,\"bytes\":64}}";
        let parsed = parse_jsonl(line);
        assert_eq!(parsed.records.len(), 1);
        assert_eq!(
            parsed.records[0].to_json(),
            line.replace(char::is_whitespace, "")
        );
    }
}
