//! Chrome trace-event export (loadable by Perfetto / `chrome://tracing`).
//!
//! The merged trace maps onto the JSON trace-event format with one
//! "process" track per DeTA node (nodes are single-threaded actors, so
//! the node *is* the schedulable unit): spans become complete (`"X"`)
//! events, point events become instants (`"i"`), and every matched
//! send→recv edge becomes a flow (`"s"`/`"f"`) arrow so the causality
//! the critical-path walk uses is visible in the UI.

use crate::json::escape;
use crate::merge::MergedTrace;

/// Timestamps: trace-event `ts`/`dur` are microseconds; emit fractional
/// µs to keep full ns resolution.
fn us(ns: i64) -> String {
    format!("{:.3}", ns as f64 / 1e3)
}

/// Renders the merged trace as a chrome-trace-event JSON document.
pub fn chrome_trace(m: &MergedTrace) -> String {
    // Stable pid assignment: nodes sorted by name, 1-based.
    let mut nodes: Vec<&str> = m.records.iter().map(|r| r.node.as_str()).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let pid_of = |node: &str| nodes.iter().position(|n| *n == node).unwrap_or(0) + 1;

    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };

    for (i, node) in nodes.iter().enumerate() {
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                escape(node)
            ),
        );
    }
    for rec in &m.records {
        let pid = pid_of(&rec.node);
        let args = if rec.trace_id != 0 {
            format!(",\"args\":{{\"round\":{}}}", rec.trace_id.saturating_sub(1))
        } else {
            String::new()
        };
        let line = if rec.span {
            format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"name\":\"{}\"{args}}}",
                us(rec.t_ns),
                us(i64::try_from(rec.dur_ns).unwrap_or(i64::MAX)),
                escape(&rec.name)
            )
        } else {
            format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":1,\"ts\":{},\"s\":\"t\",\
                 \"name\":\"{}\"{args}}}",
                us(rec.t_ns),
                escape(&rec.name)
            )
        };
        push(&mut out, &mut first, line);
    }
    for e in &m.edges {
        let (send, recv) = (&m.records[e.send], &m.records[e.recv]);
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"s\",\"pid\":{},\"tid\":1,\"ts\":{},\"cat\":\"net\",\
                 \"name\":\"msg\",\"id\":{}}}",
                pid_of(&send.node),
                us(send.t_ns),
                e.msg_id
            ),
        );
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":{},\"tid\":1,\"ts\":{},\
                 \"cat\":\"net\",\"name\":\"msg\",\"id\":{}}}",
                pid_of(&recv.node),
                us(recv.t_ns),
                e.msg_id
            ),
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::merge::{merge, ProcessTrace};
    use crate::record::ObsRecord;

    #[test]
    fn export_is_valid_json_with_flows_and_metadata() {
        let pt = ProcessTrace {
            label: "coordinator".into(),
            offset_ns: 0,
            records: vec![
                ObsRecord {
                    t_ns: 0,
                    node: "supervisor".into(),
                    span: false,
                    name: "net_send".into(),
                    dur_ns: 0,
                    trace_id: 1,
                    parent: 0,
                    fields: vec![("msg_id".into(), Json::Num("9".into()))],
                },
                ObsRecord {
                    t_ns: 50,
                    node: "party-0".into(),
                    span: false,
                    name: "net_recv".into(),
                    dur_ns: 0,
                    trace_id: 1,
                    parent: 9,
                    fields: vec![("msg_id".into(), Json::Num("9".into()))],
                },
                ObsRecord {
                    t_ns: 100,
                    node: "party-0".into(),
                    span: true,
                    name: "local_train".into(),
                    dur_ns: 500,
                    trace_id: 1,
                    parent: 9,
                    fields: Vec::new(),
                },
            ],
        };
        let doc = chrome_trace(&merge(vec![pt]));
        let parsed = Json::parse(doc.trim()).expect("export must be valid JSON");
        let events = match parsed.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        // 2 process_name metadata + 2 instants + 1 span + 1 flow pair.
        assert_eq!(events.len(), 7);
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "s").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "f").count(), 1);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(span.get("ts").and_then(Json::as_f64), Some(0.1));
        assert_eq!(span.get("dur").and_then(Json::as_f64), Some(0.5));
    }
}
