//! Trace records and the per-node flight recorder.
//!
//! A [`FlightRecorder`] is a bounded ring buffer of recent
//! [`TelemetryRecord`]s owned by one node (party, aggregator, or the
//! supervisor itself). Node threads attach their recorder thread-locally
//! (see [`crate::attach`]); when the supervisor constructs a
//! `RuntimeError` it drains every ring and dumps the merged timeline, so
//! a fault verdict always ships with the last-N-events history of the
//! implicated node *and* its peers.

use crate::value::TelemetryValue;
use crate::{Json, ObsRecord};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One span or event, as stored in a flight-recorder ring.
#[derive(Clone, Debug)]
pub struct TelemetryRecord {
    /// Monotonic nanoseconds since the process telemetry epoch (span
    /// start time for spans).
    pub t_ns: u64,
    /// Static record name (e.g. `local_train`, `fault_injected`).
    pub name: &'static str,
    /// `Some(duration in nanoseconds)` for a span, `None` for an event:
    /// the one field that says which the record is.
    pub dur_ns: Option<u64>,
    /// Round-scoped trace id (schema v2); 0 = untraced, omitted from
    /// the rendered JSON.
    pub trace_id: u64,
    /// Id of the message whose delivery caused this record (schema v2);
    /// 0 = locally originated.
    pub parent: u64,
    /// Structured payload, restricted to [`TelemetryValue`]s.
    pub fields: Vec<(&'static str, TelemetryValue)>,
}

impl TelemetryRecord {
    /// The record as the schema's owned record, attributed to `node`:
    /// the one conversion a ring record takes on its way to a JSONL line,
    /// which [`crate::render_jsonl`] writes. An untraced record keeps no `parent`: the
    /// line omits it, so the record is exactly what its line parses back
    /// into.
    pub fn to_obs(&self, node: &str) -> ObsRecord {
        ObsRecord {
            t_ns: i64::try_from(self.t_ns).unwrap_or(i64::MAX),
            node: node.to_string(),
            span: self.dur_ns.is_some(),
            name: self.name.to_string(),
            dur_ns: self.dur_ns.unwrap_or(0),
            trace_id: self.trace_id,
            parent: if self.trace_id == 0 { 0 } else { self.parent },
            fields: (self.fields.iter())
                .map(|(k, v)| (k.to_string(), Json::from(v)))
                .collect(),
        }
    }
}

struct Ring {
    buf: VecDeque<TelemetryRecord>,
    cap: usize,
    dropped: u64,
}

/// A bounded ring buffer of recent telemetry records for one node.
pub struct FlightRecorder {
    node: String,
    ring: Mutex<Ring>,
}

impl FlightRecorder {
    /// Creates a shareable recorder for `node` holding at most
    /// `capacity` records (a capacity of 0 is clamped to 1).
    pub fn new(node: &str, capacity: usize) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            node: node.to_string(),
            ring: Mutex::new(Ring {
                buf: VecDeque::new(),
                cap: capacity.max(1),
                dropped: 0,
            }),
        })
    }

    /// The node this recorder belongs to.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Appends a record, evicting the oldest when the ring is full.
    pub fn push(&self, rec: TelemetryRecord) {
        let mut ring = lock(&self.ring);
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(rec);
    }

    /// Records an event directly on this ring (used by owners such as
    /// the supervisor, which runs on the caller's thread rather than a
    /// node thread). No-op while the global sink is disabled.
    pub fn event(&self, name: &'static str, fields: &[(&'static str, TelemetryValue)]) {
        if !crate::enabled() {
            return;
        }
        crate::note_emit();
        let ctx = crate::trace::current();
        self.push(TelemetryRecord {
            t_ns: crate::now_ns(),
            name,
            dur_ns: None,
            trace_id: ctx.trace_id,
            parent: ctx.parent,
            fields: fields.to_vec(),
        });
    }

    /// Takes every buffered record (oldest first) plus the count of
    /// records evicted by ring overflow since the last drain.
    pub fn drain(&self) -> (Vec<TelemetryRecord>, u64) {
        let mut ring = lock(&self.ring);
        let records = ring.buf.drain(..).collect();
        let dropped = ring.dropped;
        ring.dropped = 0;
        (records, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, name: &'static str) -> TelemetryRecord {
        TelemetryRecord {
            t_ns: t,
            name,
            dur_ns: None,
            trace_id: 0,
            parent: 0,
            fields: Vec::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let fr = FlightRecorder::new("party-0", 2);
        fr.push(rec(1, "a"));
        fr.push(rec(2, "b"));
        fr.push(rec(3, "c"));
        let (records, dropped) = fr.drain();
        assert_eq!(dropped, 1);
        assert_eq!(
            records.iter().map(|r| r.name).collect::<Vec<_>>(),
            vec!["b", "c"]
        );
        assert!(lock(&fr.ring).buf.is_empty());
        let (_, dropped_again) = fr.drain();
        assert_eq!(dropped_again, 0);
    }

    #[test]
    fn records_render_the_jsonl_schema() {
        let mut r = rec(7, "upload");
        r.fields.push(("round", TelemetryValue::U64(3)));
        assert_eq!(
            r.to_obs("party-1").to_json(),
            "{\"t_ns\":7,\"node\":\"party-1\",\"kind\":\"event\",\
             \"name\":\"upload\",\"fields\":{\"round\":3}}"
        );
        let span = TelemetryRecord {
            t_ns: 5,
            name: "aggregate",
            dur_ns: Some(11),
            trace_id: 0,
            parent: 0,
            fields: Vec::new(),
        };
        assert_eq!(
            span.to_obs("agg-0").to_json(),
            "{\"t_ns\":5,\"node\":\"agg-0\",\"kind\":\"span\",\"name\":\"aggregate\",\"dur_ns\":11}"
        );
    }

    #[test]
    fn traced_records_render_the_v2_fields() {
        let mut r = rec(9, "net_send");
        r.trace_id = 4;
        r.parent = 1099511627777;
        assert_eq!(
            r.to_obs("agg-0").to_json(),
            "{\"t_ns\":9,\"node\":\"agg-0\",\"kind\":\"event\",\"name\":\"net_send\",\
             \"trace_id\":4,\"parent\":1099511627777}"
        );
        // A root record (no causal parent) omits the parent field.
        let mut root = rec(2, "round_begin");
        root.trace_id = 4;
        assert_eq!(
            root.to_obs("supervisor").to_json(),
            "{\"t_ns\":2,\"node\":\"supervisor\",\"kind\":\"event\",\
             \"name\":\"round_begin\",\"trace_id\":4}"
        );
    }
}
