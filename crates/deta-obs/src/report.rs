//! Round critical paths and phase breakdowns over a merged trace.
//!
//! The question ROADMAP item #1 poses — why does the threaded
//! deployment sustain fewer rounds/s than the sequential one — is a
//! *blocking* question: which node, and which wait, is the round's
//! completion actually gated on. The critical-path walk answers it by
//! following the chain of causality backwards from the round's last
//! record: each hop lands on the `net_recv` that unblocked the current
//! node, attributes the node-local interval to the spans that filled it
//! (the remainder is queue/barrier idle), then jumps the send→recv edge
//! (that gap is transport + mailbox queueing) and continues on the
//! sending node. Every nanosecond of round wall time ends up in exactly
//! one named bucket.

use crate::merge::MergedTrace;
use crate::record::ObsRecord;
use std::collections::HashMap;

/// Critical-path bucket for time spent inside a message hop: socket /
/// channel copy plus receiver mailbox queueing.
pub const TRANSPORT: &str = "transport+queue";
/// Critical-path bucket for node-local time not covered by any span:
/// actor tick sleep, barrier idle, dispatch.
pub const IDLE: &str = "idle (queue wait/barrier)";

/// The DeTA round phase a span name belongs to, if any.
pub fn phase_of(span_name: &str) -> Option<&'static str> {
    match span_name {
        "local_train" => Some("local train"),
        "transform" | "seal" => Some("seal+upload"),
        "aggregate" => Some("fragment sync+fuse"),
        "unshuffle" => Some("download+unshuffle"),
        _ => None,
    }
}

/// Wall-time attribution for one round.
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// The round (trace ids are `round + 1`).
    pub round: u64,
    /// First record timestamp of the round, on the merged timeline.
    pub start_ns: i64,
    /// Wall time from the round's first record to its last span end.
    pub wall_ns: u64,
    /// Critical-path attribution: bucket label → ns, descending. The
    /// labels are span names plus [`TRANSPORT`] and [`IDLE`]; the values
    /// sum to `wall_ns`.
    pub critical: Vec<(String, u64)>,
    /// Total span time per phase across *all* nodes (parallel work
    /// counts multiply — this is CPU-ish volume, not wall time).
    pub phases: Vec<(&'static str, u64)>,
    /// Hops the backward walk took (send→recv edges crossed).
    pub hops: u64,
}

impl RoundReport {
    /// Fraction of `wall_ns` attributed to anything other than the
    /// generic [`IDLE`] bucket.
    pub fn attributed_fraction(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        let idle = (self.critical.iter())
            .filter(|(k, _)| k == IDLE)
            .fold(0u64, |sum, (_, v)| sum.saturating_add(*v));
        1.0 - idle as f64 / self.wall_ns as f64
    }
}

/// Computes one [`RoundReport`] per trace id present in the merged
/// trace, ascending by round.
pub fn round_reports(m: &MergedTrace) -> Vec<RoundReport> {
    let mut ids: Vec<u64> = m
        .records
        .iter()
        .map(|r| r.trace_id)
        .filter(|&t| t != 0)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.iter().map(|&t| round_report(m, t)).collect()
}

/// Attribution for one round (`trace_id`).
fn round_report(m: &MergedTrace, trace_id: u64) -> RoundReport {
    let recs: Vec<&ObsRecord> = m
        .records
        .iter()
        .filter(|r| r.trace_id == trace_id)
        .collect();
    let start = recs.iter().map(|r| r.t_ns).min().unwrap_or(0);
    let (end, end_node) = recs
        .iter()
        .map(|r| (r.end_ns(), r.node.as_str()))
        .max_by_key(|&(t, _)| t)
        .unwrap_or((0, ""));

    // Per-node indexes for the walk.
    let mut recvs_by_node: HashMap<&str, Vec<&ObsRecord>> = HashMap::new();
    let mut spans_by_node: HashMap<&str, Vec<&ObsRecord>> = HashMap::new();
    let mut send_by_id: HashMap<u64, &ObsRecord> = HashMap::new();
    for r in &recs {
        match r.name.as_str() {
            "net_recv" => recvs_by_node.entry(&r.node).or_default().push(r),
            "net_send" => {
                if let Some(id) = r.field_u64("msg_id") {
                    send_by_id.insert(id, r);
                }
            }
            _ => {}
        }
        if r.span {
            spans_by_node.entry(&r.node).or_default().push(r);
        }
    }

    let mut buckets: HashMap<String, u64> = HashMap::new();
    let add = |buckets: &mut HashMap<String, u64>, label: &str, ns: i64| {
        if ns > 0 {
            let bucket = buckets.entry(label.to_string()).or_insert(0);
            *bucket = bucket.saturating_add(ns as u64);
        }
    };

    let mut node = end_node;
    let mut cursor = end;
    let mut hops = 0u64;
    // Each hop moves the cursor to a strictly earlier receive (ties are
    // allowed once); the edge count bounds the loop regardless.
    let max_hops = m.edges.len() as u64 + 2;
    while cursor > start && hops < max_hops {
        // The latest receive on this node at or before the cursor is
        // what last unblocked it.
        let unblocking = recvs_by_node
            .get(node)
            .into_iter()
            .flatten()
            .filter(|r| r.t_ns <= cursor)
            .max_by_key(|r| r.t_ns);
        let seg_lo = unblocking.map_or(start, |r| r.t_ns).max(start);
        attribute_interval(
            spans_by_node.get(node).map_or(&[][..], Vec::as_slice),
            seg_lo,
            cursor,
            &mut |label, ns| add(&mut buckets, label, ns),
        );
        let Some(recv) = unblocking else { break };
        let Some(send) = recv.field_u64("msg_id").and_then(|id| send_by_id.get(&id)) else {
            // Sender outside the round (e.g. control traffic from an
            // untraced context): charge the remaining head to idle.
            add(&mut buckets, IDLE, seg_lo.saturating_sub(start));
            break;
        };
        add(&mut buckets, TRANSPORT, recv.t_ns.saturating_sub(send.t_ns));
        if send.t_ns >= cursor && send.node == node {
            break; // no progress possible; avoid a zero-width spin
        }
        node = &send.node;
        cursor = send.t_ns;
        hops += 1;
    }

    // Phase volume: every span, all nodes, clipped to nothing (spans
    // already sit inside the round via their trace id).
    let phases = phase_totals(recs.iter().copied());

    let mut critical: Vec<(String, u64)> = buckets.into_iter().collect();
    critical.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    RoundReport {
        round: trace_id.saturating_sub(1),
        start_ns: start,
        wall_ns: end.saturating_sub(start).max(0) as u64,
        critical,
        phases,
        hops,
    }
}

/// Attributes the node-local interval `(lo, hi]` to the spans covering
/// it — innermost span wins where spans nest — and the uncovered
/// remainder to [`IDLE`].
fn attribute_interval(spans: &[&ObsRecord], lo: i64, hi: i64, add: &mut dyn FnMut(&str, i64)) {
    if hi <= lo {
        return;
    }
    // Elementary segments between all clipped span boundaries.
    let mut cuts: Vec<i64> = vec![lo, hi];
    for s in spans {
        for t in [s.t_ns, s.end_ns()] {
            if t > lo && t < hi {
                cuts.push(t);
            }
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        let mid = a + b.saturating_sub(a) / 2;
        // Innermost covering span = the one that started latest.
        let covering = spans
            .iter()
            .filter(|s| s.t_ns <= mid && mid < s.end_ns())
            .max_by_key(|s| (s.t_ns, std::cmp::Reverse(s.dur_ns)));
        match covering {
            Some(s) => add(&s.name, b.saturating_sub(a)),
            None => add(IDLE, b.saturating_sub(a)),
        }
    }
}

/// Span-volume totals per phase over an entire trace (all rounds) —
/// used to put sequential and threaded deployments side by side.
pub fn phase_totals<'a>(
    records: impl IntoIterator<Item = &'a ObsRecord>,
) -> Vec<(&'static str, u64)> {
    let mut phases: HashMap<&'static str, u64> = HashMap::new();
    for r in records {
        if r.span {
            if let Some(p) = phase_of(&r.name) {
                let total = phases.entry(p).or_insert(0);
                *total = total.saturating_add(r.dur_ns);
            }
        }
    }
    let mut phases: Vec<(&'static str, u64)> = phases.into_iter().collect();
    phases.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    phases
}

/// Formats nanoseconds as a human-readable duration.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::merge::{merge, ProcessTrace};

    fn rec(
        t: i64,
        node: &str,
        name: &str,
        dur: u64,
        trace: u64,
        fields: &[(&str, u64)],
    ) -> ObsRecord {
        ObsRecord {
            t_ns: t,
            node: node.to_string(),
            span: dur > 0,
            name: name.to_string(),
            dur_ns: dur,
            trace_id: trace,
            parent: 0,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Num(v.to_string())))
                .collect(),
        }
    }

    /// One round: supervisor triggers party (msg 1), party trains
    /// 600ns then replies (msg 2), supervisor gets it 100ns later.
    fn two_node_round() -> MergedTrace {
        let coord = ProcessTrace {
            label: "coordinator".into(),
            offset_ns: 0,
            records: vec![
                rec(0, "supervisor", "round_begin", 0, 1, &[]),
                rec(10, "supervisor", "net_send", 0, 1, &[("msg_id", 1)]),
                rec(1000, "supervisor", "net_recv", 0, 1, &[("msg_id", 2)]),
            ],
        };
        let child = ProcessTrace {
            label: "party-0".into(),
            offset_ns: 0,
            records: vec![
                rec(60, "party-0", "net_recv", 0, 1, &[("msg_id", 1)]),
                rec(100, "party-0", "local_train", 600, 1, &[]),
                rec(900, "party-0", "net_send", 0, 1, &[("msg_id", 2)]),
            ],
        };
        merge(vec![coord, child])
    }

    #[test]
    fn critical_path_attributes_the_whole_round() {
        let m = two_node_round();
        let reports = round_reports(&m);
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.round, 0);
        assert_eq!(r.wall_ns, 1000);
        let total: u64 = r.critical.iter().map(|(_, v)| v).sum();
        assert_eq!(total, r.wall_ns, "every ns lands in exactly one bucket");
        let by: std::collections::HashMap<&str, u64> =
            r.critical.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        // Transport: 50ns (msg 1: 10→60) + 100ns (msg 2: 900→1000).
        assert_eq!(by.get(TRANSPORT), Some(&150));
        assert_eq!(by.get("local_train"), Some(&600));
        // Idle: 40ns before party's recv-to-train + 200ns train-to-send
        // + 10ns supervisor head.
        assert_eq!(by.get(IDLE), Some(&250));
        assert!(r.attributed_fraction() > 0.7);
        assert_eq!(r.hops, 2);
        assert_eq!(r.phases, vec![("local train", 600)]);
    }

    #[test]
    fn nested_spans_attribute_to_the_innermost() {
        // An outer span [0,100) with an inner [40,60): inner wins its
        // window.
        let spans = [
            rec(0, "n", "aggregate", 100, 1, &[]),
            rec(40, "n", "seal", 20, 1, &[]),
        ];
        let refs: Vec<&ObsRecord> = spans.iter().collect();
        let mut got: Vec<(String, i64)> = Vec::new();
        attribute_interval(&refs, 0, 100, &mut |label, ns| {
            got.push((label.to_string(), ns));
        });
        let mut by: std::collections::HashMap<String, i64> = std::collections::HashMap::new();
        for (k, v) in got {
            *by.entry(k).or_insert(0) += v;
        }
        assert_eq!(by.get("aggregate"), Some(&80));
        assert_eq!(by.get("seal"), Some(&20));
        assert_eq!(by.get(IDLE), None);
    }

    #[test]
    fn phase_totals_sum_across_nodes() {
        let records = vec![
            rec(0, "party-0", "local_train", 500, 1, &[]),
            rec(0, "party-1", "local_train", 700, 1, &[]),
            rec(600, "party-0", "seal", 100, 1, &[]),
            rec(800, "agg-0", "aggregate", 300, 2, &[]),
        ];
        let totals = phase_totals(&records);
        assert_eq!(
            totals,
            vec![
                ("local train", 1200),
                ("fragment sync+fuse", 300),
                ("seal+upload", 100),
            ]
        );
    }

    /// Lines a child could ship: two spans of the largest duration, and a
    /// message sent and received at the two ends of the timestamp range,
    /// in two processes whose clocks the merge must reconcile.
    #[test]
    fn extreme_lines_merge_report_and_export_without_a_panic() {
        let text = "\
{\"t_ns\":1,\"node\":\"party-0\",\"kind\":\"span\",\"name\":\"local_train\",\"dur_ns\":18446744073709551615,\"trace_id\":1}\n\
{\"t_ns\":2,\"node\":\"party-0\",\"kind\":\"span\",\"name\":\"local_train\",\"dur_ns\":18446744073709551615,\"trace_id\":1}\n\
{\"t_ns\":9223372036854775807,\"node\":\"party-0\",\"kind\":\"event\",\"name\":\"net_send\",\"trace_id\":1,\"fields\":{\"msg_id\":5}}\n\
{\"t_ns\":-9223372036854775808,\"node\":\"agg-0\",\"kind\":\"event\",\"name\":\"net_recv\",\"trace_id\":1,\"fields\":{\"msg_id\":5}}\n\
{\"t_ns\":-9223372036854775808,\"node\":\"agg-0\",\"kind\":\"event\",\"name\":\"net_send\",\"trace_id\":1,\"fields\":{\"msg_id\":6}}\n";
        let parsed = crate::record::parse_jsonl(text);
        assert_eq!((parsed.records.len(), parsed.skipped), (5, 0));
        let forwards = |recs: &[ObsRecord]| (recs.iter()).all(|r| r.end_ns() >= r.t_ns);
        assert!(forwards(&parsed.records));
        assert_eq!(phase_totals(&parsed.records), [("local train", u64::MAX)]);
        let (party, agg) = parsed.records.split_at(3);
        let merged = merge(vec![
            ProcessTrace {
                label: "coordinator".into(),
                offset_ns: i64::MIN,
                records: party.to_vec(),
            },
            ProcessTrace {
                label: "agg-0".into(),
                offset_ns: i64::MAX,
                records: agg.to_vec(),
            },
        ]);
        assert_eq!(merged.records.len(), 5);
        assert!(forwards(&merged.records));
        let reports = round_reports(&merged);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].phases, [("local train", u64::MAX)]);
        assert!(reports[0].attributed_fraction().is_finite());
        assert!(crate::chrome_trace(&merged).contains("\"local_train\""));
        let _ = merged.to_jsonl(&[], &[]);
    }

    #[test]
    fn formatting_is_stable() {
        assert_eq!(fmt_ns(17), "17ns");
        assert_eq!(fmt_ns(1_700), "1.7µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }
}
