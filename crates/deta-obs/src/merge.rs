//! Merging per-process flight-recorder rings onto one timeline.
//!
//! Each process timestamps records with its *own* monotonic clock
//! (nanoseconds since that process's telemetry epoch), so raw rings are
//! mutually incomparable. The socket hub measures a first-order offset
//! per child during the handshake (probe/echo midpoint — see
//! `deta-socket`), which this module applies and then *corrects* using
//! the causality the trace itself carries: a message cannot be received
//! before it was sent, so every `net_send` → `net_recv` pair with a
//! shared `msg_id` is a hard one-sided constraint on the two processes'
//! relative clocks.
//!
//! The correction is a longest-path relaxation over the difference
//! constraints `shift(recv_proc) − shift(send_proc) ≥ t_send − t_recv`.
//! The constraint system is always feasible (the real execution
//! satisfied every edge in true time, and within one process both sides
//! share a clock), so Bellman–Ford-style passes converge in at most
//! `processes` rounds.

use crate::record::{meta_line, render_jsonl, ObsRecord};
use std::collections::HashMap;

/// One process's drained ring, plus its handshake clock offset.
#[derive(Clone, Debug)]
pub struct ProcessTrace {
    /// Display label (the hosted node's name, or `coordinator`).
    pub label: String,
    /// First-order clock offset in ns: this process's clock minus the
    /// coordinator's, as estimated by the handshake probe/echo. 0 for
    /// the coordinator itself.
    pub offset_ns: i64,
    /// The ring's records, in emit order, raw per-process timestamps.
    pub records: Vec<ObsRecord>,
}

/// One causal send→recv edge in the merged trace.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// The message id both endpoints logged.
    pub msg_id: u64,
    /// Index of the `net_send` event in [`MergedTrace::records`].
    pub send: usize,
    /// Index of the `net_recv` event in [`MergedTrace::records`].
    pub recv: usize,
}

/// The merged, clock-aligned, causally-consistent trace.
#[derive(Clone, Debug, Default)]
pub struct MergedTrace {
    /// All records on the common timeline, sorted by `t_ns` (which has
    /// been normalized so the earliest record sits at 0).
    pub records: Vec<ObsRecord>,
    /// Every matched send→recv pair, by record index.
    pub edges: Vec<Edge>,
    /// Residual causal correction applied per process, in ns, on top of
    /// the handshake offset (diagnostic: how far the probe/echo estimate
    /// was off).
    pub shifts: Vec<(String, i64)>,
}

/// Merges per-process rings: applies handshake offsets, matches causal
/// edges by `msg_id`, corrects residual clock skew so every edge
/// satisfies `send ≤ recv`, and normalizes the timeline to start at 0.
pub fn merge(procs: Vec<ProcessTrace>) -> MergedTrace {
    // Flatten, remembering each record's process and applying the
    // first-order offset (coordinator time = child time − offset).
    let mut records: Vec<ObsRecord> = Vec::new();
    let mut proc_of: Vec<usize> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for (p, pt) in procs.into_iter().enumerate() {
        labels.push(pt.label);
        for mut rec in pt.records {
            rec.t_ns = rec.t_ns.saturating_sub(pt.offset_ns);
            records.push(rec);
            proc_of.push(p);
        }
    }

    // Causal edges: match net_send/net_recv on msg_id. Sends are unique
    // by construction (per-process counter); a recv without its send
    // (ring overflow, filtered trace) simply yields no edge.
    let mut send_at: HashMap<u64, usize> = HashMap::new();
    for (i, rec) in records.iter().enumerate() {
        if rec.name == "net_send" {
            if let Some(id) = rec.field_u64("msg_id") {
                send_at.insert(id, i);
            }
        }
    }
    let mut edges: Vec<Edge> = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        if rec.name == "net_recv" {
            if let Some(id) = rec.field_u64("msg_id") {
                if let Some(&s) = send_at.get(&id) {
                    edges.push(Edge {
                        msg_id: id,
                        send: s,
                        recv: i,
                    });
                }
            }
        }
    }

    // Longest-path relaxation of the cross-process difference
    // constraints. Feasibility bounds the pass count at the process
    // count; the extra pass detects a (theoretically impossible)
    // non-converging system and stops rather than spinning.
    let nprocs = labels.len();
    let mut shift = vec![0i64; nprocs];
    for _pass in 0..=nprocs {
        let mut changed = false;
        for e in &edges {
            let (ps, pr) = (proc_of[e.send], proc_of[e.recv]);
            if ps == pr {
                continue;
            }
            let t_send = records[e.send].t_ns.saturating_add(shift[ps]);
            let t_recv = records[e.recv].t_ns.saturating_add(shift[pr]);
            if t_send > t_recv {
                shift[pr] = shift[pr].saturating_add(t_send.saturating_sub(t_recv));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (i, rec) in records.iter_mut().enumerate() {
        rec.t_ns = rec.t_ns.saturating_add(shift[proc_of[i]]);
    }

    // Normalize so the merged timeline starts at zero, then sort.
    // Sorting must keep edge indices valid, so sort a permutation.
    let t0 = records.iter().map(|r| r.t_ns).min().unwrap_or(0);
    for rec in &mut records {
        rec.t_ns = rec.t_ns.saturating_sub(t0);
    }
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| (records[i].t_ns, proc_of[i], i));
    let mut rank = vec![0usize; records.len()];
    for (new_idx, &old_idx) in order.iter().enumerate() {
        rank[old_idx] = new_idx;
    }
    let mut sorted: Vec<Option<ObsRecord>> = records.into_iter().map(Some).collect();
    let records: Vec<ObsRecord> = order
        .iter()
        .map(|&i| {
            sorted[i]
                .take()
                .expect("permutation visits each index once")
        })
        .collect();
    for e in &mut edges {
        e.send = rank[e.send];
        e.recv = rank[e.recv];
    }
    edges.sort_by_key(|e| e.recv);

    MergedTrace {
        records,
        edges,
        shifts: labels.into_iter().zip(shift).collect(),
    }
}

impl MergedTrace {
    /// True when every matched causal edge satisfies `send ≤ recv` on
    /// the merged timeline — the invariant [`merge`] exists to restore.
    pub fn causally_consistent(&self) -> bool {
        self.edges
            .iter()
            .all(|e| self.records[e.send].t_ns <= self.records[e.recv].t_ns)
    }

    /// Renders the merged trace as schema-v2 JSONL, ending with a
    /// `meta` line naming `implicated` nodes and per-node ring
    /// overflow counts.
    pub fn to_jsonl(&self, implicated: &[String], overflow: &[(String, u64)]) -> String {
        let last = self.records.last().map_or(0, ObsRecord::end_ns);
        render_jsonl(&self.records) + &meta_line(last, implicated, overflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: i64, node: &str, name: &str, msg_id: u64) -> ObsRecord {
        ObsRecord {
            t_ns: t,
            node: node.to_string(),
            span: false,
            name: name.to_string(),
            dur_ns: 0,
            trace_id: 1,
            parent: 0,
            fields: vec![(
                "msg_id".to_string(),
                crate::json::Json::Num(msg_id.to_string()),
            )],
        }
    }

    #[test]
    fn handshake_offsets_are_applied() {
        let coord = ProcessTrace {
            label: "coordinator".into(),
            offset_ns: 0,
            records: vec![ev(1_000, "supervisor", "net_send", 7)],
        };
        let child = ProcessTrace {
            label: "party-0".into(),
            offset_ns: 500_000, // child clock runs 500µs ahead
            records: vec![ev(502_000, "party-0", "net_recv", 7)],
        };
        let merged = merge(vec![coord, child]);
        assert!(merged.causally_consistent());
        let recv = merged
            .records
            .iter()
            .find(|r| r.name == "net_recv")
            .unwrap();
        assert_eq!(recv.t_ns, 1_000); // 502_000 − 500_000 − t0(1_000) + 1_000
    }

    #[test]
    fn causal_edges_override_a_bad_offset_estimate() {
        // The handshake says the clocks agree, but the child's recv
        // lands "before" the coordinator's send: the edge must push the
        // child later.
        let coord = ProcessTrace {
            label: "coordinator".into(),
            offset_ns: 0,
            records: vec![ev(10_000, "supervisor", "net_send", 1)],
        };
        let child = ProcessTrace {
            label: "agg-0".into(),
            offset_ns: 0,
            records: vec![
                ev(2_000, "agg-0", "net_recv", 1),
                ev(3_000, "agg-0", "net_send", 2),
            ],
        };
        let merged = merge(vec![coord, child]);
        assert!(merged.causally_consistent());
        // The whole child process shifted by one amount (8µs).
        assert_eq!(merged.shifts[1], ("agg-0".to_string(), 8_000));
        let recv = merged
            .records
            .iter()
            .find(|r| r.name == "net_recv")
            .unwrap();
        let send2 = merged
            .records
            .iter()
            .find(|r| r.name == "net_send" && r.node == "agg-0")
            .unwrap();
        assert_eq!(
            send2.t_ns - recv.t_ns,
            1_000,
            "intra-process gaps are preserved"
        );
    }

    #[test]
    fn relay_chains_propagate_shifts_transitively() {
        // A → B → C where both estimates are wrong: correcting B must
        // then re-correct C through the second edge.
        let a = ProcessTrace {
            label: "a".into(),
            offset_ns: 0,
            records: vec![ev(100, "a", "net_send", 1)],
        };
        let b = ProcessTrace {
            label: "b".into(),
            offset_ns: 0,
            records: vec![ev(10, "b", "net_recv", 1), ev(20, "b", "net_send", 2)],
        };
        let c = ProcessTrace {
            label: "c".into(),
            offset_ns: 0,
            records: vec![ev(50, "c", "net_recv", 2)],
        };
        let merged = merge(vec![a, b, c]);
        assert!(merged.causally_consistent());
        // b shifted +90 (recv 1 at 100); its send 2 lands at 110, so c
        // must shift +60 to put recv 2 at 110.
        assert_eq!(merged.shifts[1].1, 90);
        assert_eq!(merged.shifts[2].1, 60);
    }

    #[test]
    fn timeline_is_normalized_and_meta_line_rendered() {
        let solo = ProcessTrace {
            label: "coordinator".into(),
            offset_ns: 0,
            records: vec![ev(5_000, "supervisor", "round_begin", 3)],
        };
        let merged = merge(vec![solo]);
        assert_eq!(merged.records[0].t_ns, 0);
        let jsonl = merged.to_jsonl(&["agg-1".to_string()], &[("party-0".to_string(), 2)]);
        assert!(jsonl.ends_with(
            "{\"t_ns\":0,\"kind\":\"meta\",\"implicated\":[\"agg-1\"],\
             \"ring_overflow\":{\"party-0\":2}}\n"
        ));
        // The merged file must parse back with the same record count.
        let back = crate::record::parse_jsonl(&jsonl);
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.implicated, vec!["agg-1".to_string()]);
    }
}
