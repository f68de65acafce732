//! Exporters: JSONL trace dumps and Prometheus-text snapshots.
//!
//! A trace dump merges the drained rings of every node into one
//! time-sorted JSONL file, appends a `meta` line naming the implicated
//! node(s) and per-node overflow counts, and writes the current metrics
//! registry next to it as Prometheus text. See
//! `results/traces/README.md` for the schema.

use crate::metrics;
use crate::ring::{FlightRecorder, TelemetryRecord};
use crate::{meta_line, render_jsonl, ObsRecord, ParsedTrace};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static LAST_DUMP: Mutex<Option<PathBuf>> = Mutex::new(None);

/// JSONL path of the most recent successful [`trace_dump`] in this
/// process, if any. Lets a caller that never held the dumping session
/// recover the dump location — e.g. a harness whose setup returned
/// `Err` after the supervisor already wrote its fault dump. Callers
/// that may run after unrelated dumps should snapshot this before the
/// operation and treat an unchanged value as "no new dump".
pub fn last_dump_path() -> Option<PathBuf> {
    LAST_DUMP.lock().ok()?.clone()
}

/// Paths written by one [`trace_dump`] call.
#[derive(Clone, Debug)]
pub struct TraceDump {
    /// The merged JSONL timeline.
    pub jsonl: PathBuf,
    /// The Prometheus-text metrics snapshot taken at dump time.
    pub prom: PathBuf,
}

/// Returns a dump file stem unique within and across (live) processes:
/// `<prefix>-<pid>-<n>`.
pub fn unique_stem(prefix: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("{prefix}-{}-{n}", std::process::id())
}

/// Writes `<dir>/<stem>.jsonl` (the merged, time-sorted timeline of
/// every node's drained ring plus a trailing `meta` line) and
/// `<dir>/<stem>.prom` (the metrics snapshot).
///
/// `nodes` holds, per node, its drained records and its ring-overflow
/// count; `implicated` names the node(s) a fault verdict blames (empty
/// for a healthy dump).
///
/// # Errors
///
/// Fails when the directory cannot be created or a file cannot be
/// written.
pub fn trace_dump(
    dir: &Path,
    stem: &str,
    nodes: &[(String, Vec<TelemetryRecord>, u64)],
    implicated: &[String],
) -> std::io::Result<TraceDump> {
    write_dump(dir, stem, &gather(nodes, implicated))
}

/// Drained rings as one trace: every node's records as the schema's
/// records, sorted by time, the node(s) `implicated`, and each ring's
/// overflow count.
fn gather(nodes: &[(String, Vec<TelemetryRecord>, u64)], implicated: &[String]) -> ParsedTrace {
    let mut records: Vec<ObsRecord> = (nodes.iter())
        .flat_map(|(node, records, _)| records.iter().map(|rec| rec.to_obs(node)))
        .collect();
    records.sort_by_key(|rec| rec.t_ns);
    let overflow = (nodes.iter())
        .map(|(node, _, dropped)| (node.clone(), *dropped))
        .collect();
    ParsedTrace {
        records,
        implicated: implicated.to_vec(),
        overflow,
        skipped: 0,
    }
}

/// Writes `trace` as `<dir>/<stem>.jsonl`, closed by its `meta` line,
/// and the metrics snapshot as `<dir>/<stem>.prom`.
fn write_dump(dir: &Path, stem: &str, trace: &ParsedTrace) -> std::io::Result<TraceDump> {
    std::fs::create_dir_all(dir)?;
    let t_ns = i64::try_from(crate::now_ns()).unwrap_or(i64::MAX);
    let out = render_jsonl(&trace.records) + &meta_line(t_ns, &trace.implicated, &trace.overflow);

    let jsonl = dir.join(format!("{stem}.jsonl"));
    std::fs::write(&jsonl, out)?;
    let prom = dir.join(format!("{stem}.prom"));
    std::fs::write(&prom, metrics::prometheus_snapshot())?;
    if let Ok(mut last) = LAST_DUMP.lock() {
        *last = Some(jsonl.clone());
    }
    Ok(TraceDump { jsonl, prom })
}

/// One session's flight recorders — its supervisor's own ring first, then
/// one per node — and the first dump written, its path and its trace.
pub struct Recorders {
    dir: PathBuf,
    capacity: usize,
    rings: Vec<Arc<FlightRecorder>>,
    first: Option<(PathBuf, ParsedTrace)>,
}

impl Recorders {
    /// Rings of `capacity` records dumped under `dir`; `own` names the
    /// supervisor's ring.
    pub fn new(own: &str, capacity: usize, dir: PathBuf) -> Recorders {
        Recorders {
            dir,
            capacity,
            rings: vec![FlightRecorder::new(own, capacity)],
            first: None,
        }
    }

    /// The supervisor's own ring.
    pub fn own(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.rings[0])
    }

    /// The ring of `node`, made on first use and drained into every
    /// dump from then on.
    pub fn ring(&mut self, node: &str) -> Arc<FlightRecorder> {
        if let Some(ring) = self.rings[1..].iter().find(|r| r.node() == node) {
            return Arc::clone(ring);
        }
        let ring = FlightRecorder::new(node, self.capacity);
        self.rings.push(Arc::clone(&ring));
        ring
    }

    /// Records a fault verdict of `kind` on the own ring; the first one
    /// also drains every ring into a dump whose `meta` line blames
    /// `implicated`, so the dump holds the timeline up to the fault. A
    /// no-op while the sink is disabled.
    pub fn fault(&mut self, kind: &'static str, implicated: &[String]) {
        if !crate::enabled() {
            return;
        }
        self.rings[0].event("fault_verdict", &[("kind", kind.into())]);
        if self.first.is_none() {
            self.dump("fault", implicated);
        }
    }

    /// Drains every ring into a dump now; returns its JSONL path, `None`
    /// while the sink is disabled or when the write fails.
    pub fn dump(&mut self, prefix: &str, implicated: &[String]) -> Option<PathBuf> {
        if !crate::enabled() {
            return None;
        }
        let nodes: Vec<(String, Vec<TelemetryRecord>, u64)> = (self.rings.iter())
            .map(|r| {
                let (records, dropped) = r.drain();
                (r.node().to_string(), records, dropped)
            })
            .collect();
        let trace = gather(&nodes, implicated);
        let jsonl = write_dump(&self.dir, &unique_stem(prefix), &trace)
            .ok()?
            .jsonl;
        self.first.get_or_insert_with(|| (jsonl.clone(), trace));
        Some(jsonl)
    }

    /// The first dump written, by a fault verdict or on demand.
    pub fn first_dump(&self) -> Option<&Path> {
        self.first.as_ref().map(|(jsonl, _)| jsonl.as_path())
    }

    /// The first dump's trace, as the records its file holds.
    pub fn first_trace(&self) -> Option<&ParsedTrace> {
        self.first.as_ref().map(|(_, trace)| trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_merges_sorts_and_appends_meta() {
        let dir = std::env::temp_dir().join(format!("deta-obs-test-{}", std::process::id()));
        let rec = |t: u64, name: &'static str| TelemetryRecord {
            t_ns: t,
            name,
            dur_ns: None,
            trace_id: 0,
            parent: 0,
            fields: Vec::new(),
        };
        let nodes = vec![
            ("agg-1".to_string(), vec![rec(20, "late")], 3u64),
            ("party-0".to_string(), vec![rec(10, "early")], 0u64),
        ];
        let stem = unique_stem("test");
        let dump =
            trace_dump(&dir, &stem, &nodes, &["agg-1".to_string()]).expect("trace dump writes");
        let text = std::fs::read_to_string(&dump.jsonl).expect("dump readable");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"early\""));
        assert!(lines[1].contains("\"late\""));
        assert!(lines[2].contains("\"implicated\":[\"agg-1\"]"));
        assert!(lines[2].contains("\"agg-1\":3"));
        assert!(dump.prom.exists());
        assert_eq!(last_dump_path().as_deref(), Some(dump.jsonl.as_path()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stems_are_unique() {
        assert_ne!(unique_stem("a"), unique_stem("a"));
    }
}
