//! deta-telemetry: zero-dependency tracing, metrics, and per-node
//! flight recorders for the DeTA deployment.
//!
//! Design constraints (see DESIGN.md §9):
//!
//! * **Cheap enough to leave compiled in.** One process-global sink
//!   switch ([`enable`]/[`enabled`]). While disabled, every emit path —
//!   [`event`], [`span`], [`metrics::counter_add`],
//!   [`metrics::histogram_observe`] — is a branch plus one relaxed
//!   atomic load, with no allocation. The switch is sticky-on for the
//!   life of the process, which keeps enablement race-free across
//!   threads.
//! * **Secret-free by construction.** Payloads are built from the
//!   closed [`TelemetryValue`] set (bool/int/float/short string);
//!   sealed records, keys, and signatures have no conversion into it,
//!   and a key (`deta_crypto::Secret`) gives up its bytes only through
//!   `expose`, which the workspace's `clippy.toml` disallows outside a
//!   few files that compute with a key.
//! * **Per-node attribution without plumbing.** Each node thread
//!   attaches its [`FlightRecorder`] thread-locally ([`attach`]);
//!   instrumentation deep inside `deta-core`/`deta-transport` lands in
//!   the right ring with no extra parameters. A session keeps its
//!   rings in [`Recorders`] and drains them into a JSONL dump
//!   ([`trace_dump`]) when the session fails.
//!
//! Timestamps are monotonic nanoseconds since a process-wide epoch
//! ([`now_ns`]) — wall-clock-free, so traces from deterministic runs
//! stay comparable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod metrics;
pub mod record;
pub mod trace;
pub mod value;

pub use export::{last_dump_path, trace_dump, unique_stem, Recorders, TraceDump};
pub use record::{FlightRecorder, RecordKind, TelemetryRecord};
pub use trace::TraceCtx;
pub use value::TelemetryValue;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EMITS: AtomicU64 = AtomicU64::new(0);

/// Turns the global telemetry sink on. Sticky: there is deliberately no
/// way to turn it back off, so concurrently running sessions never
/// observe a half-enabled process (tests that need a disabled sink run
/// in their own test binary).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether the global sink is on. This is the entire disabled-path
/// cost: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Total records/observations emitted while enabled. The overhead
/// benchmark uses this to bound the disabled-sink cost from a measured
/// per-call price.
pub fn emits() -> u64 {
    EMITS.load(Ordering::Relaxed)
}

pub(crate) fn note_emit() {
    EMITS.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process telemetry epoch.
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<FlightRecorder>>> = const { RefCell::new(None) };
}

/// Attaches `rec` as this thread's flight recorder; subsequent
/// [`event`]s and [`span`]s on this thread land in its ring. Returns a
/// guard restoring the previous recorder (usually none) on drop —
/// actor loops hold it for their whole lifetime so a thread never
/// outlives its attribution.
pub fn attach(rec: Arc<FlightRecorder>) -> AttachGuard {
    let prev = CURRENT.with(|c| c.replace(Some(rec)));
    AttachGuard { prev }
}

/// Restores the previously attached recorder when dropped.
pub struct AttachGuard {
    prev: Option<Arc<FlightRecorder>>,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

fn with_current<F: FnOnce(&FlightRecorder)>(f: F) {
    CURRENT.with(|c| {
        if let Some(rec) = c.borrow().as_ref() {
            f(rec);
        }
    });
}

/// Records a point-in-time event on the current thread's flight
/// recorder. No-op (branch + atomic load, no allocation) while the sink
/// is disabled — call sites whose *arguments* allocate (string fields)
/// should themselves branch on [`enabled`].
pub fn event(name: &'static str, fields: &[(&'static str, TelemetryValue)]) {
    if !enabled() {
        return;
    }
    note_emit();
    let ctx = trace::current();
    with_current(|rec| {
        rec.push(TelemetryRecord {
            t_ns: now_ns(),
            kind: RecordKind::Event,
            name,
            dur_ns: None,
            trace_id: ctx.trace_id,
            parent: ctx.parent,
            fields: fields.to_vec(),
        });
    });
}

/// Starts a timed span; the record (with duration) is emitted to the
/// current thread's flight recorder when the returned [`Span`] drops.
/// While the sink is disabled the span is dead weight: no clock read,
/// no allocation, nothing emitted.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span {
            name,
            start_ns: 0,
            live: false,
            fields: Vec::new(),
        };
    }
    Span {
        name,
        start_ns: now_ns(),
        live: true,
        fields: Vec::new(),
    }
}

/// An in-flight timed operation (see [`span`]).
pub struct Span {
    name: &'static str,
    start_ns: u64,
    live: bool,
    fields: Vec<(&'static str, TelemetryValue)>,
}

impl Span {
    /// Attaches a field to the span record (no-op while disabled).
    #[must_use]
    pub fn with_field(mut self, name: &'static str, value: TelemetryValue) -> Span {
        if self.live {
            self.fields.push((name, value));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        note_emit();
        let dur = now_ns().saturating_sub(self.start_ns);
        let fields = std::mem::take(&mut self.fields);
        let (name, start_ns) = (self.name, self.start_ns);
        let ctx = trace::current();
        with_current(|rec| {
            rec.push(TelemetryRecord {
                t_ns: start_ns,
                kind: RecordKind::Span,
                name,
                dur_ns: Some(dur),
                trace_id: ctx.trace_id,
                parent: ctx.parent,
                fields,
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_and_spans_land_in_the_attached_ring() {
        enable();
        let fr = FlightRecorder::new("party-0", 16);
        {
            let _guard = attach(fr.clone());
            event("upload", &[("round", TelemetryValue::U64(1))]);
            {
                let _span = span("local_train").with_field("round", TelemetryValue::U64(1));
            }
        }
        // Detached: nothing further lands in this ring.
        event("after_detach", &[]);
        let (records, dropped) = fr.drain();
        assert_eq!(dropped, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "upload");
        assert_eq!(records[0].kind, RecordKind::Event);
        assert_eq!(records[1].name, "local_train");
        assert_eq!(records[1].kind, RecordKind::Span);
        assert!(records[1].dur_ns.is_some());
        assert!(records[1].t_ns >= records[0].t_ns);
    }

    #[test]
    fn attach_nests_and_restores() {
        enable();
        let outer = FlightRecorder::new("outer", 4);
        let inner = FlightRecorder::new("inner", 4);
        let _g1 = attach(outer.clone());
        {
            let _g2 = attach(inner.clone());
            event("in", &[]);
        }
        event("out", &[]);
        assert_eq!(inner.drain().0.len(), 1);
        let (records, _) = outer.drain();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "out");
    }

    #[test]
    fn emits_counter_advances_when_enabled() {
        enable();
        let fr = FlightRecorder::new("n", 4);
        let _g = attach(fr);
        let before = emits();
        event("tick", &[]);
        assert!(emits() > before);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
