//! The benchmark's own tracing: spans recorded around calls into each
//! layer (name, start, end, the span that caused it), kept in memory and
//! written as JSONL when the run ends, and a counting allocator that the
//! traced binary installs to report bytes allocated per round.
//!
//! Nothing here touches the program under test: spans live in `bench/`
//! only, and the end-to-end binary installs no allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters: calls that obtained memory
/// and bytes they asked for. `roundbench-traced` installs it with
/// `#[global_allocator]`; where it is not installed the counters stay 0.
pub struct CountingAlloc;

fn count(bytes: usize) {
    // Statistics only: they publish no other data.
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are atomics
// updated without allocating, so no method re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing buffer may be copied whole: bill the new size.
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's, under the caller's `realloc` obligations.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(calls, bytes)` allocated by this process so far (all threads).
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Index of a span in its [`Tracer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<SpanId>,
    /// The training round the span belongs to: the shared identifier of
    /// every span of one round.
    pub round: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder for the single driver thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// `capacity` spans are reserved up front so recording a span never
    /// allocates inside a measured round.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, round: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            round,
            start_ns: now,
            end_ns: now,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Records a span around `f`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        round: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(parent), round);
        let out = f();
        self.close(id);
        out
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id.0]
    }

    /// Seconds of `parent`'s direct children whose name passes `keep`.
    pub fn children_seconds(&self, parent: SpanId, keep: impl Fn(&str) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent) && keep(s.name))
            .map(Span::seconds)
            .sum()
    }

    /// Self time: the span's duration minus what its children cover.
    pub fn self_seconds(&self, id: SpanId) -> f64 {
        self.span(id).seconds() - self.children_seconds(id, |_| true)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"round\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.round, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::with_capacity(8);
        let root = t.open("round", None, 1);
        let a = t.open("a", Some(root), 1);
        let b = t.open("b", Some(root), 1);
        let grandchild = t.open("c", Some(a), 1);
        for (id, start, end) in [
            (root, 0, 100),
            (a, 10, 40),
            (b, 50, 70),
            (grandchild, 15, 20),
        ] {
            t.spans[id.0].start_ns = start;
            t.spans[id.0].end_ns = end;
        }
        assert!((t.self_seconds(root) - 50e-9).abs() < 1e-15);
        assert!((t.self_seconds(a) - 25e-9).abs() < 1e-15);
        assert!((t.children_seconds(root, |n| n == "b") - 20e-9).abs() < 1e-15);
    }

    #[test]
    fn jsonl_has_one_parsable_object_per_span() {
        let mut t = Tracer::with_capacity(4);
        let root = t.open("round", None, 3);
        t.time("agg.pump", root, 3, || ());
        t.close(root);
        let path = crate::cli::out_dir().join("tracer-self-test.jsonl");
        t.write_jsonl(&path).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).expect("clean up");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = deta_obs::Json::parse(lines[0]).expect("line 1 is JSON");
        assert_eq!(first.get("parent"), Some(&deta_obs::Json::Null));
        let second = deta_obs::Json::parse(lines[1]).expect("line 2 is JSON");
        assert_eq!(
            second.get("parent").and_then(deta_obs::Json::as_u64),
            Some(0)
        );
        assert_eq!(
            second.get("name").and_then(deta_obs::Json::as_str),
            Some("agg.pump")
        );
        assert_eq!(
            second.get("round").and_then(deta_obs::Json::as_u64),
            Some(3)
        );
    }
}
