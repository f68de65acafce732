//! Trace-context propagation: a round-scoped trace id plus the id of the
//! message that caused the current work, so spans emitted by any node —
//! across threads *and* across `deta-socket` processes — stitch into one
//! causal trace per round (DESIGN.md §15).
//!
//! The context rides *beside* each payload, never in it: a field of
//! `deta_transport::Message` in process, a `SocketFrame::Trace` ahead of
//! its `Data` over TCP. Only ids cross the boundary, so telemetry stays
//! secret-free at this layer by shape alone, and a payload's bytes do not
//! depend on whether tracing is on. The receiving thread *adopts* the
//! context as its [`TraceCtx`] before its actor handles the message, so
//! spans deep inside `deta-core` parent correctly with no call-site
//! changes.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The causal context carried by the current thread: which round-scoped
/// trace the work belongs to and which message (by id) caused it.
/// A zero `trace_id` means "untraced".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// Round-scoped trace id (the round number, stamped by the
    /// supervisor at round start); 0 = untraced.
    pub trace_id: u64,
    /// Id of the message whose delivery caused the current work;
    /// 0 = locally originated (e.g. the supervisor starting a round).
    pub parent: u64,
}

thread_local! {
    static CTX: Cell<TraceCtx> = const { Cell::new(TraceCtx { trace_id: 0, parent: 0 }) };
}

/// The current thread's trace context.
pub fn current() -> TraceCtx {
    CTX.with(Cell::get)
}

/// Replaces the current thread's trace context, returning the previous
/// one (callers that scope a context can restore it).
pub fn set_current(ctx: TraceCtx) -> TraceCtx {
    CTX.with(|c| c.replace(ctx))
}

/// Starts a fresh round-scoped trace on this thread: subsequent sends
/// carry `trace_id` with no parent. The supervisor calls this at the
/// top of every round.
pub fn begin(trace_id: u64) {
    set_current(TraceCtx {
        trace_id,
        parent: 0,
    });
}

/// A process-unique message id: the low bits are a per-process counter,
/// the high bits the process id, so ids minted by different OS
/// processes of one deployment never collide. 0 is never returned.
pub fn next_msg_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let n = NEXT.fetch_add(1, Ordering::Relaxed) & ((1 << 40) - 1);
    (u64::from(std::process::id()) << 40) | n.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_ids_are_unique_and_nonzero() {
        let a = next_msg_id();
        let b = next_msg_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        // Both carry this process's pid in the high bits.
        assert_eq!(a >> 40, u64::from(std::process::id()));
    }

    #[test]
    fn thread_context_is_scoped_per_thread() {
        begin(5);
        assert_eq!(current().trace_id, 5);
        let prev = set_current(TraceCtx {
            trace_id: 6,
            parent: 9,
        });
        assert_eq!(prev.trace_id, 5);
        assert_eq!(current().parent, 9);
        // A fresh thread starts untraced.
        std::thread::spawn(|| assert_eq!(current(), TraceCtx::default()))
            .join()
            .expect("spawned thread runs");
        set_current(TraceCtx::default());
    }
}
