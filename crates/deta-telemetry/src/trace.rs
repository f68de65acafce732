//! Trace-context propagation: a round-scoped trace id plus parent
//! message id that rides every transport payload as a small outer
//! envelope, so spans emitted by any party/aggregator/supervisor —
//! across threads *and* across `deta-socket` processes — stitch into
//! one causal trace per round.
//!
//! Design (DESIGN.md §15):
//!
//! * **Byte-level envelope, not a codec change.** The envelope wraps
//!   the already-encoded payload: one marker byte ([`ENVELOPE_MARK`],
//!   chosen to collide with no `Msg`/`CtlMsg` tag), then
//!   `trace_id`/`msg_id`/`parent` as little-endian `u64`s, then the
//!   payload verbatim. Both wire codecs, every actor dispatch loop,
//!   and the socket bridge (which relays payloads verbatim) are
//!   untouched.
//! * **Secret-free by construction.** Only ids cross the boundary —
//!   the sealed payload is carried opaquely and never inspected, so
//!   telemetry stays secret-free at this layer by shape alone.
//! * **Bit-exact when disabled.** The transport wraps only while the
//!   global sink is enabled; with telemetry off the bytes on the wire
//!   are identical to a build without this module.
//!
//! The thread-local [`TraceCtx`] is *adopted* on receive: unwrapping a
//! message installs `{trace_id, parent: msg_id}` on the receiving
//! thread before the actor handles it, so existing spans deep inside
//! `deta-core` parent correctly with no call-site changes.

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

/// First byte of a trace envelope. Chosen high so it can never collide
/// with a `Msg`/`CtlMsg` tag byte (both codecs use small consecutive
/// tags); any payload not starting with this byte passes through
/// [`unwrap_envelope`] untouched.
pub const ENVELOPE_MARK: u8 = 0xF7;

/// Envelope size: marker + trace_id + msg_id + parent.
pub const ENVELOPE_LEN: usize = 1 + 8 + 8 + 8;

/// Wraps an encoded payload in a trace envelope.
pub fn wrap_envelope(trace_id: u64, msg_id: u64, parent: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_LEN + payload.len());
    out.push(ENVELOPE_MARK);
    out.extend_from_slice(&trace_id.to_le_bytes());
    out.extend_from_slice(&msg_id.to_le_bytes());
    out.extend_from_slice(&parent.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Splits a trace envelope into `(trace_id, msg_id, parent, payload)`.
/// Total: returns `None` for anything that is not an envelope (wrong
/// marker or too short), in which case the caller must treat the buffer
/// as a bare payload.
pub fn unwrap_envelope(buf: &[u8]) -> Option<(u64, u64, u64, &[u8])> {
    if buf.len() < ENVELOPE_LEN || buf[0] != ENVELOPE_MARK {
        return None;
    }
    let u = |at: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[at..at + 8]);
        u64::from_le_bytes(b)
    };
    Some((u(1), u(9), u(17), &buf[ENVELOPE_LEN..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrips() {
        let wrapped = wrap_envelope(3, 42, 7, b"payload");
        let (trace_id, msg_id, parent, inner) =
            unwrap_envelope(&wrapped).expect("wrapped buffer unwraps");
        assert_eq!((trace_id, msg_id, parent), (3, 42, 7));
        assert_eq!(inner, b"payload");
    }

    #[test]
    fn bare_payloads_pass_through() {
        // Every Msg/CtlMsg encoding starts with a small tag byte.
        assert!(unwrap_envelope(&[1, 2, 3]).is_none());
        // Marker byte but too short: not an envelope.
        assert!(unwrap_envelope(&[ENVELOPE_MARK; 24]).is_none());
        // Empty.
        assert!(unwrap_envelope(&[]).is_none());
    }

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
