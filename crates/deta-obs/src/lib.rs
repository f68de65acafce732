//! deta-obs: merged-trace analysis for DeTA deployments.
//!
//! The runtime's flight recorders (deta-telemetry) capture per-node
//! spans and events; with the socket bridge each *process* holds its
//! own rings on its own monotonic clock. This crate turns that pile of
//! per-process JSONL into answers (see DESIGN.md §15):
//!
//! * [`record`] — the trace schema's one owner: its record
//!   ([`ObsRecord`]), its JSON ([`json`], a narrow, total reader and a
//!   compact renderer), its writer ([`render_jsonl`], [`meta_line`]) and
//!   its reader ([`parse_jsonl`]). deta-telemetry converts its rings into
//!   `ObsRecord`s and writes every dump through here. No external
//!   dependencies, like everything else here.
//! * [`mod@merge`] — put every process on one timeline: apply the socket
//!   handshake's probe/echo clock offsets, then enforce causality
//!   (`net_send` before its `net_recv`) via longest-path relaxation of
//!   the per-process shift, so the merged order respects every causal
//!   edge regardless of how wrong the first-order estimates were.
//! * [`report`] — walk each round's blocking chain backwards from its
//!   last record to attribute wall time to named spans, transport +
//!   mailbox queueing, and queue-wait/barrier idle (the measurement
//!   ROADMAP item #1 asks for), plus span-volume phase breakdowns.
//! * [`perfetto`] — export the merged trace as a chrome-trace-event
//!   document loadable in Perfetto for visual inspection.
//!
//! Sealed payloads never appear in traces (a `TelemetryValue` has no
//! byte variant); the analysis here consequently sees only ids, sizes,
//! and timings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod merge;
pub mod perfetto;
pub mod record;
pub mod report;

pub use json::Json;
pub use merge::{merge, Edge, MergedTrace, ProcessTrace};
pub use perfetto::chrome_trace;
pub use record::{meta_line, parse_jsonl, render_jsonl, ObsRecord, ParsedTrace};
pub use report::{fmt_ns, phase_of, phase_totals, round_reports, RoundReport, IDLE, TRANSPORT};
