//! Inner wire protocol: the frames carried inside the secure channel,
//! plus the per-link sequencing that makes replay and reorder
//! detectable above the record layer.
//!
//! The secure channel already binds each record to a send counter (the
//! nonce), so a byte-identical replay fails decryption. The explicit
//! `seq` on [`SocketFrame::Data`] defends one layer up: an
//! authenticated peer re-sending a *re-sealed* copy of an old logical
//! frame, or delivering frames out of order, is caught by the strict
//! per-link window and rejected with an error naming the link.

use deta_transport::wire::{put_bytes, put_len, put_str16, Malformed, Reader, TooLong};
use std::collections::BTreeMap;
use std::fmt;

/// One logical message between bridge endpoints. `Data` carries
/// simulator traffic; the rest are bridge control frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketFrame {
    /// A relayed network message: `src`'s payload for `dst`, the
    /// `seq`-th frame on the (src, dst) link.
    Data {
        /// Originating endpoint name.
        src: String,
        /// Destination endpoint name.
        dst: String,
        /// Strictly increasing per-(src, dst) counter, from 0.
        seq: u64,
        /// The simulator payload, verbatim.
        payload: Vec<u8>,
    },
    /// The named endpoint's mailbox closed; the receiver must propagate
    /// the closure to its local network replica.
    Close {
        /// Endpoint whose mailbox closed.
        name: String,
    },
    /// Hub → peer: prove control of your node's key by signing this.
    Challenge {
        /// Fresh challenge bytes.
        nonce: [u8; 32],
    },
    /// Peer → hub: `sig` over the auth transcript, claiming `name`.
    AuthProof {
        /// The node name the peer claims to host.
        name: String,
        /// Signature bytes (64), verified against the node's key.
        sig: Vec<u8>,
    },
    /// Hub → peer: authentication accepted, the link is live.
    Welcome,
    /// Orderly end of stream; the sender will write nothing further.
    Bye,
    /// Hub → peer, immediately after `Welcome`: clock-alignment probe
    /// carrying the hub's monotonic send timestamp. The peer must
    /// answer with [`SocketFrame::ClockEcho`] before any other frame.
    ClockProbe {
        /// Hub monotonic nanoseconds at probe send time.
        t_hub_ns: u64,
    },
    /// Peer → hub: clock-alignment echo. The hub estimates the peer's
    /// clock offset as `t_peer_ns - (t_send + t_recv) / 2` (midpoint of
    /// the round trip), which the trace merger uses to map the child's
    /// monotonic timestamps onto the coordinator's timeline.
    ClockEcho {
        /// The probe's `t_hub_ns`, echoed back verbatim.
        t_hub_ns: u64,
        /// Peer monotonic nanoseconds when the probe was handled.
        t_peer_ns: u64,
    },
    /// Peer → hub, just before `Bye`: the peer's drained flight-recorder
    /// ring as rendered JSONL, so the coordinator can merge every
    /// process's spans into one causal trace. Carries only the already
    /// secret-free telemetry schema — sealed payloads never appear in a
    /// ring (lint rule 6).
    TraceShip {
        /// The node whose ring this is.
        name: String,
        /// Records evicted by ring overflow before the drain.
        dropped: u64,
        /// UTF-8 JSONL, one record per line (schema v2).
        jsonl: Vec<u8>,
    },
    /// Peer → hub, immediately after the clock echo: the reconnecting
    /// peer's delivered-so-far state, one entry per (src, dst) link its
    /// ingress window has seen. `next` is the count of frames delivered
    /// in order — i.e. the next `seq` the peer will accept. Empty on a
    /// first connection.
    Resume {
        /// The node name the peer hosts (must match the auth name).
        src: String,
        /// (link src, link dst, next expected seq) per known link.
        windows: Vec<(String, String, u64)>,
    },
    /// Hub → peer: the hub's own delivered-so-far state for links
    /// originating at the peer, so the peer can prune its retransmit
    /// buffer to frames the hub never delivered. Sent before any
    /// retransmitted `Data`.
    ResumeAck {
        /// (link src, link dst, next expected seq) per known link.
        windows: Vec<(String, String, u64)>,
    },
    /// Receiver → sender, on a live link: every frame of the (src, dst)
    /// link below `next` has passed the receiver's [`ReplayWindow`], so
    /// the sender may stop retaining it. Cumulative — a later
    /// acknowledgement covers every earlier one, so a lost one costs
    /// nothing but retention until the next (or until the next resume,
    /// whose claims say the same thing with authority). A control frame:
    /// never stamped, never retained, never injected into a `Network`.
    Ack {
        /// Link source, as on the acknowledged `Data` frames.
        src: String,
        /// Link destination, as on the acknowledged `Data` frames.
        dst: String,
        /// Count of frames accepted in order — the next `seq` the
        /// receiver will take.
        next: u64,
    },
}

/// Domain separator for auth-proof signatures, so a signature produced
/// here can never be confused with a protocol-layer signature.
pub const AUTH_DOMAIN: &[u8] = b"deta-socket-auth-v1";

/// The message an [`SocketFrame::AuthProof`] signature covers.
pub fn auth_transcript(nonce: &[u8; 32], name: &str) -> Vec<u8> {
    let mut msg = Vec::with_capacity(AUTH_DOMAIN.len() + 32 + name.len());
    msg.extend_from_slice(AUTH_DOMAIN);
    msg.extend_from_slice(nonce);
    msg.extend_from_slice(name.as_bytes());
    msg
}

const TAG_DATA: u8 = 1;
const TAG_CLOSE: u8 = 2;
const TAG_CHALLENGE: u8 = 3;
const TAG_AUTH_PROOF: u8 = 4;
const TAG_WELCOME: u8 = 5;
const TAG_BYE: u8 = 6;
const TAG_CLOCK_PROBE: u8 = 7;
const TAG_CLOCK_ECHO: u8 = 8;
const TAG_TRACE_SHIP: u8 = 9;
const TAG_RESUME: u8 = 10;
const TAG_RESUME_ACK: u8 = 11;
const TAG_ACK: u8 = 12;

fn put_windows(out: &mut Vec<u8>, windows: &[(String, String, u64)]) -> Result<(), TooLong> {
    put_len(out, windows.len())?;
    for (src, dst, next) in windows {
        put_str16(out, src)?;
        put_str16(out, dst)?;
        out.extend_from_slice(&next.to_le_bytes());
    }
    Ok(())
}

fn read_windows(r: &mut Reader<'_>) -> Result<Vec<(String, String, u64)>, Malformed> {
    // Each entry costs at least two length prefixes plus the counter.
    let n = r.count(12)?;
    (0..n)
        .map(|_| Ok((r.str16()?.to_string(), r.str16()?.to_string(), r.u64()?)))
        .collect()
}

impl SocketFrame {
    /// Serializes the frame into a buffer of its own.
    ///
    /// A field too long for its prefix — a name over 65,535 bytes, a
    /// payload over 4 GiB; neither can occur, names come from the roster
    /// and [`crate::MAX_FRAME`] is far smaller — yields an empty
    /// encoding, which every decoder rejects, never a truncated field
    /// that would decode as a different frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len_hint());
        match self.encode_into(&mut out) {
            Ok(()) => out,
            Err(TooLong) => Vec::new(),
        }
    }

    /// How many bytes [`SocketFrame::encode_into`] appends: exact for
    /// `Data` (the frame worth reserving for), a lower bound otherwise.
    pub(crate) fn encoded_len_hint(&self) -> usize {
        match self {
            SocketFrame::Data {
                src, dst, payload, ..
            } => 1 + 2 + src.len() + 2 + dst.len() + 8 + 4 + payload.len(),
            SocketFrame::TraceShip { jsonl, .. } => jsonl.len(),
            _ => 0,
        }
    }

    /// Appends the frame's encoding to `out` — the one encoder; the link
    /// calls it on its reused record buffer (the secure channel then
    /// seals the bytes where they lie).
    ///
    /// # Errors
    ///
    /// [`TooLong`] as for [`SocketFrame::encode`]; `out` then holds a
    /// partial encoding to discard.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), TooLong> {
        match self {
            SocketFrame::Data {
                src,
                dst,
                seq,
                payload,
            } => {
                out.push(TAG_DATA);
                put_str16(out, src)?;
                put_str16(out, dst)?;
                out.extend_from_slice(&seq.to_le_bytes());
                put_bytes(out, payload)?;
            }
            SocketFrame::Close { name } => {
                out.push(TAG_CLOSE);
                put_str16(out, name)?;
            }
            SocketFrame::Challenge { nonce } => {
                out.push(TAG_CHALLENGE);
                out.extend_from_slice(nonce);
            }
            SocketFrame::AuthProof { name, sig } => {
                out.push(TAG_AUTH_PROOF);
                put_str16(out, name)?;
                put_bytes(out, sig)?;
            }
            SocketFrame::Welcome => out.push(TAG_WELCOME),
            SocketFrame::Bye => out.push(TAG_BYE),
            SocketFrame::ClockProbe { t_hub_ns } => {
                out.push(TAG_CLOCK_PROBE);
                out.extend_from_slice(&t_hub_ns.to_le_bytes());
            }
            SocketFrame::ClockEcho {
                t_hub_ns,
                t_peer_ns,
            } => {
                out.push(TAG_CLOCK_ECHO);
                out.extend_from_slice(&t_hub_ns.to_le_bytes());
                out.extend_from_slice(&t_peer_ns.to_le_bytes());
            }
            SocketFrame::TraceShip {
                name,
                dropped,
                jsonl,
            } => {
                out.push(TAG_TRACE_SHIP);
                put_str16(out, name)?;
                out.extend_from_slice(&dropped.to_le_bytes());
                put_bytes(out, jsonl)?;
            }
            SocketFrame::Resume { src, windows } => {
                out.push(TAG_RESUME);
                put_str16(out, src)?;
                put_windows(out, windows)?;
            }
            SocketFrame::ResumeAck { windows } => {
                out.push(TAG_RESUME_ACK);
                put_windows(out, windows)?;
            }
            SocketFrame::Ack { src, dst, next } => {
                out.push(TAG_ACK);
                put_str16(out, src)?;
                put_str16(out, dst)?;
                out.extend_from_slice(&next.to_le_bytes());
            }
        }
        Ok(())
    }

    /// Parses a frame; `None` on any malformed input (truncated,
    /// trailing bytes, unknown tag, invalid UTF-8). Total — never
    /// panics.
    pub fn decode(buf: &[u8]) -> Option<SocketFrame> {
        let (mut frame, payload_at) = SocketFrame::parse(buf).ok()?;
        if let SocketFrame::Data { payload, .. } = &mut frame {
            *payload = buf[payload_at..].to_vec();
        }
        Some(frame)
    }

    /// [`SocketFrame::decode`] of a buffer the caller gives up: a `Data`
    /// frame keeps the allocation as its payload (the header in front is
    /// shifted out, nothing is copied to a new buffer), which is how a
    /// relayed fragment stays in the buffer the stream filled.
    pub(crate) fn decode_owned(mut buf: Vec<u8>) -> Option<SocketFrame> {
        let (mut frame, payload_at) = SocketFrame::parse(&buf).ok()?;
        if let SocketFrame::Data { payload, .. } = &mut frame {
            buf.drain(..payload_at);
            *payload = buf;
        }
        Some(frame)
    }

    /// The one parser. A `Data` frame comes back with an empty payload
    /// and the offset its payload starts at (it runs to the end of
    /// `buf`), so that the caller decides whether those bytes are copied
    /// or kept.
    fn parse(buf: &[u8]) -> Result<(SocketFrame, usize), Malformed> {
        let mut r = Reader::new(buf);
        let mut payload_at = 0;
        let frame = match r.u8()? {
            TAG_DATA => {
                let (src, dst) = (r.str16()?.to_string(), r.str16()?.to_string());
                let seq = r.u64()?;
                payload_at = r.position() + 4;
                r.bytes()?;
                SocketFrame::Data {
                    src,
                    dst,
                    seq,
                    payload: Vec::new(),
                }
            }
            TAG_CLOSE => SocketFrame::Close {
                name: r.str16()?.to_string(),
            },
            TAG_CHALLENGE => SocketFrame::Challenge { nonce: r.array()? },
            TAG_AUTH_PROOF => SocketFrame::AuthProof {
                name: r.str16()?.to_string(),
                sig: r.bytes()?.to_vec(),
            },
            TAG_WELCOME => SocketFrame::Welcome,
            TAG_BYE => SocketFrame::Bye,
            TAG_CLOCK_PROBE => SocketFrame::ClockProbe { t_hub_ns: r.u64()? },
            TAG_CLOCK_ECHO => SocketFrame::ClockEcho {
                t_hub_ns: r.u64()?,
                t_peer_ns: r.u64()?,
            },
            TAG_TRACE_SHIP => SocketFrame::TraceShip {
                name: r.str16()?.to_string(),
                dropped: r.u64()?,
                jsonl: r.bytes()?.to_vec(),
            },
            TAG_RESUME => SocketFrame::Resume {
                src: r.str16()?.to_string(),
                windows: read_windows(&mut r)?,
            },
            TAG_RESUME_ACK => SocketFrame::ResumeAck {
                windows: read_windows(&mut r)?,
            },
            TAG_ACK => SocketFrame::Ack {
                src: r.str16()?.to_string(),
                dst: r.str16()?.to_string(),
                next: r.u64()?,
            },
            _ => return Err(Malformed),
        };
        r.finish()?;
        Ok((frame, payload_at))
    }
}

/// Sender-side per-link counters: the next `seq` to stamp on a
/// (src, dst) link.
#[derive(Debug, Default)]
pub struct SeqTracker {
    next: BTreeMap<(String, String), u64>,
}

impl SeqTracker {
    /// An empty tracker (every link starts at 0).
    pub fn new() -> SeqTracker {
        SeqTracker::default()
    }

    /// Returns the sequence number for the next frame on (src, dst) and
    /// advances the counter.
    pub fn next(&mut self, src: &str, dst: &str) -> u64 {
        let entry = self
            .next
            .entry((src.to_string(), dst.to_string()))
            .or_insert(0);
        let seq = *entry;
        *entry += 1;
        seq
    }

    /// How many sequence numbers (src, dst) has been handed so far: every
    /// `seq` ever stamped on the link is below it, which makes it the
    /// most a delivery acknowledgement can truthfully claim.
    pub fn issued(&self, src: &str, dst: &str) -> u64 {
        self.next
            .get(&(src.to_string(), dst.to_string()))
            .copied()
            .unwrap_or(0)
    }
}

/// A strict-ordering violation on one link: the frame's `seq` did not
/// match the expected next value (a replay when low, a reorder or gap
/// when high).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqViolation {
    /// The sequence number the offending frame carried.
    pub seq: u64,
    /// The sequence number the window required.
    pub expected: u64,
}

impl fmt::Display for SeqViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "got seq {} but expected {}", self.seq, self.expected)
    }
}

/// Receiver-side replay/reorder window. The policy is strict in-order
/// delivery per link: TCP already guarantees ordered bytes, so the only
/// way a link's `seq` can deviate from 0, 1, 2, … is a peer replaying,
/// reordering, or dropping logical frames above the transport — all of
/// which must kill the link, not be smoothed over.
#[derive(Debug, Default)]
pub struct ReplayWindow {
    next: BTreeMap<(String, String), u64>,
}

impl ReplayWindow {
    /// An empty window (every link expects seq 0 first).
    pub fn new() -> ReplayWindow {
        ReplayWindow::default()
    }

    /// Accepts the frame if `seq` is exactly the next expected value on
    /// (src, dst), advancing the window.
    ///
    /// # Errors
    ///
    /// [`SeqViolation`] with the expected value on any deviation; the
    /// window does not advance.
    pub fn accept(&mut self, src: &str, dst: &str, seq: u64) -> Result<(), SeqViolation> {
        let entry = self
            .next
            .entry((src.to_string(), dst.to_string()))
            .or_insert(0);
        if seq != *entry {
            return Err(SeqViolation {
                seq,
                expected: *entry,
            });
        }
        *entry += 1;
        Ok(())
    }

    /// [`ReplayWindow::accept`] with full attribution: a violation comes
    /// back as the structured [`SocketError::Replay`] naming the
    /// offending link as `src->dst` — the exact error the hub reports,
    /// so every reject is attributable by construction.
    ///
    /// # Errors
    ///
    /// [`SocketError::Replay`] on any sequence deviation; the window
    /// does not advance.
    ///
    /// [`SocketError::Replay`]: crate::SocketError::Replay
    pub fn accept_named(
        &mut self,
        src: &str,
        dst: &str,
        seq: u64,
    ) -> Result<(), crate::SocketError> {
        self.accept(src, dst, seq)
            .map_err(|v| crate::SocketError::Replay {
                link: format!("{src}->{dst}"),
                seq: v.seq,
                expected: v.expected,
            })
    }

    /// Every (src, dst, next expected seq) entry the window has seen —
    /// the payload of a [`SocketFrame::Resume`]. Deterministic order
    /// (the window is a `BTreeMap`).
    pub fn snapshot(&self) -> Vec<(String, String, u64)> {
        self.next
            .iter()
            .map(|((s, d), n)| (s.clone(), d.clone(), *n))
            .collect()
    }

    /// [`ReplayWindow::snapshot`] restricted to links originating at
    /// `src` — the payload of a [`SocketFrame::ResumeAck`], which must
    /// only disclose state about the reconnecting peer's own traffic.
    pub fn snapshot_from(&self, src: &str) -> Vec<(String, String, u64)> {
        self.next
            .iter()
            .filter(|((s, _), _)| s == src)
            .map(|((s, d), n)| (s.clone(), d.clone(), *n))
            .collect()
    }
}
