//! One secured TCP link: length-prefixed frames carrying sealed records
//! of the [`deta_transport::secure`] channel.
//!
//! A link is built in two steps. [`SecureLink::connect`] /
//! [`SecureLink::accept`] run the handshake over raw frames (hello and
//! response are self-authenticating; everything after is sealed). The
//! caller then performs the challenge/auth exchange at the
//! [`crate::wire::SocketFrame`] layer and finally [`SecureLink::split`]s
//! the link into an independently-owned sender and receiver so one
//! thread can write while another blocks reading.
//!
//! All reads poll with a short OS timeout so reader threads can observe
//! stop flags and deadlines instead of blocking forever in `read`.
//!
//! What outlives a connection lives here too: the [`RetransmitBuffer`]
//! both bridge sides keep so a resumed link can replay exactly the
//! frames its peer never delivered. A frame leaves it when the peer's
//! [`SocketFrame::Ack`] says its replay window accepted it, so on a
//! healthy link the buffer holds what is in flight, not the last 8 MiB
//! sent; a resume's claims remain the authority after an outage, and a
//! lost acknowledgement only means the frame waits for them.
//!
//! Around the buffer, [`Egress`] is the one way a frame leaves a process:
//! the hub keeps one per seat and a child one for its link, each fed by
//! the `deta_transport::Forwarder` of the names it stands in for. It
//! stamps at send, retains, and queues for the connection's writer
//! ([`write_loop`]) when there is one.

use crate::frame::{encode_frame, write_frame_header, FrameDecoder, FRAME_HEADER};
use crate::wire::{SeqTracker, SocketFrame};
use crate::SocketError;
use deta_crypto::poly1305::TAG_LEN;
use deta_crypto::{DetRng, SigningKey, VerifyingKey};
use deta_transport::secure::{self, HandshakeInitiator, SecureChannel};
use deta_transport::{Message, TraceCtx};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// OS-level read poll granularity: how often a blocked reader rechecks
/// its stop flag or deadline.
const POLL: Duration = Duration::from_millis(20);

/// Handshake messages must arrive within this window.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(10);

/// Retransmit-buffer cap, in frames, per endpoint. Both bridge sides
/// bound their unacknowledged-frame buffers identically — which, since
/// delivery is acknowledged, is a bound on what a *parked* seat or a
/// stalled consumer accumulates; past either cap the oldest frames are
/// evicted and the per-link floor advances, so a later resume needing
/// them fails with a structured `Resync` error instead of a silent gap.
const RETRANSMIT_MAX_FRAMES: usize = 1024;

/// Retransmit-buffer cap, in buffered payload bytes, per endpoint. The
/// byte cap is the one that matters for model uploads: a count-only
/// bound would happily pin hundreds of megabytes per seat.
const RETRANSMIT_MAX_BYTES: usize = 8 * 1024 * 1024;

/// Every `Data` frame one endpoint has sent and its peer has not yet
/// acknowledged, oldest first — what is *in flight* on a healthy link,
/// what accumulated during the outage on a parked one, bounded by
/// `RETRANSMIT_MAX_FRAMES` and `RETRANSMIT_MAX_BYTES` (1024 frames,
/// 8 MiB). The hub keeps one per seat, a child one for its link; it outlives connections, and
/// it is always on — without it an abrupt TCP loss is unrecoverable.
///
/// One frame's life is `stamp → retain → acknowledge → prune`, and all
/// four are here: the buffer hands out the sequence numbers of the frames
/// it retains ([`RetransmitBuffer::stamp`]), so it can refuse an
/// acknowledgement for frames it never sent
/// ([`RetransmitBuffer::acknowledge`]), and a resume's claims prune what
/// no acknowledgement reached it for ([`RetransmitBuffer::prune`]).
/// Frames are held behind `Arc`, so the copy retained here and the one
/// queued for a link writer are the same allocation.
#[derive(Default)]
pub struct RetransmitBuffer {
    /// Each frame beside the trace context it was sent with, so that a
    /// replay sends its ids ahead of it again.
    frames: VecDeque<(Arc<SocketFrame>, TraceCtx)>,
    /// Total buffered payload bytes (the byte-cap accounting).
    bytes: usize,
    /// Per-(src, dst) seq of the oldest frame still retransmittable; an
    /// entry appears only once eviction has discarded something on that
    /// link.
    floor: BTreeMap<(String, String), u64>,
    /// The send counters. They outlive connections with the buffer, so a
    /// retransmitted frame carries the seq of the original.
    seqs: SeqTracker,
}

impl RetransmitBuffer {
    fn payload_len(frame: &SocketFrame) -> usize {
        match frame {
            SocketFrame::Data { payload, .. } => payload.len(),
            _ => 0,
        }
    }

    /// Makes `msg` the next `Data` frame of its link to `to` and retains
    /// it with its trace context; the caller forwards the returned frame
    /// if its link is live.
    pub fn stamp(&mut self, to: &str, msg: Message) -> Arc<SocketFrame> {
        let (src, dst) = (msg.from.to_string(), to.to_string());
        let seq = self.seqs.next(&src, &dst);
        let frame = Arc::new(SocketFrame::Data {
            src,
            dst,
            seq,
            payload: msg.payload,
        });
        self.push((Arc::clone(&frame), msg.trace));
        frame
    }

    /// Retains a stamped frame, evicting from the front and advancing
    /// the per-link floor while over either cap.
    fn push(&mut self, retained: (Arc<SocketFrame>, TraceCtx)) {
        self.bytes += Self::payload_len(&retained.0);
        self.frames.push_back(retained);
        while self.frames.len() > RETRANSMIT_MAX_FRAMES || self.bytes > RETRANSMIT_MAX_BYTES {
            let Some((old, _)) = self.frames.pop_front() else {
                break;
            };
            self.bytes = self.bytes.saturating_sub(Self::payload_len(&old));
            if let SocketFrame::Data { src, dst, seq, .. } = &*old {
                self.floor.insert((src.clone(), dst.clone()), seq + 1);
            }
        }
    }

    /// Honours a [`SocketFrame::Ack`]: drops every retained frame of the
    /// (src, dst) link below `next`. Cumulative and idempotent — a stale
    /// or repeated acknowledgement drops nothing. Other links, and every
    /// eviction floor, are untouched. The caller has already checked that
    /// the acknowledging peer is an end of the link.
    ///
    /// # Errors
    ///
    /// [`SocketError::Ack`] when `next` is past every sequence number
    /// stamped on the link; nothing is dropped.
    pub fn acknowledge(&mut self, src: &str, dst: &str, next: u64) -> Result<(), SocketError> {
        let stamped = self.seqs.issued(src, dst);
        if next > stamped {
            return Err(SocketError::Ack {
                link: format!("{src}->{dst}"),
                next,
                stamped,
            });
        }
        let mut freed = 0;
        self.frames.retain(|(f, _)| match &**f {
            SocketFrame::Data {
                src: s,
                dst: d,
                seq,
                payload,
            } if s == src && d == dst && *seq < next => {
                freed += payload.len();
                false
            }
            _ => true,
        });
        self.bytes -= freed;
        count_link("deta_socket_acks_total", src, dst, 1);
        Ok(())
    }

    /// Prunes to the frames a resuming peer still needs, per the
    /// delivered-so-far `windows` of its `Resume`/`ResumeAck` (absent
    /// links claim 0).
    ///
    /// # Errors
    ///
    /// [`SocketError::Resync`] when a needed frame was already evicted:
    /// the link cannot be resumed without a silent gap.
    pub fn prune(&mut self, windows: Vec<(String, String, u64)>) -> Result<(), SocketError> {
        let claims: BTreeMap<(String, String), u64> =
            windows.into_iter().map(|(s, d, n)| ((s, d), n)).collect();
        for (link, floor) in &self.floor {
            let claimed = claims.get(link).copied().unwrap_or(0);
            if claimed < *floor {
                return Err(SocketError::Resync {
                    link: format!("{}->{}", link.0, link.1),
                    wanted: claimed,
                    oldest: *floor,
                });
            }
        }
        self.frames.retain(|(f, _)| match &**f {
            SocketFrame::Data { src, dst, seq, .. } => {
                let claimed = claims
                    .get(&(src.clone(), dst.clone()))
                    .copied()
                    .unwrap_or(0);
                *seq >= claimed
            }
            _ => true,
        });
        self.bytes = self.frames.iter().map(|(f, _)| Self::payload_len(f)).sum();
        Ok(())
    }

    /// The retained frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &Arc<SocketFrame>> {
        self.frames.iter().map(|(f, _)| f)
    }

    /// Number of retained frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether every frame sent has been acknowledged (or evicted).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Observes the retained depth as `node`'s — after each retain, so
    /// that a consumer falling behind shows as a rising depth before its
    /// seat ever parks. Nothing without the telemetry sink.
    fn observe_depth(&self, node: &str) {
        if deta_telemetry::enabled() {
            deta_telemetry::metrics::histogram_observe(
                "deta_socket_unacked_depth",
                node,
                self.frames.len() as f64,
            );
        }
    }
}

/// Everything one end owes one peer process: the retransmit buffer that
/// outlives connections and, while one lives, its writer's queue. Behind
/// its owner's egress lock, which a `Forwarder` takes *under* the network
/// lock: never held across IO or a call into the network.
pub(crate) struct Egress {
    /// The node whose retained depth this is (telemetry label).
    node: String,
    /// The live connection's writer queue; `None` while parked — frames
    /// then only accumulate in `buffer`.
    tx: Option<Sender<Arc<SocketFrame>>>,
    /// `Data` frames stamped here and retained until the peer
    /// acknowledges them or a resume's claims prove delivery.
    buffer: RetransmitBuffer,
}

impl Egress {
    /// A parked egress with nothing sent, observed as `node`'s.
    pub fn new(node: &str) -> Egress {
        Egress {
            node: node.to_string(),
            tx: None,
            buffer: RetransmitBuffer::default(),
        }
    }

    /// A message for `to` on its way out: stamped as the next `Data` frame
    /// of its link, retained, and queued for the writer if the link is
    /// live — one allocation, shared — behind its ids, if it is traced.
    pub fn send(&mut self, to: &str, msg: Message) {
        let trace = msg.trace;
        let frame = self.buffer.stamp(to, msg);
        if let Some(tx) = &self.tx {
            queue(tx, &frame, trace);
        }
        self.buffer.observe_depth(&self.node);
    }

    /// Queues a frame that is neither stamped nor retained (`Ack`,
    /// `Close`, the sign-off). A parked link drops it, as does a writer
    /// that died with its connection: the resume that follows says the
    /// same with authority.
    pub fn control(&self, frame: impl Into<Arc<SocketFrame>>) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(frame.into());
        }
    }

    /// Whether a connection's writer is attached.
    pub fn is_live(&self) -> bool {
        self.tx.is_some()
    }

    /// Retained frames: what the peer has not acknowledged.
    pub fn unacked(&self) -> usize {
        self.buffer.len()
    }

    /// See [`RetransmitBuffer::acknowledge`].
    pub fn acknowledge(&mut self, src: &str, dst: &str, next: u64) -> Result<(), SocketError> {
        self.buffer.acknowledge(src, dst, next)
    }

    /// A new connection takes over: prunes to what the peer's `claims`
    /// say it still needs, queues that backlog ([`Egress::unacked`]
    /// frames) and goes live — under the caller's one lock, so no fresh
    /// frame lands among the replayed. Returns the queue for the
    /// connection's [`write_loop`].
    ///
    /// # Errors
    ///
    /// [`SocketError::Resync`], from [`RetransmitBuffer::prune`]; the
    /// egress stays parked.
    pub fn resume(
        &mut self,
        claims: Vec<(String, String, u64)>,
    ) -> Result<Receiver<Arc<SocketFrame>>, SocketError> {
        self.buffer.prune(claims)?;
        let (tx, rx) = channel();
        for (frame, trace) in &self.buffer.frames {
            queue(&tx, frame, *trace);
        }
        self.tx = Some(tx);
        Ok(rx)
    }

    /// Detaches the writer: it drains what is queued and exits. The
    /// buffer, its floors and its counters stay for a resume.
    pub fn park(&mut self) {
        self.tx = None;
    }
}

/// Queues a stamped `Data` frame for a writer — directly behind a
/// [`SocketFrame::Trace`] with its ids when it was sent traced, on first
/// sending and on every replay alike.
fn queue(tx: &Sender<Arc<SocketFrame>>, frame: &Arc<SocketFrame>, trace: TraceCtx) {
    if trace != TraceCtx::default() {
        let (trace_id, msg_id) = (trace.trace_id, trace.parent);
        let _ = tx.send(Arc::new(SocketFrame::Trace { trace_id, msg_id }));
    }
    let _ = tx.send(Arc::clone(frame));
}

/// A connection's writer: puts its queue on the socket until the queue
/// is dropped ([`Egress::park`]) or a write fails with the connection.
/// The one thread that writes to the socket once the link is split.
#[expect(
    clippy::disallowed_methods,
    reason = "drains until the queue's sender drops (Egress::park, or the egress with its seat); DESIGN.md §16"
)]
pub(crate) fn write_loop(mut sender: LinkSender, rx: Receiver<Arc<SocketFrame>>) {
    while let Ok(frame) = rx.recv() {
        if sender.send(&frame).is_err() {
            return;
        }
    }
}

/// Counts `n` under `name{src->dst}`; the label is built only with the
/// telemetry sink on.
pub(crate) fn count_link(name: &'static str, src: &str, dst: &str, n: u64) {
    if deta_telemetry::enabled() {
        deta_telemetry::metrics::counter_add(name, &format!("{src}->{dst}"), n);
    }
}

/// Recovers a guard even if a peer thread panicked while holding it:
/// every critical section of the bridge leaves its state consistent (a
/// channel is a pair of counters and keys, an egress a buffer and a
/// queue).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Builds one frame for the wire in `wire`, a buffer its link reuses for
/// every frame: length prefix, the encoded frame, sealed where it lies.
/// The buffer is reserved for exactly the frame in hand when it is too
/// small, so it settles at the largest frame the link has carried.
fn seal_frame(channel: &Mutex<SecureChannel>, frame: &SocketFrame, wire: &mut Vec<u8>) {
    wire.clear();
    wire.reserve_exact(FRAME_HEADER + frame.encoded_len_hint() + TAG_LEN);
    wire.extend_from_slice(&[0; FRAME_HEADER]);
    if frame.encode_into(wire).is_err() {
        // The empty encoding of `SocketFrame::encode`: no decoder takes it.
        wire.truncate(FRAME_HEADER);
    }
    lock(channel).seal_in_place(wire, FRAME_HEADER);
    write_frame_header(wire);
}

/// Opens one record where the stream put it and parses the frame inside;
/// a `Data` frame keeps that buffer as its payload.
fn unseal_frame(
    channel: &Mutex<SecureChannel>,
    label: &str,
    mut record: Vec<u8>,
) -> Result<SocketFrame, SocketError> {
    lock(channel)
        .open_in_place(&mut record, 0)
        .map_err(|_| SocketError::Record {
            link: label.to_string(),
        })?;
    SocketFrame::decode_owned(record).ok_or_else(|| SocketError::Malformed {
        link: label.to_string(),
    })
}

/// Raw framed IO over one stream (pre- and post-handshake transport).
struct LinkIo {
    stream: TcpStream,
    decoder: FrameDecoder,
    label: String,
    /// The outgoing frame buffer (see [`seal_frame`]); moves to the
    /// [`LinkSender`] when the link splits.
    wire: Vec<u8>,
}

impl LinkIo {
    fn new(stream: TcpStream, label: String) -> Result<LinkIo, SocketError> {
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(POLL))?;
        Ok(LinkIo {
            stream,
            decoder: FrameDecoder::new(),
            label,
            wire: Vec::new(),
        })
    }

    fn write_frame(&mut self, payload: &[u8]) -> Result<(), SocketError> {
        self.stream.write_all(&encode_frame(payload))?;
        Ok(())
    }

    /// Blocks (polling) until a complete frame, EOF (`None`), the
    /// deadline, or the stop flag. Deadline expiry is an `Io` timeout
    /// error; a stop request reads as EOF.
    fn read_frame(
        &mut self,
        deadline: Option<Instant>,
        stop: Option<&AtomicBool>,
    ) -> Result<Option<Vec<u8>>, SocketError> {
        loop {
            if let Some(payload) = self.decoder.try_next().map_err(|e| SocketError::Frame {
                link: self.label.clone(),
                source: e,
            })? {
                return Ok(Some(payload));
            }
            if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                return Ok(None);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(SocketError::Io(std::io::Error::from(ErrorKind::TimedOut)));
            }
            match self.decoder.read_from(&mut self.stream) {
                Ok(0) => return Ok(None),
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                // A peer process exiting surfaces as a reset on some
                // platforms and EOF on others; treat both as closure.
                Err(e) if e.kind() == ErrorKind::ConnectionReset => return Ok(None),
                Err(e) => return Err(SocketError::Io(e)),
            }
        }
    }
}

/// An established secure link (handshake done, records flowing).
pub(crate) struct SecureLink {
    io: LinkIo,
    channel: Arc<Mutex<SecureChannel>>,
}

impl SecureLink {
    /// Client side: connect to `addr`, run the handshake as initiator,
    /// and verify the responder against `hub_key`.
    pub fn connect(
        addr: SocketAddr,
        label: &str,
        hub_key: &VerifyingKey,
        rng: &mut DetRng,
    ) -> Result<SecureLink, SocketError> {
        let stream = TcpStream::connect(addr)?;
        let mut io = LinkIo::new(stream, label.to_string())?;
        let init = HandshakeInitiator::new(rng);
        io.write_frame(init.hello())?;
        let deadline = Some(Instant::now() + HANDSHAKE_DEADLINE);
        let response = match io.read_frame(deadline, None)? {
            Some(r) => r,
            None => {
                return Err(SocketError::Handshake {
                    link: label.to_string(),
                    source: deta_transport::TransportError::Malformed,
                })
            }
        };
        let channel =
            init.complete(&response, hub_key)
                .map_err(|source| SocketError::Handshake {
                    link: label.to_string(),
                    source,
                })?;
        Ok(SecureLink {
            io,
            channel: Arc::new(Mutex::new(channel)),
        })
    }

    /// Server side: run the handshake as responder over an accepted
    /// stream, authenticating with `identity`.
    pub fn accept(
        stream: TcpStream,
        label: &str,
        identity: &SigningKey,
        rng: &mut DetRng,
    ) -> Result<SecureLink, SocketError> {
        let mut io = LinkIo::new(stream, label.to_string())?;
        let deadline = Some(Instant::now() + HANDSHAKE_DEADLINE);
        let hello = match io.read_frame(deadline, None)? {
            Some(h) => h,
            None => {
                return Err(SocketError::Handshake {
                    link: label.to_string(),
                    source: deta_transport::TransportError::Malformed,
                })
            }
        };
        let (response, channel) =
            secure::respond(&hello, identity, rng).map_err(|source| SocketError::Handshake {
                link: label.to_string(),
                source,
            })?;
        io.write_frame(&response)?;
        Ok(SecureLink {
            io,
            channel: Arc::new(Mutex::new(channel)),
        })
    }

    /// Seals and writes one frame.
    pub fn send(&mut self, frame: &SocketFrame) -> Result<(), SocketError> {
        seal_frame(&self.channel, frame, &mut self.io.wire);
        self.io.stream.write_all(&self.io.wire)?;
        Ok(())
    }

    /// Blocks until the next frame, EOF/stop (`None`), or a deadline.
    pub fn recv(
        &mut self,
        deadline: Option<Instant>,
        stop: Option<&AtomicBool>,
    ) -> Result<Option<SocketFrame>, SocketError> {
        match self.io.read_frame(deadline, stop)? {
            None => Ok(None),
            Some(record) => unseal_frame(&self.channel, &self.io.label, record).map(Some),
        }
    }

    /// Splits into an independently-owned sender and receiver (the
    /// record counters stay shared, each direction strictly ordered by
    /// its single owning thread).
    pub fn split(mut self) -> Result<(LinkSender, LinkReceiver), SocketError> {
        let write_stream = self.io.stream.try_clone()?;
        let sender = LinkSender {
            stream: write_stream,
            channel: Arc::clone(&self.channel),
            wire: std::mem::take(&mut self.io.wire),
        };
        let receiver = LinkReceiver {
            io: self.io,
            channel: self.channel,
        };
        Ok((sender, receiver))
    }
}

/// Write half of a split link.
pub(crate) struct LinkSender {
    stream: TcpStream,
    channel: Arc<Mutex<SecureChannel>>,
    wire: Vec<u8>,
}

impl LinkSender {
    /// Seals and writes one frame.
    pub fn send(&mut self, frame: &SocketFrame) -> Result<(), SocketError> {
        seal_frame(&self.channel, frame, &mut self.wire);
        self.stream.write_all(&self.wire)?;
        Ok(())
    }
}

/// Read half of a split link.
pub(crate) struct LinkReceiver {
    io: LinkIo,
    channel: Arc<Mutex<SecureChannel>>,
}

impl LinkReceiver {
    /// Blocks until the next frame, EOF/stop (`None`), or a deadline.
    pub fn recv(
        &mut self,
        deadline: Option<Instant>,
        stop: Option<&AtomicBool>,
    ) -> Result<Option<SocketFrame>, SocketError> {
        match self.io.read_frame(deadline, stop)? {
            None => Ok(None),
            Some(record) => unseal_frame(&self.channel, &self.io.label, record).map(Some),
        }
    }

    /// The next frame (`pending`, if given), with the trace context a
    /// `Trace` frame directly ahead of it carried — the default if none.
    ///
    /// # Errors
    ///
    /// As [`LinkReceiver::recv`], and [`SocketError::Malformed`] when a
    /// `Trace` is followed by anything but a `Data` frame.
    pub fn recv_message(
        &mut self,
        pending: Option<SocketFrame>,
        stop: &AtomicBool,
    ) -> Result<Option<(SocketFrame, TraceCtx)>, SocketError> {
        let frame = pending.map_or_else(|| self.recv(None, Some(stop)), |f| Ok(Some(f)))?;
        let Some(SocketFrame::Trace { trace_id, msg_id }) = frame else {
            return Ok(frame.map(|frame| (frame, TraceCtx::default())));
        };
        let trace = TraceCtx {
            trace_id,
            parent: msg_id,
        };
        match self.recv(None, Some(stop))? {
            Some(data @ SocketFrame::Data { .. }) => Ok(Some((data, trace))),
            Some(_) => Err(SocketError::Malformed {
                link: self.label().to_string(),
            }),
            None => Ok(None),
        }
    }

    /// The link label errors are reported under.
    pub fn label(&self) -> &str {
        &self.io.label
    }

    /// Abruptly severs the underlying stream — both directions, no
    /// `Bye`. The peer observes a bare EOF, exactly as if the transport
    /// died. Chaos-injection only.
    pub fn sever(&self) {
        let _ = self.io.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MAX_FRAME;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::net::TcpListener;

    fn data(dst: &str, seq: u64, len: usize) -> (Arc<SocketFrame>, TraceCtx) {
        let frame = SocketFrame::Data {
            src: "hub".to_string(),
            dst: dst.to_string(),
            seq,
            payload: vec![0; len],
        };
        (Arc::new(frame), TraceCtx::default())
    }

    fn untraced(from: &str, payload: Vec<u8>) -> Message {
        let (from, trace) = (Arc::from(from), TraceCtx::default());
        Message {
            from,
            payload,
            trace,
        }
    }

    fn seqs(buffer: &RetransmitBuffer) -> Vec<u64> {
        buffer
            .frames()
            .map(|f| match &**f {
                SocketFrame::Data { seq, .. } => *seq,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    fn claim(dst: &str, next: u64) -> Vec<(String, String, u64)> {
        vec![("hub".to_string(), dst.to_string(), next)]
    }

    #[test]
    fn prune_keeps_exactly_the_undelivered_suffix() {
        let mut buffer = RetransmitBuffer::default();
        for seq in 0..5 {
            buffer.push(data("a", seq, 10));
        }
        buffer.push(data("b", 0, 10));
        buffer.prune(claim("a", 3)).expect("nothing evicted");
        // Link b made no claim: everything on it is still owed.
        assert_eq!(seqs(&buffer), [3, 4, 0]);
        assert_eq!(buffer.bytes, 30);
    }

    #[test]
    fn frame_cap_evicts_oldest_and_a_resume_below_the_floor_is_resync() {
        let mut buffer = RetransmitBuffer::default();
        let total = RETRANSMIT_MAX_FRAMES as u64 + 3;
        for seq in 0..total {
            buffer.push(data("a", seq, 1));
        }
        assert_eq!(buffer.len(), RETRANSMIT_MAX_FRAMES);
        assert_eq!(seqs(&buffer)[0], 3);
        match buffer.prune(claim("a", 2)) {
            Err(SocketError::Resync {
                link,
                wanted,
                oldest,
            }) => assert_eq!((link.as_str(), wanted, oldest), ("hub->a", 2, 3)),
            other => panic!("expected Resync, got {other:?}"),
        }
        // A peer that did receive the evicted frames resumes fine.
        buffer.prune(claim("a", 3)).expect("floor honoured");
        assert_eq!(buffer.len(), RETRANSMIT_MAX_FRAMES);
    }

    #[test]
    fn byte_cap_evicts_before_the_frame_cap() {
        let mut buffer = RetransmitBuffer::default();
        let half = RETRANSMIT_MAX_BYTES / 2;
        buffer.push(data("a", 0, half));
        buffer.push(data("a", 1, half));
        assert_eq!(seqs(&buffer), [0, 1]);
        buffer.push(data("a", 2, 1));
        assert_eq!(seqs(&buffer), [1, 2]);
        assert_eq!(buffer.bytes, half + 1);
        assert!(buffer.prune(Vec::new()).is_err(), "seq 0 is gone");
    }

    /// Stamps `n` frames of `len` bytes each on the hub -> `dst` link.
    fn stamp_n(buffer: &mut RetransmitBuffer, dst: &str, n: usize, len: usize) {
        for _ in 0..n {
            buffer.stamp(dst, untraced("hub", vec![0; len]));
        }
    }

    #[test]
    fn a_traced_frame_goes_out_behind_its_ids_first_time_and_on_replay() {
        let mut egress = Egress::new("hub");
        let message = |payload: &[u8], trace_id, parent| Message {
            from: Arc::from("party-0"),
            payload: payload.to_vec(),
            trace: TraceCtx { trace_id, parent },
        };
        let queued = |rx: &Receiver<Arc<SocketFrame>>| -> Vec<SocketFrame> {
            rx.try_iter().map(|f| (*f).clone()).collect()
        };
        let ids = SocketFrame::Trace {
            trace_id: 2,
            msg_id: 9,
        };
        let frame = |seq, payload: &[u8]| SocketFrame::Data {
            src: "party-0".into(),
            dst: "agg-0".into(),
            seq,
            payload: payload.to_vec(),
        };
        let first = egress.resume(Vec::new()).expect("nothing evicted");
        egress.send("agg-0", message(b"traced", 2, 9));
        egress.send("agg-0", message(b"plain", 0, 0));
        let sent = [ids, frame(0, b"traced"), frame(1, b"plain")];
        assert_eq!(queued(&first), sent);
        // The connection dies unacknowledged: a resume replays the same.
        egress.park();
        let replayed = egress.resume(Vec::new()).expect("nothing evicted");
        assert_eq!(queued(&replayed), sent);
    }

    #[test]
    fn an_acknowledgement_drops_its_link_below_next_and_nothing_else() {
        let mut buffer = RetransmitBuffer::default();
        stamp_n(&mut buffer, "a", 5, 10);
        stamp_n(&mut buffer, "b", 2, 7);
        buffer.acknowledge("hub", "a", 3).expect("three were sent");
        assert_eq!(seqs(&buffer), [3, 4, 0, 1]);
        assert_eq!(buffer.bytes, 2 * 10 + 2 * 7);
        // Cumulative: said again, or said late, it drops nothing more.
        buffer.acknowledge("hub", "a", 3).expect("idempotent");
        buffer.acknowledge("hub", "a", 1).expect("stale");
        assert_eq!(seqs(&buffer), [3, 4, 0, 1]);
        assert_eq!(buffer.bytes, 2 * 10 + 2 * 7);
        buffer.acknowledge("hub", "a", 5).expect("all five");
        buffer.acknowledge("hub", "b", 2).expect("both");
        assert!(buffer.is_empty());
        assert_eq!(buffer.bytes, 0);
        // The counters are not the buffer's contents: the link goes on.
        stamp_n(&mut buffer, "a", 1, 4);
        assert_eq!(seqs(&buffer), [5]);
    }

    #[test]
    fn an_acknowledgement_past_what_was_stamped_is_refused_and_drops_nothing() {
        let mut buffer = RetransmitBuffer::default();
        stamp_n(&mut buffer, "a", 3, 10);
        for (dst, claimed, sent) in [("a", 4, 3), ("a", u64::MAX, 3), ("never", 1, 0)] {
            match buffer.acknowledge("hub", dst, claimed) {
                Err(SocketError::Ack {
                    link,
                    next,
                    stamped,
                }) => assert_eq!(
                    (link, next, stamped),
                    (format!("hub->{dst}"), claimed, sent)
                ),
                other => panic!("expected an Ack refusal, got {other:?}"),
            }
        }
        assert_eq!(seqs(&buffer), [0, 1, 2]);
        assert_eq!(buffer.bytes, 30);
    }

    #[test]
    fn an_acknowledgement_leaves_eviction_floors_where_they_were() {
        let mut buffer = RetransmitBuffer::default();
        stamp_n(&mut buffer, "a", RETRANSMIT_MAX_FRAMES + 3, 1);
        assert_eq!(seqs(&buffer)[0], 3);
        // Below the floor there is nothing left to drop...
        buffer.acknowledge("hub", "a", 2).expect("sent long ago");
        assert_eq!(buffer.len(), RETRANSMIT_MAX_FRAMES);
        // ...and above it the floor still records what eviction lost: a
        // peer resuming from under it was never sent those frames again.
        buffer.acknowledge("hub", "a", 10).expect("sent");
        assert_eq!(seqs(&buffer)[0], 10);
        assert_eq!(buffer.bytes, buffer.len());
        assert!(matches!(
            buffer.prune(claim("a", 2)),
            Err(SocketError::Resync {
                wanted: 2,
                oldest: 3,
                ..
            })
        ));
    }
    // --- What crossing a link allocates. ---

    thread_local! {
        /// Bytes this thread has obtained from the allocator (the other
        /// end of each link runs on a thread of its own and must not
        /// leak into the count).
        static BYTES: Cell<usize> = const { Cell::new(0) };
    }

    struct Counting;

    // SAFETY: every call is forwarded unchanged to `System`, which
    // upholds the `GlobalAlloc` contract; the counter is a
    // const-initialised thread-local `Cell` without a destructor, so
    // touching it never allocates or re-enters the allocator. A buffer
    // that grows is charged its growth: what it holds in the end is what
    // it cost, however many steps it took to get there.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            BYTES.with(|n| n.set(n.get() + layout.size()));
            // SAFETY: the caller's obligations are passed on as they came.
            unsafe { System.alloc(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            BYTES.with(|n| n.set(n.get() + new_size.saturating_sub(layout.size())));
            // SAFETY: the caller's obligations are passed on as they came.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with this `layout`.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
        let before = BYTES.with(Cell::get);
        let out = f();
        (out, BYTES.with(Cell::get) - before)
    }

    /// One handshaken link over loopback: (connecting end, accepting end).
    fn link_pair(seed: u64) -> (SecureLink, SecureLink) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let identity = SigningKey::generate(&mut DetRng::from_u64(seed));
        let key = identity.verifying_key();
        let connecting = std::thread::spawn(move || {
            SecureLink::connect(addr, "child", &key, &mut DetRng::from_u64(seed + 1))
        });
        let (stream, _) = listener.accept().expect("accept");
        let accepted =
            SecureLink::accept(stream, "hub", &identity, &mut DetRng::from_u64(seed + 2));
        let connected = connecting.join().expect("connecting thread");
        (connected.expect("connect"), accepted.expect("accept"))
    }

    /// Sends `frame` from a thread of its own while this thread receives
    /// it; returns what arrived and what receiving it allocated.
    fn receive_counted(
        tx: &mut LinkSender,
        rx: &mut LinkReceiver,
        frame: &SocketFrame,
    ) -> (SocketFrame, usize) {
        std::thread::scope(|s| {
            s.spawn(|| tx.send(frame).expect("send"));
            let (got, cost) = allocated_by(|| rx.recv(None, None));
            (got.expect("recv").expect("a frame"), cost)
        })
    }

    /// Sends `frame` from this thread while a thread of its own receives
    /// it; returns what sending it allocated.
    fn send_counted(tx: &mut LinkSender, rx: &mut LinkReceiver, frame: &SocketFrame) -> usize {
        std::thread::scope(|s| {
            s.spawn(|| rx.recv(None, None).expect("recv").expect("a frame"));
            allocated_by(|| tx.send(frame).expect("send")).1
        })
    }

    #[test]
    fn a_relayed_fragment_costs_each_receiver_one_buffer_and_a_warm_sender_nothing() {
        const PAYLOAD: usize = 1 << 20;
        // Names, the frame queue's first block, the decoder's first step.
        const SLACK: usize = 32 * 1024;
        let fragment = |seq: u64| SocketFrame::Data {
            src: "party-0".to_string(),
            dst: "agg-0".to_string(),
            seq,
            payload: (0..PAYLOAD).map(|i| (i as u64 * 31 + seq) as u8).collect(),
        };
        // child A -> hub -> child B, as two links.
        let (child_a, hub_a) = link_pair(10);
        let (hub_b, child_b) = link_pair(20);
        let (mut a_tx, _a_rx) = child_a.split().expect("split");
        let (_hub_a_tx, mut hub_a_rx) = hub_a.split().expect("split");
        let (mut hub_b_tx, _hub_b_rx) = hub_b.split().expect("split");
        let (_b_tx, mut b_rx) = child_b.split().expect("split");

        let first = fragment(0);
        let (at_hub, cost) = receive_counted(&mut a_tx, &mut hub_a_rx, &first);
        assert!(cost <= PAYLOAD + SLACK, "hub ingress allocated {cost}");
        assert_eq!(at_hub, first);
        // The hub relays the frame it received, payload and all.
        let (at_b, cost) = receive_counted(&mut hub_b_tx, &mut b_rx, &at_hub);
        assert!(cost <= PAYLOAD + SLACK, "child ingress allocated {cost}");
        assert_eq!(at_b, first);

        // Both senders have now sized their wire buffer for a fragment.
        let second = fragment(1);
        assert_eq!(send_counted(&mut a_tx, &mut hub_a_rx, &second), 0);
        assert_eq!(send_counted(&mut hub_b_tx, &mut b_rx, &second), 0);
    }

    #[test]
    fn acknowledged_links_retain_what_is_in_flight_not_what_was_sent() {
        const PAYLOAD: usize = 1 << 20;
        // Four times the byte cap crosses each link.
        const FRAMES: u64 = 32;
        fn held(buffer: &Mutex<RetransmitBuffer>) -> MutexGuard<'_, RetransmitBuffer> {
            buffer.lock().expect("no holder panics")
        }
        fn data(frame: Option<SocketFrame>) -> (String, String, u64, Vec<u8>) {
            match frame {
                Some(SocketFrame::Data {
                    src,
                    dst,
                    seq,
                    payload,
                }) => (src, dst, seq, payload),
                other => panic!("expected a Data frame, got {other:?}"),
            }
        }
        // child A -> hub -> child B, as two links. Each receiver
        // acknowledges what its window accepts; each sender prunes on it.
        let (child_a, hub_a) = link_pair(30);
        let (hub_b, child_b) = link_pair(40);
        let (mut a_tx, mut a_rx) = child_a.split().expect("split");
        let (mut hub_a_tx, mut hub_a_rx) = hub_a.split().expect("split");
        let (mut hub_b_tx, mut hub_b_rx) = hub_b.split().expect("split");
        let (mut b_tx, mut b_rx) = child_b.split().expect("split");
        let (at_a, at_hub) = (Mutex::default(), Mutex::default());
        let (last_ack_in, settled) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            // Hub: accept, acknowledge to A, take custody, relay to B.
            s.spawn(|| {
                let mut window = crate::wire::ReplayWindow::new();
                for _ in 0..FRAMES {
                    let (src, dst, seq, payload) = data(hub_a_rx.recv(None, None).expect("recv"));
                    window.accept(&src, &dst, seq).expect("in order");
                    let relayed = held(&at_hub).stamp(&dst, untraced(&src, payload));
                    let next = seq + 1;
                    hub_a_tx
                        .send(&SocketFrame::Ack { src, dst, next })
                        .expect("ack");
                    hub_b_tx.send(&relayed).expect("relay");
                }
            });
            // Child B: accept, acknowledge to the hub.
            s.spawn(|| {
                let mut window = crate::wire::ReplayWindow::new();
                for _ in 0..FRAMES {
                    let (src, dst, seq, _) = data(b_rx.recv(None, None).expect("recv"));
                    window.accept(&src, &dst, seq).expect("in order");
                    let next = seq + 1;
                    b_tx.send(&SocketFrame::Ack { src, dst, next })
                        .expect("ack");
                }
            });
            // Both senders' readers: honour acknowledgements up to the last.
            for (rx, buffer) in [(&mut a_rx, &at_a), (&mut hub_b_rx, &at_hub)] {
                let last_ack_in = last_ack_in.clone();
                s.spawn(move || loop {
                    match rx.recv(None, None).expect("recv") {
                        Some(SocketFrame::Ack { src, dst, next }) => {
                            held(buffer)
                                .acknowledge(&src, &dst, next)
                                .expect("honoured");
                            if next == FRAMES {
                                last_ack_in.send(()).expect("the test is waiting");
                                return;
                            }
                        }
                        other => panic!("expected an Ack, got {other:?}"),
                    }
                });
            }
            // Child A's writer, on this thread: what it allocates counts.
            for i in 0..FRAMES {
                let frame = held(&at_a).stamp("agg-0", untraced("party-0", vec![i as u8; PAYLOAD]));
                let ((), cost) = allocated_by(|| a_tx.send(&frame).expect("send"));
                // The first frame sized the wire buffer.
                assert!(i == 0 || cost == 0, "sending frame {i} allocated {cost}");
            }
            for _ in 0..2 {
                settled
                    .recv_timeout(Duration::from_secs(60))
                    .expect("the last acknowledgement arrives");
            }
        });
        for (side, buffer) in [("child", &at_a), ("hub", &at_hub)] {
            let buffer = held(buffer);
            assert!(buffer.len() <= 1, "{side} retains {} frames", buffer.len());
            assert!(
                buffer.bytes <= PAYLOAD,
                "{side} retains {} bytes",
                buffer.bytes
            );
        }
    }

    #[test]
    fn a_declared_length_reserves_only_what_the_peer_then_sends() {
        // `accept` reads its first frame before anyone is authenticated.
        // Declaring the largest frame there is must cost the reader what
        // arrives behind the declaration, not the declaration.
        let identity = SigningKey::generate(&mut DetRng::from_u64(5));
        for sent in [0usize, 40 * 1024] {
            let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
            let addr = listener.local_addr().expect("addr");
            let peer = std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut bytes = (MAX_FRAME as u32).to_le_bytes().to_vec();
                bytes.resize(4 + sent, 0xee);
                stream.write_all(&bytes).expect("write");
                // Dropped: the reader sees the end of the stream.
            });
            let (stream, _) = listener.accept().expect("accept");
            peer.join().expect("peer thread");
            let (outcome, cost) = allocated_by(|| {
                SecureLink::accept(stream, "incoming", &identity, &mut DetRng::from_u64(6))
            });
            // A stream that ends inside its first frame: what it always was.
            assert!(
                matches!(
                    outcome,
                    Err(SocketError::Handshake {
                        source: deta_transport::TransportError::Malformed,
                        ..
                    })
                ),
                "{sent} bytes sent"
            );
            assert!(
                cost < 64 * 1024 + 2 * sent,
                "{sent} bytes behind a 64 MiB declaration cost the reader {cost}"
            );
        }
    }
}
