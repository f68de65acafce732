//! One secured TCP link: length-prefixed frames carrying sealed records
//! of the [`deta_transport::secure`] channel.
//!
//! A link is built in two steps. [`SecureLink::connect`] /
//! [`SecureLink::accept`] run the handshake over raw frames (hello and
//! response are self-authenticating; everything after is sealed) and
//! hand back its two halves, a [`LinkSender`] and a [`LinkReceiver`].
//! The caller performs the challenge/auth exchange at the
//! [`crate::wire::SocketFrame`] layer through them, then moves each to
//! its own thread so one can write while the other blocks reading.
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
use crate::wire::SocketFrame;
use crate::SocketError;
use deta_crypto::poly1305::TAG_LEN;
use deta_crypto::{DetRng, SigningKey, VerifyingKey};
use deta_transport::secure::{self, HandshakeInitiator, SecureChannel};
use deta_transport::{Message, TraceCtx};
use std::collections::VecDeque;
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
/// evicted and the floor advances, so a later resume needing them fails
/// with a structured `Resync` error instead of a silent gap.
const RETRANSMIT_MAX_FRAMES: usize = 1024;

/// Retransmit-buffer cap, in buffered payload bytes, per endpoint. The
/// byte cap is the one that matters for model uploads: a count-only
/// bound would happily pin hundreds of megabytes per seat.
const RETRANSMIT_MAX_BYTES: usize = 8 * 1024 * 1024;

/// Every `Data` frame one end of a link has sent and its peer has not yet
/// acknowledged, oldest first — what is *in flight* on a healthy link,
/// what accumulated during the outage on a parked one, bounded by
/// `RETRANSMIT_MAX_FRAMES` and `RETRANSMIT_MAX_BYTES` (1024 frames,
/// 8 MiB). The hub keeps one per seat, a child one for its link; it
/// outlives connections, and it is always on — without it an abrupt TCP
/// loss is unrecoverable.
///
/// One frame's life is `stamp → retain → acknowledge → prune`, and all
/// four are here: the buffer numbers its direction of the link with one
/// counter ([`RetransmitBuffer::stamp`]), so it can refuse an
/// acknowledgement for frames it never sent
/// ([`RetransmitBuffer::acknowledge`]), and a resume's claim prunes what
/// no acknowledgement reached it for ([`RetransmitBuffer::prune`]). The
/// retained frames are always the consecutive numbers below that counter,
/// so each of those steps drops a prefix. Frames are held behind `Arc`,
/// so the copy retained here and the one queued for a link writer are the
/// same allocation.
pub struct RetransmitBuffer {
    /// The direction the buffer feeds, as `src->dst`, for errors and
    /// telemetry.
    link: String,
    /// Each frame beside the trace context it was sent with, so that a
    /// replay sends its ids ahead of it again.
    frames: VecDeque<(Arc<SocketFrame>, TraceCtx)>,
    /// Total buffered payload bytes (the byte-cap accounting).
    bytes: usize,
    /// The seq of the oldest frame eviction has left retransmittable; a
    /// claim below it cannot be honoured.
    floor: u64,
    /// The send counter: the next `seq` to stamp. It outlives connections
    /// with the buffer, so a retransmitted frame carries the seq of the
    /// original.
    next: u64,
}

impl RetransmitBuffer {
    /// An empty buffer for the direction named `link` (`src->dst`).
    pub fn new(link: impl Into<String>) -> RetransmitBuffer {
        RetransmitBuffer {
            link: link.into(),
            frames: VecDeque::new(),
            bytes: 0,
            floor: 0,
            next: 0,
        }
    }

    fn payload_len(frame: &SocketFrame) -> usize {
        match frame {
            SocketFrame::Data { payload, .. } => payload.len(),
            _ => 0,
        }
    }

    /// Makes `msg` the next `Data` frame of the direction, for `to`, and
    /// retains it with its trace context; the caller forwards the
    /// returned frame if its link is live.
    pub fn stamp(&mut self, to: &str, msg: Message) -> Arc<SocketFrame> {
        let frame = Arc::new(SocketFrame::Data {
            src: msg.from.to_string(),
            dst: to.to_string(),
            seq: self.next,
            payload: msg.payload,
        });
        self.next += 1;
        self.bytes += Self::payload_len(&frame);
        self.frames.push_back((Arc::clone(&frame), msg.trace));
        while self.frames.len() > RETRANSMIT_MAX_FRAMES || self.bytes > RETRANSMIT_MAX_BYTES {
            self.drop_below(self.oldest() + 1);
            self.floor = self.oldest();
        }
        frame
    }

    /// The seq of the oldest retained frame (the counter when empty).
    fn oldest(&self) -> u64 {
        self.next - self.frames.len() as u64
    }

    /// Drops every retained frame below `next`.
    fn drop_below(&mut self, next: u64) {
        let n = usize::try_from(next.saturating_sub(self.oldest())).unwrap_or(usize::MAX);
        for (frame, _) in self.frames.drain(..n.min(self.frames.len())) {
            self.bytes -= Self::payload_len(&frame);
        }
    }

    /// Honours a [`SocketFrame::Ack`]: drops every retained frame below
    /// `next`. Cumulative and idempotent — a stale or repeated
    /// acknowledgement drops nothing. The eviction floor is untouched.
    ///
    /// # Errors
    ///
    /// [`SocketError::Ack`] when `next` is past every sequence number
    /// stamped; nothing is dropped.
    pub fn acknowledge(&mut self, next: u64) -> Result<(), SocketError> {
        if next > self.next {
            return Err(SocketError::Ack {
                link: self.link.clone(),
                next,
                stamped: self.next,
            });
        }
        self.drop_below(next);
        if deta_obs::enabled() {
            deta_obs::metrics::counter_add("deta_socket_acks_total", &self.link, 1);
        }
        Ok(())
    }

    /// Prunes to the frames a resuming peer still needs: `claim` is the
    /// next `seq` its window takes, from its `Resume`/`ResumeAck`.
    ///
    /// # Errors
    ///
    /// [`SocketError::Resync`] when a needed frame was already evicted:
    /// the link cannot be resumed without a silent gap.
    pub fn prune(&mut self, claim: u64) -> Result<(), SocketError> {
        if claim < self.floor {
            return Err(SocketError::Resync {
                link: self.link.clone(),
                wanted: claim,
                oldest: self.floor,
            });
        }
        self.drop_below(claim);
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
        if deta_obs::enabled() {
            deta_obs::metrics::histogram_observe(
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
    /// A parked egress with nothing sent, for the direction named `link`
    /// (`src->dst`), observed as `node`'s.
    pub fn new(node: &str, link: String) -> Egress {
        Egress {
            node: node.to_string(),
            tx: None,
            buffer: RetransmitBuffer::new(link),
        }
    }

    /// A message for `to` on its way out: stamped as the next `Data` frame
    /// of the direction, retained, and queued for the writer if the link
    /// is live — one allocation, shared — behind its ids, if it is traced.
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
    pub fn acknowledge(&mut self, next: u64) -> Result<(), SocketError> {
        self.buffer.acknowledge(next)
    }

    /// A new connection takes over: prunes to what the peer's `claim`
    /// says it still needs, queues that backlog ([`Egress::unacked`]
    /// frames) and goes live — under the caller's one lock, so no fresh
    /// frame lands among the replayed. Returns the queue for the
    /// connection's [`write_loop`].
    ///
    /// # Errors
    ///
    /// [`SocketError::Resync`], from [`RetransmitBuffer::prune`]; the
    /// egress stays parked.
    pub fn resume(&mut self, claim: u64) -> Result<Receiver<Arc<SocketFrame>>, SocketError> {
        self.buffer.prune(claim)?;
        let (tx, rx) = channel();
        for (frame, trace) in &self.buffer.frames {
            queue(&tx, frame, *trace);
        }
        self.tx = Some(tx);
        Ok(rx)
    }

    /// Detaches the writer: it drains what is queued and exits. The
    /// buffer, its floor and its counter stay for a resume.
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
}

impl LinkIo {
    fn new(stream: TcpStream, label: String) -> Result<LinkIo, SocketError> {
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(POLL))?;
        Ok(LinkIo {
            stream,
            decoder: FrameDecoder::new(),
            label,
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

/// An established secure link (handshake done, records flowing) as its
/// two halves, which the caller may move to threads of their own. The
/// record counters stay shared, each direction strictly ordered by its
/// single owning thread.
pub(crate) struct SecureLink {
    /// The write half.
    pub tx: LinkSender,
    /// The read half.
    pub rx: LinkReceiver,
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
        SecureLink::established(io, channel)
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
        SecureLink::established(io, channel)
    }

    /// The two halves of a handshaken stream.
    fn established(io: LinkIo, channel: SecureChannel) -> Result<SecureLink, SocketError> {
        let channel = Arc::new(Mutex::new(channel));
        let tx = LinkSender {
            stream: io.stream.try_clone()?,
            channel: Arc::clone(&channel),
            wire: Vec::new(),
        };
        Ok(SecureLink {
            tx,
            rx: LinkReceiver { io, channel },
        })
    }
}

/// Write half of a link.
pub(crate) struct LinkSender {
    stream: TcpStream,
    channel: Arc<Mutex<SecureChannel>>,
    /// The outgoing frame buffer (see [`seal_frame`]).
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

/// Read half of a link.
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

    /// The next frame, with the trace context a `Trace` frame directly
    /// ahead of it carried — the default if none.
    ///
    /// # Errors
    ///
    /// As [`LinkReceiver::recv`], and [`SocketError::Malformed`] when a
    /// `Trace` is followed by anything but a `Data` frame.
    pub fn recv_message(
        &mut self,
        stop: &AtomicBool,
    ) -> Result<Option<(SocketFrame, TraceCtx)>, SocketError> {
        let frame = self.recv(None, Some(stop))?;
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

    /// Stamps `n` frames of `len` bytes each from the hub for `dst`.
    fn stamp_n(buffer: &mut RetransmitBuffer, dst: &str, n: usize, len: usize) {
        for _ in 0..n {
            buffer.stamp(dst, untraced("hub", vec![0; len]));
        }
    }

    fn hub_egress() -> RetransmitBuffer {
        RetransmitBuffer::new("hub->child")
    }

    #[test]
    fn prune_keeps_exactly_the_undelivered_suffix() {
        let mut buffer = hub_egress();
        stamp_n(&mut buffer, "a", 2, 10);
        stamp_n(&mut buffer, "b", 1, 10);
        stamp_n(&mut buffer, "a", 2, 10);
        // One counter numbers the direction, whatever each frame's `dst`.
        buffer.prune(3).expect("nothing evicted");
        assert_eq!(seqs(&buffer), [3, 4]);
        assert_eq!(buffer.bytes, 20);
        let dsts: Vec<&str> = (buffer.frames())
            .map(|f| match &**f {
                SocketFrame::Data { dst, .. } => dst.as_str(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(dsts, ["a", "a"]);
    }

    #[test]
    fn frame_cap_evicts_oldest_and_a_resume_below_the_floor_is_resync() {
        let mut buffer = hub_egress();
        stamp_n(&mut buffer, "a", RETRANSMIT_MAX_FRAMES + 3, 1);
        assert_eq!(buffer.len(), RETRANSMIT_MAX_FRAMES);
        assert_eq!(seqs(&buffer)[0], 3);
        match buffer.prune(2) {
            Err(SocketError::Resync {
                link,
                wanted,
                oldest,
            }) => assert_eq!((link.as_str(), wanted, oldest), ("hub->child", 2, 3)),
            other => panic!("expected Resync, got {other:?}"),
        }
        // A peer that did receive the evicted frames resumes fine.
        buffer.prune(3).expect("floor honoured");
        assert_eq!(buffer.len(), RETRANSMIT_MAX_FRAMES);
    }

    #[test]
    fn byte_cap_evicts_before_the_frame_cap() {
        let mut buffer = hub_egress();
        let half = RETRANSMIT_MAX_BYTES / 2;
        stamp_n(&mut buffer, "a", 2, half);
        assert_eq!(seqs(&buffer), [0, 1]);
        stamp_n(&mut buffer, "b", 1, 1);
        assert_eq!(seqs(&buffer), [1, 2]);
        assert_eq!(buffer.bytes, half + 1);
        assert!(buffer.prune(0).is_err(), "seq 0 is gone");
    }

    #[test]
    fn a_traced_frame_goes_out_behind_its_ids_first_time_and_on_replay() {
        let mut egress = Egress::new("hub", "hub->agg-0".to_string());
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
        let first = egress.resume(0).expect("nothing evicted");
        egress.send("agg-0", message(b"traced", 2, 9));
        egress.send("agg-0", message(b"plain", 0, 0));
        let sent = [ids, frame(0, b"traced"), frame(1, b"plain")];
        assert_eq!(queued(&first), sent);
        // The connection dies unacknowledged: a resume replays the same.
        egress.park();
        let replayed = egress.resume(0).expect("nothing evicted");
        assert_eq!(queued(&replayed), sent);
    }

    #[test]
    fn an_acknowledgement_drops_its_link_below_next_and_nothing_else() {
        let mut buffer = hub_egress();
        stamp_n(&mut buffer, "a", 5, 10);
        stamp_n(&mut buffer, "b", 2, 7);
        buffer.acknowledge(3).expect("three were sent");
        assert_eq!(seqs(&buffer), [3, 4, 5, 6]);
        assert_eq!(buffer.bytes, 2 * 10 + 2 * 7);
        // Cumulative: said again, or said late, it drops nothing more.
        buffer.acknowledge(3).expect("idempotent");
        buffer.acknowledge(1).expect("stale");
        assert_eq!(seqs(&buffer), [3, 4, 5, 6]);
        assert_eq!(buffer.bytes, 2 * 10 + 2 * 7);
        buffer.acknowledge(7).expect("all seven");
        assert!(buffer.is_empty());
        assert_eq!(buffer.bytes, 0);
        // The counter is not the buffer's contents: the direction goes on.
        stamp_n(&mut buffer, "a", 1, 4);
        assert_eq!(seqs(&buffer), [7]);
    }

    #[test]
    fn an_acknowledgement_past_what_was_stamped_is_refused_and_drops_nothing() {
        let refused =
            |buffer: &mut RetransmitBuffer, claimed, sent| match buffer.acknowledge(claimed) {
                Err(SocketError::Ack {
                    link,
                    next,
                    stamped,
                }) => assert_eq!(
                    (link.as_str(), next, stamped),
                    ("hub->child", claimed, sent)
                ),
                other => panic!("expected an Ack refusal, got {other:?}"),
            };
        let mut buffer = hub_egress();
        stamp_n(&mut buffer, "a", 3, 10);
        refused(&mut buffer, 4, 3);
        refused(&mut buffer, u64::MAX, 3);
        refused(&mut hub_egress(), 1, 0);
        assert_eq!(seqs(&buffer), [0, 1, 2]);
        assert_eq!(buffer.bytes, 30);
    }

    #[test]
    fn an_acknowledgement_leaves_eviction_floors_where_they_were() {
        let mut buffer = hub_egress();
        stamp_n(&mut buffer, "a", RETRANSMIT_MAX_FRAMES + 3, 1);
        assert_eq!(seqs(&buffer)[0], 3);
        // Below the floor there is nothing left to drop...
        buffer.acknowledge(2).expect("sent long ago");
        assert_eq!(buffer.len(), RETRANSMIT_MAX_FRAMES);
        // ...and above it the floor still records what eviction lost: a
        // peer resuming from under it was never sent those frames again.
        buffer.acknowledge(10).expect("sent");
        assert_eq!(seqs(&buffer)[0], 10);
        assert_eq!(buffer.bytes, buffer.len());
        assert!(matches!(
            buffer.prune(2),
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
        let SecureLink { tx: mut a_tx, .. } = child_a;
        let SecureLink {
            rx: mut hub_a_rx, ..
        } = hub_a;
        let SecureLink {
            tx: mut hub_b_tx, ..
        } = hub_b;
        let SecureLink { rx: mut b_rx, .. } = child_b;

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
        let SecureLink {
            tx: mut a_tx,
            rx: mut a_rx,
        } = child_a;
        let SecureLink {
            tx: mut hub_a_tx,
            rx: mut hub_a_rx,
        } = hub_a;
        let SecureLink {
            tx: mut hub_b_tx,
            rx: mut hub_b_rx,
        } = hub_b;
        let SecureLink {
            tx: mut b_tx,
            rx: mut b_rx,
        } = child_b;
        let at_a = Mutex::new(RetransmitBuffer::new("party-0->hub"));
        let at_hub = Mutex::new(RetransmitBuffer::new("hub->agg-0"));
        let (last_ack_in, settled) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            // Hub: accept, acknowledge to A, take custody, relay to B.
            s.spawn(|| {
                let mut window = crate::wire::ReplayWindow::new();
                for _ in 0..FRAMES {
                    let (src, dst, seq, payload) = data(hub_a_rx.recv(None, None).expect("recv"));
                    window.accept(&src, &dst, seq).expect("in order");
                    let relayed = held(&at_hub).stamp(&dst, untraced(&src, payload));
                    hub_a_tx
                        .send(&SocketFrame::Ack { next: seq + 1 })
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
                    b_tx.send(&SocketFrame::Ack { next: seq + 1 }).expect("ack");
                }
            });
            // Both senders' readers: honour acknowledgements up to the last.
            for (rx, buffer) in [(&mut a_rx, &at_a), (&mut hub_b_rx, &at_hub)] {
                let last_ack_in = last_ack_in.clone();
                s.spawn(move || loop {
                    match rx.recv(None, None).expect("recv") {
                        Some(SocketFrame::Ack { next }) => {
                            held(buffer).acknowledge(next).expect("honoured");
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
