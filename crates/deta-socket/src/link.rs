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
//! frames its peer never delivered.

use crate::frame::{encode_frame, FrameDecoder};
use crate::wire::SocketFrame;
use crate::SocketError;
use deta_crypto::{DetRng, SigningKey, VerifyingKey};
use deta_transport::secure::{self, HandshakeInitiator, SecureChannel};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// OS-level read poll granularity: how often a blocked reader rechecks
/// its stop flag or deadline.
const POLL: Duration = Duration::from_millis(20);

/// Handshake messages must arrive within this window.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(10);

/// Retransmit-buffer cap, in frames, per endpoint. Both bridge sides
/// bound their unacknowledged-frame buffers identically; past either
/// cap the oldest frames are evicted and the per-link floor advances,
/// so a later resume needing them fails with a structured `Resync`
/// error instead of a silent gap.
const RETRANSMIT_MAX_FRAMES: usize = 1024;

/// Retransmit-buffer cap, in buffered payload bytes, per endpoint. The
/// byte cap is the one that matters for model uploads: a count-only
/// bound would happily pin hundreds of megabytes per seat.
const RETRANSMIT_MAX_BYTES: usize = 8 * 1024 * 1024;

/// Every stamped `Data` frame one endpoint has sent and does not yet
/// know to be delivered, oldest first, bounded by
/// [`RETRANSMIT_MAX_FRAMES`] and [`RETRANSMIT_MAX_BYTES`]. The hub keeps
/// one per seat, a child one for its link; it outlives connections, and
/// it is always on — without it an abrupt TCP loss is unrecoverable.
#[derive(Default)]
pub(crate) struct RetransmitBuffer {
    frames: VecDeque<SocketFrame>,
    /// Total buffered payload bytes (the byte-cap accounting).
    bytes: usize,
    /// Per-(src, dst) seq of the oldest frame still retransmittable; an
    /// entry appears only once eviction has discarded something on that
    /// link.
    floor: BTreeMap<(String, String), u64>,
}

impl RetransmitBuffer {
    fn payload_len(frame: &SocketFrame) -> usize {
        match frame {
            SocketFrame::Data { payload, .. } => payload.len(),
            _ => 0,
        }
    }

    /// Retains a stamped frame, evicting from the front and advancing
    /// the per-link floor while over either cap.
    pub fn push(&mut self, frame: SocketFrame) {
        self.bytes += Self::payload_len(&frame);
        self.frames.push_back(frame);
        while self.frames.len() > RETRANSMIT_MAX_FRAMES || self.bytes > RETRANSMIT_MAX_BYTES {
            let Some(old) = self.frames.pop_front() else {
                break;
            };
            self.bytes = self.bytes.saturating_sub(Self::payload_len(&old));
            if let SocketFrame::Data { src, dst, seq, .. } = old {
                self.floor.insert((src, dst), seq + 1);
            }
        }
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
        self.frames.retain(|f| match f {
            SocketFrame::Data { src, dst, seq, .. } => {
                let claimed = claims
                    .get(&(src.clone(), dst.clone()))
                    .copied()
                    .unwrap_or(0);
                *seq >= claimed
            }
            _ => true,
        });
        self.bytes = self.frames.iter().map(Self::payload_len).sum();
        Ok(())
    }

    /// The retained frames, oldest first.
    pub fn frames(&self) -> impl Iterator<Item = &SocketFrame> {
        self.frames.iter()
    }

    /// Number of retained frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }
}

/// Recovers a channel guard even if a peer thread panicked mid-seal;
/// channel state is a pair of counters and keys, always consistent.
fn lock_channel(m: &Mutex<SecureChannel>) -> MutexGuard<'_, SecureChannel> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Seals one frame for the wire (encode then record-protect).
fn seal_frame(channel: &Mutex<SecureChannel>, frame: &SocketFrame) -> Vec<u8> {
    lock_channel(channel).seal_msg(&frame.encode())
}

/// Opens one record and parses the frame inside it.
fn unseal_frame(
    channel: &Mutex<SecureChannel>,
    label: &str,
    record: &[u8],
) -> Result<SocketFrame, SocketError> {
    let plain = lock_channel(channel)
        .open_msg(record)
        .map_err(|_| SocketError::Record {
            link: label.to_string(),
        })?;
    SocketFrame::decode(&plain).ok_or_else(|| SocketError::Malformed {
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
        let mut chunk = [0u8; 16 * 1024];
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
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.decoder.push(&chunk[..n]),
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
        let record = seal_frame(&self.channel, frame);
        self.io.write_frame(&record)
    }

    /// Blocks until the next frame, EOF/stop (`None`), or a deadline.
    pub fn recv(
        &mut self,
        deadline: Option<Instant>,
        stop: Option<&AtomicBool>,
    ) -> Result<Option<SocketFrame>, SocketError> {
        match self.io.read_frame(deadline, stop)? {
            None => Ok(None),
            Some(record) => unseal_frame(&self.channel, &self.io.label, &record).map(Some),
        }
    }

    /// Splits into an independently-owned sender and receiver (the
    /// record counters stay shared, each direction strictly ordered by
    /// its single owning thread).
    pub fn split(self) -> Result<(LinkSender, LinkReceiver), SocketError> {
        let write_stream = self.io.stream.try_clone()?;
        let sender = LinkSender {
            stream: write_stream,
            channel: Arc::clone(&self.channel),
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
}

impl LinkSender {
    /// Seals and writes one frame.
    pub fn send(&mut self, frame: &SocketFrame) -> Result<(), SocketError> {
        let record = seal_frame(&self.channel, frame);
        self.stream.write_all(&encode_frame(&record))?;
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
            Some(record) => unseal_frame(&self.channel, &self.io.label, &record).map(Some),
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

    fn data(dst: &str, seq: u64, len: usize) -> SocketFrame {
        SocketFrame::Data {
            src: "hub".to_string(),
            dst: dst.to_string(),
            seq,
            payload: vec![0; len],
        }
    }

    fn seqs(buffer: &RetransmitBuffer) -> Vec<u64> {
        buffer
            .frames()
            .map(|f| match f {
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
}
