//! Outer length-prefixed framing for the TCP byte stream.
//!
//! A frame is `[u32 little-endian length][length bytes]`. The decoder is
//! incremental: bytes arrive in arbitrary chunks (TCP gives no message
//! boundaries) and complete frames are yielded as they become available.
//! Torn reads — a length split across two `read` calls, a payload
//! arriving one byte at a time — are the normal case, not an error.
//!
//! Each frame's body is assembled in a buffer of its own, which is what
//! [`FrameDecoder::try_next`] hands out: nothing is copied out of a
//! shared accumulation buffer, and [`FrameDecoder::read_from`] has the
//! stream write a large body straight into it. That buffer is sized from
//! the prefix but *grown as bytes arrive*: the prefix is the peer's
//! claim, read before any authentication, and a claim must not be able
//! to reserve memory the peer never fills.
//!
//! The decoder is total: no input byte sequence can make it panic, and
//! the only error is a declared length above [`MAX_FRAME`] (a corrupt or
//! hostile peer; honest frames are bounded by model size). That error is
//! sticky — a stream that desynchronized once cannot be trusted to
//! resynchronize, so the connection must be dropped.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read};

/// Upper bound on a single frame's payload length. Honest traffic is a
/// sealed model fragment plus header overhead, far below this; a length
/// prefix above it is treated as stream corruption rather than an
/// allocation request.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Bytes of the length prefix.
pub const FRAME_HEADER: usize = 4;

/// The least a body buffer grows by, and so the most a peer can make the
/// decoder reserve beyond twice what it has actually sent.
const GROWTH_STEP: usize = 16 * 1024;

/// Length-prefixes `payload` into a wire frame of its own.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.extend_from_slice(payload);
    write_frame_header(&mut out);
    out
}

/// Fills in the prefix of a frame built in place: `frame` is
/// [`FRAME_HEADER`] reserved bytes followed by the payload.
///
/// # Panics
///
/// Panics if `frame` is shorter than its header.
pub(crate) fn write_frame_header(frame: &mut [u8]) {
    let len = (frame.len() - FRAME_HEADER) as u32;
    frame[..FRAME_HEADER].copy_from_slice(&len.to_le_bytes());
}

/// Framing-layer failure: the stream declared an implausible length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// The declared payload length that exceeded [`MAX_FRAME`].
    pub len: usize,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame length {} exceeds the {} byte limit",
            self.len, MAX_FRAME
        )
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame decoder over an untrusted byte stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// The prefix of the frame being assembled, as far as it has arrived.
    header: [u8; FRAME_HEADER],
    header_len: usize,
    /// The body being assembled once its prefix is complete, with the
    /// length the prefix declared.
    body: Option<(Vec<u8>, usize)>,
    /// Complete frames not yet yielded.
    ready: VecDeque<Vec<u8>>,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the stream (any chunking).
    pub fn push(&mut self, mut bytes: &[u8]) {
        while self.poisoned.is_none() && !bytes.is_empty() {
            let Some((body, want)) = &mut self.body else {
                let n = bytes.len().min(FRAME_HEADER - self.header_len);
                self.header[self.header_len..][..n].copy_from_slice(&bytes[..n]);
                self.header_len += n;
                bytes = &bytes[n..];
                self.begin_body();
                continue;
            };
            let n = bytes.len().min(make_room(body, *want));
            body.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
            self.finish_body();
        }
    }

    /// Reads once from `stream`: straight into the body being assembled
    /// when there is one (no intermediate buffer, however large the
    /// frame), through a small stack buffer and [`FrameDecoder::push`]
    /// otherwise (a prefix, or several small frames at once). Returns
    /// the bytes read; `Ok(0)` is end of stream.
    ///
    /// # Errors
    ///
    /// Whatever `stream` reports, timeouts included; bytes read before
    /// the error are kept.
    pub fn read_from(&mut self, stream: &mut impl Read) -> io::Result<usize> {
        let Some((body, want)) = &mut self.body else {
            let mut chunk = [0u8; GROWTH_STEP];
            let n = stream.read(&mut chunk)?;
            self.push(&chunk[..n]);
            return Ok(n);
        };
        let before = body.len();
        // `read_to_end` on a limited reader is how safe code reads into
        // spare capacity: it appends what arrives, keeps it when the
        // stream then reports an error (a poll timeout), and the limit
        // keeps it from growing the buffer past `make_room`'s step.
        let room = make_room(body, *want) as u64;
        let outcome = stream.by_ref().take(room).read_to_end(body);
        let n = body.len() - before;
        self.finish_body();
        match outcome {
            Err(e) if n == 0 => Err(e),
            _ => Ok(n),
        }
    }

    /// Once the prefix is complete: checks it and opens the body.
    fn begin_body(&mut self) {
        if self.header_len < FRAME_HEADER {
            return;
        }
        self.header_len = 0;
        let len = u32::from_le_bytes(self.header) as usize;
        if len > MAX_FRAME {
            self.poisoned = Some(FrameError { len });
            return;
        }
        self.body = Some((Vec::new(), len));
        self.finish_body();
    }

    /// Moves the body to the ready queue once it is complete.
    fn finish_body(&mut self) {
        if let Some((body, _)) = self.body.take_if(|(body, want)| body.len() == *want) {
            self.ready.push_back(body);
        }
    }

    /// Bytes buffered but not yet yielded as frames.
    pub fn buffered(&self) -> usize {
        let ready: usize = self.ready.iter().map(|f| FRAME_HEADER + f.len()).sum();
        let body = self
            .body
            .as_ref()
            .map_or(self.header_len, |(b, _)| FRAME_HEADER + b.len());
        ready + body
    }

    /// Yields the next complete frame payload, `None` when more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// [`FrameError`] when the stream declares a length above
    /// [`MAX_FRAME`] — after every frame that was complete before it —
    /// and then on every subsequent call (the stream is unrecoverable).
    pub fn try_next(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(frame) = self.ready.pop_front() {
            return Ok(Some(frame));
        }
        match &self.poisoned {
            Some(e) => Err(e.clone()),
            None => Ok(None),
        }
    }
}

/// Makes sure `body`, which is to reach `want` bytes, has spare capacity,
/// and returns how much: the rest of the frame when that is little, and
/// otherwise no more than has already arrived. Allocation follows bytes,
/// not declarations — a prefix claiming [`MAX_FRAME`] with nothing
/// behind it costs one [`GROWTH_STEP`] — yet the capacity ends up exactly
/// `want`, after a number of steps logarithmic in it.
fn make_room(body: &mut Vec<u8>, want: usize) -> usize {
    if body.capacity() == body.len() {
        let missing = want - body.len();
        body.reserve_exact(missing.min(body.len().max(GROWTH_STEP)));
    }
    (body.capacity() - body.len()).min(want - body.len())
}
