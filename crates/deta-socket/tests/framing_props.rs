//! Property tests for the bridge's outer length-prefixed framing
//! ([`FrameDecoder`]); the inner tagged frame codec's laws are in
//! `tests/wire_laws.rs` at the workspace root.
//!
//! The decoder sits directly on attacker-reachable bytes (a TCP peer
//! controls them before any authentication), so the properties here are
//! totality properties: no input, however mangled, may panic it, and
//! honest encodings must survive arbitrary re-chunking.

use deta_proptest::{cases, Gen};
use deta_socket::{encode_frame, FrameDecoder, MAX_FRAME};

/// Drains every decodable frame, stopping at a framing error.
fn drain(decoder: &mut FrameDecoder) -> Result<Vec<Vec<u8>>, usize> {
    let mut out = Vec::new();
    loop {
        match decoder.try_next() {
            Ok(Some(frame)) => out.push(frame),
            Ok(None) => return Ok(out),
            Err(e) => return Err(e.len),
        }
    }
}

#[test]
fn arbitrary_bytes_never_panic_the_decoder() {
    cases("socket/decoder-total", 400, |g: &mut Gen| {
        let mut decoder = FrameDecoder::new();
        // Feed a handful of arbitrary chunks, draining between pushes —
        // exactly the read-loop call pattern.
        let chunks = g.usize_in(1, 6);
        for _ in 0..chunks {
            let chunk = g.bytes(0, 512);
            decoder.push(&chunk);
            // Any outcome is acceptable; panicking is not.
            let _ = drain(&mut decoder);
        }
    });
}

#[test]
fn oversize_length_prefix_is_a_sticky_error_not_a_panic() {
    cases("socket/decoder-oversize", 100, |g: &mut Gen| {
        let mut decoder = FrameDecoder::new();
        let over = (MAX_FRAME as u64 + 1 + g.u64_in(0, 1 << 20)) as u32;
        decoder.push(&over.to_le_bytes());
        decoder.push(&g.bytes(0, 64));
        let first = drain(&mut decoder);
        assert!(first.is_err(), "an oversize prefix must be rejected");
        // The error is sticky: the stream is unrecoverable even if
        // well-formed frames follow.
        decoder.push(&encode_frame(b"ok"));
        assert!(drain(&mut decoder).is_err(), "framing errors must stick");
    });
}

#[test]
fn encode_then_rechunk_round_trips_exactly() {
    cases("socket/frame-rechunk", 300, |g: &mut Gen| {
        // A batch of frames (empty payloads included), concatenated...
        let frames = g.vec_of(1, 8, |g| g.bytes(0, 300));
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        // ...then split at arbitrary boundaries before decoding.
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut rest = wire.as_slice();
        while !rest.is_empty() {
            let cut = g.usize_in(1, rest.len() + 1);
            decoder.push(&rest[..cut]);
            rest = &rest[cut..];
            decoded.extend(drain(&mut decoder).expect("honest stream"));
        }
        assert_eq!(decoded, frames, "re-chunking must not alter frames");
        assert_eq!(decoder.buffered(), 0, "no bytes may be left behind");
    });
}
