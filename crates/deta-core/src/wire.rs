//! Wire protocol between parties and aggregators.
//!
//! A small hand-rolled binary codec (tag byte + length-prefixed fields).
//! Handshake messages from `deta-transport` travel as raw frames; every
//! message defined here is carried *inside* a secure-channel record once
//! the channel is up, except the initial [`Msg::Hello`] wrapper that
//! bootstraps it.
//!
//! Both directions are total: [`Msg::decode`] never panics on malformed
//! input (attacker-controlled bytes reach it directly), and
//! [`Msg::encode`] reports oversized fields instead of silently
//! truncating their length prefixes. The field primitives are
//! [`deta_transport::wire`]'s; this module owns the tags and field order.

use deta_crypto::poly1305::TAG_LEN;
use deta_transport::wire::{put_bytes, put_f32s_from, put_len, Malformed, Reader, TooLong};
use deta_transport::SecureChannel;

/// Protocol messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Secure-channel handshake hello (party -> aggregator), carrying the
    /// raw handshake bytes from `deta-transport`.
    Hello {
        /// Raw handshake hello from the initiator.
        handshake: Vec<u8>,
    },
    /// Handshake response (aggregator -> party).
    HelloReply {
        /// Raw handshake response.
        handshake: Vec<u8>,
    },
    /// Sealed secure-channel record (either direction).
    Record {
        /// AEAD-sealed payload (a serialized inner [`Msg`]).
        sealed: Vec<u8>,
    },
    /// Party registration (inside the channel).
    Register {
        /// Party name.
        party: String,
        /// Training-data weight (e.g. local example count).
        weight: f32,
    },
    /// Registration acknowledged.
    RegisterAck,
    /// Round start announcement (initiator aggregator -> party).
    RoundStart {
        /// Round number, starting at 1.
        round: u64,
        /// Per-round training identifier for the dynamic shuffle.
        training_id: [u8; 16],
    },
    /// Transformed fragment upload (party -> aggregator).
    Upload {
        /// Round number.
        round: u64,
        /// The partitioned (and possibly shuffled) fragment.
        fragment: Vec<f32>,
    },
    /// Paillier ciphertext fragment upload (party -> aggregator).
    UploadEncrypted {
        /// Round number.
        round: u64,
        /// Serialized ciphertexts (big-endian, length-prefixed).
        ciphertexts: Vec<Vec<u8>>,
        /// Number of packed plaintext values.
        value_count: u64,
    },
    /// Aggregated fragment download (aggregator -> party).
    Aggregated {
        /// Round number.
        round: u64,
        /// Aggregated fragment in the same transformed coordinates.
        fragment: Vec<f32>,
    },
    /// Aggregated Paillier ciphertexts (aggregator -> party).
    AggregatedEncrypted {
        /// Round number.
        round: u64,
        /// Homomorphically summed ciphertexts.
        ciphertexts: Vec<Vec<u8>>,
        /// Number of packed plaintext values.
        value_count: u64,
        /// Number of party inputs summed (needed to decode offsets).
        summands: u64,
    },
    /// Inter-aggregator synchronization: initiator tells followers the
    /// round and training id.
    SyncRound {
        /// Round number.
        round: u64,
        /// Training identifier to broadcast.
        training_id: [u8; 16],
    },
    /// Follower acknowledges a completed round to the initiator.
    SyncDone {
        /// Round number.
        round: u64,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_REPLY: u8 = 2;
const TAG_RECORD: u8 = 3;
const TAG_REGISTER: u8 = 4;
const TAG_REGISTER_ACK: u8 = 5;
const TAG_ROUND_START: u8 = 6;
const TAG_UPLOAD: u8 = 7;
const TAG_AGGREGATED: u8 = 8;
const TAG_SYNC_ROUND: u8 = 9;
const TAG_SYNC_DONE: u8 = 10;
const TAG_UPLOAD_ENC: u8 = 11;
const TAG_AGGREGATED_ENC: u8 = 12;

/// Decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError;

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire message")
    }
}

impl std::error::Error for DecodeError {}

/// Encode errors: a variable-length field exceeds the u32 length prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeError;

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire message field exceeds u32 length prefix")
    }
}

impl std::error::Error for EncodeError {}

impl From<Malformed> for DecodeError {
    fn from(_: Malformed) -> DecodeError {
        DecodeError
    }
}

impl From<TooLong> for EncodeError {
    fn from(_: TooLong) -> EncodeError {
        EncodeError
    }
}

/// Bytes a fragment-carrying message spends before its values: tag,
/// round and value count.
pub const FRAGMENT_HEADER: usize = 1 + 8 + 4;

/// Appends a fragment-carrying message (`tag`, round, values), the
/// values written as they are yielded.
fn put_fragment(
    out: &mut Vec<u8>,
    tag: u8,
    round: u64,
    values: impl ExactSizeIterator<Item = f32>,
) -> Result<(), TooLong> {
    out.push(tag);
    out.extend_from_slice(&round.to_le_bytes());
    put_f32s_from(out, values)
}

/// Appends the encoding of [`Msg::Upload`] behind a `u32` length prefix
/// — the form a breach-memory record holds it in — straight from a
/// borrowed fragment, with no buffer of its own. Writes nothing when it
/// refuses.
pub fn put_upload(out: &mut Vec<u8>, round: u64, fragment: &[f32]) -> Result<(), EncodeError> {
    // A length that fits the prefix bounds the value count below its own.
    let encoded = fragment
        .len()
        .checked_mul(4)
        .and_then(|values| values.checked_add(FRAGMENT_HEADER))
        .ok_or(EncodeError)?;
    put_len(out, encoded)?;
    Ok(put_fragment(
        out,
        TAG_UPLOAD,
        round,
        fragment.iter().copied(),
    )?)
}

/// Bytes a [`Msg::Record`] spends before its sealed payload: tag and
/// length prefix.
pub const RECORD_HEADER: usize = 1 + 4;

/// A [`Msg::Record`] in the making: the frame that will go on the wire,
/// header written, with the inner message still in the clear behind it.
/// The only thing it can become is sealed ([`RecordFrame::seal`], in
/// place), so a fragment exists once on the sending side and a
/// plaintext body cannot be handed to an endpoint by mistake.
pub struct RecordFrame(Vec<u8>);

impl RecordFrame {
    /// Reserves the whole frame — header, `body_len` bytes of inner
    /// message, tag — lets `body` append the inner message, and writes
    /// the header for what it appended.
    fn build(
        body_len: usize,
        body: impl FnOnce(&mut Vec<u8>) -> Result<(), EncodeError>,
    ) -> Result<RecordFrame, EncodeError> {
        let mut frame = Vec::with_capacity(RECORD_HEADER + body_len + TAG_LEN);
        frame.push(TAG_RECORD);
        frame.extend_from_slice(&[0; 4]);
        body(&mut frame)?;
        let sealed_len =
            u32::try_from(frame.len() - RECORD_HEADER + TAG_LEN).map_err(|_| EncodeError)?;
        frame[1..RECORD_HEADER].copy_from_slice(&sealed_len.to_le_bytes());
        Ok(RecordFrame(frame))
    }

    /// A record of `msg`.
    pub fn of(msg: &Msg) -> Result<RecordFrame, EncodeError> {
        RecordFrame::build(msg.encoded_len_hint(), |out| msg.encode_into(out))
    }

    /// A record of a message already encoded: a fan-out encodes once and
    /// copies that plaintext into each recipient's frame.
    pub fn of_encoded(plain: &[u8]) -> Result<RecordFrame, EncodeError> {
        RecordFrame::build(plain.len(), |out| {
            out.extend_from_slice(plain);
            Ok(())
        })
    }

    /// A record of [`Msg::Upload`] whose values are written as `values`
    /// yields them — a party gathers its permuted fragment straight into
    /// the frame.
    pub fn upload(
        round: u64,
        values: impl ExactSizeIterator<Item = f32>,
    ) -> Result<RecordFrame, EncodeError> {
        RecordFrame::build(FRAGMENT_HEADER + 4 * values.len(), |out| {
            Ok(put_fragment(out, TAG_UPLOAD, round, values)?)
        })
    }

    /// Seals the inner message where it lies, as `chan`'s next record,
    /// and returns the finished frame.
    pub fn seal(mut self, chan: &mut SecureChannel) -> Vec<u8> {
        chan.seal_in_place(&mut self.0, RECORD_HEADER);
        self.0
    }
}

/// Whether `frame` is the encoding of a [`Msg::Record`] — exactly the
/// buffers [`Msg::decode`] would return one for.
pub fn is_record(frame: &[u8]) -> bool {
    let mut r = Reader::new(frame);
    r.u8() == Ok(TAG_RECORD) && r.bytes().is_ok() && r.finish().is_ok()
}

/// Opens a [`Msg::Record`] frame where it arrived, as `chan`'s next
/// record, and decodes the message inside: no copy of the sealed bytes,
/// none of the plaintext, and a fragment's values are read out of it
/// once. `None` when `frame` is no record ([`is_record`]), the record
/// does not open (tampered, replayed, out of order — `chan` has then not
/// advanced) or the inner bytes are no message.
pub fn open_record(chan: &mut SecureChannel, mut frame: Vec<u8>) -> Option<Msg> {
    if !is_record(&frame) {
        return None;
    }
    chan.open_in_place(&mut frame, RECORD_HEADER).ok()?;
    Msg::decode(&frame[RECORD_HEADER..]).ok()
}

fn put_vec_bytes(out: &mut Vec<u8>, v: &[Vec<u8>]) -> Result<(), TooLong> {
    put_len(out, v.len())?;
    for b in v {
        put_bytes(out, b)?;
    }
    Ok(())
}

fn vec_bytes(r: &mut Reader<'_>) -> Result<Vec<Vec<u8>>, Malformed> {
    // Each ciphertext costs at least its own length prefix.
    let n = r.count(4)?;
    (0..n).map(|_| Ok(r.bytes()?.to_vec())).collect()
}

impl Msg {
    /// The variant's name, for counted-drop telemetry labels.
    pub fn name(&self) -> &'static str {
        match self {
            Msg::Hello { .. } => "Hello",
            Msg::HelloReply { .. } => "HelloReply",
            Msg::Record { .. } => "Record",
            Msg::Register { .. } => "Register",
            Msg::RegisterAck => "RegisterAck",
            Msg::RoundStart { .. } => "RoundStart",
            Msg::Upload { .. } => "Upload",
            Msg::UploadEncrypted { .. } => "UploadEncrypted",
            Msg::Aggregated { .. } => "Aggregated",
            Msg::AggregatedEncrypted { .. } => "AggregatedEncrypted",
            Msg::SyncRound { .. } => "SyncRound",
            Msg::SyncDone { .. } => "SyncDone",
        }
    }

    /// Serializes the message into a buffer of its own.
    ///
    /// Fails (instead of truncating a length prefix) when a field holds
    /// 2^32 or more elements — unreachable for protocol-conforming
    /// senders but kept total so no caller can construct a frame that
    /// decodes to something else.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut out = Vec::with_capacity(self.encoded_len_hint());
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// How many bytes [`Msg::encode_into`] appends: exact for the
    /// fragment-carrying messages, plain and encrypted (the ones worth
    /// reserving for), a lower bound otherwise.
    fn encoded_len_hint(&self) -> usize {
        let prefixed = |ciphertexts: &[Vec<u8>]| -> usize {
            4 + ciphertexts.iter().map(|c| 4 + c.len()).sum::<usize>()
        };
        match self {
            Msg::Upload { fragment, .. } | Msg::Aggregated { fragment, .. } => {
                FRAGMENT_HEADER + 4 * fragment.len()
            }
            Msg::UploadEncrypted { ciphertexts, .. } => 1 + 8 + 8 + prefixed(ciphertexts),
            Msg::AggregatedEncrypted { ciphertexts, .. } => 1 + 8 + 8 + 8 + prefixed(ciphertexts),
            _ => 0,
        }
    }

    /// Appends the message's encoding to `out` — the one encoder;
    /// [`Msg::encode`] and [`RecordFrame::of`] call it on buffers they
    /// reserved. On failure `out` holds a partial encoding to discard.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        match self {
            Msg::Hello { handshake } => {
                out.push(TAG_HELLO);
                put_bytes(out, handshake)?;
            }
            Msg::HelloReply { handshake } => {
                out.push(TAG_HELLO_REPLY);
                put_bytes(out, handshake)?;
            }
            Msg::Record { sealed } => {
                out.push(TAG_RECORD);
                put_bytes(out, sealed)?;
            }
            Msg::Register { party, weight } => {
                out.push(TAG_REGISTER);
                put_bytes(out, party.as_bytes())?;
                out.extend_from_slice(&weight.to_le_bytes());
            }
            Msg::RegisterAck => out.push(TAG_REGISTER_ACK),
            Msg::RoundStart { round, training_id } => {
                out.push(TAG_ROUND_START);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(training_id);
            }
            Msg::Upload { round, fragment } => {
                put_fragment(out, TAG_UPLOAD, *round, fragment.iter().copied())?;
            }
            Msg::UploadEncrypted {
                round,
                ciphertexts,
                value_count,
            } => {
                out.push(TAG_UPLOAD_ENC);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&value_count.to_le_bytes());
                put_vec_bytes(out, ciphertexts)?;
            }
            Msg::Aggregated { round, fragment } => {
                put_fragment(out, TAG_AGGREGATED, *round, fragment.iter().copied())?;
            }
            Msg::AggregatedEncrypted {
                round,
                ciphertexts,
                value_count,
                summands,
            } => {
                out.push(TAG_AGGREGATED_ENC);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&value_count.to_le_bytes());
                out.extend_from_slice(&summands.to_le_bytes());
                put_vec_bytes(out, ciphertexts)?;
            }
            Msg::SyncRound { round, training_id } => {
                out.push(TAG_SYNC_ROUND);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(training_id);
            }
            Msg::SyncDone { round } => {
                out.push(TAG_SYNC_DONE);
                out.extend_from_slice(&round.to_le_bytes());
            }
        }
        Ok(())
    }

    /// Parses a message.
    pub fn decode(buf: &[u8]) -> Result<Msg, DecodeError> {
        let mut r = Reader::new(buf);
        let msg = match r.u8()? {
            TAG_HELLO => Msg::Hello {
                handshake: r.bytes()?.to_vec(),
            },
            TAG_HELLO_REPLY => Msg::HelloReply {
                handshake: r.bytes()?.to_vec(),
            },
            TAG_RECORD => Msg::Record {
                sealed: r.bytes()?.to_vec(),
            },
            TAG_REGISTER => Msg::Register {
                party: r.str()?.to_string(),
                weight: r.f32()?,
            },
            TAG_REGISTER_ACK => Msg::RegisterAck,
            TAG_ROUND_START => Msg::RoundStart {
                round: r.u64()?,
                training_id: r.array()?,
            },
            TAG_UPLOAD => Msg::Upload {
                round: r.u64()?,
                fragment: r.f32s()?,
            },
            TAG_UPLOAD_ENC => Msg::UploadEncrypted {
                round: r.u64()?,
                value_count: r.u64()?,
                ciphertexts: vec_bytes(&mut r)?,
            },
            TAG_AGGREGATED => Msg::Aggregated {
                round: r.u64()?,
                fragment: r.f32s()?,
            },
            TAG_AGGREGATED_ENC => Msg::AggregatedEncrypted {
                round: r.u64()?,
                value_count: r.u64()?,
                summands: r.u64()?,
                ciphertexts: vec_bytes(&mut r)?,
            },
            TAG_SYNC_ROUND => Msg::SyncRound {
                round: r.u64()?,
                training_id: r.array()?,
            },
            TAG_SYNC_DONE => Msg::SyncDone { round: r.u64()? },
            _ => return Err(DecodeError),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    // Golden bytes and the round-trip / truncation / trailing-byte /
    // allocation laws for every variant live in `tests/wire_laws.rs` at
    // the workspace root, shared with the other message layers.
    use super::*;

    #[test]
    fn empty_buffer_rejected() {
        assert_eq!(Msg::decode(&[]), Err(DecodeError));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Msg::decode(&[0xAA]), Err(DecodeError));
    }

    #[test]
    fn non_utf8_party_rejected() {
        let mut bytes = vec![TAG_REGISTER];
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(Msg::decode(&bytes), Err(DecodeError));
    }
}
