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

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::cast_possible_truncation, clippy::iter_over_hash_type)]

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
    /// Round start announcement (initiator aggregator -> party). It
    /// carries no training id: each party derives the round's id from the
    /// session id the key broker gave it, so an aggregator cannot choose
    /// the shuffle the parties upload under.
    RoundStart {
        /// Round number, starting at 1.
        round: u64,
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
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_REPLY: u8 = 2;
const TAG_RECORD: u8 = 3;
const TAG_REGISTER: u8 = 4;
const TAG_REGISTER_ACK: u8 = 5;
// Tag 6 is retired: it carried a round announcement together with the
// round's training id, which an aggregator could then choose.
const TAG_UPLOAD: u8 = 7;
const TAG_AGGREGATED: u8 = 8;
// Tags 9 and 10 are retired: they carried an inter-aggregator round
// announcement and its acknowledgement, and aggregators no longer
// address one another. Decoding refuses them and tag 6, and no new
// variant takes any of the three.
const TAG_UPLOAD_ENC: u8 = 11;
const TAG_AGGREGATED_ENC: u8 = 12;
const TAG_ROUND_START: u8 = 13;

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

/// Bytes a [`Msg::Record`] spends before its sealed payload: tag and
/// length prefix.
pub const RECORD_HEADER: usize = 1 + 4;

/// A [`Msg::Record`] in the making: the frame that will go on the wire,
/// header written, with the inner message still in the clear behind it.
/// The only thing it can become is sealed ([`RecordFrame::seal`], in
/// place) or copied for another recipient of the same message
/// (`RecordFrame::copy`), so a fragment exists once per recipient on
/// the sending side and a plaintext body cannot be handed to an endpoint
/// by mistake.
pub struct RecordFrame(Vec<u8>);

impl RecordFrame {
    /// Reserves the whole frame — header, `body_len` bytes of inner
    /// message, tag — lets `body` append the inner message, and writes
    /// the header for what it appended.
    fn build<E: From<EncodeError>>(
        body_len: usize,
        body: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
    ) -> Result<RecordFrame, E> {
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

    /// A record of arbitrary inner bytes, for drills that seal what no
    /// [`Msg`] encodes.
    pub fn raw(inner: &[u8]) -> Result<RecordFrame, EncodeError> {
        RecordFrame::build(inner.len(), |out| {
            out.extend_from_slice(inner);
            Ok(())
        })
    }

    /// The same unsealed record, with the same room for its tag, for
    /// another recipient: a fan-out encodes its message into the first
    /// recipient's frame and copies each next frame from the one before
    /// sealing that one.
    pub(crate) fn copy(&self) -> RecordFrame {
        let mut frame = Vec::with_capacity(self.0.len() + TAG_LEN);
        frame.extend_from_slice(&self.0);
        RecordFrame(frame)
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

    /// A record of [`Msg::Aggregated`] whose values are written as `fill`
    /// hands them to the writer it is given — an aggregator writes its
    /// result straight into the first party's frame. Room is reserved
    /// for `len` values; the count written is what `fill` handed over.
    /// `fill`'s error is returned as it is, and the frame dropped.
    pub fn aggregated<E: From<EncodeError>>(
        round: u64,
        len: usize,
        fill: impl FnOnce(&mut dyn FnMut(&[f32])) -> Result<(), E>,
    ) -> Result<RecordFrame, E> {
        RecordFrame::build(FRAGMENT_HEADER + 4 * len, |out| {
            out.push(TAG_AGGREGATED);
            out.extend_from_slice(&round.to_le_bytes());
            let count_at = out.len();
            out.extend_from_slice(&[0; 4]);
            fill(&mut |values| {
                let at = out.len();
                out.resize(at + 4 * values.len(), 0);
                for (slot, x) in out[at..].chunks_exact_mut(4).zip(values) {
                    slot.copy_from_slice(&x.to_le_bytes());
                }
            })?;
            let count = u32::try_from((out.len() - count_at - 4) / 4).map_err(|_| EncodeError)?;
            out[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
            Ok(())
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

/// A record opened where it arrived. A fragment — an upload or an
/// aggregate — stays in the buffer it was opened in ([`FragmentRecord`]);
/// any other message is decoded.
pub enum Opened {
    /// A [`Msg::Upload`], its values not decoded.
    Upload(FragmentRecord),
    /// A [`Msg::Aggregated`], its values not decoded.
    Aggregated(FragmentRecord),
    /// Any other message.
    Msg(Msg),
}

/// A [`Msg::Upload`] or [`Msg::Aggregated`] in the record it was opened
/// in: the frame whose bytes after the record's header are the message's
/// encoding, and after the message's tag, round and count the fragment's
/// values, little-endian, checked to be exactly as many as the message
/// says. An aggregator aggregates uploads straight out of here, and a
/// party un-shuffles its download out of here, so no fragment is ever
/// decoded into a buffer of its own.
pub struct FragmentRecord {
    frame: Vec<u8>,
    round: u64,
}

impl FragmentRecord {
    /// Where the values start in the frame: behind the record's header
    /// and the message's tag, round and count.
    const VALUES: usize = RECORD_HEADER + FRAGMENT_HEADER;

    /// The round of the fragment.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.le_values().len() / 4
    }

    /// Whether the fragment is empty.
    pub fn is_empty(&self) -> bool {
        self.le_values().is_empty()
    }

    /// The message as it was opened: exactly its encoding.
    pub fn message(&self) -> &[u8] {
        &self.frame[RECORD_HEADER..]
    }

    /// The values as they arrived: little-endian `f32`s, four bytes each.
    pub fn le_values(&self) -> &[u8] {
        &self.frame[Self::VALUES..]
    }

    /// Copies values `start..start + out.len()` into `out`.
    pub fn load(&self, start: usize, out: &mut [f32]) {
        let bytes = &self.le_values()[4 * start..4 * (start + out.len())];
        for (v, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *v = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
}

/// Opens a [`Msg::Record`] frame where it arrived, as `chan`'s next
/// record: no copy of the sealed bytes and none of the plaintext. An
/// upload or an aggregate is checked where it lies, as [`Msg::decode`]
/// reads it, and handed back in its frame; any other message is decoded.
/// `None` when `frame` is no record ([`is_record`]), the record does not
/// open (tampered, replayed, out of order — `chan` has then not
/// advanced) or the inner bytes are no message.
pub fn open(chan: &mut SecureChannel, mut frame: Vec<u8>) -> Option<Opened> {
    if !is_record(&frame) {
        return None;
    }
    chan.open_in_place(&mut frame, RECORD_HEADER).ok()?;
    let mut r = Reader::new(&frame[RECORD_HEADER..]);
    let kind: fn(FragmentRecord) -> Opened = match r.u8() {
        Ok(TAG_UPLOAD) => Opened::Upload,
        Ok(TAG_AGGREGATED) => Opened::Aggregated,
        _ => return Msg::decode(&frame[RECORD_HEADER..]).ok().map(Opened::Msg),
    };
    // As `Msg::decode` reads it: round, count, that many values, no more.
    let round = r.u64().ok()?;
    let n = r.count(4).ok()?;
    r.take(4 * n).ok()?;
    r.finish().ok()?;
    Some(kind(FragmentRecord { frame, round }))
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
            // Not a handler: the hint only sizes a reservation, so 0 is a bound.
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
            Msg::RoundStart { round } => {
                out.push(TAG_ROUND_START);
                out.extend_from_slice(&round.to_le_bytes());
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
            TAG_ROUND_START => Msg::RoundStart { round: r.u64()? },
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

    /// An honestly established channel pair (initiator, responder).
    fn channel_pair() -> (SecureChannel, SecureChannel) {
        use deta_crypto::{DetRng, SigningKey};
        use deta_transport::secure::{respond, HandshakeInitiator};
        let rng = DetRng::from_u64(5);
        let identity = SigningKey::generate(&mut rng.fork(b"identity"));
        let init = HandshakeInitiator::new(&mut rng.fork(b"init"));
        let (reply, responder) =
            respond(init.hello(), &identity, &mut rng.fork(b"resp")).expect("hello");
        let initiator = init.complete(&reply, &identity.verifying_key());
        (initiator.expect("handshake"), responder)
    }

    #[test]
    fn an_opened_download_is_what_decoding_the_record_gives() {
        let (mut sender, mut receiver) = channel_pair();
        let fragment: Vec<f32> = [f32::from_bits(0x7f80_0001), -0.0, f32::INFINITY, 1.5]
            .into_iter()
            .cycle()
            .take(41)
            .collect();
        let raw = |body: Vec<u8>| {
            RecordFrame::build(body.len(), |out| {
                out.extend_from_slice(&body);
                Ok(())
            })
        };
        let mut short = Msg::Aggregated {
            round: 3,
            fragment: vec![1.0; 4],
        }
        .encode()
        .expect("encodes");
        short.truncate(short.len() - 1);
        let mut long = Msg::Aggregated {
            round: 3,
            fragment: vec![],
        }
        .encode()
        .expect("encodes");
        long.push(0);
        // An upload whose count says one value more than it holds.
        let mut miscounted = Msg::Upload {
            round: 3,
            fragment: vec![1.0; 2],
        }
        .encode()
        .expect("encodes");
        miscounted[9] += 1;
        let frames = [
            RecordFrame::of(&Msg::Aggregated {
                round: 7,
                fragment: fragment.clone(),
            }),
            RecordFrame::of(&Msg::Aggregated {
                round: 8,
                fragment: Vec::new(),
            }),
            RecordFrame::upload(9, fragment.iter().copied()),
            RecordFrame::upload(10, std::iter::empty()),
            RecordFrame::aggregated(11, fragment.len(), |emit| {
                emit(&fragment[..40]);
                emit(&fragment[40..]);
                Ok::<_, EncodeError>(())
            }),
            RecordFrame::of(&Msg::RegisterAck),
            raw(short),
            raw(long),
            raw(miscounted),
            raw(vec![TAG_AGGREGATED]),
            raw(vec![TAG_UPLOAD]),
        ];
        for (k, frame) in frames.into_iter().enumerate() {
            let frame = frame.expect("frames");
            let plaintext = frame.0[RECORD_HEADER..].to_vec();
            let want = Msg::decode(&plaintext).ok();
            match (open(&mut receiver, frame.seal(&mut sender)), want) {
                (Some(Opened::Aggregated(got)), Some(Msg::Aggregated { round, fragment }))
                | (Some(Opened::Upload(got)), Some(Msg::Upload { round, fragment })) => {
                    assert_eq!((got.round(), got.len()), (round, fragment.len()), "{k}");
                    assert_eq!(got.message(), plaintext, "{k}");
                    let mut values = vec![0.0; got.len()];
                    got.load(0, &mut values);
                    let bits: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u32> = fragment.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bits, want, "{k}");
                }
                (Some(Opened::Msg(got)), Some(want)) => assert_eq!(got, want, "{k}"),
                (None, None) => {}
                (_, want) => panic!("record {k}: decoding gives {want:?}"),
            }
        }
        // A record that does not open is nothing; the channel stays.
        let sealed = RecordFrame::of(&Msg::RegisterAck)
            .expect("frames")
            .seal(&mut sender);
        let mut tampered = sealed.clone();
        tampered[RECORD_HEADER] ^= 1;
        assert!(open(&mut receiver, tampered).is_none());
        assert!(matches!(
            open(&mut receiver, sealed),
            Some(Opened::Msg(Msg::RegisterAck))
        ));
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
