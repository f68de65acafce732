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
//! truncating their length prefixes.

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

fn put_len(out: &mut Vec<u8>, len: usize) -> Result<(), EncodeError> {
    let len = u32::try_from(len).map_err(|_| EncodeError)?;
    out.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) -> Result<(), EncodeError> {
    put_len(out, b.len())?;
    out.extend_from_slice(b);
    Ok(())
}

fn put_f32s(out: &mut Vec<u8>, v: &[f32]) -> Result<(), EncodeError> {
    put_len(out, v.len())?;
    out.reserve(4 * v.len());
    for &x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    Ok(())
}

/// Encodes a fragment-carrying message (`tag`, round, values) into a
/// buffer sized for it up front.
fn encode_fragment(tag: u8, round: u64, fragment: &[f32]) -> Result<Vec<u8>, EncodeError> {
    let mut out = Vec::with_capacity(1 + 8 + 4 + 4 * fragment.len());
    out.push(tag);
    out.extend_from_slice(&round.to_le_bytes());
    put_f32s(&mut out, fragment)?;
    Ok(out)
}

/// The encoding of [`Msg::Upload`] from a borrowed fragment, for callers
/// that hold the values and have no use for an owned message.
pub fn encode_upload(round: u64, fragment: &[f32]) -> Result<Vec<u8>, EncodeError> {
    encode_fragment(TAG_UPLOAD, round, fragment)
}

fn put_vec_bytes(out: &mut Vec<u8>, v: &[Vec<u8>]) -> Result<(), EncodeError> {
    put_len(out, v.len())?;
    for b in v {
        put_bytes(out, b)?;
    }
    Ok(())
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a fixed-size array; length is guaranteed by `take`.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let s = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn f32(&mut self) -> Result<f32, DecodeError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn f32s(&mut self) -> Result<Vec<f32>, DecodeError> {
        let n = self.u32()? as usize;
        let raw = self.take(n.checked_mul(4).ok_or(DecodeError)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn vec_bytes(&mut self) -> Result<Vec<Vec<u8>>, DecodeError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.bytes()?);
        }
        Ok(out)
    }

    fn array16(&mut self) -> Result<[u8; 16], DecodeError> {
        self.array()
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError)
        }
    }
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

    /// Serializes the message.
    ///
    /// Fails (instead of truncating a length prefix) when a field holds
    /// 2^32 or more elements — unreachable for protocol-conforming
    /// senders but kept total so no caller can construct a frame that
    /// decodes to something else.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut out = Vec::new();
        match self {
            Msg::Hello { handshake } => {
                out.push(TAG_HELLO);
                put_bytes(&mut out, handshake)?;
            }
            Msg::HelloReply { handshake } => {
                out.push(TAG_HELLO_REPLY);
                put_bytes(&mut out, handshake)?;
            }
            Msg::Record { sealed } => {
                out.push(TAG_RECORD);
                put_bytes(&mut out, sealed)?;
            }
            Msg::Register { party, weight } => {
                out.push(TAG_REGISTER);
                put_bytes(&mut out, party.as_bytes())?;
                out.extend_from_slice(&weight.to_le_bytes());
            }
            Msg::RegisterAck => out.push(TAG_REGISTER_ACK),
            Msg::RoundStart { round, training_id } => {
                out.push(TAG_ROUND_START);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(training_id);
            }
            Msg::Upload { round, fragment } => {
                return encode_fragment(TAG_UPLOAD, *round, fragment);
            }
            Msg::UploadEncrypted {
                round,
                ciphertexts,
                value_count,
            } => {
                out.push(TAG_UPLOAD_ENC);
                out.extend_from_slice(&round.to_le_bytes());
                out.extend_from_slice(&value_count.to_le_bytes());
                put_vec_bytes(&mut out, ciphertexts)?;
            }
            Msg::Aggregated { round, fragment } => {
                return encode_fragment(TAG_AGGREGATED, *round, fragment);
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
                put_vec_bytes(&mut out, ciphertexts)?;
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
        Ok(out)
    }

    /// Parses a message.
    pub fn decode(buf: &[u8]) -> Result<Msg, DecodeError> {
        let mut r = Reader::new(buf);
        let tag = r.u8()?;
        let msg = match tag {
            TAG_HELLO => Msg::Hello {
                handshake: r.bytes()?,
            },
            TAG_HELLO_REPLY => Msg::HelloReply {
                handshake: r.bytes()?,
            },
            TAG_RECORD => Msg::Record { sealed: r.bytes()? },
            TAG_REGISTER => Msg::Register {
                party: String::from_utf8(r.bytes()?).map_err(|_| DecodeError)?,
                weight: r.f32()?,
            },
            TAG_REGISTER_ACK => Msg::RegisterAck,
            TAG_ROUND_START => Msg::RoundStart {
                round: r.u64()?,
                training_id: r.array16()?,
            },
            TAG_UPLOAD => Msg::Upload {
                round: r.u64()?,
                fragment: r.f32s()?,
            },
            TAG_UPLOAD_ENC => Msg::UploadEncrypted {
                round: r.u64()?,
                value_count: r.u64()?,
                ciphertexts: r.vec_bytes()?,
            },
            TAG_AGGREGATED => Msg::Aggregated {
                round: r.u64()?,
                fragment: r.f32s()?,
            },
            TAG_AGGREGATED_ENC => Msg::AggregatedEncrypted {
                round: r.u64()?,
                value_count: r.u64()?,
                summands: r.u64()?,
                ciphertexts: r.vec_bytes()?,
            },
            TAG_SYNC_ROUND => Msg::SyncRound {
                round: r.u64()?,
                training_id: r.array16()?,
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
    use super::*;

    fn roundtrip(msg: Msg) {
        let bytes = msg.encode().unwrap();
        assert_eq!(Msg::decode(&bytes), Ok(msg));
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Msg::Hello {
            handshake: vec![1, 2, 3],
        });
        roundtrip(Msg::HelloReply {
            handshake: vec![4, 5],
        });
        roundtrip(Msg::Record {
            sealed: vec![0xde, 0xad],
        });
        roundtrip(Msg::Register {
            party: "P1".to_string(),
            weight: 1.5,
        });
        roundtrip(Msg::RegisterAck);
        roundtrip(Msg::RoundStart {
            round: 7,
            training_id: [9u8; 16],
        });
        roundtrip(Msg::Upload {
            round: 7,
            fragment: vec![1.0, -2.5, 3.75],
        });
        roundtrip(Msg::UploadEncrypted {
            round: 2,
            ciphertexts: vec![vec![1, 2], vec![], vec![3]],
            value_count: 40,
        });
        roundtrip(Msg::Aggregated {
            round: 7,
            fragment: vec![],
        });
        roundtrip(Msg::AggregatedEncrypted {
            round: 3,
            ciphertexts: vec![vec![0xff; 64]],
            value_count: 16,
            summands: 4,
        });
        roundtrip(Msg::SyncRound {
            round: 1,
            training_id: [0u8; 16],
        });
        roundtrip(Msg::SyncDone { round: 1 });
    }

    #[test]
    fn empty_buffer_rejected() {
        assert_eq!(Msg::decode(&[]), Err(DecodeError));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Msg::decode(&[0xAA]), Err(DecodeError));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = Msg::Upload {
            round: 1,
            fragment: vec![1.0, 2.0],
        }
        .encode()
        .unwrap();
        for cut in 1..bytes.len() {
            assert_eq!(Msg::decode(&bytes[..cut]), Err(DecodeError), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Msg::RegisterAck.encode().unwrap();
        bytes.push(0);
        assert_eq!(Msg::decode(&bytes), Err(DecodeError));
    }

    #[test]
    fn bogus_length_rejected() {
        // Claim a huge f32 vector without the data.
        let mut bytes = vec![TAG_UPLOAD];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(Msg::decode(&bytes), Err(DecodeError));
    }

    #[test]
    fn non_utf8_party_rejected() {
        let mut bytes = vec![TAG_REGISTER];
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(Msg::decode(&bytes), Err(DecodeError));
    }

    #[test]
    fn fragment_precision_preserved() {
        let fragment: Vec<f32> = (0..100).map(|i| (i as f32).exp().recip()).collect();
        let msg = Msg::Upload {
            round: 1,
            fragment: fragment.clone(),
        };
        match Msg::decode(&msg.encode().unwrap()).unwrap() {
            Msg::Upload { fragment: f, .. } => assert_eq!(f, fragment),
            _ => panic!("wrong variant"),
        }
    }
}
