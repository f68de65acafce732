//! TLS-like secure channels over the simulated network.
//!
//! A channel is established with a one-round-trip handshake:
//!
//! 1. The initiator (an FL party) sends a *hello*: its ephemeral DH public
//!    value plus a fresh challenge nonce.
//! 2. The responder (an aggregator) replies with its own ephemeral DH
//!    value and a **signature over the transcript (including the
//!    challenge nonce) with its provisioned token key** — this is the
//!    challenge-response step of DeTA's Phase II authentication: only a
//!    CVM that received the token at verified launch can produce it.
//! 3. Both sides derive directional AEAD keys from the DH secret bound to
//!    the transcript hash.
//!
//! Messages then flow through [`SecureChannel::seal_msg`] /
//! [`SecureChannel::open_msg`] with per-direction sequence numbers, which
//! gives confidentiality, integrity, and replay protection in order.

use deta_crypto::aead::{open_in_place, seal_in_place};
use deta_crypto::dh::{EphemeralSecret, PublicKey as DhPublicKey};
use deta_crypto::poly1305::TAG_LEN;
use deta_crypto::sha256::{hkdf, sha256_concat};
use deta_crypto::{AeadKey, DetRng, Nonce, Secret, Signature, SigningKey, VerifyingKey};

/// Errors from handshakes and record protection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A handshake message failed to parse.
    Malformed,
    /// The responder's signature did not verify against the expected key.
    BadAuthentication,
    /// The peer's DH value is invalid.
    BadKeyExchange,
    /// Decryption or authentication of a record failed.
    BadRecord,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TransportError::Malformed => "malformed handshake message",
            TransportError::BadAuthentication => "responder authentication failed",
            TransportError::BadKeyExchange => "invalid key exchange value",
            TransportError::BadRecord => "record decryption failed",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for TransportError {}

/// Directional record protection state.
#[derive(Debug)]
pub struct SecureChannel {
    send_key: AeadKey,
    recv_key: AeadKey,
    send_seq: u64,
    recv_seq: u64,
    channel_id: u32,
}

/// Associated data bound into every record.
const RECORD_AAD: &[u8] = b"deta-record";

impl SecureChannel {
    /// Seals `buf[start..]` where it lies as the next record in sequence
    /// (see [`deta_crypto::aead::seal_in_place`]); bytes before `start`
    /// are the caller's frame header and stay as they are.
    pub fn seal_in_place(&mut self, buf: &mut Vec<u8>, start: usize) {
        let nonce = Nonce::from_parts(self.channel_id, self.send_seq);
        self.send_seq += 1;
        seal_in_place(&self.send_key, &nonce, RECORD_AAD, buf, start);
    }

    /// Opens `buf[start..]` where it lies as the next record in sequence,
    /// leaving the plaintext there.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::BadRecord`] for tampered, reordered, or
    /// replayed records; `buf` is then untouched and the receive sequence
    /// has not advanced, so the genuine next record still opens.
    pub fn open_in_place(&mut self, buf: &mut Vec<u8>, start: usize) -> Result<(), TransportError> {
        let nonce = Nonce::from_parts(self.channel_id, self.recv_seq);
        open_in_place(&self.recv_key, &nonce, RECORD_AAD, buf, start)
            .map_err(|_| TransportError::BadRecord)?;
        self.recv_seq += 1;
        Ok(())
    }

    /// Encrypts and authenticates one message into a buffer of its own.
    pub fn seal_msg(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.seal_in_place(&mut out, 0);
        out
    }

    /// Decrypts and verifies the next message in sequence into a buffer
    /// of its own.
    ///
    /// # Errors
    ///
    /// As [`SecureChannel::open_in_place`].
    pub fn open_msg(&mut self, sealed: &[u8]) -> Result<Vec<u8>, TransportError> {
        let mut out = sealed.to_vec();
        self.open_in_place(&mut out, 0)?;
        Ok(out)
    }
}

const HELLO_MAGIC: &[u8; 8] = b"DETAHELO";
const RESP_MAGIC: &[u8; 8] = b"DETARESP";

/// Initiator-side handshake state.
pub struct HandshakeInitiator {
    eph: EphemeralSecret,
    nonce: [u8; 16],
    hello: Vec<u8>,
}

impl HandshakeInitiator {
    /// Starts a handshake, producing the hello message to send.
    pub fn new(rng: &mut DetRng) -> HandshakeInitiator {
        let eph = EphemeralSecret::generate(rng);
        let mut nonce = [0u8; 16];
        rng.fill_bytes(&mut nonce);
        let mut hello = Vec::with_capacity(8 + 32 + 16);
        hello.extend_from_slice(HELLO_MAGIC);
        hello.extend_from_slice(&eph.public_key().to_bytes());
        hello.extend_from_slice(&nonce);
        HandshakeInitiator { eph, nonce, hello }
    }

    /// The hello message bytes.
    pub fn hello(&self) -> &[u8] {
        &self.hello
    }

    /// Processes the responder's reply, verifying its signature against
    /// `expected_peer` (the token key attested in Phase I).
    pub fn complete(
        self,
        response: &[u8],
        expected_peer: &VerifyingKey,
    ) -> Result<SecureChannel, TransportError> {
        if response.len() != 8 + 32 + 64 || &response[..8] != RESP_MAGIC {
            return Err(TransportError::Malformed);
        }
        let peer_pub =
            DhPublicKey::from_bytes(&response[8..40]).ok_or(TransportError::BadKeyExchange)?;
        let sig = Signature::from_bytes(&response[40..104]).ok_or(TransportError::Malformed)?;
        let transcript = transcript_hash(&self.hello, &response[..40]);
        if !expected_peer.verify(&transcript, &sig) {
            return Err(TransportError::BadAuthentication);
        }
        let secret = self
            .eph
            .agree(&peer_pub, &transcript)
            .map_err(|_| TransportError::BadKeyExchange)?;
        Ok(derive_channel(&secret, &self.nonce, true))
    }
}

/// Responder side: processes a hello, producing the response message and a
/// ready channel.
///
/// `identity` is the responder's authentication token key (provisioned
/// into the CVM at verified launch).
pub fn respond(
    hello: &[u8],
    identity: &SigningKey,
    rng: &mut DetRng,
) -> Result<(Vec<u8>, SecureChannel), TransportError> {
    if hello.len() != 8 + 32 + 16 || &hello[..8] != HELLO_MAGIC {
        return Err(TransportError::Malformed);
    }
    let peer_pub = DhPublicKey::from_bytes(&hello[8..40]).ok_or(TransportError::BadKeyExchange)?;
    let mut nonce = [0u8; 16];
    nonce.copy_from_slice(&hello[40..56]);
    let eph = EphemeralSecret::generate(rng);
    let mut response = Vec::with_capacity(8 + 32 + 64);
    response.extend_from_slice(RESP_MAGIC);
    response.extend_from_slice(&eph.public_key().to_bytes());
    let transcript = transcript_hash(hello, &response[..40]);
    let sig = identity.sign(&transcript);
    response.extend_from_slice(&sig.to_bytes());
    let secret = eph
        .agree(&peer_pub, &transcript)
        .map_err(|_| TransportError::BadKeyExchange)?;
    Ok((response, derive_channel(&secret, &nonce, false)))
}

/// Hashes the handshake transcript (hello || response prefix).
fn transcript_hash(hello: &[u8], resp_prefix: &[u8]) -> [u8; 32] {
    sha256_concat(&[b"deta-handshake-v1", hello, resp_prefix])
}

/// Derives the two directional keys and channel id from the DH secret.
/// The 68 bytes of HKDF output are wiped on return; each key is copied
/// out of them straight into its [`Secret`].
fn derive_channel(secret: &Secret<[u8; 32]>, nonce: &[u8; 16], initiator: bool) -> SecureChannel {
    let okm = Secret::new(hkdf(b"deta-channel-v1", secret.expose(), nonce, 68));
    let bytes = okm.expose();
    let k_i2r = AeadKey::filled(|k| k.copy_from_slice(&bytes[..32]));
    let k_r2i = AeadKey::filled(|k| k.copy_from_slice(&bytes[32..64]));
    let mut id_bytes = [0u8; 4];
    id_bytes.copy_from_slice(&bytes[64..68]);
    let (send_key, recv_key) = if initiator {
        (k_i2r, k_r2i)
    } else {
        (k_r2i, k_i2r)
    };
    SecureChannel {
        send_key,
        recv_key,
        send_seq: 0,
        recv_seq: 0,
        channel_id: u32::from_le_bytes(id_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(seed: u64) -> SigningKey {
        SigningKey::generate(&mut DetRng::from_u64(seed))
    }

    fn handshake() -> (SecureChannel, SecureChannel) {
        let id = identity(1);
        let mut rng_i = DetRng::from_u64(2);
        let mut rng_r = DetRng::from_u64(3);
        let init = HandshakeInitiator::new(&mut rng_i);
        let (resp, chan_r) = respond(init.hello(), &id, &mut rng_r).unwrap();
        let chan_i = init.complete(&resp, &id.verifying_key()).unwrap();
        (chan_i, chan_r)
    }

    #[test]
    fn bidirectional_messaging() {
        let (mut i, mut r) = handshake();
        let c1 = i.seal_msg(b"model update fragment");
        assert_eq!(r.open_msg(&c1).unwrap(), b"model update fragment");
        let c2 = r.seal_msg(b"aggregated update");
        assert_eq!(i.open_msg(&c2).unwrap(), b"aggregated update");
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let (mut i, _r) = handshake();
        let sealed = i.seal_msg(b"supersecret-update");
        assert!(!sealed
            .windows(b"supersecret".len())
            .any(|w| w == b"supersecret"));
    }

    #[test]
    fn wrong_identity_key_rejected() {
        let real = identity(1);
        let impostor = identity(99);
        let mut rng_i = DetRng::from_u64(2);
        let mut rng_r = DetRng::from_u64(3);
        let init = HandshakeInitiator::new(&mut rng_i);
        // The impostor (an unattested aggregator without the token) signs.
        let (resp, _chan) = respond(init.hello(), &impostor, &mut rng_r).unwrap();
        assert_eq!(
            init.complete(&resp, &real.verifying_key()).unwrap_err(),
            TransportError::BadAuthentication
        );
    }

    #[test]
    fn tampered_response_rejected() {
        let id = identity(1);
        let mut rng_i = DetRng::from_u64(2);
        let mut rng_r = DetRng::from_u64(3);
        let init = HandshakeInitiator::new(&mut rng_i);
        let (mut resp, _chan) = respond(init.hello(), &id, &mut rng_r).unwrap();
        resp[10] ^= 1;
        assert!(init.complete(&resp, &id.verifying_key()).is_err());
    }

    #[test]
    fn malformed_messages_rejected() {
        let id = identity(1);
        let mut rng = DetRng::from_u64(2);
        assert_eq!(
            respond(b"short", &id, &mut rng).unwrap_err(),
            TransportError::Malformed
        );
        let init = HandshakeInitiator::new(&mut rng);
        assert_eq!(
            init.complete(b"bogus", &id.verifying_key()).unwrap_err(),
            TransportError::Malformed
        );
    }

    #[test]
    fn replay_rejected() {
        let (mut i, mut r) = handshake();
        let c1 = i.seal_msg(b"first");
        assert!(r.open_msg(&c1).is_ok());
        // Replaying the same record must fail (sequence advanced).
        assert_eq!(r.open_msg(&c1).unwrap_err(), TransportError::BadRecord);
    }

    #[test]
    fn reorder_rejected() {
        let (mut i, mut r) = handshake();
        let c1 = i.seal_msg(b"first");
        let c2 = i.seal_msg(b"second");
        assert_eq!(r.open_msg(&c2).unwrap_err(), TransportError::BadRecord);
        // In-order delivery still works after the failed attempt.
        assert_eq!(r.open_msg(&c1).unwrap(), b"first");
    }

    #[test]
    fn tampered_record_rejected() {
        let (mut i, mut r) = handshake();
        let mut c = i.seal_msg(b"payload");
        c[0] ^= 1;
        assert_eq!(r.open_msg(&c).unwrap_err(), TransportError::BadRecord);
    }

    #[test]
    fn channels_are_independent() {
        let (mut i1, _r1) = handshake();
        // A different handshake yields different keys even with the same
        // identity (ephemeral DH): records cannot cross channels.
        let id = identity(1);
        let mut rng_i = DetRng::from_u64(20);
        let mut rng_r = DetRng::from_u64(30);
        let init = HandshakeInitiator::new(&mut rng_i);
        let (resp, mut r2) = respond(init.hello(), &id, &mut rng_r).unwrap();
        let _i2 = init.complete(&resp, &id.verifying_key()).unwrap();
        let c = i1.seal_msg(b"cross");
        assert!(r2.open_msg(&c).is_err());
    }

    #[test]
    fn debug_of_a_channel_shows_no_key_byte() {
        let (chan, _) = handshake();
        for shown in [format!("{chan:?}"), format!("{chan:#?}")] {
            assert!(shown.contains("channel_id"), "{shown}");
            let shown: String = shown.split_whitespace().collect();
            for key in [chan.send_key.expose(), chan.recv_key.expose()] {
                // Any four bytes in a row, the way `{:?}` or `{:x}` of a
                // byte array would print them.
                for w in key.windows(4) {
                    let dec: Vec<String> = w.iter().map(|b| b.to_string()).collect();
                    let hex: String = w.iter().map(|b| format!("{b:02x}")).collect();
                    assert!(!shown.contains(&dec.join(",")), "{shown}");
                    assert!(!shown.to_lowercase().contains(&hex), "{shown}");
                }
            }
        }
    }

    #[test]
    fn empty_and_large_payloads() {
        let (mut i, mut r) = handshake();
        let c = i.seal_msg(b"");
        assert_eq!(r.open_msg(&c).unwrap(), b"");
        let big = vec![0xabu8; 1 << 18];
        let c = i.seal_msg(&big);
        assert_eq!(r.open_msg(&c).unwrap(), big);
    }
}
