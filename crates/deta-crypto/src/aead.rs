//! ChaCha20-Poly1305 authenticated encryption with associated data
//! (RFC 8439 construction).

use crate::chacha;
use crate::ct_eq;
use crate::poly1305::{Poly1305, TAG_LEN};
use crate::secret::Secret;

/// AEAD key.
pub type Key = Secret<[u8; 32]>;

/// AEAD nonce (96 bits). Must be unique per key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nonce(pub [u8; 12]);

impl Nonce {
    /// Builds a nonce from a 64-bit sequence number and a 32-bit channel id.
    ///
    /// This is the standard "counter nonce" layout used by the secure
    /// channels in `deta-transport`.
    pub fn from_parts(channel: u32, seq: u64) -> Self {
        let mut n = [0u8; 12];
        n[..4].copy_from_slice(&channel.to_le_bytes());
        n[4..].copy_from_slice(&seq.to_le_bytes());
        Nonce(n)
    }
}

/// Errors returned by [`open`] and [`open_in_place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AeadError {
    /// The ciphertext is shorter than an authentication tag.
    Truncated,
    /// Authentication failed: the ciphertext or associated data was
    /// modified, or the key/nonce is wrong.
    BadTag,
}

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AeadError::Truncated => write!(f, "ciphertext shorter than tag"),
            AeadError::BadTag => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for AeadError {}

/// Derives the one-time Poly1305 key from the cipher key and nonce.
fn poly_key(key: &Key, nonce: &Nonce) -> [u8; 32] {
    let block = chacha::block(key.expose(), 0, &nonce.0);
    let mut pk = [0u8; 32];
    pk.copy_from_slice(&block[..32]);
    pk
}

/// Computes the RFC 8439 MAC over `aad` and ciphertext with length trailer.
fn compute_tag(pk: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(pk);
    mac.update(aad);
    mac.update(&[0u8; 16][..(16 - aad.len() % 16) % 16]);
    mac.update(ciphertext);
    mac.update(&[0u8; 16][..(16 - ciphertext.len() % 16) % 16]);
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ciphertext.len() as u64).to_le_bytes());
    mac.finalize()
}

/// Encrypts `buf[start..]` where it lies, authenticating it together
/// with `aad`, and appends the tag: afterwards `buf[start..]` is
/// `ciphertext || tag`. Bytes before `start` (a frame header the caller
/// reserved) are neither read nor written. The one sealing routine:
/// [`seal`] copies its plaintext into a fresh buffer and calls this.
///
/// # Panics
///
/// Panics if `start > buf.len()`.
pub fn seal_in_place(key: &Key, nonce: &Nonce, aad: &[u8], buf: &mut Vec<u8>, start: usize) {
    chacha::xor_stream(key.expose(), 1, &nonce.0, &mut buf[start..]);
    let tag = compute_tag(&poly_key(key, nonce), aad, &buf[start..]);
    buf.extend_from_slice(&tag);
}

/// Verifies `buf[start..]` as `ciphertext || tag` and, only then,
/// decrypts it where it lies and drops the tag: afterwards `buf[start..]`
/// is the plaintext. The one opening routine: [`open`] copies its input
/// and calls this.
///
/// # Errors
///
/// Verification happens before any byte is decrypted: on failure `buf`
/// is exactly what came in (still ciphertext) and no plaintext exists.
///
/// # Panics
///
/// Panics if `start > buf.len()`.
pub fn open_in_place(
    key: &Key,
    nonce: &Nonce,
    aad: &[u8],
    buf: &mut Vec<u8>,
    start: usize,
) -> Result<(), AeadError> {
    let Some(body) = (buf.len() - start).checked_sub(TAG_LEN) else {
        return Err(AeadError::Truncated);
    };
    let (ciphertext, tag) = buf[start..].split_at(body);
    let expected = compute_tag(&poly_key(key, nonce), aad, ciphertext);
    if !ct_eq(&expected, tag) {
        return Err(AeadError::BadTag);
    }
    buf.truncate(start + body);
    chacha::xor_stream(key.expose(), 1, &nonce.0, &mut buf[start..]);
    Ok(())
}

/// Encrypts `plaintext`, authenticating it together with `aad`.
///
/// Returns `ciphertext || tag`.
pub fn seal(key: &Key, nonce: &Nonce, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    // Sized for the tag up front, so appending it never reallocates.
    let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
    out.extend_from_slice(plaintext);
    seal_in_place(key, nonce, aad, &mut out, 0);
    out
}

/// Decrypts and verifies `ciphertext || tag`, returning the plaintext.
///
/// Verification happens before decryption output is released; on failure no
/// plaintext is exposed.
pub fn open(key: &Key, nonce: &Nonce, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, AeadError> {
    let mut out = sealed.to_vec();
    open_in_place(key, nonce, aad, &mut out, 0)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> Key {
        Key::new(core::array::from_fn(|i| i as u8))
    }

    #[test]
    fn roundtrip() {
        let n = Nonce::from_parts(1, 42);
        let sealed = seal(&key(), &n, b"header", b"secret payload");
        let opened = open(&key(), &n, b"header", &sealed).unwrap();
        assert_eq!(opened, b"secret payload");
    }

    #[test]
    fn rfc8439_aead_vector() {
        // RFC 8439 section 2.8.2.
        let key = Key::new(core::array::from_fn(|i| 0x80 + i as u8));
        let nonce = Nonce([7, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47]);
        let aad = [
            0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
        ];
        let msg = b"Ladies and Gentlemen of the class of '99: If I could offer you \
                    only one tip for the future, sunscreen would be it.";
        let sealed = seal(&key, &nonce, &aad, msg);
        let hex: String = sealed.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116\
             1ae10b594f09e26a7e902ecbd0600691"
        );
        assert_eq!(open(&key, &nonce, &aad, &sealed).unwrap(), msg);
    }

    #[test]
    fn flipped_bit_anywhere_in_a_large_record_is_rejected() {
        // Three megabytes: thousands of wide keystream calls and Poly1305
        // block pairs. `open` authenticates the whole ciphertext before it
        // decrypts any of it, so a late flip cannot leak an early prefix:
        // the only thing that comes back is the error.
        let n = Nonce::from_parts(3, 9);
        let msg: Vec<u8> = (0..3_000_003u32).map(|i| (i >> 3) as u8).collect();
        let sealed = seal(&key(), &n, b"deta-record", &msg);
        let body = sealed.len() - TAG_LEN;
        for at in [0, body / 2, body - 1] {
            let mut bad = sealed.clone();
            bad[at] ^= 0x10;
            assert_eq!(
                open(&key(), &n, b"deta-record", &bad),
                Err(AeadError::BadTag),
                "byte {at}"
            );
        }
        assert_eq!(open(&key(), &n, b"deta-record", &sealed).unwrap(), msg);
    }

    #[test]
    fn roundtrip_empty() {
        let n = Nonce::from_parts(0, 0);
        let sealed = seal(&key(), &n, b"", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(open(&key(), &n, b"", &sealed).unwrap(), b"");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let n = Nonce::from_parts(1, 1);
        let mut sealed = seal(&key(), &n, b"", b"attack at dawn");
        sealed[3] ^= 1;
        assert_eq!(open(&key(), &n, b"", &sealed), Err(AeadError::BadTag));
    }

    #[test]
    fn tampered_tag_rejected() {
        let n = Nonce::from_parts(1, 1);
        let mut sealed = seal(&key(), &n, b"", b"attack at dawn");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        assert_eq!(open(&key(), &n, b"", &sealed), Err(AeadError::BadTag));
    }

    #[test]
    fn wrong_aad_rejected() {
        let n = Nonce::from_parts(1, 1);
        let sealed = seal(&key(), &n, b"v1", b"payload");
        assert_eq!(open(&key(), &n, b"v2", &sealed), Err(AeadError::BadTag));
    }

    #[test]
    fn wrong_nonce_rejected() {
        let sealed = seal(&key(), &Nonce::from_parts(1, 1), b"", b"payload");
        assert_eq!(
            open(&key(), &Nonce::from_parts(1, 2), b"", &sealed),
            Err(AeadError::BadTag)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let n = Nonce::from_parts(1, 1);
        let sealed = seal(&key(), &n, b"", b"payload");
        let other = Key::new([0xffu8; 32]);
        assert_eq!(open(&other, &n, b"", &sealed), Err(AeadError::BadTag));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            open(&key(), &Nonce::from_parts(0, 0), b"", &[0u8; 5]),
            Err(AeadError::Truncated)
        );
    }

    #[test]
    fn nonce_from_parts_layout() {
        let n = Nonce::from_parts(0x01020304, 0x1122334455667788);
        assert_eq!(&n.0[..4], &[0x04, 0x03, 0x02, 0x01]);
        assert_eq!(&n.0[4..], &[0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]);
    }

    #[test]
    fn ciphertext_hides_plaintext_prefix() {
        let n = Nonce::from_parts(9, 9);
        let a = seal(&key(), &n, b"", b"aaaaaaaaaaaaaaaa");
        let b = seal(&key(), &n, b"", b"aaaaaaaaaaaaaaab");
        // Same-length plaintexts differing in one byte differ only at that
        // position in the ciphertext body (stream cipher), but tags differ.
        assert_eq!(&a[..15], &b[..15]);
        assert_ne!(&a[a.len() - TAG_LEN..], &b[b.len() - TAG_LEN..]);
    }
}
