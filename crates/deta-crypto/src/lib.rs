//! Self-contained cryptographic primitives for the DeTA reproduction.
//!
//! Everything here is implemented from scratch on top of [`deta_bignum`]:
//!
//! * [`sha256`] — SHA-256, HMAC-SHA256, and HKDF.
//! * [`chacha`] — the ChaCha20 stream cipher.
//! * [`poly1305`] — the Poly1305 one-time authenticator.
//! * [`aead`] — ChaCha20-Poly1305 authenticated encryption.
//! * [`rng`] — a deterministic ChaCha20-based CSPRNG with labeled forking.
//! * [`group`] — a Schnorr group (prime-order subgroup of `Z_p*`).
//! * [`sign`] — Schnorr signatures (stand-in for the paper's ECDSA tokens).
//! * [`dh`] — Diffie-Hellman key agreement over the Schnorr group.
//! * [`secret`] — [`Secret`], the wipe-on-drop, redacting holder every key
//!   above lives in.
//!
//! # Security disclaimer
//!
//! These implementations are **simulation-grade**: they are functionally
//! correct and tested against published vectors where available, but they
//! are not hardened against side channels and use a 256-bit mod-p group
//! rather than a production elliptic curve. The DeTA protocol logic only
//! requires *a* EUF-CMA signature scheme, *an* AEAD, and *a* KDF; the exact
//! primitive choice is orthogonal to the system design being reproduced.

pub mod aead;
pub mod chacha;
pub mod dh;
pub mod group;
pub mod poly1305;
pub mod rng;
pub mod secret;
pub mod sha256;
pub mod sign;

pub use aead::{open, seal, AeadError, Key as AeadKey, Nonce};
pub use rng::DetRng;
pub use secret::{Secret, Wipe};
pub use sign::{Signature, SigningKey, VerifyingKey};

/// Compares two byte slices in constant time (with respect to contents).
///
/// Returns `false` immediately when lengths differ; length is assumed to be
/// public in every protocol in this repository.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"hello", b"hello"));
        assert!(!ct_eq(b"hello", b"hellO"));
        assert!(!ct_eq(b"hello", b"hell"));
        assert!(ct_eq(b"", b""));
    }
}
