//! Diffie-Hellman key agreement over the fixed Schnorr group.
//!
//! Used by `deta-transport` to establish per-session AEAD keys between
//! parties and aggregators after two-phase authentication, standing in for
//! the TLS handshake in the paper's prototype.

use crate::group::group;
use crate::rng::DetRng;
use crate::secret::Secret;
use crate::sha256::hkdf;
use deta_bignum::BigUint;

/// An ephemeral DH secret.
pub struct EphemeralSecret {
    a: Secret<BigUint>,
    public: BigUint,
}

/// A DH public value (a group element).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublicKey(pub BigUint);

/// Errors from key agreement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhError {
    /// The peer's public value is not a valid subgroup element.
    InvalidPeerKey,
}

impl std::fmt::Display for DhError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid peer public key")
    }
}

impl std::error::Error for DhError {}

impl EphemeralSecret {
    /// Generates a fresh ephemeral secret.
    pub fn generate(rng: &mut DetRng) -> EphemeralSecret {
        let g = group();
        let a = Secret::new(g.random_scalar(rng));
        let public = g.pow_g(a.expose());
        EphemeralSecret { a, public }
    }

    /// Returns the public value to send to the peer.
    pub fn public_key(&self) -> PublicKey {
        PublicKey(self.public.clone())
    }

    /// Completes the exchange, deriving a 32-byte shared secret bound to
    /// `context` (e.g. a channel transcript hash).
    ///
    /// The shared group element is symmetric in the two parties, so both
    /// sides derive identical keys for identical `context`. The element,
    /// its encoding and the HKDF output live in [`Secret`]s of their own
    /// and are wiped when this returns, as is the consumed exponent.
    pub fn agree(self, peer: &PublicKey, context: &[u8]) -> Result<Secret<[u8; 32]>, DhError> {
        let g = group();
        if !g.is_valid_element(&peer.0) {
            return Err(DhError::InvalidPeerKey);
        }
        let shared = Secret::new(g.pow(&peer.0, self.a.expose()));
        let ikm = Secret::new(g.element_to_bytes(shared.expose()));
        let okm = Secret::new(hkdf(b"deta-dh-v1", ikm.expose(), context, 32));
        Ok(Secret::filled(|key| key.copy_from_slice(okm.expose())))
    }
}

impl PublicKey {
    /// Serializes to fixed-width bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        group().element_to_bytes(&self.0)
    }

    /// Parses and validates a serialized public value.
    pub fn from_bytes(bytes: &[u8]) -> Option<PublicKey> {
        let g = group();
        if bytes.len() != g.element_len() {
            return None;
        }
        let y = BigUint::from_bytes_be(bytes);
        if !g.is_valid_element(&y) {
            return None;
        }
        Some(PublicKey(y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sides_agree() {
        let mut rng = DetRng::from_u64(1);
        let alice = EphemeralSecret::generate(&mut rng);
        let bob = EphemeralSecret::generate(&mut rng);
        let alice_pub = alice.public_key();
        let bob_pub = bob.public_key();
        let ka = alice.agree(&bob_pub, b"ctx").unwrap();
        let kb = bob.agree(&alice_pub, b"ctx").unwrap();
        assert!(ka.ct_eq(&kb));
    }

    #[test]
    fn context_separates_keys() {
        let mut rng = DetRng::from_u64(2);
        let alice = EphemeralSecret::generate(&mut rng);
        let bob = EphemeralSecret::generate(&mut rng);
        let bob_pub = bob.public_key();
        let alice2 = EphemeralSecret {
            a: alice.a.clone(),
            public: alice.public.clone(),
        };
        let k1 = alice.agree(&bob_pub, b"ctx1").unwrap();
        let k2 = alice2.agree(&bob_pub, b"ctx2").unwrap();
        assert!(!k1.ct_eq(&k2));
    }

    #[test]
    fn different_peers_different_keys() {
        let mut rng = DetRng::from_u64(3);
        let alice = EphemeralSecret::generate(&mut rng);
        let alice2 = EphemeralSecret {
            a: alice.a.clone(),
            public: alice.public.clone(),
        };
        let bob = EphemeralSecret::generate(&mut rng);
        let carol = EphemeralSecret::generate(&mut rng);
        let k1 = alice.agree(&bob.public_key(), b"c").unwrap();
        let k2 = alice2.agree(&carol.public_key(), b"c").unwrap();
        assert!(!k1.ct_eq(&k2));
    }

    #[test]
    fn invalid_peer_rejected() {
        let mut rng = DetRng::from_u64(4);
        let alice = EphemeralSecret::generate(&mut rng);
        // The identity element would force a trivial shared secret.
        let bad = PublicKey(BigUint::one());
        assert_eq!(alice.agree(&bad, b"c").err(), Some(DhError::InvalidPeerKey));
    }

    #[test]
    fn public_key_serialization_roundtrip() {
        let mut rng = DetRng::from_u64(5);
        let e = EphemeralSecret::generate(&mut rng);
        let pk = e.public_key();
        assert_eq!(PublicKey::from_bytes(&pk.to_bytes()), Some(pk));
        assert!(PublicKey::from_bytes(&[0u8; 32]).is_none());
        assert!(PublicKey::from_bytes(&[1u8; 5]).is_none());
    }
}
