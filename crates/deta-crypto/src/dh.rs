//! Diffie-Hellman key agreement over the fixed Schnorr group.
//!
//! Used by `deta-transport` to establish per-session AEAD keys between
//! parties and aggregators after two-phase authentication, standing in for
//! the TLS handshake in the paper's prototype.

#![expect(
    clippy::disallowed_methods,
    reason = "agreement computes with the secret scalars"
)]

use crate::group::group;
use crate::rng::DetRng;
use crate::secret::Secret;
use crate::sha256::hkdf;
use deta_bignum::BigUint;
use std::convert::Infallible;

/// An ephemeral DH secret.
pub struct EphemeralSecret {
    a: Secret<BigUint>,
    public: BigUint,
}

/// A DH public value: an element of the order-`q` subgroup other than
/// the identity.
///
/// Valid by construction: one is made only by
/// [`EphemeralSecret::public_key`] or by [`PublicKey::from_bytes`], which
/// checks membership, so [`EphemeralSecret::agree`] does not check again.
/// Its field is private, so no unchecked value (here the identity, which
/// would force a known shared secret) can be wrapped:
///
/// ```compile_fail
/// use deta_bignum::BigUint;
/// use deta_crypto::dh::PublicKey;
/// let _ = PublicKey(BigUint::one());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublicKey(BigUint);

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
    /// and are wiped when this returns, as is the consumed exponent. The
    /// exponentiation runs at `q`'s full width whatever the exponent.
    ///
    /// `peer` was checked when it was made ([`PublicKey`]), so agreement
    /// cannot fail: the error type is [`Infallible`], and a caller binds
    /// the key with `let Ok(key) = ..`.
    pub fn agree(self, peer: &PublicKey, context: &[u8]) -> Result<Secret<[u8; 32]>, Infallible> {
        let g = group();
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
        // A peer's value becomes a `PublicKey` only through `from_bytes`,
        // which refuses every non-member: the identity (it would force a
        // trivial shared secret), 0, p - 1 (order 2) and p itself.
        let g = group();
        let one = BigUint::one();
        for (what, bad) in [
            ("identity", one.clone()),
            ("0", BigUint::zero()),
            ("p - 1", &g.p - &one),
            ("p", g.p.clone()),
        ] {
            let bytes = bad.to_bytes_be_padded(g.element_len());
            assert_eq!(PublicKey::from_bytes(&bytes), None, "{what}");
        }
        // And a member gets through.
        let good = EphemeralSecret::generate(&mut DetRng::from_u64(4)).public_key();
        assert_eq!(PublicKey::from_bytes(&good.to_bytes()), Some(good));
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
