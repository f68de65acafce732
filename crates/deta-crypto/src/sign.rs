//! Schnorr signatures over the fixed group in [`crate::group`].
//!
//! These play the role of the ECDSA `prime256v1` authentication tokens in
//! the paper's two-phase protocol: the attestation proxy provisions a
//! [`SigningKey`] into each verified aggregator CVM, and parties verify
//! challenge responses against the corresponding [`VerifyingKey`].
//!
//! Nonces are derived deterministically from the secret key and message
//! (RFC 6979 style), so signing never needs an external randomness source
//! and can run inside the simulated CVM without an entropy device.

use crate::group::{group, Group};
use crate::rng::DetRng;
use crate::secret::Secret;
use crate::sha256::{hmac_sha256, sha256_concat};
use deta_bignum::BigUint;

/// A Schnorr signature `(e, s)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Challenge scalar.
    pub e: BigUint,
    /// Response scalar.
    pub s: BigUint,
}

impl Signature {
    /// Serializes as two fixed-width 32-byte scalars.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.e.to_bytes_be_padded(32);
        out.extend_from_slice(&self.s.to_bytes_be_padded(32));
        out
    }

    /// Parses a 64-byte serialized signature.
    pub fn from_bytes(bytes: &[u8]) -> Option<Signature> {
        if bytes.len() != 64 {
            return None;
        }
        Some(Signature {
            e: BigUint::from_bytes_be(&bytes[..32]),
            s: BigUint::from_bytes_be(&bytes[32..]),
        })
    }
}

/// A signing (secret) key.
#[derive(Clone, Debug)]
pub struct SigningKey {
    x: Secret<BigUint>,
    /// Cached public key `g^x`.
    y: BigUint,
}

/// A verifying (public) key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyingKey {
    /// The group element `y = g^x`.
    pub y: BigUint,
}

impl SigningKey {
    /// Generates a key pair from the given RNG.
    pub fn generate(rng: &mut DetRng) -> SigningKey {
        let g = group();
        let x = Secret::new(g.random_scalar(rng));
        let y = g.pow_g(x.expose());
        SigningKey { x, y }
    }

    /// Returns the corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey { y: self.y.clone() }
    }

    /// Serializes the secret scalar (for provisioning into a CVM). The
    /// result is raw bytes by design: this is where the key leaves
    /// [`Secret`]'s protection, and the caller seals it before it travels.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.x.expose().to_bytes_be_padded(32)
    }

    /// Reconstructs a signing key from a serialized secret scalar.
    ///
    /// Returns `None` if the scalar is zero or not reduced mod `q`.
    pub fn from_bytes(bytes: &[u8]) -> Option<SigningKey> {
        if bytes.len() != 32 {
            return None;
        }
        let g = group();
        let x = BigUint::from_bytes_be(bytes);
        if x.is_zero() || x >= g.q {
            return None;
        }
        let y = g.pow_g(&x);
        Some(SigningKey {
            x: Secret::new(x),
            y,
        })
    }

    /// Signs a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let g = group();
        let k = self.derive_nonce(g, msg);
        let r = g.pow_g(&k);
        let e = challenge(g, &r, &self.y, msg);
        // s = k + e * x (mod q).
        let s = (&k + &e.mul_mod(self.x.expose(), &g.q)).rem_ref(&g.q);
        Signature { e, s }
    }

    /// Derives a deterministic per-message nonce in `[1, q)`.
    fn derive_nonce(&self, g: &Group, msg: &[u8]) -> BigUint {
        let key = Secret::new(self.x.expose().to_bytes_be_padded(32));
        let mut ctr = 0u8;
        loop {
            let mut m = msg.to_vec();
            m.push(ctr);
            let h = hmac_sha256(key.expose(), &m);
            let k = &BigUint::from_bytes_be(&h) % &g.q;
            if !k.is_zero() {
                return k;
            }
            ctr = ctr.wrapping_add(1);
        }
    }
}

impl VerifyingKey {
    /// Serializes the public group element.
    pub fn to_bytes(&self) -> Vec<u8> {
        group().element_to_bytes(&self.y)
    }

    /// Parses a serialized public key, validating subgroup membership.
    pub fn from_bytes(bytes: &[u8]) -> Option<VerifyingKey> {
        let g = group();
        if bytes.len() != g.element_len() {
            return None;
        }
        let y = BigUint::from_bytes_be(bytes);
        if !g.is_valid_element(&y) {
            return None;
        }
        Some(VerifyingKey { y })
    }

    /// Verifies a signature over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let g = group();
        if sig.s >= g.q || sig.e >= g.q {
            return false;
        }
        // r' = g^s * y^{-e}; y^{-e} = y^{q - e} since y has order q.
        let neg_e = if sig.e.is_zero() {
            BigUint::zero()
        } else {
            &g.q - &sig.e
        };
        let r = g.mul(&g.pow_g(&sig.s), &g.pow(&self.y, &neg_e));
        let e = challenge(g, &r, &self.y, msg);
        // Constant-time over fixed-width encodings: the comparison must
        // not leak how many leading scalar bytes of a forgery matched.
        crate::ct_eq(&e.to_bytes_be_padded(32), &sig.e.to_bytes_be_padded(32))
    }
}

/// Computes the Fiat-Shamir challenge `H(r || y || msg) mod q`.
fn challenge(g: &Group, r: &BigUint, y: &BigUint, msg: &[u8]) -> BigUint {
    let h = sha256_concat(&[
        b"deta-schnorr-v1",
        &g.element_to_bytes(r),
        &g.element_to_bytes(y),
        msg,
    ]);
    g.scalar_from_bytes(&h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair(seed: u64) -> (SigningKey, VerifyingKey) {
        let mut rng = DetRng::from_u64(seed);
        let sk = SigningKey::generate(&mut rng);
        let vk = sk.verifying_key();
        (sk, vk)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (sk, vk) = keypair(1);
        let sig = sk.sign(b"the quick brown fox");
        assert!(vk.verify(b"the quick brown fox", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let (sk, vk) = keypair(1);
        let sig = sk.sign(b"message A");
        assert!(!vk.verify(b"message B", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let (sk, _) = keypair(1);
        let (_, vk2) = keypair(2);
        let sig = sk.sign(b"message");
        assert!(!vk2.verify(b"message", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (sk, vk) = keypair(1);
        let sig = sk.sign(b"message");
        let bad_e = Signature {
            e: (&sig.e + &BigUint::one()).rem_ref(&group().q),
            s: sig.s.clone(),
        };
        let bad_s = Signature {
            e: sig.e.clone(),
            s: (&sig.s + &BigUint::one()).rem_ref(&group().q),
        };
        assert!(!vk.verify(b"message", &bad_e));
        assert!(!vk.verify(b"message", &bad_s));
    }

    #[test]
    fn out_of_range_scalars_rejected() {
        let (sk, vk) = keypair(1);
        let sig = sk.sign(b"m");
        let huge = Signature {
            e: &sig.e + &group().q,
            s: sig.s.clone(),
        };
        assert!(!vk.verify(b"m", &huge));
    }

    #[test]
    fn deterministic_signatures() {
        let (sk, _) = keypair(1);
        assert_eq!(sk.sign(b"msg"), sk.sign(b"msg"));
        assert_ne!(sk.sign(b"msg"), sk.sign(b"msg2"));
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let (sk, vk) = keypair(3);
        let sig = sk.sign(b"serialize me");
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), 64);
        let back = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(back, sig);
        assert!(vk.verify(b"serialize me", &back));
        assert!(Signature::from_bytes(&bytes[..63]).is_none());
    }

    #[test]
    fn signing_key_serialization_roundtrip() {
        let (sk, vk) = keypair(4);
        let restored = SigningKey::from_bytes(&sk.to_bytes()).unwrap();
        let sig = restored.sign(b"token challenge");
        assert!(vk.verify(b"token challenge", &sig));
    }

    #[test]
    fn signing_key_rejects_invalid_scalars() {
        assert!(SigningKey::from_bytes(&[0u8; 32]).is_none());
        assert!(SigningKey::from_bytes(&[0xffu8; 32]).is_none());
        assert!(SigningKey::from_bytes(&[1u8; 31]).is_none());
    }

    #[test]
    fn verifying_key_serialization_roundtrip() {
        let (_, vk) = keypair(5);
        let bytes = vk.to_bytes();
        assert_eq!(VerifyingKey::from_bytes(&bytes), Some(vk));
        // Invalid element (identity) rejected.
        let one = BigUint::one().to_bytes_be_padded(32);
        assert!(VerifyingKey::from_bytes(&one).is_none());
    }

    #[test]
    fn empty_message_signable() {
        let (sk, vk) = keypair(6);
        let sig = sk.sign(b"");
        assert!(vk.verify(b"", &sig));
        assert!(!vk.verify(b"x", &sig));
    }
}
