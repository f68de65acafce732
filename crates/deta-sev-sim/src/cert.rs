//! Minimal X.509-like certificates for the simulated SEV chain of trust.
//!
//! Real SEV platforms carry an ARK → ASK → CEK → PEK/PDH chain; this
//! module models the same structure with the Schnorr keys from
//! `deta-crypto`. A [`Certificate`] binds a subject name to a public key
//! (either a signing key or raw key material such as a DH value), signed
//! by an issuer.

use deta_crypto::{Signature, SigningKey, VerifyingKey};

/// A signed binding of a subject name to public key material.
///
/// It has no `PartialEq`: it carries a [`Signature`], which has none, and
/// a certificate is checked by verifying it, not by comparing it:
///
/// ```compile_fail
/// # use deta_crypto::{DetRng, SigningKey};
/// # use deta_sev_sim::Certificate;
/// let key = SigningKey::generate(&mut DetRng::from_u64(1));
/// let root = Certificate::self_signed("root", &key);
/// let _ = root == root.clone();
/// ```
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Subject name (e.g. a chip id, "AMD-ARK").
    pub subject: String,
    /// Subject public key bytes. For signature keys this is a serialized
    /// [`VerifyingKey`]; for transport keys it may be a raw DH value.
    pub subject_key: Vec<u8>,
    /// Issuer name.
    pub issuer: String,
    /// Issuer signature over `(subject, subject_key, issuer)`.
    pub signature: Signature,
}

impl Certificate {
    fn signed_bytes(subject: &str, subject_key: &[u8], issuer: &str) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"deta-cert-v1");
        out.extend_from_slice(&(subject.len() as u32).to_le_bytes());
        out.extend_from_slice(subject.as_bytes());
        out.extend_from_slice(&(subject_key.len() as u32).to_le_bytes());
        out.extend_from_slice(subject_key);
        out.extend_from_slice(issuer.as_bytes());
        out
    }

    /// Issues a certificate for a signature key.
    pub fn issue(
        subject: &str,
        subject_key: &VerifyingKey,
        issuer: &str,
        issuer_key: &SigningKey,
    ) -> Certificate {
        Self::issue_raw(subject, &subject_key.to_bytes(), issuer, issuer_key)
    }

    /// Issues a certificate over raw key bytes (e.g. a DH public value).
    pub fn issue_raw(
        subject: &str,
        subject_key: &[u8],
        issuer: &str,
        issuer_key: &SigningKey,
    ) -> Certificate {
        let body = Self::signed_bytes(subject, subject_key, issuer);
        Certificate {
            subject: subject.to_string(),
            subject_key: subject_key.to_vec(),
            issuer: issuer.to_string(),
            signature: issuer_key.sign(&body),
        }
    }

    /// Issues a self-signed root certificate.
    pub fn self_signed(subject: &str, key: &SigningKey) -> Certificate {
        Certificate::issue(subject, &key.verifying_key(), subject, key)
    }

    /// Verifies the signature with the given issuer key and, on success,
    /// parses the subject key as a [`VerifyingKey`].
    ///
    /// Returns `None` on signature failure or if the subject key is not a
    /// valid signature key.
    pub fn verify_with(&self, issuer_key: &VerifyingKey) -> Option<VerifyingKey> {
        let body = Self::signed_bytes(&self.subject, &self.subject_key, &self.issuer);
        if !issuer_key.verify(&body, &self.signature) {
            return None;
        }
        VerifyingKey::from_bytes(&self.subject_key)
    }

    /// Verifies the raw subject key bytes against the issuer signature
    /// without interpreting them (for transport-key certificates).
    pub fn verify_raw_with(&self, issuer_key: &VerifyingKey) -> Option<&[u8]> {
        let body = Self::signed_bytes(&self.subject, &self.subject_key, &self.issuer);
        if issuer_key.verify(&body, &self.signature) {
            Some(&self.subject_key)
        } else {
            None
        }
    }

    /// Verifies a self-signed certificate, returning the embedded key.
    pub fn self_verify(&self) -> Option<VerifyingKey> {
        let key = VerifyingKey::from_bytes(&self.subject_key)?;
        self.verify_with(&key)
    }
}

/// An ordered certificate chain, leaf last.
#[derive(Clone, Debug)]
pub struct CertChain(pub Vec<Certificate>);

impl CertChain {
    /// Verifies the whole chain starting from a trusted root key,
    /// returning the leaf's verified key.
    ///
    /// Returns `None` if any link fails.
    pub fn verify(&self, root: &VerifyingKey) -> Option<VerifyingKey> {
        let mut current = root.clone();
        for cert in &self.0 {
            current = cert.verify_with(&current)?;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deta_crypto::DetRng;

    fn key(seed: u64) -> SigningKey {
        SigningKey::generate(&mut DetRng::from_u64(seed))
    }

    #[test]
    fn issue_and_verify() {
        let root = key(1);
        let leaf = key(2);
        let cert = Certificate::issue("leaf", &leaf.verifying_key(), "root", &root);
        let recovered = cert.verify_with(&root.verifying_key()).unwrap();
        assert_eq!(recovered, leaf.verifying_key());
    }

    #[test]
    fn wrong_issuer_key_fails() {
        let root = key(1);
        let other = key(3);
        let leaf = key(2);
        let cert = Certificate::issue("leaf", &leaf.verifying_key(), "root", &root);
        assert!(cert.verify_with(&other.verifying_key()).is_none());
    }

    #[test]
    fn tampered_subject_fails() {
        let root = key(1);
        let leaf = key(2);
        let mut cert = Certificate::issue("leaf", &leaf.verifying_key(), "root", &root);
        cert.subject = "evil".to_string();
        assert!(cert.verify_with(&root.verifying_key()).is_none());
    }

    #[test]
    fn tampered_key_fails() {
        let root = key(1);
        let leaf = key(2);
        let other = key(4);
        let mut cert = Certificate::issue("leaf", &leaf.verifying_key(), "root", &root);
        cert.subject_key = other.verifying_key().to_bytes();
        assert!(cert.verify_with(&root.verifying_key()).is_none());
    }

    #[test]
    fn self_signed_roundtrip() {
        let root = key(5);
        let cert = Certificate::self_signed("root", &root);
        assert_eq!(cert.self_verify().unwrap(), root.verifying_key());
        // A certificate signed by someone else fails self-verification.
        let other = key(6);
        let fake = Certificate::issue("root", &root.verifying_key(), "root", &other);
        assert!(fake.self_verify().is_none());
    }

    #[test]
    fn raw_certificates() {
        let root = key(7);
        let cert = Certificate::issue_raw("pdh", b"raw-dh-bytes", "chip", &root);
        assert_eq!(
            cert.verify_raw_with(&root.verifying_key()),
            Some(&b"raw-dh-bytes"[..])
        );
        // Raw bytes that are not a group element cannot be parsed as a
        // verifying key.
        assert!(cert.verify_with(&root.verifying_key()).is_none());
    }

    #[test]
    fn chain_verification() {
        let root = key(10);
        let mid = key(11);
        let leaf = key(12);
        let chain = CertChain(vec![
            Certificate::issue("mid", &mid.verifying_key(), "root", &root),
            Certificate::issue("leaf", &leaf.verifying_key(), "mid", &mid),
        ]);
        assert_eq!(
            chain.verify(&root.verifying_key()).unwrap(),
            leaf.verifying_key()
        );
        // Break the middle link.
        let bad_chain = CertChain(vec![
            Certificate::issue("mid", &mid.verifying_key(), "root", &leaf),
            Certificate::issue("leaf", &leaf.verifying_key(), "mid", &mid),
        ]);
        assert!(bad_chain.verify(&root.verifying_key()).is_none());
    }
}
