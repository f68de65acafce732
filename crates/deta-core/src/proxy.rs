//! The attestation proxy (Phase I of the two-phase protocol).
//!
//! The AP is established and controlled by the participating parties — not
//! by the aggregators. For each aggregator it:
//!
//! 1. pauses the CVM launch and obtains the signed attestation report,
//! 2. verifies the AMD certificate chain (against root certificates
//!    retrieved from the vendor's remote attestation service) and the OVMF
//!    launch measurement against the reference aggregator image,
//! 3. generates an authentication-token signing key, packages it into a
//!    launch blob sealed to the platform's transport key, and injects it
//!    into the CVM's encrypted memory,
//! 4. records the corresponding *verifying* key so parties can later
//!    challenge the aggregator (Phase II).
//!
//! A tampered image or counterfeit platform fails step 2 and never
//! receives a token, so parties will refuse to register with it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use deta_crypto::{DetRng, SigningKey, VerifyingKey};
use deta_sev_sim::{Cvm, GuestImage, Platform, RootCerts, SealedSecret, SevError};

/// Label under which the token key is injected into CVMs.
pub const TOKEN_SECRET_LABEL: &str = "deta-auth-token";

/// A verified, token-provisioned aggregator CVM.
pub struct ProvisionedAggregator {
    /// The running CVM (hand this to the aggregator runtime).
    pub cvm: Cvm,
    /// Public half of the provisioned authentication token.
    pub token_key: VerifyingKey,
}

impl std::fmt::Debug for ProvisionedAggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvisionedAggregator")
            .field("asid", &self.cvm.asid)
            .finish_non_exhaustive()
    }
}

/// The attestation proxy.
pub struct AttestationProxy {
    roots: RootCerts,
    reference_image: GuestImage,
    rng: DetRng,
    verified: Vec<(String, VerifyingKey)>,
}

impl AttestationProxy {
    /// Creates a proxy trusting `roots` and expecting aggregators to run
    /// exactly `reference_image`.
    pub fn new(roots: RootCerts, reference_image: GuestImage, rng: DetRng) -> AttestationProxy {
        AttestationProxy {
            roots,
            reference_image,
            rng,
            verified: Vec::new(),
        }
    }

    /// Runs Phase I against one platform: launch, verify, provision.
    ///
    /// `image` is the image the platform actually launches (normally the
    /// reference image; tests pass tampered ones).
    ///
    /// # Errors
    ///
    /// Propagates every verification failure from the SEV layer; on error
    /// no token is provisioned.
    pub fn verify_and_provision(
        &mut self,
        platform: &mut Platform,
        image: &GuestImage,
    ) -> Result<ProvisionedAggregator, SevError> {
        let (mut ctx, report) = platform.launch_measure(image);
        report.verify(&self.roots, &self.reference_image)?;
        // Generate the authentication token and seal it to this launch.
        let token = SigningKey::generate(
            &mut self
                .rng
                .fork_indexed(b"deta-token", self.verified.len() as u64),
        );
        let blob = SealedSecret::seal_to(
            &report,
            TOKEN_SECRET_LABEL,
            &token.to_bytes(),
            &mut self.rng,
        );
        ctx.inject_secret(&blob, &report.nonce)?;
        let cvm = ctx.finish();
        let token_key = token.verifying_key();
        self.verified
            .push((report.chip_id.clone(), token_key.clone()));
        Ok(ProvisionedAggregator { cvm, token_key })
    }

    /// The directory of verified aggregators: `(chip id, token key)`.
    ///
    /// Parties fetch this to know which token keys to expect in Phase II.
    pub fn directory(&self) -> &[(String, VerifyingKey)] {
        &self.verified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deta_sev_sim::AmdRas;

    fn setup() -> (AttestationProxy, Platform, GuestImage) {
        let rng = DetRng::from_u64(7);
        let ras = AmdRas::new(&mut rng.fork(b"ras"));
        let platform = Platform::genuine(&ras, "chip-1", &mut rng.fork(b"p1"));
        let image = GuestImage::new(b"ovmf".to_vec(), b"deta-aggregator".to_vec());
        let proxy = AttestationProxy::new(ras.root_certs(), image.clone(), rng.fork(b"ap"));
        (proxy, platform, image)
    }

    #[test]
    fn provision_genuine_aggregator() {
        let (mut proxy, mut platform, image) = setup();
        let prov = proxy.verify_and_provision(&mut platform, &image).unwrap();
        // The token key in the directory matches the provisioned one.
        assert_eq!(proxy.directory().len(), 1);
        assert_eq!(proxy.directory()[0].1, prov.token_key);
        // The CVM can load the signing key and answer a challenge.
        let secret = prov.cvm.guest().secret(TOKEN_SECRET_LABEL).unwrap();
        let sk = SigningKey::from_bytes(&secret).unwrap();
        let sig = sk.sign(b"nonce-challenge");
        assert!(prov.token_key.verify(b"nonce-challenge", &sig));
    }

    #[test]
    fn tampered_image_not_provisioned() {
        let (mut proxy, mut platform, _image) = setup();
        let evil = GuestImage::new(b"ovmf".to_vec(), b"deta-aggregator-evil".to_vec());
        let err = proxy
            .verify_and_provision(&mut platform, &evil)
            .unwrap_err();
        assert!(matches!(err, SevError::MeasurementMismatch));
        assert!(proxy.directory().is_empty());
    }

    #[test]
    fn counterfeit_platform_not_provisioned() {
        let (mut proxy, _platform, image) = setup();
        let mut fake = Platform::counterfeit("chip-x", &mut DetRng::from_u64(9));
        let err = proxy.verify_and_provision(&mut fake, &image).unwrap_err();
        assert!(matches!(err, SevError::BadCertChain(_)));
    }

    #[test]
    fn each_aggregator_gets_distinct_token() {
        let rng = DetRng::from_u64(7);
        let ras = AmdRas::new(&mut rng.fork(b"ras"));
        let image = GuestImage::new(b"ovmf".to_vec(), b"deta-aggregator".to_vec());
        let mut proxy = AttestationProxy::new(ras.root_certs(), image.clone(), rng.fork(b"ap"));
        let mut p1 = Platform::genuine(&ras, "chip-1", &mut rng.fork(b"p1"));
        let mut p2 = Platform::genuine(&ras, "chip-2", &mut rng.fork(b"p2"));
        let a1 = proxy.verify_and_provision(&mut p1, &image).unwrap();
        let a2 = proxy.verify_and_provision(&mut p2, &image).unwrap();
        assert_ne!(a1.token_key, a2.token_key);
        assert_eq!(proxy.directory().len(), 2);
    }

    #[test]
    fn breached_cvm_leaks_token_but_directory_is_public_anyway() {
        // Sanity-check the simulation boundary: breaching a CVM reveals
        // the token *signing* key (worst case the paper assumes), which is
        // why DeTA layers partitioning and shuffling on top of CC.
        let (mut proxy, mut platform, image) = setup();
        let prov = proxy.verify_and_provision(&mut platform, &image).unwrap();
        let dump = prov.cvm.breach();
        assert!(dump
            .secrets
            .iter()
            .any(|(label, _)| label == TOKEN_SECRET_LABEL));
    }
}
