//! A software model of an AMD SEV confidential-computing platform.
//!
//! The paper shields every DeTA aggregator inside an SEV confidential VM
//! (CVM) and verifies it through AMD's remote attestation service before
//! provisioning an authentication token (Phase I of the two-phase
//! protocol). This crate reproduces that machinery in software so the
//! protocol logic — what is measured, what is signed, what the attestation
//! proxy verifies, and what secret injection implies — runs unchanged,
//! while the hardware root of trust is simulated:
//!
//! * [`AmdRas`] — the vendor root: an ARK/ASK certificate hierarchy that
//!   endorses genuine chips, standing in for AMD's remote attestation
//!   service (`https://kdsintf.amd.com` in real deployments).
//! * [`Platform`] — one SEV-capable machine with a chip endorsement key
//!   (CEK) and a platform Diffie-Hellman key (PDH) for secret transport.
//! * [`GuestImage`] / launch flow — `launch_start` → [`Platform::launch_measure`]
//!   → [`LaunchContext::inject_secret`] → `launch_finish`, mirroring the
//!   SEV `LAUNCH_*` command sequence (including the QEMU
//!   `sev-inject-launch-secret` patch the paper applies).
//! * [`Cvm`] — a running confidential VM whose memory is modelled as
//!   encrypted under a per-VM VEK: the host sees ciphertext, the guest
//!   sees plaintext.
//! * [`Cvm::breach`] — **breach injection**: deterministically simulates a
//!   CC vulnerability (the paper's worst-case scenario) by handing an
//!   attacker the decrypted memory image. Real hardware cannot do this on
//!   demand, which is precisely why a simulator is the right substrate for
//!   evaluating DeTA's defense-in-depth claims.

//!
//! # Examples
//!
//! ```
//! use deta_crypto::DetRng;
//! use deta_sev_sim::{AmdRas, GuestImage, Platform};
//!
//! let mut rng = DetRng::from_u64(1);
//! let ras = AmdRas::new(&mut rng.fork(b"ras"));
//! let mut platform = Platform::genuine(&ras, "chip-0", &mut rng.fork(b"p"));
//! let image = GuestImage::new(b"firmware".to_vec(), b"workload".to_vec());
//! let (ctx, report) = platform.launch_measure(&image);
//! report.verify(&ras.root_certs(), &image).expect("genuine launch attests");
//! let cvm = ctx.finish();
//! assert_eq!(cvm.guest().read(), b"workload");
//! ```

pub mod cert;

pub use cert::{CertChain, Certificate};

use deta_crypto::dh::{EphemeralSecret, PublicKey as DhPublicKey};
use deta_crypto::sha256::sha256_concat;
use deta_crypto::{open, seal, AeadKey, DetRng, Nonce, Signature, SigningKey, VerifyingKey};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks the CVM state, recovering the data from a poisoned lock (guest
/// state stays consistent across every critical section, so a panic on
/// another thread never leaves it half-updated).
fn lock(m: &Mutex<CvmState>) -> MutexGuard<'_, CvmState> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The SEV API version this simulator models (the paper uses 0.22).
pub const SEV_API_VERSION: (u8, u8) = (0, 22);

/// Errors surfaced by attestation and launch operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SevError {
    /// The certificate chain does not verify up to the trusted root.
    BadCertChain(&'static str),
    /// The attestation report signature is invalid.
    BadReportSignature,
    /// The launch measurement does not match the expected guest image.
    MeasurementMismatch {
        /// Measurement the verifier expected.
        expected: [u8; 32],
        /// Measurement the platform reported.
        reported: [u8; 32],
    },
    /// A sealed secret failed to decrypt during injection.
    SecretUnsealFailed,
    /// The platform reports an unsupported API version.
    UnsupportedApiVersion,
    /// The launch policy does not satisfy the verifier's requirements.
    PolicyViolation(&'static str),
}

impl std::fmt::Display for SevError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SevError::BadCertChain(why) => write!(f, "certificate chain invalid: {why}"),
            SevError::BadReportSignature => write!(f, "attestation report signature invalid"),
            SevError::MeasurementMismatch { .. } => write!(f, "launch measurement mismatch"),
            SevError::SecretUnsealFailed => write!(f, "launch secret failed to unseal"),
            SevError::UnsupportedApiVersion => write!(f, "unsupported SEV API version"),
            SevError::PolicyViolation(why) => write!(f, "launch policy violation: {why}"),
        }
    }
}

/// The SEV guest launch policy, set at `LAUNCH_START` and covered by the
/// attestation report. Mirrors the real policy bits that matter for
/// DeTA: debugging must be disallowed (a debug-enabled CVM lets the
/// hypervisor read guest memory, voiding every confidentiality claim).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GuestPolicy {
    /// Debug access is disallowed (the SEV `NODBG` bit).
    pub no_debug: bool,
    /// Guest migration to another platform is disallowed (`NOSEND`).
    pub no_send: bool,
}

impl Default for GuestPolicy {
    fn default() -> Self {
        GuestPolicy {
            no_debug: true,
            no_send: true,
        }
    }
}

impl GuestPolicy {
    /// Serializes the policy bits for measurement/signing.
    pub fn to_bytes(&self) -> [u8; 2] {
        [u8::from(self.no_debug), u8::from(self.no_send)]
    }

    /// Checks this (reported) policy against a verifier requirement:
    /// every protection the verifier requires must be enabled.
    pub fn satisfies(&self, required: &GuestPolicy) -> Result<(), SevError> {
        if required.no_debug && !self.no_debug {
            return Err(SevError::PolicyViolation("debug access must be disabled"));
        }
        if required.no_send && !self.no_send {
            return Err(SevError::PolicyViolation("migration must be disabled"));
        }
        Ok(())
    }
}

impl std::error::Error for SevError {}

/// The vendor root of trust (stand-in for AMD's key distribution service).
pub struct AmdRas {
    ark: SigningKey,
    ask: SigningKey,
    ark_cert: Certificate,
    ask_cert: Certificate,
}

/// The public root certificates an attestation proxy downloads from the
/// vendor to verify platforms.
#[derive(Clone)]
pub struct RootCerts {
    /// Self-signed AMD Root Key certificate.
    pub ark_cert: Certificate,
    /// AMD SEV Signing Key certificate, signed by the ARK.
    pub ask_cert: Certificate,
}

impl AmdRas {
    /// Creates a fresh vendor root.
    pub fn new(rng: &mut DetRng) -> AmdRas {
        let ark = SigningKey::generate(&mut rng.fork(b"amd-ark"));
        let ask = SigningKey::generate(&mut rng.fork(b"amd-ask"));
        let ark_cert = Certificate::self_signed("AMD-ARK", &ark);
        let ask_cert = Certificate::issue("AMD-ASK", &ask.verifying_key(), "AMD-ARK", &ark);
        AmdRas {
            ark,
            ask,
            ark_cert,
            ask_cert,
        }
    }

    /// Returns the public root certificates.
    pub fn root_certs(&self) -> RootCerts {
        RootCerts {
            ark_cert: self.ark_cert.clone(),
            ask_cert: self.ask_cert.clone(),
        }
    }

    /// Endorses a chip: issues a CEK certificate signed by the ASK.
    ///
    /// Called at "manufacturing time" for genuine platforms.
    pub fn endorse_chip(&self, chip_id: &str, cek: &VerifyingKey) -> Certificate {
        Certificate::issue(chip_id, cek, "AMD-ASK", &self.ask)
    }

    /// Returns the ARK verifying key (pinned root of trust).
    pub fn ark_key(&self) -> VerifyingKey {
        self.ark.verifying_key()
    }
}

/// A guest image: the firmware (OVMF stand-in) plus the workload payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuestImage {
    /// UEFI firmware bytes (what SEV measures at launch).
    pub firmware: Vec<u8>,
    /// Workload identifier/payload baked into the image.
    pub workload: Vec<u8>,
}

impl GuestImage {
    /// Creates an image.
    pub fn new(firmware: impl Into<Vec<u8>>, workload: impl Into<Vec<u8>>) -> GuestImage {
        GuestImage {
            firmware: firmware.into(),
            workload: workload.into(),
        }
    }

    /// Computes the launch measurement: a digest over the API version,
    /// firmware, and workload.
    ///
    /// Both the platform (at launch) and the verifier (from the reference
    /// image) compute this; equality is the launch-integrity check.
    pub fn measurement(&self) -> [u8; 32] {
        sha256_concat(&[
            b"sev-launch-measurement",
            &[SEV_API_VERSION.0, SEV_API_VERSION.1],
            &(self.firmware.len() as u64).to_le_bytes(),
            &self.firmware,
            &self.workload,
        ])
    }
}

/// A signed attestation report for a paused CVM launch.
#[derive(Clone, Debug)]
pub struct AttestationReport {
    /// Chip identifier.
    pub chip_id: String,
    /// SEV API version on the platform.
    pub api_version: (u8, u8),
    /// The guest launch policy in force.
    pub policy: GuestPolicy,
    /// Launch measurement of the guest image.
    pub measurement: [u8; 32],
    /// Certificate chain: CEK certificate (signed by ASK).
    pub cek_cert: Certificate,
    /// Platform Diffie-Hellman public key for secret transport, with its
    /// certificate signed by the CEK.
    pub pdh_cert: Certificate,
    /// PDH public value.
    pub pdh_pub: DhPublicKey,
    /// Fresh launch nonce (anti-replay).
    pub nonce: [u8; 16],
    /// CEK signature over the report body.
    pub signature: Signature,
}

/// Serializes the signed portion of an attestation report.
fn report_signed_bytes(
    chip_id: &str,
    api_version: (u8, u8),
    policy: &GuestPolicy,
    measurement: &[u8; 32],
    pdh_pub: &DhPublicKey,
    nonce: &[u8; 16],
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"sev-attestation-report");
    out.extend_from_slice(chip_id.as_bytes());
    out.push(api_version.0);
    out.push(api_version.1);
    out.extend_from_slice(&policy.to_bytes());
    out.extend_from_slice(measurement);
    out.extend_from_slice(&pdh_pub.to_bytes());
    out.extend_from_slice(nonce);
    out
}

impl AttestationReport {
    /// Serializes the signed portion of the report.
    fn signed_bytes(&self) -> Vec<u8> {
        report_signed_bytes(
            &self.chip_id,
            self.api_version,
            &self.policy,
            &self.measurement,
            &self.pdh_pub,
            &self.nonce,
        )
    }

    /// Verifies the report against pinned vendor roots and an expected
    /// guest measurement, requiring the default (fully locked-down)
    /// launch policy.
    ///
    /// Checks, in order: API version support, the launch policy, the
    /// ASK→CEK→PDH certificate chain rooted in the ARK, the CEK signature
    /// over the report, and the launch measurement.
    pub fn verify(&self, roots: &RootCerts, expected: &GuestImage) -> Result<(), SevError> {
        self.verify_with_policy(roots, expected, &GuestPolicy::default())
    }

    /// [`AttestationReport::verify`] with an explicit policy requirement.
    pub fn verify_with_policy(
        &self,
        roots: &RootCerts,
        expected: &GuestImage,
        required: &GuestPolicy,
    ) -> Result<(), SevError> {
        if self.api_version != SEV_API_VERSION {
            return Err(SevError::UnsupportedApiVersion);
        }
        self.policy.satisfies(required)?;
        // ARK must be self-consistent and the ASK must chain to it.
        let ark_key = roots
            .ark_cert
            .self_verify()
            .ok_or(SevError::BadCertChain("ARK certificate invalid"))?;
        let ask_key = roots
            .ask_cert
            .verify_with(&ark_key)
            .ok_or(SevError::BadCertChain("ASK not signed by ARK"))?;
        let cek_key = self
            .cek_cert
            .verify_with(&ask_key)
            .ok_or(SevError::BadCertChain("CEK not signed by ASK"))?;
        let _pdh_key = self
            .pdh_cert
            .verify_with(&cek_key)
            .ok_or(SevError::BadCertChain("PDH not signed by CEK"))?;
        if !cek_key.verify(&self.signed_bytes(), &self.signature) {
            return Err(SevError::BadReportSignature);
        }
        let want = expected.measurement();
        // Constant-time digest comparison: verification timing must not
        // reveal how close a forged measurement came to the reference.
        if !deta_crypto::ct_eq(&want, &self.measurement) {
            return Err(SevError::MeasurementMismatch {
                expected: want,
                reported: self.measurement,
            });
        }
        Ok(())
    }
}

/// One SEV-capable machine.
pub struct Platform {
    /// Chip identifier.
    pub chip_id: String,
    cek: SigningKey,
    cek_cert: Certificate,
    pdh_secret_seed: DetRng,
    api_version: (u8, u8),
    policy: GuestPolicy,
    launch_counter: u64,
}

impl Platform {
    /// Creates a genuine platform endorsed by the vendor root.
    pub fn genuine(ras: &AmdRas, chip_id: &str, rng: &mut DetRng) -> Platform {
        let cek = SigningKey::generate(&mut rng.fork(b"platform-cek"));
        let cek_cert = ras.endorse_chip(chip_id, &cek.verifying_key());
        Platform {
            chip_id: chip_id.to_string(),
            cek,
            cek_cert,
            pdh_secret_seed: rng.fork(b"platform-pdh"),
            api_version: SEV_API_VERSION,
            policy: GuestPolicy::default(),
            launch_counter: 0,
        }
    }

    /// Creates a counterfeit platform whose chain is *not* rooted in the
    /// vendor: it self-issues a look-alike CEK certificate. Attestation
    /// against genuine roots must fail for such a platform.
    pub fn counterfeit(chip_id: &str, rng: &mut DetRng) -> Platform {
        let fake_ask = SigningKey::generate(&mut rng.fork(b"fake-ask"));
        let cek = SigningKey::generate(&mut rng.fork(b"platform-cek"));
        let cek_cert = Certificate::issue(chip_id, &cek.verifying_key(), "AMD-ASK", &fake_ask);
        Platform {
            chip_id: chip_id.to_string(),
            cek,
            cek_cert,
            pdh_secret_seed: rng.fork(b"platform-pdh"),
            api_version: SEV_API_VERSION,
            policy: GuestPolicy::default(),
            launch_counter: 0,
        }
    }

    /// Begins a paused CVM launch over `image`, returning the launch
    /// context and the attestation report for the verifier.
    ///
    /// Mirrors `LAUNCH_START` + `LAUNCH_UPDATE_DATA` + `LAUNCH_MEASURE`:
    /// the VM is not running yet; secrets may be injected before
    /// [`LaunchContext::finish`].
    pub fn launch_measure(&mut self, image: &GuestImage) -> (LaunchContext, AttestationReport) {
        self.launch_counter += 1;
        let mut launch_rng = self
            .pdh_secret_seed
            .fork_indexed(b"launch", self.launch_counter);
        // Per-launch PDH key pair for secret transport.
        let pdh = EphemeralSecret::generate(&mut launch_rng.fork(b"pdh"));
        let pdh_pub = pdh.public_key();
        let pdh_cert = Certificate::issue_raw("PDH", &pdh_pub.to_bytes(), &self.chip_id, &self.cek);
        let mut nonce = [0u8; 16];
        launch_rng.fill_bytes(&mut nonce);
        // Per-VM memory encryption key (the VEK, owned by the "SP").
        let vek = AeadKey::filled(|key| launch_rng.fill_bytes(key));
        let measurement = image.measurement();
        let body = report_signed_bytes(
            &self.chip_id,
            self.api_version,
            &self.policy,
            &measurement,
            &pdh_pub,
            &nonce,
        );
        let signature = self.cek.sign(&body);
        let report = AttestationReport {
            chip_id: self.chip_id.clone(),
            api_version: self.api_version,
            policy: self.policy,
            measurement,
            cek_cert: self.cek_cert.clone(),
            pdh_cert,
            pdh_pub,
            nonce,
            signature,
        };
        let ctx = LaunchContext {
            image: image.clone(),
            vek,
            pdh: Some(pdh),
            secrets: HashMap::new(),
            asid: self.launch_counter as u32,
        };
        (ctx, report)
    }

    /// Overrides the reported API version (test hook for downgrade
    /// scenarios).
    pub fn set_api_version(&mut self, version: (u8, u8)) {
        self.api_version = version;
    }

    /// Overrides the launch policy (e.g. to model an operator enabling
    /// debug access; the attestation proxy must reject such launches).
    pub fn set_policy(&mut self, policy: GuestPolicy) {
        self.policy = policy;
    }
}

/// A secret sealed to a platform's PDH key for launch injection.
#[derive(Clone)]
pub struct SealedSecret {
    /// Label under which the guest will find the secret.
    pub label: String,
    /// Verifier's ephemeral DH public value.
    pub sender_pub: DhPublicKey,
    /// AEAD-sealed secret bytes.
    pub sealed: Vec<u8>,
}

impl std::fmt::Debug for SealedSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Ciphertext bytes stay out of logs: even sealed material should
        // not be copy-pasteable from debug output.
        f.debug_struct("SealedSecret")
            .field("label", &self.label)
            .field("sealed", &"<redacted>")
            .finish_non_exhaustive()
    }
}

impl SealedSecret {
    /// Seals `secret` to the platform identified by `report`, binding the
    /// transport key to the report nonce.
    ///
    /// This is what the attestation proxy does after verifying a report
    /// (the paper's "launch blob with a packaged secret").
    ///
    /// # Errors
    ///
    /// Fails if the report's PDH public key is not a valid group element
    /// (a malformed or malicious report).
    pub fn seal_to(
        report: &AttestationReport,
        label: &str,
        secret: &[u8],
        rng: &mut DetRng,
    ) -> Result<SealedSecret, SevError> {
        let eph = EphemeralSecret::generate(rng);
        let sender_pub = eph.public_key();
        let key = eph
            .agree(&report.pdh_pub, &report.nonce)
            .map_err(|_| SevError::BadCertChain("report PDH key invalid"))?;
        let sealed = seal(&key, &Nonce::from_parts(0x5ec, 0), label.as_bytes(), secret);
        Ok(SealedSecret {
            label: label.to_string(),
            sender_pub,
            sealed,
        })
    }
}

/// A paused CVM launch accepting secret injection.
pub struct LaunchContext {
    image: GuestImage,
    vek: AeadKey,
    pdh: Option<EphemeralSecret>,
    secrets: HashMap<String, Vec<u8>>,
    asid: u32,
}

impl LaunchContext {
    /// Injects a sealed secret into the pending CVM's encrypted memory
    /// (the `LAUNCH_SECRET` command).
    ///
    /// # Errors
    ///
    /// Returns [`SevError::SecretUnsealFailed`] if the blob does not
    /// decrypt (wrong platform, tampered blob, or replayed nonce).
    pub fn inject_secret(
        &mut self,
        blob: &SealedSecret,
        report_nonce: &[u8; 16],
    ) -> Result<(), SevError> {
        let pdh = self.pdh.take().ok_or(SevError::SecretUnsealFailed)?;
        // The platform-side PDH secret is consumed by the agreement; a
        // second injection requires a fresh launch (matching SEV, where
        // LAUNCH_SECRET is a launch-time one-shot per blob).
        let key = pdh
            .agree(&blob.sender_pub, report_nonce)
            .map_err(|_| SevError::SecretUnsealFailed)?;
        let secret = open(
            &key,
            &Nonce::from_parts(0x5ec, 0),
            blob.label.as_bytes(),
            &blob.sealed,
        )
        .map_err(|_| SevError::SecretUnsealFailed)?;
        self.secrets.insert(blob.label.clone(), secret);
        Ok(())
    }

    /// Resumes the launch, producing a running CVM (`LAUNCH_FINISH`).
    pub fn finish(self) -> Cvm {
        Cvm {
            asid: self.asid,
            vek: self.vek,
            inner: Arc::new(Mutex::new(CvmState {
                memory: self.image.workload.clone(),
                secrets: self.secrets,
            })),
        }
    }
}

/// Plaintext state of a CVM, protected by the VEK in the memory model.
struct CvmState {
    memory: Vec<u8>,
    secrets: HashMap<String, Vec<u8>>,
}

/// A running confidential VM.
///
/// The guest view ([`Cvm::guest`]) reads and writes plaintext, because the
/// on-die AES engine transparently decrypts for the guest. The host view
/// ([`Cvm::host_memory_image`]) only ever sees ciphertext. [`Cvm::breach`]
/// simulates a CC compromise that bypasses the VEK.
#[derive(Clone)]
pub struct Cvm {
    /// Address space identifier.
    pub asid: u32,
    vek: AeadKey,
    inner: Arc<Mutex<CvmState>>,
}

/// Plaintext view from inside the guest.
pub struct GuestView<'a> {
    cvm: &'a Cvm,
}

/// The result of breaching a CVM: the attacker's plaintext view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreachDump {
    /// Decrypted guest memory.
    pub memory: Vec<u8>,
    /// All injected secrets, by label.
    pub secrets: Vec<(String, Vec<u8>)>,
}

impl Cvm {
    /// Returns the guest's plaintext view.
    pub fn guest(&self) -> GuestView<'_> {
        GuestView { cvm: self }
    }

    /// Returns the hypervisor's view of guest memory: ciphertext under the
    /// VEK. Two snapshots of identical memory differ only if memory
    /// changed (deterministic nonce per snapshot length/asid).
    pub fn host_memory_image(&self) -> Vec<u8> {
        let state = lock(&self.inner);
        seal(
            &self.vek,
            &Nonce::from_parts(self.asid, 0),
            b"sev-memory",
            &state.memory,
        )
    }

    /// **Breach injection**: simulates a successful attack on the CC
    /// execution environment (e.g. the SEV vulnerabilities cited in the
    /// paper), yielding the attacker's plaintext view of everything the
    /// CVM holds.
    ///
    /// DeTA's security evaluation (paper Section 6) assumes exactly this
    /// worst case for *all* aggregators and shows the attacker still
    /// cannot reconstruct training data.
    pub fn breach(&self) -> BreachDump {
        let state = lock(&self.inner);
        let mut secrets: Vec<(String, Vec<u8>)> = state
            .secrets
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        secrets.sort();
        BreachDump {
            memory: state.memory.clone(),
            secrets,
        }
    }
}

impl GuestView<'_> {
    /// Reads a secret injected at launch.
    pub fn secret(&self, label: &str) -> Option<Vec<u8>> {
        lock(&self.cvm.inner).secrets.get(label).cloned()
    }

    /// Reads guest memory.
    pub fn read(&self) -> Vec<u8> {
        lock(&self.cvm.inner).memory.clone()
    }

    /// Replaces guest memory contents.
    pub fn write(&self, data: Vec<u8>) {
        lock(&self.cvm.inner).memory = data;
    }

    /// Appends to guest memory.
    pub fn append(&self, data: &[u8]) {
        lock(&self.cvm.inner).memory.extend_from_slice(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AmdRas, Platform, GuestImage, DetRng) {
        let rng = DetRng::from_u64(1);
        let ras = AmdRas::new(&mut rng.fork(b"ras"));
        let platform = Platform::genuine(&ras, "EPYC-7642-001", &mut rng.fork(b"plat"));
        let image = GuestImage::new(b"ovmf-firmware-v1".to_vec(), b"aggregator-v1".to_vec());
        (ras, platform, image, rng)
    }

    #[test]
    fn genuine_platform_attests() {
        let (ras, mut platform, image, _) = setup();
        let (_ctx, report) = platform.launch_measure(&image);
        assert!(report.verify(&ras.root_certs(), &image).is_ok());
    }

    #[test]
    fn counterfeit_platform_rejected() {
        let (ras, _, image, mut rng) = setup();
        let mut fake = Platform::counterfeit("EPYC-FAKE", &mut rng);
        let (_ctx, report) = fake.launch_measure(&image);
        assert!(matches!(
            report.verify(&ras.root_certs(), &image),
            Err(SevError::BadCertChain(_))
        ));
    }

    #[test]
    fn tampered_firmware_rejected() {
        let (ras, mut platform, image, _) = setup();
        // The platform launches a *modified* image (e.g. with collusion
        // code); verification against the reference image must fail.
        let tampered = GuestImage::new(b"ovmf-firmware-v1".to_vec(), b"aggregator-evil".to_vec());
        let (_ctx, report) = platform.launch_measure(&tampered);
        assert!(matches!(
            report.verify(&ras.root_certs(), &image),
            Err(SevError::MeasurementMismatch { .. })
        ));
    }

    #[test]
    fn tampered_report_signature_rejected() {
        let (ras, mut platform, image, _) = setup();
        let (_ctx, mut report) = platform.launch_measure(&image);
        report.measurement[0] ^= 1;
        let err = report.verify(&ras.root_certs(), &image).unwrap_err();
        assert!(matches!(err, SevError::BadReportSignature), "got {err:?}");
    }

    #[test]
    fn wrong_vendor_roots_rejected() {
        let (_, mut platform, image, rng) = setup();
        let other_ras = AmdRas::new(&mut rng.fork(b"other"));
        let (_ctx, report) = platform.launch_measure(&image);
        assert!(report.verify(&other_ras.root_certs(), &image).is_err());
    }

    #[test]
    fn debug_enabled_policy_rejected() {
        // An operator relaunching the aggregator with debug access (the
        // hypervisor can then read guest memory) must fail attestation.
        let (ras, mut platform, image, _) = setup();
        platform.set_policy(GuestPolicy {
            no_debug: false,
            no_send: true,
        });
        let (_ctx, report) = platform.launch_measure(&image);
        assert!(matches!(
            report.verify(&ras.root_certs(), &image),
            Err(SevError::PolicyViolation(_))
        ));
    }

    #[test]
    fn policy_is_covered_by_the_signature() {
        // Flipping the policy bits after signing must break verification
        // even if the relaxed policy itself would have been acceptable.
        let (ras, mut platform, image, _) = setup();
        let (_ctx, mut report) = platform.launch_measure(&image);
        report.policy = GuestPolicy {
            no_debug: true,
            no_send: false,
        };
        let relaxed = GuestPolicy {
            no_debug: true,
            no_send: false,
        };
        assert!(matches!(
            report.verify_with_policy(&ras.root_certs(), &image, &relaxed),
            Err(SevError::BadReportSignature)
        ));
    }

    #[test]
    fn relaxed_requirement_accepts_relaxed_policy() {
        let (ras, mut platform, image, _) = setup();
        platform.set_policy(GuestPolicy {
            no_debug: true,
            no_send: false,
        });
        let (_ctx, report) = platform.launch_measure(&image);
        let required = GuestPolicy {
            no_debug: true,
            no_send: false,
        };
        report
            .verify_with_policy(&ras.root_certs(), &image, &required)
            .unwrap();
        // But the default (strict) requirement still rejects it.
        assert!(report.verify(&ras.root_certs(), &image).is_err());
    }

    #[test]
    fn api_version_downgrade_rejected() {
        let (ras, mut platform, image, _) = setup();
        platform.set_api_version((0, 16));
        let (_ctx, report) = platform.launch_measure(&image);
        assert_eq!(
            report.verify(&ras.root_certs(), &image),
            Err(SevError::UnsupportedApiVersion)
        );
    }

    #[test]
    fn secret_injection_reaches_guest_only() {
        let (ras, mut platform, image, mut rng) = setup();
        let (mut ctx, report) = platform.launch_measure(&image);
        report.verify(&ras.root_certs(), &image).unwrap();
        let blob =
            SealedSecret::seal_to(&report, "auth-token", b"ecdsa-key-bytes", &mut rng).unwrap();
        ctx.inject_secret(&blob, &report.nonce).unwrap();
        let cvm = ctx.finish();
        // Guest sees the secret.
        assert_eq!(
            cvm.guest().secret("auth-token"),
            Some(b"ecdsa-key-bytes".to_vec())
        );
        assert_eq!(cvm.guest().secret("missing"), None);
        // Host memory image is ciphertext: it must not contain the
        // workload plaintext.
        let host = cvm.host_memory_image();
        assert!(!contains(&host, b"aggregator-v1"));
    }

    #[test]
    fn tampered_secret_blob_rejected() {
        let (_, mut platform, image, mut rng) = setup();
        let (mut ctx, report) = platform.launch_measure(&image);
        let mut blob = SealedSecret::seal_to(&report, "auth-token", b"secret", &mut rng).unwrap();
        blob.sealed[0] ^= 1;
        assert_eq!(
            ctx.inject_secret(&blob, &report.nonce),
            Err(SevError::SecretUnsealFailed)
        );
    }

    #[test]
    fn secret_for_other_launch_rejected() {
        // A blob sealed to launch A must not inject into launch B
        // (different PDH and nonce).
        let (_, mut platform, image, mut rng) = setup();
        let (_ctx_a, report_a) = platform.launch_measure(&image);
        let (mut ctx_b, report_b) = platform.launch_measure(&image);
        let blob = SealedSecret::seal_to(&report_a, "auth-token", b"secret", &mut rng).unwrap();
        assert_eq!(
            ctx_b.inject_secret(&blob, &report_b.nonce),
            Err(SevError::SecretUnsealFailed)
        );
    }

    #[test]
    fn guest_memory_roundtrip() {
        let (_, mut platform, image, _) = setup();
        let (ctx, _report) = platform.launch_measure(&image);
        let cvm = ctx.finish();
        assert_eq!(cvm.guest().read(), b"aggregator-v1");
        cvm.guest().write(b"model-update-fragment".to_vec());
        assert_eq!(cvm.guest().read(), b"model-update-fragment");
        cvm.guest().append(b"-more");
        assert_eq!(cvm.guest().read(), b"model-update-fragment-more");
    }

    #[test]
    fn breach_reveals_plaintext_and_secrets() {
        let (ras, mut platform, image, mut rng) = setup();
        let (mut ctx, report) = platform.launch_measure(&image);
        report.verify(&ras.root_certs(), &image).unwrap();
        let blob = SealedSecret::seal_to(&report, "auth-token", b"token-123", &mut rng).unwrap();
        ctx.inject_secret(&blob, &report.nonce).unwrap();
        let cvm = ctx.finish();
        cvm.guest().write(b"fragmented-shuffled-update".to_vec());
        let dump = cvm.breach();
        assert_eq!(dump.memory, b"fragmented-shuffled-update");
        assert_eq!(
            dump.secrets,
            vec![("auth-token".to_string(), b"token-123".to_vec())]
        );
    }

    #[test]
    fn distinct_launches_have_distinct_asids() {
        let (_, mut platform, image, _) = setup();
        let (ctx1, _) = platform.launch_measure(&image);
        let (ctx2, _) = platform.launch_measure(&image);
        assert_ne!(ctx1.finish().asid, ctx2.finish().asid);
    }

    fn contains(haystack: &[u8], needle: &[u8]) -> bool {
        haystack.windows(needle.len()).any(|w| w == needle)
    }
}
