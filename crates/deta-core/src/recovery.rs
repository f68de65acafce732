//! Failover re-provisioning.
//!
//! When an aggregator dies mid-session, a replacement CVM must go
//! through the exact same trust pipeline as the original fleet: Phase I
//! attestation against the AMD root of trust, measurement verification
//! against the image of the session's [`Manifest`], and nonce-challenged
//! token injection by the attestation proxy. [`RecoveryKit`] *is* that
//! pipeline — session setup attests and provisions the original fleet
//! through it and then keeps it: the (simulated) RAS, the reference
//! image, the proxy with its signing directory, and a dedicated RNG
//! fork so respawns never perturb the deterministic streams of the
//! original session (parity for fault-free runs is bit-exact whether or
//! not a node is ever respawned).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::agg::AggKind;
use crate::aggregator::AggregatorNode;
use crate::proxy::{AttestationProxy, ProvisionedAggregator};
use crate::session::{DetaConfig, SetupError};
use deta_bignum::BigUint;
use deta_crypto::{DetRng, VerifyingKey};
use deta_paillier::PublicKey as PaillierPk;
use deta_sev_sim::{AmdRas, GuestImage, Platform, SevError};
use deta_transport::wire::{put_bytes, Malformed, Reader};
use deta_transport::Endpoint;

/// What a manifest begins with: its magic, and layout version 1.
const MANIFEST_HEADER: &[u8] = b"deta-aggregator-manifest\x01\x00";

/// What an aggregator computes: the workload of the image its CVM is
/// launched from, so the launch measurement covers it. The node reads it
/// back from the memory it was launched with ([`AggregatorNode::new`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// The aggregation rule.
    pub algorithm: AggKind,
    /// Uploads a round waits for (`None`: every registered party).
    pub quorum: Option<usize>,
    /// The public key of Paillier fusion, if the session encrypts.
    pub paillier_pk: Option<PaillierPk>,
}

impl Manifest {
    /// The manifest of `config`'s aggregators, under `paillier_pk`.
    pub fn of(config: &DetaConfig, paillier_pk: Option<PaillierPk>) -> Manifest {
        let (algorithm, quorum) = (config.algorithm, config.participation);
        Manifest {
            algorithm,
            quorum,
            paillier_pk,
        }
    }

    /// The guest image an aggregator of this manifest is launched from.
    pub fn image(&self) -> GuestImage {
        GuestImage::new(b"deta-ovmf-v1".to_vec(), self.encode())
    }

    /// The canonical bytes: the header, the rule's tag and parameter, the
    /// quorum (0 for every party) and the key's `n`, big-endian (empty
    /// for plain fusion).
    pub fn encode(&self) -> Vec<u8> {
        let (tag, parameter) = match self.algorithm {
            AggKind::IterativeAveraging => (0, 0),
            AggKind::GradientSum => (1, 0),
            AggKind::CoordinateMedian => (2, 0),
            AggKind::Krum { f } => (3, f),
            AggKind::FlameLite => (4, 0),
            AggKind::TrimmedMean { trim } => (5, trim),
        };
        let mut out = MANIFEST_HEADER.to_vec();
        out.push(tag);
        out.extend_from_slice(&(parameter as u64).to_le_bytes());
        out.extend_from_slice(&(self.quorum.unwrap_or(0) as u64).to_le_bytes());
        let n = self.paillier_pk.as_ref().map(|pk| pk.n.to_bytes_be());
        // A key too long for its prefix is left out: nothing decodes then.
        let _ = put_bytes(&mut out, &n.unwrap_or_default());
        out
    }

    /// The manifest `bytes` encode.
    ///
    /// # Errors
    ///
    /// [`Malformed`] for any bytes [`Manifest::encode`] does not write.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, Malformed> {
        let mut r = Reader::new(bytes);
        r.take(MANIFEST_HEADER.len())?;
        let word = |r: &mut Reader| usize::try_from(r.u64()?).map_err(|_| Malformed);
        let (tag, parameter) = (r.u8()?, word(&mut r)?);
        let algorithm = match tag {
            0 => AggKind::IterativeAveraging,
            1 => AggKind::GradientSum,
            2 => AggKind::CoordinateMedian,
            3 => AggKind::Krum { f: parameter },
            4 => AggKind::FlameLite,
            5 => AggKind::TrimmedMean { trim: parameter },
            _ => return Err(Malformed),
        };
        let quorum = word(&mut r)?;
        let n = BigUint::from_bytes_be(r.bytes()?);
        let manifest = Manifest {
            algorithm,
            quorum: (quorum > 0).then_some(quorum),
            paillier_pk: (!n.is_zero()).then(|| PaillierPk { n2: &n * &n, n }),
        };
        // One manifest, one encoding: what the reads let through — another
        // header, a parameter for a rule without one, trailing bytes, a
        // key's leading zeros — is refused here.
        Some(manifest)
            .filter(|m| m.encode() == bytes)
            .ok_or(Malformed)
    }
}

/// Everything needed to attest and provision an aggregator, at the
/// session bootstrap and after it.
pub struct RecoveryKit {
    ras: AmdRas,
    image: GuestImage,
    proxy: AttestationProxy,
    rng: DetRng,
    /// Respawn generation counter: each replacement gets a fresh
    /// platform identity and RNG fork.
    respawned: u64,
}

impl RecoveryKit {
    /// The session's root of trust, cut from `sev_rng`, with no
    /// aggregator attested yet: its reference image is the manifest of
    /// `config` under `paillier_pk`. Internal to session construction.
    pub(crate) fn new(
        config: &DetaConfig,
        sev_rng: &DetRng,
        paillier_pk: Option<PaillierPk>,
    ) -> RecoveryKit {
        let ras = AmdRas::new(&mut sev_rng.fork(b"ras"));
        let image = Manifest::of(config, paillier_pk).image();
        RecoveryKit {
            proxy: AttestationProxy::new(ras.root_certs(), image.clone(), sev_rng.fork(b"proxy")),
            ras,
            image,
            rng: sev_rng.fork(b"respawn"),
            respawned: 0,
        }
    }

    /// Phase I for one aggregator: launches the genuine platform `chip`,
    /// verifies its launch and provisions its token.
    pub(crate) fn attest(
        &mut self,
        chip: &str,
        rng: &mut DetRng,
    ) -> Result<ProvisionedAggregator, SevError> {
        let _span = deta_obs::span("attest").with_label("chip", chip);
        let mut platform = Platform::genuine(&self.ras, chip, rng);
        self.proxy.verify_and_provision(&mut platform, &self.image)
    }

    /// Brings a replacement aggregator online: launches a fresh genuine
    /// platform, re-runs Phase I verification and the nonce challenge
    /// through the proxy (which mints a *new* token signing key — the
    /// dead node's credentials are never reused), and builds the node
    /// on the provided endpoint.
    ///
    /// Returns the node together with the token verifying key parties
    /// must pin before re-registering (the Phase II trust anchor).
    ///
    /// # Errors
    ///
    /// Fails if attestation or token provisioning fails — the caller
    /// must treat this as an unrecoverable node, not retry blindly.
    pub fn respawn(
        &mut self,
        name: &str,
        endpoint: Endpoint,
    ) -> Result<(AggregatorNode, VerifyingKey), SetupError> {
        let generation = self.respawned;
        self.respawned += 1;
        let mut rng = self.rng.fork_indexed(b"platform", generation);
        let prov = self.attest(&format!("EPYC-7642-r{generation:03}"), &mut rng)?;
        let rng = self.rng.fork_indexed(b"agg-rng-r", generation);
        let node = AggregatorNode::new(name, prov.cvm, endpoint, rng)?;
        Ok((node, prov.token_key))
    }
}
