//! Failover re-provisioning.
//!
//! When an aggregator dies mid-session, a replacement CVM must go
//! through the exact same trust pipeline as the original fleet: Phase I
//! attestation against the AMD root of trust, measurement verification
//! against the reference guest image, and nonce-challenged token
//! injection by the attestation proxy. [`RecoveryKit`] *is* that
//! pipeline — session setup attests and provisions the original fleet
//! through it and then keeps it: the (simulated) RAS, the reference
//! image, the proxy with its signing directory, and a dedicated RNG
//! fork so respawns never perturb the deterministic streams of the
//! original session (parity for fault-free runs is bit-exact whether or
//! not a node is ever respawned).

use crate::agg::AggKind;
use crate::aggregator::{AggError, AggRole, AggregatorNode};
use crate::proxy::{AttestationProxy, ProvisionedAggregator};
use crate::session::{DetaConfig, SetupError};
use deta_crypto::{DetRng, VerifyingKey};
use deta_paillier::PublicKey as PaillierPk;
use deta_sev_sim::{AmdRas, Cvm, GuestImage, Platform, SevError};
use deta_transport::Endpoint;

/// Everything needed to attest and provision an aggregator, at the
/// session bootstrap and after it.
pub struct RecoveryKit {
    ras: AmdRas,
    image: GuestImage,
    proxy: AttestationProxy,
    rng: DetRng,
    algorithm: AggKind,
    quorum: Option<usize>,
    paillier_pk: Option<PaillierPk>,
    /// Respawn generation counter: each replacement gets a fresh
    /// platform identity and RNG fork.
    respawned: u64,
}

impl RecoveryKit {
    /// The session's root of trust, cut from `sev_rng`, with no
    /// aggregator attested yet. Internal to session construction.
    pub(crate) fn new(
        config: &DetaConfig,
        sev_rng: &DetRng,
        paillier_pk: Option<PaillierPk>,
    ) -> RecoveryKit {
        let ras = AmdRas::new(&mut sev_rng.fork(b"ras"));
        let image = GuestImage::new(b"deta-ovmf-v1".to_vec(), b"deta-aggregator-v1".to_vec());
        RecoveryKit {
            proxy: AttestationProxy::new(ras.root_certs(), image.clone(), sev_rng.fork(b"proxy")),
            ras,
            image,
            rng: sev_rng.fork(b"respawn"),
            algorithm: config.algorithm,
            quorum: config.participation,
            paillier_pk,
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
        let mut platform = Platform::genuine(&self.ras, chip, rng);
        self.proxy.verify_and_provision(&mut platform, &self.image)
    }

    /// The node `name` around an attested `cvm`, provisioned as every
    /// aggregator of the session is, original or replacement: algorithm,
    /// upload quorum and, under Paillier fusion, the public key.
    pub(crate) fn node(
        &self,
        name: &str,
        cvm: Cvm,
        endpoint: Endpoint,
        role: AggRole,
        rng: DetRng,
    ) -> Result<AggregatorNode, AggError> {
        let mut node = AggregatorNode::new(name, cvm, endpoint, self.algorithm.build(), role, rng)?;
        node.set_quorum(self.quorum);
        if let Some(pk) = &self.paillier_pk {
            node.set_paillier_key(pk.clone());
        }
        Ok(node)
    }

    /// Number of replacements provisioned so far.
    pub fn respawned(&self) -> u64 {
        self.respawned
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
        role: AggRole,
    ) -> Result<(AggregatorNode, VerifyingKey), SetupError> {
        let generation = self.respawned;
        self.respawned += 1;
        let mut rng = self.rng.fork_indexed(b"platform", generation);
        let prov = self.attest(&format!("EPYC-7642-r{generation:03}"), &mut rng)?;
        let rng = self.rng.fork_indexed(b"agg-rng-r", generation);
        let node = self.node(name, prov.cvm, endpoint, role, rng)?;
        Ok((node, prov.token_key))
    }
}
