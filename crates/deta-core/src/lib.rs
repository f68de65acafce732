//! DeTA: decentralized and trustworthy federated-learning aggregation.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (EuroSys '24, "DeTA: Minimizing Data Leaks in Federated Learning via
//! Decentralized and Trustworthy Aggregation"). It combines the substrate
//! crates into the full system:
//!
//! * [`mapper`] — **randomized model partitioning**: every parameter index
//!   of the flat model update is assigned to one of `k` aggregators by a
//!   shared random model mapper, with configurable proportions.
//! * [`shuffle`] — **parameter-level data shuffling**: a keyed permutation
//!   of each partition, re-derived every round from the permutation key
//!   (held by a participant-controlled key broker) and the per-round
//!   training identifier.
//! * [`transform`] — the composed `Trans` / `Trans^-1` pipeline applied by
//!   parties before upload and after download.
//! * [`agg`] — coordinate-wise aggregation algorithms: iterative averaging
//!   (FedAvg/FedSGD), coordinate median, Krum, and a FLAME-lite clustering
//!   defense, all operating identically on full or fragmented updates.
//! * [`paillier_fusion`] — the Paillier-based additively homomorphic
//!   fusion path.
//! * [`proxy`] — the attestation proxy (Phase I): verifies each
//!   aggregator's (simulated) SEV launch and provisions the signed
//!   authentication token into the CVM.
//! * [`aggregator`] / [`party`] — the runtime nodes; parties authenticate
//!   aggregators by challenge-response against the provisioned token
//!   (Phase II) and open TLS-like secure channels for all model traffic.
//! * [`keybroker`] — the trusted key broker dispatching the permutation
//!   key and the session id each party derives per-round training
//!   identifiers from.
//! * [`session`] — end-to-end orchestration of the DeTA training life
//!   cycle, and [`baseline`] — the single-central-aggregator "FFL"
//!   baseline used for every comparison in the paper's evaluation.
//! * [`latency`] — the latency accounting model combining measured compute
//!   with simulated network transfer.
//! * [`round`] — the round ledger: cohort, plans, completions, byte
//!   windows, timer deltas and metrics.
//! * [`supervise`] — the supervisor's decisions as one step (deadlines,
//!   blame, party drop, failover), which both kinds of session run.
//! * [`node`] / [`rtmsg`] — the one step every host drives a node with,
//!   and the control plane it answers.

pub mod agg;
pub mod aggregator;
pub mod baseline;
pub mod dp;
pub mod keybroker;
pub mod latency;
pub mod mapper;
pub mod node;
pub mod paillier_fusion;
pub mod party;
pub mod proxy;
pub mod recovery;
pub mod round;
pub mod rtmsg;
pub mod session;
pub mod shuffle;
pub mod supervise;
pub mod transform;
pub mod wire;

pub use agg::{AggKind, AggregateError, Aggregation};
pub use mapper::ModelMapper;
pub use session::{
    CoordinatorParts, DetaConfig, DetaSession, RoundMetrics, SessionParts, SyncMode,
};
pub use transform::{TransformConfig, Transformer};

/// A flat model update (parameters or gradients) as exchanged in FL.
pub type ModelUpdate = Vec<f32>;
