//! Umbrella crate for the DeTA reproduction.
//!
//! Re-exports every workspace crate under one roof so the examples and
//! cross-crate integration tests have a single dependency. See the
//! individual crates for the real APIs:
//!
//! * [`core`] — the DeTA system itself (start here).
//! * [`nn`], [`tensor`], [`datasets`] — the training substrate.
//! * [`sev_sim`], [`transport`], [`crypto`], [`bignum`], [`paillier`] —
//!   the systems substrate.
//! * [`runtime`] — the threaded actor deployment (concurrent nodes).
//! * [`telemetry`] — tracing, metrics, and per-node flight recorders.
//! * [`attacks`], [`autograd`] — the gradient-inversion attack suite.

pub use deta_attacks as attacks;
pub use deta_attacks::autograd;
pub use deta_bignum as bignum;
pub use deta_core as core;
pub use deta_crypto as crypto;
pub use deta_datasets as datasets;
pub use deta_nn as nn;
pub use deta_paillier as paillier;
pub use deta_runtime as runtime;
pub use deta_sev_sim as sev_sim;
pub use deta_socket as socket;
pub use deta_telemetry as telemetry;
pub use deta_tensor as tensor;
pub use deta_transport as transport;
