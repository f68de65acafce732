//! # deta-runtime — threaded actor deployment of a DeTA session
//!
//! The paper's prototype is a distributed system: parties and k
//! CC-protected aggregators are separate processes exchanging messages.
//! This crate deploys the nodes that way: each runs on its own OS thread
//! and is driven entirely by what arrives in its
//! [`deta_transport::Endpoint`] mailbox, through `deta_core::node`'s step
//! — the one the inline session runs; a thread adds only its mailbox
//! loop ([`actor`]). What the control plane decides (deadlines, blame,
//! party drop, failover) is `deta_core::supervise`'s step too;
//! [`ThreadedSession`] runs it on the wall clock — liveness from
//! heartbeats and join handles, a structured [`RuntimeError`] within the
//! deadline instead of a hang, every thread joined on the way out — with
//! `deta_core::DetaSession`'s surface and, for a fixed seed, its
//! bit-identical parameters (DESIGN.md §7).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod actor;
pub mod session;

pub use deta_core::node::Node;
pub use deta_core::rtmsg::{CtlMsg, RebindEntry, SUPERVISOR};
pub use deta_core::supervise::{
    base_name, FailoverPolicy, MapperEpoch, Phase, RuntimeConfig, RuntimeError, SessionView,
    StallFault, TelemetryConfig,
};
pub use session::{DetachedNodes, ThreadedSession};
