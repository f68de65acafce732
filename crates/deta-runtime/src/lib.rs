//! # deta-runtime — threaded actor deployment of a DeTA session
//!
//! The paper's prototype is a distributed system: parties and k
//! CC-protected aggregators are separate processes exchanging messages.
//! `DetaSession` reproduces the *protocol* but steps every node on one
//! thread, so concurrency, timeouts, and partial failure never happen.
//! This crate deploys the same nodes the way the paper does: each
//! aggregator and each party runs on its own OS thread, owns its
//! [`deta_transport::Endpoint`] mailbox, and is driven entirely by
//! messages — round announcements, fragment uploads/downloads, follower
//! sync, completion acks. What a node does with each message is
//! `deta_core::node`'s step function, the one the inline session runs;
//! a thread adds only its mailbox loop ([`actor`]).
//!
//! A supervisor thread (the operator) owns the control plane
//! (`deta_core::rtmsg`, re-exported here):
//!
//! * per-phase deadlines enforced with `recv_timeout` — a stalled or
//!   panicked node surfaces as a structured [`RuntimeError`] within the
//!   deadline, never a hang,
//! * liveness via heartbeats (idle actors tick) and join handles
//!   (panicked actors are reaped and reported),
//! * idempotent retries with capped exponential backoff for round
//!   triggers, off unless configured (re-announcing a round is a no-op
//!   at every node),
//! * clean shutdown: a stop flag plus mailbox close wakes every actor,
//!   and all threads are joined before [`ThreadedSession`] returns.
//!
//! [`ThreadedSession`] exposes the same surface as
//! `deta_core::DetaSession` (`setup` → `run` → `Vec<RoundMetrics>`) and
//! guarantees bit-identical model parameters for a fixed seed: node
//! construction is shared (`SessionParts::build`), per-party RNGs are
//! independent forks, and aggregation orders uploads by party name, so
//! thread scheduling cannot reach any numeric path.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::path::PathBuf;
use std::time::Duration;

pub mod actor;
pub mod session;
pub mod supervisor;

pub use deta_core::node::Node;
pub use deta_core::rtmsg::{CtlMsg, RebindEntry, SUPERVISOR};
pub use session::{base_name, DetachedNodes, MapperEpoch, SessionView, ThreadedSession};
pub use supervisor::Supervisor;

/// Telemetry wiring for a threaded deployment (see `deta-telemetry` and
/// DESIGN.md §9).
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Turn the process-global telemetry sink on at setup. The switch is
    /// sticky-on for the life of the process; leaving it `false` costs a
    /// branch plus one atomic load per emit site.
    pub enabled: bool,
    /// Per-node flight-recorder capacity, in records. Each node thread
    /// keeps this many recent spans/events for post-mortem dumps.
    pub ring_capacity: usize,
    /// Directory flight-recorder dumps (JSONL + Prometheus text) are
    /// written to whenever the supervisor constructs a `RuntimeError`.
    pub trace_dir: PathBuf,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            enabled: false,
            ring_capacity: 256,
            trace_dir: PathBuf::from("results/traces"),
        }
    }
}

/// A deliberately injected stall, for fault-tolerance tests: the named
/// aggregator stops servicing its mailbox the moment it sees the
/// announcement of `round` (it stays joinable — shutdown still works).
#[derive(Clone, Debug)]
pub struct StallFault {
    /// Aggregator endpoint name (e.g. `agg-1`).
    pub node: String,
    /// First round whose announcement triggers the stall.
    pub round: u64,
}

/// What the supervisor does when a round fails with aggregators
/// implicated (see DESIGN.md §12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FailoverPolicy {
    /// Today's behaviour: the first terminal failure ends the session
    /// with a structured [`RuntimeError`].
    #[default]
    None,
    /// Respawn each dead aggregator as a freshly attested CVM under a
    /// new endpoint name, rebind every party to it (re-running the
    /// Phase II challenge-response against the proxy's new token), and
    /// replay the failed round from the parties' sealed uploads.
    Restart,
    /// Drop the dead aggregators and rebuild the model partition over
    /// the survivors: the failed round is discarded (never merged), a
    /// deterministic replacement `ModelMapper` is generated over the
    /// surviving set, and the round replays under the new epoch.
    Repartition,
}

/// Runtime policy knobs: deadlines, tick rate, retry backoff, fault
/// injection, and failover.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Deadline for Phase II bootstrap (attested channels + registration
    /// across every node).
    pub setup_deadline: Duration,
    /// Deadline for one full training round (trigger to last party sync).
    pub round_deadline: Duration,
    /// Actor mailbox poll tick; idle actors heartbeat at this cadence and
    /// the supervisor polls completion at this granularity.
    pub tick: Duration,
    /// Initial retry backoff for idempotent round triggers. The default,
    /// an hour, is past every deadline: these transports lose no frame,
    /// and a load-timed resend would re-fan `RoundStart` into the round.
    pub retry_initial: Duration,
    /// Backoff cap (doubling stops here).
    pub retry_max: Duration,
    /// Injected stalls (empty in production use).
    pub stalls: Vec<StallFault>,
    /// Telemetry: global sink switch, flight-recorder depth, dump
    /// directory.
    pub telemetry: TelemetryConfig,
    /// What to do when a round fails with aggregators implicated.
    pub failover: FailoverPolicy,
    /// Recovery budget: how many failovers each aggregator (counted by
    /// its base name across reincarnations) may consume before the
    /// session degrades to a terminal [`RuntimeError`].
    pub recovery_attempts: u32,
    /// Graceful degradation to partial participation: when a *party*
    /// (never an aggregator) misses a round deadline — e.g. its
    /// transport link exhausted its reconnect budget — drop it from the
    /// session and continue with the survivors, provided the robust
    /// aggregation rule's quorum floor still holds. Off by default:
    /// dropping a party changes the aggregate, so it must be an
    /// explicit operator decision.
    pub party_drop: bool,
}

impl Default for RuntimeConfig {
    fn default() -> RuntimeConfig {
        RuntimeConfig {
            setup_deadline: Duration::from_secs(10),
            round_deadline: Duration::from_secs(60),
            tick: Duration::from_millis(20),
            retry_initial: Duration::from_secs(3600),
            retry_max: Duration::from_secs(3600),
            stalls: Vec::new(),
            telemetry: TelemetryConfig::default(),
            failover: FailoverPolicy::default(),
            recovery_attempts: 2,
            party_drop: false,
        }
    }
}

/// The phase a deadline expired in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Phase II bootstrap: handshakes, registration, readiness.
    Setup,
    /// A training round.
    Round,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Setup => write!(f, "setup"),
            Phase::Round => write!(f, "round"),
        }
    }
}

/// Structured failures from the threaded deployment. Every supervisor
/// wait is bounded, so a misbehaving node yields one of these instead of
/// a hang.
#[derive(Debug)]
pub enum RuntimeError {
    /// Node construction failed (Phase I attestation, configuration).
    Setup(deta_core::session::SetupError),
    /// The OS refused to spawn a node thread.
    Spawn(std::io::Error),
    /// A node reported an unrecoverable failure.
    NodeFailed {
        /// Node endpoint name.
        node: String,
        /// The node's reason string.
        reason: String,
    },
    /// A node thread panicked (reaped via its join handle).
    NodePanicked {
        /// Node endpoint name.
        node: String,
    },
    /// A phase deadline expired with nodes still outstanding.
    Timeout {
        /// Which phase timed out.
        phase: Phase,
        /// Round number (0 during setup).
        round: u64,
        /// Nodes whose completion signal never arrived.
        missing: Vec<String>,
        /// Of `missing`, the nodes that also stopped heartbeating —
        /// stalled rather than merely slow.
        stalled: Vec<String>,
        /// How long the supervisor waited.
        waited: Duration,
    },
    /// The deployment reached a state the protocol forbids.
    Protocol(&'static str),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Setup(e) => write!(f, "session setup failed: {e}"),
            RuntimeError::Spawn(e) => write!(f, "node thread spawn failed: {e}"),
            RuntimeError::NodeFailed { node, reason } => {
                write!(f, "node {node:?} failed: {reason}")
            }
            RuntimeError::NodePanicked { node } => write!(f, "node {node:?} panicked"),
            RuntimeError::Timeout {
                phase,
                round,
                missing,
                stalled,
                waited,
            } => {
                write!(
                    f,
                    "{phase} phase (round {round}) timed out after {waited:?}; \
                     missing {missing:?}, stalled {stalled:?}"
                )
            }
            RuntimeError::Protocol(why) => write!(f, "protocol error: {why}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<deta_core::session::SetupError> for RuntimeError {
    fn from(e: deta_core::session::SetupError) -> Self {
        RuntimeError::Setup(e)
    }
}
