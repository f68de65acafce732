//! # deta-socket — real TCP transport backend for a DeTA deployment
//!
//! Everything else in the reproduction exchanges messages through the
//! in-process channel simulator ([`deta_transport::Network`]). This
//! crate deploys the same nodes the way the paper's prototype does:
//! parties and aggregators as *separate OS processes* whose only link
//! is an attested secure channel over a real socket (DeTA §4).
//!
//! ## Topology: hub star over loopback
//!
//! The coordinator process runs the [`deta_runtime::ThreadedSession`]
//! driver and a [`hub::SocketHub`] — [`launch`] sets up both — one TCP
//! listener plus, per node, a name *forwarded* on the session network
//! ([`deta_transport::Network::forward`]) into that node's seat. The
//! coordinator builds no node (`CoordinatorParts::build`: Phase I and
//! the model it evaluates on). Each child process hosts exactly one
//! node — it builds that
//! node alone from the shared seed (`NodeParts::build`: a party its
//! model, transformer and shard, an aggregator no model at all) and
//! connects back to the hub ([`node::run_node`]).
//!
//! Every logical frame is injected exactly once into the hub's
//! `Network` via [`deta_transport::Network::send_as`], so the fault
//! seam — `FaultPolicy` verdicts, `NetTap` observation, per-link byte
//! accounting, `deta_net_*` telemetry — applies to socket traffic
//! unchanged. `deta_drills::sim`'s invariants (termination, privacy
//! audit, idempotence) therefore run over sockets with zero changes.
//! The bridge occupies neither slot, at the hub or in a child: a frame
//! leaves a process as a delivery to a forwarded name, so a `net_drop`
//! is always a loss.
//!
//! ## Identity binding
//!
//! The link handshake is [`deta_transport::secure`] — the same
//! construction parties use for Phase II — with the hub as responder.
//! After the channel is up the hub issues a [`wire::SocketFrame::Challenge`];
//! the peer answers with a signature over the challenge transcript
//! using its node's key: an aggregator signs with the Phase II
//! attestation token (`AggregatorNode::link_signing_key`), verified
//! against the token verifying key parties already hold, so a socket
//! peer proves exactly the identity an in-process node does.
//!
//! All keys derive deterministically from the session seed (see
//! [`hub_identity`], [`party_link_key`]); in a real deployment these
//! forks stand in for operator PKI and the CVM attestation flow.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod frame;
pub mod hub;
pub mod node;
pub mod wire;

mod link;

pub use frame::{encode_frame, FrameDecoder, FrameError, MAX_FRAME};
pub use hub::{launch, HubSeat, Launched, SocketHub, TraceHarvest};
pub use link::RetransmitBuffer;
pub use node::{host_node, run_node};
pub use wire::{ReplayWindow, SocketFrame};

use deta_crypto::{DetRng, SigningKey, VerifyingKey};
use deta_obs::ObsRecord;
use std::fmt;

/// Structured bridge failures. Variants that implicate one link name it
/// as `src->dst` (or the peer's endpoint name), so a rejected frame is
/// attributable without log archaeology.
#[derive(Debug)]
pub enum SocketError {
    /// An OS-level socket failure (bind, connect, read, write).
    Io(std::io::Error),
    /// The secure-channel handshake failed on the named link.
    Handshake {
        /// Peer label (endpoint name or remote address).
        link: String,
        /// The underlying handshake failure.
        source: deta_transport::TransportError,
    },
    /// A peer's authentication proof did not verify.
    Auth {
        /// The node name the peer claimed.
        peer: String,
        /// What went wrong.
        detail: &'static str,
    },
    /// The framing layer rejected the stream (oversize length prefix).
    Frame {
        /// Peer label.
        link: String,
        /// The framing failure.
        source: FrameError,
    },
    /// A sealed record failed authentication on an established link —
    /// a byte-level replay, truncation, or tampering.
    Record {
        /// The offending link, as `src->dst` or the peer name.
        link: String,
    },
    /// An inner frame failed to parse after decryption.
    Malformed {
        /// Peer label.
        link: String,
    },
    /// A data frame violated the strict sequence window of its
    /// direction of the link: a replayed or reordered logical frame from
    /// an authenticated peer.
    Replay {
        /// The offending frame's `src->dst`.
        link: String,
        /// The sequence number the frame carried.
        seq: u64,
        /// The sequence number the window expected.
        expected: u64,
    },
    /// The peer disconnected without an orderly `Bye`.
    Disconnected {
        /// The peer's endpoint name.
        peer: String,
    },
    /// A reconnecting peer's `Resume` state cannot be honored: the
    /// frames it still needs were evicted from the bounded retransmit
    /// buffer during the outage. The link is retired — gapless delivery
    /// can no longer be guaranteed, so resuming would silently lose
    /// frames.
    Resync {
        /// The unrecoverable direction, as `hub->node` or `node->hub`.
        link: String,
        /// The seq the peer asked to resume from.
        wanted: u64,
        /// The oldest seq still held for retransmission.
        oldest: u64,
    },
    /// A delivery acknowledgement claimed more than its direction of the
    /// link ever carried: `next` is past the highest sequence number
    /// stamped on it. Nothing is pruned and the link dies, as on any
    /// other sequence violation.
    Ack {
        /// The acknowledged direction, as `hub->node` or `node->hub`.
        link: String,
        /// The count of delivered frames the acknowledgement claimed.
        next: u64,
        /// The count of frames ever stamped on the direction.
        stamped: u64,
    },
    /// The child could not rebuild its deterministic session replica.
    Build {
        /// Human-readable cause.
        detail: String,
    },
}

impl fmt::Display for SocketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocketError::Io(e) => write!(f, "socket i/o failed: {e}"),
            SocketError::Handshake { link, source } => {
                write!(f, "handshake with {link} failed: {source}")
            }
            SocketError::Auth { peer, detail } => {
                write!(f, "authentication of {peer} failed: {detail}")
            }
            SocketError::Frame { link, source } => {
                write!(f, "framing error on link {link}: {source}")
            }
            SocketError::Record { link } => {
                write!(f, "record authentication failed on link {link}")
            }
            SocketError::Malformed { link } => {
                write!(f, "malformed frame on link {link}")
            }
            SocketError::Replay {
                link,
                seq,
                expected,
            } => {
                write!(
                    f,
                    "replayed or reordered frame on link {link}: got seq {seq}, expected {expected}"
                )
            }
            SocketError::Disconnected { peer } => {
                write!(f, "peer {peer} disconnected without Bye")
            }
            SocketError::Resync {
                link,
                wanted,
                oldest,
            } => {
                write!(
                    f,
                    "link {link} cannot resync: peer needs seq {wanted} but the \
                     retransmit buffer starts at {oldest}"
                )
            }
            SocketError::Ack {
                link,
                next,
                stamped,
            } => {
                write!(
                    f,
                    "acknowledgement on link {link} claims {next} delivered frames \
                     but only {stamped} were ever sent"
                )
            }
            SocketError::Build { detail } => {
                write!(f, "session replica build failed: {detail}")
            }
        }
    }
}

impl std::error::Error for SocketError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SocketError::Io(e) => Some(e),
            SocketError::Handshake { source, .. } => Some(source),
            SocketError::Frame { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SocketError {
    fn from(e: std::io::Error) -> SocketError {
        SocketError::Io(e)
    }
}

impl SocketError {
    /// A shallow copy for error reporting across threads (io errors
    /// degrade to their kind).
    pub(crate) fn duplicate(&self) -> SocketError {
        match self {
            SocketError::Io(e) => SocketError::Io(std::io::Error::from(e.kind())),
            SocketError::Handshake { link, source } => SocketError::Handshake {
                link: link.clone(),
                source: source.clone(),
            },
            SocketError::Auth { peer, detail } => SocketError::Auth {
                peer: peer.clone(),
                detail,
            },
            SocketError::Frame { link, source } => SocketError::Frame {
                link: link.clone(),
                source: source.clone(),
            },
            SocketError::Record { link } => SocketError::Record { link: link.clone() },
            SocketError::Malformed { link } => SocketError::Malformed { link: link.clone() },
            SocketError::Replay {
                link,
                seq,
                expected,
            } => SocketError::Replay {
                link: link.clone(),
                seq: *seq,
                expected: *expected,
            },
            SocketError::Disconnected { peer } => SocketError::Disconnected { peer: peer.clone() },
            SocketError::Resync {
                link,
                wanted,
                oldest,
            } => SocketError::Resync {
                link: link.clone(),
                wanted: *wanted,
                oldest: *oldest,
            },
            SocketError::Ack {
                link,
                next,
                stamped,
            } => SocketError::Ack {
                link: link.clone(),
                next: *next,
                stamped: *stamped,
            },
            SocketError::Build { detail } => SocketError::Build {
                detail: detail.clone(),
            },
        }
    }
}

/// Drains `recorder` into the schema's records plus the count of records
/// its ring overwrote; `None` when there is nothing to report.
pub(crate) fn drain_ring(recorder: &deta_obs::FlightRecorder) -> Option<(Vec<ObsRecord>, u64)> {
    let (records, dropped) = recorder.drain();
    let records: Vec<_> = (records.iter())
        .map(|rec| rec.to_obs(recorder.node()))
        .collect();
    (!records.is_empty() || dropped > 0).then_some((records, dropped))
}

/// The hub's responder identity, derived deterministically from the
/// session seed. Children derive the matching verifying key from the
/// same seed, standing in for operator PKI: in a deployment this would
/// be a pinned certificate, not a seed fork.
pub fn hub_identity(seed: u64) -> SigningKey {
    let mut rng = DetRng::from_u64(seed).fork(b"deta-socket/hub-identity");
    SigningKey::generate(&mut rng)
}

/// The verifying key a child pins for the hub (see [`hub_identity`]).
pub fn hub_verifying_key(seed: u64) -> VerifyingKey {
    hub_identity(seed).verifying_key()
}

/// A party's link-authentication key, derived from the session seed and
/// the party's endpoint name. Parties have no attestation token (they
/// run outside CVMs), so the bridge gives each a deterministic identity
/// of its own; aggregators instead sign with their Phase II token.
pub fn party_link_key(seed: u64, name: &str) -> SigningKey {
    let mut rng = DetRng::from_u64(seed)
        .fork(b"deta-socket/party-link")
        .fork(name.as_bytes());
    SigningKey::generate(&mut rng)
}
