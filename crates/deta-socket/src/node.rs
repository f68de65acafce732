//! Child-process side of the bridge: host exactly one node, rebuilt
//! deterministically from the shared seed, and relay all its traffic
//! through one authenticated link to the hub.
//!
//! The child builds exactly the node it hosts ([`NodeParts::build`]:
//! same seed, same constructors, so the node is bit-identical to the one
//! the coordinator built and dropped) — a party its model, transformer
//! and shard, an aggregator no model and no mapper — and runs the stock
//! actor loop ([`deta_runtime::actor`]) against its local network
//! replica. Only this node's name has a mailbox there that is ever read:
//! every other name of the session, and the supervisor's, is *forwarded*
//! ([`Network::forward`]) — a delivery to it is handed, by value, under
//! the network lock and in exact send order, to the link's one `Egress`,
//! which stamps it, retains it and queues it for the connection's
//! writer. One queue, one writer, one TCP stream: the child's egress
//! preserves the node's global causal send order, which is what makes
//! hub-side byte accounting bit-exact with the in-process deployment.
//! The replica's fault-policy and tap slots are free: a send is a
//! delivery here too, counted in this process's own `deta_net_*` series.
//!
//! ## Who waits on what
//!
//! Only the connection's writer thread writes to the socket once the
//! link is up, and it holds no lock while it does. The egress lock is
//! held for a stamp, an acknowledgement or a resume's prune-and-replay —
//! never across IO, and never while calling into the network (the
//! forwarder takes it *under* the network lock). So the reader never
//! waits on a write: with the hub's reader doing the same that would
//! close a cycle — child reader → child writer → hub reader → hub
//! writer → child reader — the first time both sockets filled.
//!
//! ## Link restarts
//!
//! The TCP connection is *not* the session: when it dies without a
//! `Bye` from the hub, the reader thread parks the egress, then
//! reconnects with capped exponential backoff plus seeded jitter,
//! re-proves the same node identity, and exchanges
//! [`SocketFrame::Resume`]/[`SocketFrame::ResumeAck`] with the hub so
//! both sides retransmit exactly the frames the other never delivered.
//! The per-link sequence counters, the ingress [`ReplayWindow`], and
//! the bounded retransmit buffer all outlive connections — which is
//! why a resumed session stays bit-exact and a genuine replay still
//! dies. A child that exhausts its reconnect budget retires the link
//! with a structured [`SocketError::Disconnected`] and closes its own
//! mailbox, so the hosted actor exits instead of hanging.

use crate::link::{lock, write_loop, Egress, LinkReceiver, SecureLink};
use crate::wire::{auth_transcript, ReplayWindow, SocketFrame};
use crate::{drain_ring, hub_verifying_key, party_link_key, SocketError};
use deta_core::session::{DetaConfig, NodeParts};
use deta_crypto::{DetRng, SigningKey, VerifyingKey};
use deta_nn::train::LabeledData;
use deta_nn::Sequential;
use deta_runtime::actor::{self, ActorContext};
use deta_runtime::{Node, SUPERVISOR};
use deta_telemetry::FlightRecorder;
use deta_transport::{Forwarder, Network};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Auth exchange deadline against the hub.
const AUTH_DEADLINE: Duration = Duration::from_secs(10);

/// Consecutive failed reconnect attempts before the child gives up,
/// retires the link with [`SocketError::Disconnected`], and lets its
/// actor exit. The coordinator then degrades the round to partial
/// participation (or fails over) instead of hanging.
const RECONNECT_BUDGET: u32 = 6;

/// First reconnect backoff; doubles per consecutive failure.
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Stop-flag poll granularity inside backoff sleeps.
const SLEEP_STEP: Duration = Duration::from_millis(20);

/// How long the sign-off waits at teardown for an in-flight resume
/// before giving up on the trace ship and `Bye`.
const SIGNOFF_WAIT: Duration = Duration::from_secs(10);

/// The child's end of the link: what outlives a connection and both
/// the actor's sends (through the forwarder) and the reader use.
struct ChildLink {
    egress: Mutex<Egress>,
    /// Set once the link is gone for good (budget exhausted, fatal
    /// violation, or orderly shutdown). Publishes nothing but itself.
    retired: AtomicBool,
}

impl Forwarder for ChildLink {
    fn forward(&self, from: &str, to: &str, payload: Vec<u8>) {
        lock(&self.egress).send(from, to, payload);
    }
}

/// One connection: its read half, and the writer thread draining the
/// egress onto its write half.
type Connection = (LinkReceiver, JoinHandle<()>);

/// Everything needed to (re)establish an authenticated link to the hub
/// and run the resume exchange.
struct Reconnector {
    addr: SocketAddr,
    name: String,
    hub_key: VerifyingKey,
    link_key: SigningKey,
    rng: DetRng,
    /// Ingress window: what a `Resume` claims. Connection-independent, so
    /// a replay of an already-delivered frame still dies after any number
    /// of resumes, and the reader's alone — the one thread that accepts
    /// frames is the one that resumes.
    window: ReplayWindow,
}

impl Reconnector {
    /// One full connection attempt: TCP connect, secure handshake,
    /// challenge auth under the *same* node key as every previous
    /// connection, clock echo, then the `Resume`/`ResumeAck` exchange.
    /// On success the retransmit backlog is queued ahead of anything
    /// new, the egress is live on a fresh writer thread, and the read
    /// half is returned with that thread's handle.
    fn connect(&mut self, child: &ChildLink) -> Result<Connection, SocketError> {
        let mut link = SecureLink::connect(self.addr, &self.name, &self.hub_key, &mut self.rng)?;
        let deadline = Some(Instant::now() + AUTH_DEADLINE);
        let refused = |detail| SocketError::Auth {
            peer: self.name.clone(),
            detail,
        };
        match link.recv(deadline, None)? {
            Some(SocketFrame::Challenge { nonce }) => {
                let msg = auth_transcript(&nonce, &self.name);
                link.send(&SocketFrame::AuthProof {
                    name: self.name.clone(),
                    sig: self.link_key.sign(&msg).to_bytes(),
                })?;
            }
            _ => return Err(refused("hub did not issue a challenge")),
        }
        match link.recv(deadline, None)? {
            Some(SocketFrame::Welcome) => {}
            _ => return Err(refused("hub did not accept the auth proof")),
        }
        // Clock alignment: echo the hub's probe with our own monotonic
        // timestamp so the coordinator can map this process's trace
        // timestamps onto its timeline.
        match link.recv(deadline, None)? {
            Some(SocketFrame::ClockProbe { t_hub_ns }) => {
                link.send(&SocketFrame::ClockEcho {
                    t_hub_ns,
                    t_peer_ns: deta_telemetry::now_ns(),
                })?;
            }
            _ => return Err(refused("hub did not send a clock probe")),
        }
        // Resume exchange. The egress is parked, so what the node sends
        // meanwhile is stamped and retained behind the backlog, in order.
        link.send(&SocketFrame::Resume {
            src: self.name.clone(),
            windows: self.window.snapshot(),
        })?;
        let claims = match link.recv(deadline, None)? {
            Some(SocketFrame::ResumeAck { windows }) => windows,
            _ => return Err(refused("hub did not acknowledge the resume")),
        };
        let (sender, receiver) = link.split()?;
        let rx = lock(&child.egress).resume(claims)?;
        let writer = std::thread::spawn(move || write_loop(sender, rx));
        Ok((receiver, writer))
    }
}

/// Hosts the named node: builds it — and only it — from `config`,
/// connects to the hub at `addr`, proves the node's identity, then runs
/// the stock actor loop until shutdown. Blocks for the whole session.
///
/// # Errors
///
/// Structured [`SocketError`]s: node build failures, handshake or
/// auth rejection, and any link-level violation observed while the
/// actor ran — including [`SocketError::Disconnected`] after the
/// reconnect budget is exhausted.
pub fn run_node(
    addr: SocketAddr,
    name: &str,
    config: DetaConfig,
    model_builder: &dyn Fn(&mut DetRng) -> Sequential,
    party_data: Vec<LabeledData>,
    tick: Duration,
) -> Result<(), SocketError> {
    let seed = config.seed;
    let parts = NodeParts::build(config, model_builder, party_data, name).map_err(|e| {
        SocketError::Build {
            detail: e.to_string(),
        }
    })?;
    host_node(addr, name, seed, parts, tick)
}

/// [`run_node`] for a node already built (from a session of seed `seed`).
/// Whatever fault policy or tap `parts.network` carries stays in place —
/// the bridge uses neither — so a fault plan can be placed at a child.
///
/// # Errors
///
/// As [`run_node`], short of the build.
pub fn host_node(
    addr: SocketAddr,
    name: &str,
    seed: u64,
    parts: NodeParts,
    tick: Duration,
) -> Result<(), SocketError> {
    let NodeParts {
        network,
        node: own,
        tokens,
    } = parts;
    // The node's link identity outlives the node itself (which the
    // actor consumes), because every reconnection must prove the SAME
    // key — the hub's roster is fixed at bind time.
    let link_key = match &own {
        Node::Aggregator(a) => a.link_signing_key(),
        Node::Party(_) => party_link_key(seed, name),
    };
    // Link up before the actor starts. The first connection is
    // synchronous and fails fast; only mid-session losses retry.
    let mut reconnector = Reconnector {
        addr,
        name: name.to_string(),
        hub_key: hub_verifying_key(seed),
        link_key,
        rng: DetRng::from_u64(seed)
            .fork(b"deta-socket/child")
            .fork(name.as_bytes()),
        window: ReplayWindow::new(),
    };
    let link = Arc::new(ChildLink {
        egress: Mutex::new(Egress::new(name)),
        retired: AtomicBool::new(false),
    });
    let connection = reconnector.connect(&link)?;

    // Everyone but the hosted node lives behind the hub: every other
    // name the build registered, and the supervisor's. The egress has
    // three feeders: this forwarder (the node's traffic), the reader (the
    // acknowledgements it owes) and this thread (the sign-off).
    for peer in network.names().iter().filter(|peer| *peer != name) {
        network.forward(peer, Arc::clone(&link) as Arc<dyn Forwarder>);
    }
    network.forward(SUPERVISOR, Arc::clone(&link) as Arc<dyn Forwarder>);
    // With tracing on, the ring must hold a whole session's spans for
    // shipping — overflow is reported but a deep ring avoids it.
    let ring_cap = if deta_telemetry::enabled() {
        65536
    } else {
        256
    };
    let recorder = FlightRecorder::new(name, ring_cap);
    let ship = Arc::clone(&recorder);
    let reader_stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (network, stop, link) = (network.clone(), reader_stop.clone(), link.clone());
        std::thread::spawn(move || read_loop(connection, network, reconnector, link, stop))
    };

    // The actor runs on this thread, exactly as it would under the
    // in-process supervisor.
    let ctx = ActorContext {
        stop: Arc::new(AtomicBool::new(false)),
        halt: Arc::new(AtomicBool::new(false)),
        tick,
    };
    actor::serve(own, &tokens, None, &ctx, recorder);

    // Teardown: everything the actor sent is already stamped, so the
    // sign-off queues behind it; the reader, once stopped, parks the
    // egress and joins the writer, which drains all of that first.
    sign_off(&link, &ship);
    reader_stop.store(true, Ordering::Relaxed);
    match reader.join() {
        Ok(Some(violation)) => Err(violation),
        _ => Ok(()),
    }
}

/// Queues the sign-off behind everything the node sent: with the
/// telemetry sink enabled the hosted node's drained flight recorder —
/// complete, since the actor loop has exited — then `Bye`. It needs a
/// live link; a parked one may resume any moment, so it waits briefly.
fn sign_off(link: &ChildLink, recorder: &FlightRecorder) {
    let ring = deta_telemetry::enabled()
        .then(|| drain_ring(recorder))
        .flatten();
    let ship = ring.map(|(jsonl, dropped)| SocketFrame::TraceShip {
        name: recorder.node().to_string(),
        dropped,
        jsonl: jsonl.into_bytes(),
    });
    let deadline = Instant::now() + SIGNOFF_WAIT;
    loop {
        {
            let egress = lock(&link.egress);
            if egress.is_live() {
                if let Some(ship) = ship {
                    egress.control(ship);
                }
                egress.control(SocketFrame::Bye);
                return;
            }
        }
        if link.retired.load(Ordering::Relaxed) || Instant::now() >= deadline {
            return;
        }
        std::thread::sleep(SLEEP_STEP);
    }
}

/// How one connection's ingress ended, short of a violation.
enum LinkEnd {
    /// Abrupt loss without `Bye`: park and reconnect.
    Lost,
    /// Orderly end (hub `Bye` or local stop): retire quietly.
    Shutdown,
}

/// The reader thread: runs the link until it is gone for good, then
/// retires it — the node's own mailbox closes, so the hosted actor exits
/// instead of hanging. Returns the violation that ended it, if one did.
fn read_loop(
    first: Connection,
    network: Network,
    mut reconnector: Reconnector,
    link: Arc<ChildLink>,
    stop: Arc<AtomicBool>,
) -> Option<SocketError> {
    let violation = run_link(first, &network, &mut reconnector, &link, &stop).err();
    // The egress is parked by now.
    link.retired.store(true, Ordering::Relaxed);
    network.close(&reconnector.name);
    violation
}

/// Ingress + reconnection: injects hub frames into the local replica,
/// mirrors remote closures, and — on abrupt connection loss — runs the
/// backoff/reconnect/resume cycle. `Ok` is an orderly end.
///
/// # Errors
///
/// A protocol violation that must not be smoothed over, a
/// [`SocketError::Resync`], or [`SocketError::Disconnected`] once the
/// reconnect budget is exhausted.
fn run_link(
    first: Connection,
    network: &Network,
    reconnector: &mut Reconnector,
    link: &ChildLink,
    stop: &AtomicBool,
) -> Result<(), SocketError> {
    let mut jitter = reconnector.rng.fork(b"reconnect-jitter");
    let (mut receiver, mut writer) = first;
    loop {
        let end = ingest(&mut receiver, reconnector, network, link, stop);
        // However it ended, this connection is over: park the egress (the
        // socket is gone in both directions, or about to be) and let its
        // writer drain what is queued.
        lock(&link.egress).park();
        let _ = writer.join();
        if let LinkEnd::Shutdown = end? {
            return Ok(());
        }
        // Reconnect: capped exponential backoff with seeded jitter,
        // bounded by the consecutive-failure budget.
        let mut attempt = 0u32;
        (receiver, writer) = loop {
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            if attempt >= RECONNECT_BUDGET {
                return Err(SocketError::Disconnected {
                    peer: "hub".to_string(),
                });
            }
            let exp = BACKOFF_BASE.saturating_mul(1 << attempt.min(10));
            let base = exp.min(BACKOFF_CAP);
            let delay =
                base + Duration::from_millis(jitter.gen_range(1 + base.as_millis() as u64 / 2));
            let until = Instant::now() + delay;
            loop {
                if stop.load(Ordering::Relaxed) {
                    return Ok(());
                }
                let now = Instant::now();
                if now >= until {
                    break;
                }
                std::thread::sleep((until - now).min(SLEEP_STEP));
            }
            match reconnector.connect(link) {
                Ok(connection) => break connection,
                // The hub needs frames this side evicted (or vice versa);
                // retrying cannot help — floors only grow.
                Err(e @ SocketError::Resync { .. }) => return Err(e),
                Err(_) => attempt += 1,
            }
        };
    }
}

/// Drains one connection's ingress until it ends (see [`LinkEnd`]): hub
/// frames the ingress window accepts are injected into the local replica
/// and acknowledged through the writer's queue; the hub's own
/// acknowledgements prune the retransmit buffer.
///
/// # Errors
///
/// Sequence, acknowledgement, record and framing violations: tampering
/// evidence, unlike the transport-level errors that are connection churn
/// (the resumed link re-proves integrity from scratch).
fn ingest(
    receiver: &mut LinkReceiver,
    reconnector: &mut Reconnector,
    network: &Network,
    link: &ChildLink,
    stop: &AtomicBool,
) -> Result<LinkEnd, SocketError> {
    loop {
        match receiver.recv(None, Some(stop)) {
            Ok(Some(SocketFrame::Data {
                src,
                dst,
                seq,
                payload,
            })) => {
                reconnector.window.accept_named(&src, &dst, seq)?;
                // Delivery failures mirror in-process semantics: a
                // closed local mailbox means the actor is done.
                let _ = network.send_as(&src, &dst, payload);
                // Through the writer — this thread never waits on a
                // socket write. On a parked link the acknowledgement is
                // dropped: the resume's claims say the same with authority.
                let next = seq + 1;
                lock(&link.egress).control(SocketFrame::Ack { src, dst, next });
            }
            Ok(Some(SocketFrame::Ack { src, dst, next })) => {
                // The hub answers for what it took from this node and
                // for nothing else.
                if src != reconnector.name {
                    return Err(SocketError::Auth {
                        peer: "hub".to_string(),
                        detail: "acknowledgement for a link that starts at another node",
                    });
                }
                lock(&link.egress).acknowledge(&src, &dst, next)?;
            }
            Ok(Some(SocketFrame::Close { name })) => network.close(&name),
            // Orderly hub sign-off: nothing further can arrive.
            Ok(Some(SocketFrame::Bye)) => return Ok(LinkEnd::Shutdown),
            // EOF: a stop request reads as EOF too — that is the orderly
            // teardown; a real EOF is an abrupt loss.
            Ok(None) if stop.load(Ordering::Relaxed) => return Ok(LinkEnd::Shutdown),
            Ok(None) | Err(SocketError::Io(_)) => return Ok(LinkEnd::Lost),
            Ok(Some(_)) => {
                return Err(SocketError::Malformed {
                    link: receiver.label().to_string(),
                })
            }
            Err(e) => return Err(e),
        }
    }
}
