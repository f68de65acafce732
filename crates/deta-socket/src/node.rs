//! Child-process side of the bridge: host exactly one node, rebuilt
//! deterministically from the shared seed, and relay all its traffic
//! through one authenticated link to the hub.
//!
//! The child builds exactly the node it hosts ([`NodeParts::build`]:
//! same seed, same constructors, so the node is bit-identical to the one
//! the coordinator built and dropped) — a party its model, transformer
//! and shard, an aggregator no model and no mapper — and runs the stock
//! actor loop ([`deta_runtime::actor`]) against its local network
//! replica. Only this node's mailbox there is ever read; a
//! [`FaultPolicy`] delivers frames addressed to the hosted node and
//! drops everything else, and the [`NetTap::on_drop_owned`] callback —
//! which fires under the network lock, in exact send order — hands
//! those "drops", by value, to the link writer. One queue, one writer, one TCP stream:
//! the child's egress preserves the node's global causal send order,
//! which is what makes hub-side byte accounting bit-exact with the
//! in-process deployment.
//!
//! ## Who waits on what
//!
//! Only the writer thread writes to the socket once the link is up, and
//! it may hold [`LinkState`] across a 1 MB seal-and-write. The reader
//! therefore never touches that lock while a connection lives: the
//! ingress window is its own, an acknowledgement it owes the hub
//! ([`SocketFrame::Ack`], one per accepted frame) is *queued* for the
//! writer, and an acknowledgement it receives prunes the
//! [`RetransmitBuffer`] under a lock of its own that nobody holds across
//! IO. A reader that waited on a write would, with the hub's reader doing
//! the same, close a cycle — child reader → child writer → hub reader →
//! hub writer → child reader — the first time both sockets filled.
//!
//! ## Link restarts
//!
//! The TCP connection is *not* the session: when it dies without a
//! `Bye` from the hub, the reader thread parks the write half, then
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

use crate::link::{LinkReceiver, LinkSender, RetransmitBuffer, SecureLink};
use crate::wire::{auth_transcript, ReplayWindow, SocketFrame};
use crate::{hub_verifying_key, party_link_key, SocketError};
use deta_core::session::{DetaConfig, NodeParts};
use deta_crypto::{DetRng, SigningKey, VerifyingKey};
use deta_nn::train::LabeledData;
use deta_nn::Sequential;
use deta_runtime::actor::{self, ActorContext};
use deta_runtime::{Node, SUPERVISOR};
use deta_telemetry::FlightRecorder;
use deta_transport::{FaultPolicy, NetTap, Network, SendVerdict};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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

/// How long the writer waits at teardown for an in-flight resume
/// before giving up on the trace ship and `Bye`.
const SIGNOFF_WAIT: Duration = Duration::from_secs(10);

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Delivers only frames addressed to the hosted node; everything else
/// is "dropped" — which, combined with [`EgressTap`], means routed to
/// the hub instead of enqueued locally. The sender still sees `Ok`,
/// exactly as an in-process sender would.
struct LocalOnlyPolicy {
    own: String,
}

impl FaultPolicy for LocalOnlyPolicy {
    fn on_send(&self, _from: &str, to: &str, _payload: &[u8]) -> SendVerdict {
        if to == self.own {
            SendVerdict::Deliver
        } else {
            SendVerdict::Drop
        }
    }
}

/// What the writer thread is asked to put on the link, in queue order.
enum Outbound {
    /// A message the hosted node sent: stamp, retain, send.
    Data {
        src: String,
        dst: String,
        payload: Vec<u8>,
    },
    /// The reader's window accepted every frame of (src, dst) below
    /// `next`: tell the hub. Neither stamped nor retained.
    Ack { src: String, dst: String, next: u64 },
    /// The actor has exited and everything it sent is queued ahead of
    /// this: ship the trace, say `Bye`.
    SignOff,
}

/// Forwards every non-local "drop" to the link writer. Called under the
/// network lock in exact send order, so the egress queue is a faithful
/// serialization of the node's outbound traffic — and with the payload
/// by value, so nothing the size of a fragment is copied under that
/// lock.
struct EgressTap {
    own: String,
    egress: Mutex<Sender<Outbound>>,
}

impl NetTap for EgressTap {
    fn on_deliver(&self, _from: &str, _to: &str, _payload: &[u8]) {}

    fn on_drop_owned(&self, from: &str, to: &str, payload: Vec<u8>) {
        // Drops *to* the hosted node are real losses (its mailbox
        // closed); everything else is egress.
        if to != self.own {
            let tx = self
                .egress
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = tx.send(Outbound::Data {
                src: from.to_string(),
                dst: to.to_string(),
                payload,
            });
        }
    }
}

/// The write half of the link, shared by the writer (sending) and the
/// reader (which replaces it when it reconnects). Whoever writes holds
/// this across the write.
#[derive(Default)]
struct LinkState {
    /// Live write half; `None` while parked or reconnecting.
    sender: Option<LinkSender>,
    /// Set once the link is gone for good (budget exhausted, fatal
    /// violation, or orderly shutdown).
    retired: bool,
}

impl LinkState {
    /// Writes `frame` on the live link, if any. A send failure parks the
    /// write half; the reader notices the same death and reconnects.
    fn send(&mut self, frame: &SocketFrame) {
        if let Some(sender) = self.sender.as_mut() {
            if sender.send(frame).is_err() {
                self.sender = None;
            }
        }
    }
}

/// What of the link outlives a connection and both bridge threads use.
/// Lock order: `state`, then `buffer`.
struct LinkShared {
    state: Mutex<LinkState>,
    /// Notified when `sender` goes live or the link retires.
    live: Condvar,
    /// Egress frames the hub has not acknowledged, stamped here. Locked
    /// for as long as a stamp, an acknowledgement or a prune takes and
    /// never across IO, so the reader can honour an `Ack` while the
    /// writer is mid-write.
    buffer: Mutex<RetransmitBuffer>,
}

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
    /// On success the retransmit backlog has been replayed, the write
    /// half is live in `shared`, and the read half is returned.
    fn connect(&mut self, shared: &LinkShared) -> Result<LinkReceiver, SocketError> {
        let mut link = SecureLink::connect(self.addr, &self.name, &self.hub_key, &mut self.rng)?;
        let deadline = Some(Instant::now() + AUTH_DEADLINE);
        match link.recv(deadline, None)? {
            Some(SocketFrame::Challenge { nonce }) => {
                let msg = auth_transcript(&nonce, &self.name);
                link.send(&SocketFrame::AuthProof {
                    name: self.name.clone(),
                    sig: self.link_key.sign(&msg).to_bytes(),
                })?;
            }
            _ => {
                return Err(SocketError::Auth {
                    peer: self.name.clone(),
                    detail: "hub did not issue a challenge",
                })
            }
        }
        match link.recv(deadline, None)? {
            Some(SocketFrame::Welcome) => {}
            _ => {
                return Err(SocketError::Auth {
                    peer: self.name.clone(),
                    detail: "hub did not accept the auth proof",
                })
            }
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
            _ => {
                return Err(SocketError::Auth {
                    peer: self.name.clone(),
                    detail: "hub did not send a clock probe",
                })
            }
        }
        // Resume exchange, under the state lock so the writer cannot
        // stamp or send a fresh frame among the retransmitted backlog.
        let mut st = lock(&shared.state);
        link.send(&SocketFrame::Resume {
            src: self.name.clone(),
            windows: self.window.snapshot(),
        })?;
        let claims = match link.recv(deadline, None)? {
            Some(SocketFrame::ResumeAck { windows }) => windows,
            _ => {
                return Err(SocketError::Auth {
                    peer: self.name.clone(),
                    detail: "hub did not acknowledge the resume",
                })
            }
        };
        let backlog: Vec<Arc<SocketFrame>> = {
            let mut buffer = lock(&shared.buffer);
            buffer.prune(claims)?;
            buffer.frames().cloned().collect()
        };
        let (mut sender, receiver) = link.split()?;
        for frame in &backlog {
            sender.send(frame)?;
        }
        st.sender = Some(sender);
        shared.live.notify_all();
        Ok(receiver)
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
    let NodeParts {
        network,
        node: own,
        tokens,
    } = NodeParts::build(config, model_builder, party_data, name).map_err(|e| {
        SocketError::Build {
            detail: e.to_string(),
        }
    })?;
    // The node's link identity outlives the node itself (which the
    // actor consumes), because every reconnection must prove the SAME
    // key — the hub's roster is fixed at bind time.
    let link_key = match &own {
        Node::Aggregator(a) => a.link_signing_key(),
        Node::Party(_) => party_link_key(seed, name),
    };
    // The supervisor lives on the hub; register a proxy so local sends
    // to it pass the destination check (the policy routes them out).
    let _supervisor_proxy = network.register(SUPERVISOR);

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
    let shared = Arc::new(LinkShared {
        state: Mutex::new(LinkState::default()),
        live: Condvar::new(),
        buffer: Mutex::new(RetransmitBuffer::default()),
    });
    let receiver = reconnector.connect(&shared)?;

    // Bridge threads: writer (egress queue -> shared link state) and
    // reader (socket -> local injection, plus reconnection). The queue
    // has three feeders: the tap (the node's traffic), the reader (the
    // acknowledgements it owes) and this thread (the sign-off).
    let (egress_tx, egress_rx) = channel::<Outbound>();
    network.set_fault_policy(Arc::new(LocalOnlyPolicy {
        own: name.to_string(),
    }));
    network.set_tap(Arc::new(EgressTap {
        own: name.to_string(),
        egress: Mutex::new(egress_tx.clone()),
    }));
    // With tracing on, the ring must hold a whole session's spans for
    // shipping — overflow is reported but a deep ring avoids it.
    let ring_cap = if deta_telemetry::enabled() {
        65536
    } else {
        256
    };
    let recorder = FlightRecorder::new(name, ring_cap);
    let ship = Arc::clone(&recorder);
    let writer = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || write_loop(shared, egress_rx, ship))
    };
    let reader_stop = Arc::new(AtomicBool::new(false));
    let reader_error: Arc<Mutex<Option<SocketError>>> = Arc::new(Mutex::new(None));
    let reader = {
        let network = network.clone();
        let stop = Arc::clone(&reader_stop);
        let slot = Arc::clone(&reader_error);
        let shared = Arc::clone(&shared);
        let acks = egress_tx.clone();
        std::thread::spawn(move || {
            read_loop(receiver, network, acks, reconnector, shared, stop, slot);
        })
    };

    // The actor runs on this thread, exactly as it would under the
    // in-process supervisor.
    let ctx = ActorContext {
        stop: Arc::new(AtomicBool::new(false)),
        halt: Arc::new(AtomicBool::new(false)),
        tick,
    };
    actor::serve(own, &tokens, None, &ctx, recorder);

    // Teardown: everything the actor sent is already queued, so the
    // writer drains that, signs off with Bye, and exits.
    let _ = egress_tx.send(Outbound::SignOff);
    let _ = writer.join();
    reader_stop.store(true, Ordering::Relaxed);
    let _ = reader.join();
    let first = reader_error
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take();
    match first {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Egress: the one thread that writes to the link. A node's message is
/// stamped and retained by the shared buffer, then sent; an
/// acknowledgement the reader owes is sent as it is. Then — with the
/// telemetry sink enabled — ships the hosted node's drained flight
/// recorder, then `Bye`. The sign-off waits briefly for an in-flight
/// resume.
fn write_loop(shared: Arc<LinkShared>, rx: Receiver<Outbound>, recorder: Arc<FlightRecorder>) {
    for outbound in &rx {
        match outbound {
            Outbound::Data { src, dst, payload } => {
                // Stamped and sent under the state lock: a resume in
                // between would replay the frame and this would send it
                // a second time.
                let mut st = lock(&shared.state);
                let frame = {
                    let mut buffer = lock(&shared.buffer);
                    let frame = buffer.stamp(src, dst, payload);
                    buffer.observe_depth(recorder.node());
                    frame
                };
                st.send(&frame);
            }
            // On a parked link the acknowledgement is dropped: the
            // resume's claims will say the same with authority.
            Outbound::Ack { src, dst, next } => {
                lock(&shared.state).send(&SocketFrame::Ack { src, dst, next });
            }
            Outbound::SignOff => break,
        }
    }
    // The sign-off is queued after the actor loop has exited, so the
    // ring is complete by the time it is drained here. The sign-off
    // needs a live link; a parked one may resume any moment.
    let deadline = Instant::now() + SIGNOFF_WAIT;
    let mut st = lock(&shared.state);
    while st.sender.is_none() && !st.retired {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let (guard, _) = shared
            .live
            .wait_timeout(st, (deadline - now).min(Duration::from_millis(100)))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        st = guard;
    }
    let Some(sender) = st.sender.as_mut() else {
        return;
    };
    if deta_telemetry::enabled() {
        let (records, dropped) = recorder.drain();
        if !records.is_empty() || dropped > 0 {
            let mut jsonl = String::new();
            for rec in &records {
                jsonl.push_str(&rec.to_json(recorder.node()));
                jsonl.push('\n');
            }
            let _ = sender.send(&SocketFrame::TraceShip {
                name: recorder.node().to_string(),
                dropped,
                jsonl: jsonl.into_bytes(),
            });
        }
    }
    let _ = sender.send(&SocketFrame::Bye);
}

/// How one connection's ingress ended.
enum LinkEnd {
    /// Abrupt loss without `Bye`: park and reconnect.
    Lost,
    /// Orderly end (hub `Bye` or local stop): retire quietly.
    Shutdown,
    /// A protocol violation that must not be smoothed over.
    Fatal(SocketError),
}

/// Ingress + reconnection: injects hub frames into the local replica,
/// mirrors remote closures, and — on abrupt connection loss — runs the
/// backoff/reconnect/resume cycle until the budget is exhausted.
fn read_loop(
    first: LinkReceiver,
    network: Network,
    acks: Sender<Outbound>,
    mut reconnector: Reconnector,
    shared: Arc<LinkShared>,
    stop: Arc<AtomicBool>,
    slot: Arc<Mutex<Option<SocketError>>>,
) {
    let own = reconnector.name.clone();
    let record = |e: SocketError| {
        let mut s = slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if s.is_none() {
            *s = Some(e);
        }
    };
    let retire = || {
        let mut st = lock(&shared.state);
        st.sender = None;
        st.retired = true;
        shared.live.notify_all();
        network.close(&own);
    };
    let mut jitter = reconnector.rng.fork(b"reconnect-jitter");
    let mut receiver = first;
    loop {
        let window = &mut reconnector.window;
        match ingest(&mut receiver, window, &network, &own, &acks, &shared, &stop) {
            LinkEnd::Shutdown => {
                retire();
                return;
            }
            LinkEnd::Fatal(e) => {
                record(e);
                retire();
                return;
            }
            LinkEnd::Lost => {}
        }
        // Park the write half (the socket is gone in both directions)
        // and reconnect: capped exponential backoff with seeded jitter,
        // bounded by the consecutive-failure budget.
        lock(&shared.state).sender = None;
        let mut attempt = 0u32;
        receiver = loop {
            if stop.load(Ordering::Relaxed) {
                retire();
                return;
            }
            if attempt >= RECONNECT_BUDGET {
                record(SocketError::Disconnected {
                    peer: "hub".to_string(),
                });
                retire();
                return;
            }
            let exp = BACKOFF_BASE.saturating_mul(1 << attempt.min(10));
            let base = exp.min(BACKOFF_CAP);
            let delay =
                base + Duration::from_millis(jitter.gen_range(1 + base.as_millis() as u64 / 2));
            let until = Instant::now() + delay;
            loop {
                if stop.load(Ordering::Relaxed) {
                    retire();
                    return;
                }
                let now = Instant::now();
                if now >= until {
                    break;
                }
                std::thread::sleep((until - now).min(SLEEP_STEP));
            }
            match reconnector.connect(&shared) {
                Ok(r) => break r,
                Err(e @ SocketError::Resync { .. }) => {
                    // The hub needs frames this side evicted (or vice
                    // versa); retrying cannot help — floors only grow.
                    record(e);
                    retire();
                    return;
                }
                Err(_) => attempt += 1,
            }
        };
    }
}

/// Drains one connection's ingress until it ends (see [`LinkEnd`]): hub
/// frames the `window` accepts are injected into the local replica and
/// acknowledged through the writer's queue; the hub's own
/// acknowledgements prune the retransmit buffer.
fn ingest(
    receiver: &mut LinkReceiver,
    window: &mut ReplayWindow,
    network: &Network,
    own: &str,
    acks: &Sender<Outbound>,
    shared: &LinkShared,
    stop: &AtomicBool,
) -> LinkEnd {
    loop {
        match receiver.recv(None, Some(stop)) {
            Ok(Some(SocketFrame::Data {
                src,
                dst,
                seq,
                payload,
            })) => {
                if let Err(e) = window.accept_named(&src, &dst, seq) {
                    return LinkEnd::Fatal(e);
                }
                // Delivery failures mirror in-process semantics: a
                // closed local mailbox means the actor is done.
                let _ = network.send_as(&src, &dst, payload);
                let next = seq + 1;
                let _ = acks.send(Outbound::Ack { src, dst, next });
            }
            Ok(Some(SocketFrame::Ack { src, dst, next })) => {
                // The hub answers for what it took from this node and
                // for nothing else.
                if src != own {
                    return LinkEnd::Fatal(SocketError::Auth {
                        peer: "hub".to_string(),
                        detail: "acknowledgement for a link that starts at another node",
                    });
                }
                if let Err(e) = lock(&shared.buffer).acknowledge(&src, &dst, next) {
                    return LinkEnd::Fatal(e);
                }
            }
            Ok(Some(SocketFrame::Close { name })) => {
                network.close(&name);
            }
            Ok(Some(SocketFrame::Bye)) => {
                // Orderly hub sign-off: nothing further can arrive.
                return LinkEnd::Shutdown;
            }
            Ok(None) => {
                // EOF: a stop request reads as EOF too — that is the
                // orderly teardown; a real EOF is an abrupt loss.
                if stop.load(Ordering::Relaxed) {
                    return LinkEnd::Shutdown;
                }
                return LinkEnd::Lost;
            }
            Ok(Some(_)) => {
                return LinkEnd::Fatal(SocketError::Malformed {
                    link: receiver.label().to_string(),
                });
            }
            // Transport-level errors are connection churn (the resumed
            // link re-proves integrity from scratch)...
            Err(SocketError::Io(_)) => return LinkEnd::Lost,
            // ...but record/framing violations are tampering evidence.
            Err(e) => return LinkEnd::Fatal(e),
        }
    }
}
