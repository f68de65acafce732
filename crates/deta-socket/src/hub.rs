//! Coordinator-side bridge: one TCP listener, one authenticated link
//! per child process, one pump per hosted node.
//!
//! The hub owns the *authoritative* [`Network`]: the supervisor, fault
//! policy, tap, byte accounting, and telemetry all live there. Each
//! remote node is represented on that network by its proxy mailbox (the
//! node's own [`Endpoint`], surrendered by the child's coordinator-side
//! twin). Traffic flows:
//!
//! * **ingress** — a child's frames arrive on its link; after the
//!   replay window accepts them they are injected with
//!   [`Network::send_as`], so verdicts, taps, and per-link byte counts
//!   apply exactly as for an in-process sender;
//! * **egress** — a pump thread drains each node's proxy mailbox into
//!   that node's [`NodeEgress`]: a bounded retransmit buffer plus, when
//!   a connection is live, the link writer's queue.
//!
//! ## Custody
//!
//! A frame the ingress window accepts is from then on the *destination
//! seat's* to retransmit, so acceptance is acknowledged to the child it
//! came from ([`SocketFrame::Ack`], queued on that seat's writer — the
//! serve thread reads and never writes to a socket) and the child stops
//! retaining it. The destination's child acknowledges in turn, and the
//! seat's buffer drops the frame: on a healthy link a buffer holds what
//! is in flight. An acknowledgement is honoured only from the seat its
//! link ends at, and never past what was stamped on that link.
//!
//! ## Link lifecycle
//!
//! A seat is *connected* while a serve thread holds its link. A child
//! that vanishes mid-session **without** sending [`SocketFrame::Bye`]
//! does not kill the session: the seat is *parked* — egress keeps
//! buffering, the global ingress [`ReplayWindow`] is retained — until
//! the child reconnects, re-proves the *same* identity, and exchanges
//! [`SocketFrame::Resume`]/[`SocketFrame::ResumeAck`] so both sides
//! retransmit exactly the frames the other never delivered. A resume
//! that needs frames already evicted from the bounded buffer *retires*
//! the seat (structured [`SocketError::Resync`], mailbox closed): the
//! gap cannot be hidden. Loss of a node that already said `Bye` stays
//! a normal closure, exactly as before reconnection existed.
//!
//! A node's proxy mailbox closing (supervisor shutdown, kill, or seat
//! retirement) broadcasts [`SocketFrame::Close`] to every live link —
//! and is replayed to late (re)connectors — so each child mirrors the
//! closure into its local replica.

use crate::link::{LinkSender, RetransmitBuffer, SecureLink};
use crate::wire::{auth_transcript, ReplayWindow, SocketFrame};
use crate::{hub_identity, party_link_key, SocketError};
use deta_core::session::{DetaConfig, SetupError};
use deta_crypto::{DetRng, VerifyingKey};
use deta_nn::train::LabeledData;
use deta_nn::Sequential;
use deta_runtime::{DetachedNodes, FailoverPolicy, RuntimeConfig, RuntimeError, ThreadedSession};
use deta_telemetry::{FlightRecorder, TelemetryValue};
use deta_transport::{Endpoint, NetError, Network, RecvError};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often pumps and the acceptor recheck stop/closure conditions.
const TICK: Duration = Duration::from_millis(20);

/// Auth exchange deadline per connection.
const AUTH_DEADLINE: Duration = Duration::from_secs(10);

/// How long a fresh connection waits for the previous connection's
/// serve thread to observe its EOF and park the seat. Two connections
/// *both* live past this window remain an auth error.
const REBIND_WAIT: Duration = Duration::from_secs(1);

/// One hosted node as the hub sees it: the name a peer must prove, the
/// key that proof is verified against, and the node's proxy mailbox on
/// the hub network.
pub struct HubSeat {
    /// Node endpoint name (e.g. `party-0`, `agg-1`).
    pub name: String,
    /// Verifying key for the node's [`SocketFrame::AuthProof`]: the
    /// Phase II attestation token key for aggregators, the derived link
    /// key for parties.
    pub key: VerifyingKey,
    /// The node's mailbox on the hub network (its coordinator-side
    /// proxy).
    pub endpoint: Endpoint,
}

/// Builds the seat list for every node of a detached session:
/// aggregators are keyed by their attestation token (the same key
/// parties verify in Phase II), parties by their derived link key.
pub fn seats_for(nodes: &DetachedNodes, seed: u64) -> Vec<HubSeat> {
    let mut seats = Vec::new();
    for agg in &nodes.aggregators {
        // Every aggregator's token key is registered at build time; a
        // missing entry would mean the session itself is unusable.
        if let Some(key) = nodes.tokens.get(&agg.name) {
            seats.push(HubSeat {
                name: agg.name.clone(),
                key: key.clone(),
                endpoint: agg.endpoint(),
            });
        }
    }
    for party in &nodes.parties {
        seats.push(HubSeat {
            name: party.name.clone(),
            key: party_link_key(seed, &party.name).verifying_key(),
            endpoint: party.endpoint(),
        });
    }
    seats
}

/// A hub-bridged deployment: the session, the bound hub, and what the
/// caller's `host` returned for each seat (a child process, a thread
/// handle), in seat order.
pub struct Launched<H> {
    /// The session driving the bridged nodes.
    pub session: ThreadedSession,
    /// The bound hub.
    pub hub: SocketHub,
    /// One host per seat.
    pub hosts: Vec<H>,
}

/// Launches a session whose every node runs behind a [`SocketHub`]:
/// builds the nodes, seats them, binds the hub on the session network
/// (under `chaos`, see [`SocketHub::bind_chaos`]; empty for none), calls
/// `host(name, hub address)` once per seat to start whatever will
/// [`run_node`](crate::run_node) it, and waits for every node's `Ready`.
///
/// Once the session is over, join the hosts, then the hub, and let the
/// session's outcome win over the hub's: a dead node must surface as the
/// supervisor's structured error, not as the hub's secondary disconnect
/// fallout.
///
/// # Errors
///
/// A failover policy other than [`FailoverPolicy::None`] is refused as
/// [`SetupError::Config`] — the supervisor cannot respawn a remote node.
/// Otherwise the contract of [`ThreadedSession::setup_detached`]; the hub
/// is joined before any error is returned.
pub fn launch<H>(
    config: DetaConfig,
    model_builder: &dyn Fn(&mut DetRng) -> Sequential,
    party_data: Vec<LabeledData>,
    rt: RuntimeConfig,
    chaos: HashMap<String, Vec<u64>>,
    mut host: impl FnMut(&str, SocketAddr) -> Result<H, RuntimeError>,
) -> Result<Launched<H>, RuntimeError> {
    if rt.failover != FailoverPolicy::None {
        return Err(RuntimeError::Setup(SetupError::Config(
            "a hub-bridged session cannot respawn nodes: failover must be FailoverPolicy::None",
        )));
    }
    let seed = config.seed;
    let mut bound = None;
    let setup =
        ThreadedSession::setup_detached(config, model_builder, party_data, rt, |nodes, network| {
            let seats = seats_for(&nodes, seed);
            let names: Vec<String> = seats.iter().map(|s| s.name.clone()).collect();
            // Every host rebuilds its own node from the seed.
            drop(nodes);
            let hub = SocketHub::bind_chaos(network.clone(), seats, seed, chaos)
                .map_err(|_| RuntimeError::Protocol("socket hub failed to bind"))?;
            let (hub, hosts) = bound.insert((hub, Vec::new()));
            for name in &names {
                hosts.push(host(name, hub.addr())?);
            }
            Ok(())
        });
    let Some((hub, hosts)) = bound else {
        return Err(setup
            .err()
            .unwrap_or(RuntimeError::Protocol("socket hub failed to bind")));
    };
    match setup {
        Ok(session) => Ok(Launched {
            session,
            hub,
            hosts,
        }),
        Err(e) => {
            // Hosts already started find no listener and exit.
            let _ = hub.join();
            Err(e)
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Per-seat egress state: the live writer queue (absent while parked)
/// plus the bounded retransmit buffer holding every stamped frame the
/// seat's child has not yet acknowledged.
#[derive(Default)]
struct NodeEgress {
    /// The live connection's writer queue; `None` while the seat is
    /// parked — frames then only accumulate in `buffer`.
    tx: Option<Sender<Arc<SocketFrame>>>,
    /// `Data` frames toward this node, stamped here and retained until
    /// its child acknowledges them or a resume's claims prove delivery.
    buffer: RetransmitBuffer,
    /// Whether any connection ever served this seat (a later
    /// connection is a *resume*, counted as a reconnect).
    ever_connected: bool,
    /// Cumulative accepted ingress `Data` frames from this node,
    /// across all its connections; drives chaos sever thresholds.
    ingress_frames: u64,
}

impl NodeEgress {
    /// Queues `frame` on the live writer, if any. A failed send means the
    /// writer died with the connection: a `Data` frame stays buffered for
    /// the resume, a control frame is superseded by it.
    fn forward(&self, frame: Arc<SocketFrame>) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(frame);
        }
    }
}

/// State shared by every hub thread.
struct HubShared {
    network: Network,
    /// Per-seat egress state; entries exist from bind time, so frames
    /// sent before (or between) connections buffer rather than block.
    egress: Mutex<HashMap<String, NodeEgress>>,
    /// Every seat name, for replaying missed closures to (re)connectors.
    seat_names: Vec<String>,
    /// Strict per-(src, dst) ingress window across all links — it
    /// survives reconnects, so a genuinely replayed old frame dies with
    /// [`SocketError::Replay`] no matter how many resumes happened.
    window: Mutex<ReplayWindow>,
    /// First structured failure observed by any hub thread.
    error: Mutex<Option<SocketError>>,
    stop: Arc<AtomicBool>,
    /// Connection counter, forked into each responder handshake RNG.
    conns: AtomicU64,
    /// Per-node clock offsets from the post-auth probe/echo exchange:
    /// `child_ns - hub_ns` at the round-trip midpoint.
    offsets: Mutex<HashMap<String, i64>>,
    /// Per-node shipped flight-recorder rings (JSONL text + overflow
    /// count), delivered by `TraceShip` just before each child's `Bye`.
    traces: Mutex<HashMap<String, (String, u64)>>,
    /// Chaos plan: per node, ascending cumulative ingress-frame counts
    /// after which the hub abruptly severs that node's connection.
    chaos: Mutex<HashMap<String, Vec<u64>>>,
    /// Hub-side lifecycle ring (`link_down` / `link_resumed` events),
    /// harvested into the merged trace so an outage window is visible.
    recorder: Arc<FlightRecorder>,
}

impl HubShared {
    fn record_error(&self, e: SocketError) {
        let mut slot = lock(&self.error);
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    /// Sends `frame` to every *live* link. Parked seats are skipped on
    /// purpose: closures (the only broadcast frame) are replayed to a
    /// seat when it resumes.
    fn broadcast(&self, frame: SocketFrame) {
        let frame = Arc::new(frame);
        let senders: Vec<Sender<Arc<SocketFrame>>> = lock(&self.egress)
            .values()
            .filter_map(|e| e.tx.clone())
            .collect();
        for s in senders {
            let _ = s.send(Arc::clone(&frame));
        }
    }

    /// Parks a seat: drops the live writer queue (the writer drains and
    /// exits) while keeping the retransmit buffer, floors, and ingress
    /// window for a future resume.
    fn park(&self, name: &str) {
        if let Some(e) = lock(&self.egress).get_mut(name) {
            e.tx = None;
        }
    }
}

/// The listener plus all bridge threads for one detached session.
pub struct SocketHub {
    addr: SocketAddr,
    shared: Arc<HubShared>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl SocketHub {
    /// Binds a loopback listener, starts the acceptor and one pump per
    /// seat, and returns immediately; children may connect at any time
    /// after this.
    ///
    /// # Errors
    ///
    /// [`SocketError::Io`] when the listener cannot bind.
    pub fn bind(
        network: Network,
        seats: Vec<HubSeat>,
        seed: u64,
    ) -> Result<SocketHub, SocketError> {
        SocketHub::bind_chaos(network, seats, seed, HashMap::new())
    }

    /// [`SocketHub::bind`] with a chaos plan: for each named node, an
    /// ascending list of cumulative ingress `Data`-frame counts after
    /// which the hub severs that node's TCP connection abruptly (no
    /// `Bye`) — the real-socket analogue of the simnet `LinkRestart`
    /// fault, exercising the park/resume machinery end to end.
    ///
    /// # Errors
    ///
    /// [`SocketError::Io`] when the listener cannot bind.
    pub fn bind_chaos(
        network: Network,
        seats: Vec<HubSeat>,
        seed: u64,
        chaos: HashMap<String, Vec<u64>>,
    ) -> Result<SocketHub, SocketError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let seat_names: Vec<String> = seats.iter().map(|s| s.name.clone()).collect();
        let egress = seat_names
            .iter()
            .map(|n| (n.clone(), NodeEgress::default()))
            .collect();
        let shared = Arc::new(HubShared {
            network,
            egress: Mutex::new(egress),
            seat_names,
            window: Mutex::new(ReplayWindow::new()),
            error: Mutex::new(None),
            stop: Arc::clone(&stop),
            conns: AtomicU64::new(0),
            offsets: Mutex::new(HashMap::new()),
            traces: Mutex::new(HashMap::new()),
            chaos: Mutex::new(chaos),
            recorder: FlightRecorder::new("hub", 4096),
        });
        let roster: Arc<HashMap<String, VerifyingKey>> = Arc::new(
            seats
                .iter()
                .map(|s| (s.name.clone(), s.key.clone()))
                .collect(),
        );
        let mut threads = Vec::new();
        for seat in seats {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || pump(seat, shared)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                accept_loop(listener, shared, roster, seed);
            }));
        }
        Ok(SocketHub {
            addr,
            shared,
            stop,
            threads,
        })
    }

    /// The address children connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The first structured failure any bridge thread observed, if any.
    pub fn first_error(&self) -> Option<SocketError> {
        lock(&self.shared.error)
            .as_ref()
            .map(SocketError::duplicate)
    }

    /// Cuts of the chaos plan that have not happened (yet). A harness
    /// reads zero here before it credits a run with surviving them: a
    /// threshold past the node's traffic never fires, silently.
    pub fn pending_severs(&self) -> usize {
        lock(&self.shared.chaos).values().map(Vec::len).sum()
    }

    /// Stops every bridge thread and joins them. Call after the session
    /// has shut down (pumps will already have drained and broadcast the
    /// mailbox closures).
    pub fn join(self) -> Option<SocketError> {
        self.join_harvest().0
    }

    /// [`SocketHub::join`] plus the observability harvest: every child's
    /// shipped flight-recorder ring and its clock offset, collected once
    /// all bridge threads have drained, plus the hub's own link-lifecycle
    /// ring under the name `hub`. The trace merger (`deta-obs`) aligns
    /// the shipped timestamps with these offsets.
    pub fn join_harvest(mut self) -> (Option<SocketError>, TraceHarvest) {
        self.stop.store(true, Ordering::Relaxed);
        // Dropping every live writer queue lets writer threads drain,
        // emit Bye, and exit; parked buffers are simply discarded.
        for entry in lock(&self.shared.egress).values_mut() {
            entry.tx = None;
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let mut traces = std::mem::take(&mut *lock(&self.shared.traces));
        let (records, dropped) = self.shared.recorder.drain();
        if !records.is_empty() || dropped > 0 {
            let mut jsonl = String::new();
            for rec in &records {
                jsonl.push_str(&rec.to_json(self.shared.recorder.node()));
                jsonl.push('\n');
            }
            traces.insert("hub".to_string(), (jsonl, dropped));
        }
        let harvest = TraceHarvest {
            offsets: lock(&self.shared.offsets).clone(),
            traces,
        };
        (self.first_error(), harvest)
    }
}

/// Cross-process observability data collected by the hub over one
/// session: per-child clock offsets (from the post-auth probe/echo) and
/// each child's shipped flight-recorder ring.
#[derive(Debug, Default)]
pub struct TraceHarvest {
    /// `child_ns - hub_ns` per node, estimated at the link round-trip
    /// midpoint.
    pub offsets: HashMap<String, i64>,
    /// Per-node shipped ring: rendered JSONL (schema v2) plus the count
    /// of records lost to ring overflow.
    pub traces: HashMap<String, (String, u64)>,
}

/// Drains one node's proxy mailbox into its egress state: every frame
/// is stamped once by the seat's buffer (which outlives connections, so
/// sequence numbers stay continuous across resumes), retained there
/// until acknowledged, and forwarded when a link is live — one
/// allocation, shared. Exits when the mailbox closes (after broadcasting
/// the closure) or on hub stop.
fn pump(seat: HubSeat, shared: Arc<HubShared>) {
    loop {
        // Raw receive: a trace envelope on the payload must cross the
        // process boundary intact, not be adopted by this relay thread.
        match seat.endpoint.recv_timeout_raw(TICK) {
            Ok(msg) => {
                if let Some(entry) = lock(&shared.egress).get_mut(&seat.name) {
                    let frame =
                        entry
                            .buffer
                            .stamp(msg.from.to_string(), seat.name.clone(), msg.payload);
                    entry.forward(frame);
                    entry.buffer.observe_depth(&seat.name);
                }
            }
            Err(RecvError::Timeout) => {
                if shared.stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(RecvError::Closed) => {
                // Queue fully drained (closed mailboxes keep yielding
                // queued messages first), so the closure is causally
                // after everything the node was sent.
                shared.broadcast(SocketFrame::Close {
                    name: seat.name.clone(),
                });
                return;
            }
        }
    }
}

/// Accepts connections until stopped; each connection is served on its
/// own thread.
fn accept_loop(
    listener: TcpListener,
    shared: Arc<HubShared>,
    roster: Arc<HashMap<String, VerifyingKey>>,
    seed: u64,
) {
    let mut serve_threads = Vec::new();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let roster = Arc::clone(&roster);
                let idx = shared.conns.fetch_add(1, Ordering::Relaxed);
                serve_threads.push(std::thread::spawn(move || {
                    serve(stream, shared, roster, seed, idx);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(TICK);
            }
            Err(_) => std::thread::sleep(TICK),
        }
    }
    for t in serve_threads {
        let _ = t.join();
    }
}

/// Serves one connection: handshake, challenge auth, resume exchange,
/// then the ingress loop (this thread) plus an egress writer thread.
fn serve(
    stream: TcpStream,
    shared: Arc<HubShared>,
    roster: Arc<HashMap<String, VerifyingKey>>,
    seed: u64,
    idx: u64,
) {
    // Unique responder randomness per connection; the identity key is
    // the same for all (children pin its verifying half).
    let identity = hub_identity(seed);
    let mut rng = DetRng::from_u64(seed)
        .fork(b"deta-socket/hub-conn")
        .fork_indexed(b"conn", idx);
    let mut link = match SecureLink::accept(stream, "incoming", &identity, &mut rng) {
        Ok(l) => l,
        Err(e) => {
            shared.record_error(e);
            return;
        }
    };
    // The roster is fixed at bind time, so a reconnect under a known
    // name with a different key fails this verification exactly as any
    // other impostor does.
    let name = match authenticate(&mut link, &roster, &mut rng) {
        Ok(name) => name,
        Err(e) => {
            shared.record_error(e);
            return;
        }
    };
    match clock_exchange(&mut link, &name) {
        Ok(offset) => {
            lock(&shared.offsets).insert(name.clone(), offset);
        }
        Err(e) => {
            shared.record_error(e);
            return;
        }
    }
    // Seat rebind: give the previous connection's serve thread a moment
    // to observe its EOF and park the seat. Two connections both live
    // past the window remain an auth error, as before.
    let rebind_deadline = Instant::now() + REBIND_WAIT;
    loop {
        if lock(&shared.egress)
            .get(&name)
            .is_none_or(|e| e.tx.is_none())
        {
            break;
        }
        if Instant::now() >= rebind_deadline {
            shared.record_error(SocketError::Auth {
                peer: name,
                detail: "second connection for an already-linked node",
            });
            return;
        }
        std::thread::sleep(TICK);
    }

    // Resume exchange. Every child leads with `Resume` (empty windows
    // on a first connection); any other first frame is an implicit
    // empty resume — a fresh-windowed peer expecting every link from
    // seq 0 — and is then processed as normal ingress.
    let mut claims = Vec::new();
    let mut send_ack = false;
    let mut pending: Option<SocketFrame> = None;
    match link.recv(None, Some(&shared.stop)) {
        Ok(Some(SocketFrame::Resume { src, windows })) => {
            if src != name {
                shared.record_error(SocketError::Auth {
                    peer: name,
                    detail: "resume with spoofed source name",
                });
                return;
            }
            claims = windows;
            send_ack = true;
        }
        Ok(Some(frame)) => pending = Some(frame),
        // Gone again (or hub stop) before resuming: the seat simply
        // stays parked — churn during reconnection is not an error.
        Ok(None) => return,
        Err(SocketError::Io(_)) => return,
        Err(e) => {
            shared.record_error(e);
            return;
        }
    }
    if send_ack {
        // The hub's delivered-so-far state for the peer's own links,
        // so the peer prunes its retransmit buffer symmetrically. Must
        // precede any retransmitted Data.
        let windows = lock(&shared.window).snapshot_from(&name);
        if link.send(&SocketFrame::ResumeAck { windows }).is_err() {
            return;
        }
    }
    let (sender, mut receiver) = match link.split() {
        Ok(pair) => pair,
        Err(e) => {
            shared.record_error(e);
            return;
        }
    };
    let (tx, rx) = channel::<Arc<SocketFrame>>();
    {
        // Prune, retransmit, and publish under one egress lock so the
        // pump cannot interleave a fresh frame among the replayed ones.
        let mut egress = lock(&shared.egress);
        let Some(entry) = egress.get_mut(&name) else {
            return;
        };
        if let Err(e) = entry.buffer.prune(claims) {
            // The frames this peer needs are gone: retire the seat.
            drop(egress);
            shared.record_error(e);
            shared.network.close(&name);
            shared.broadcast(SocketFrame::Close { name: name.clone() });
            return;
        }
        let replayed = entry.buffer.len() as u64;
        for frame in entry.buffer.frames() {
            let _ = tx.send(Arc::clone(frame));
        }
        // Closures missed while parked (or before the first connect)
        // are replayed idempotently, after the Data backlog.
        for seat in &shared.seat_names {
            if shared.network.is_closed(seat) {
                let _ = tx.send(Arc::new(SocketFrame::Close { name: seat.clone() }));
            }
        }
        let resumed = entry.ever_connected;
        entry.ever_connected = true;
        entry.tx = Some(tx);
        if deta_telemetry::enabled() {
            if resumed {
                deta_telemetry::metrics::counter_add("deta_socket_reconnects_total", &name, 1);
            }
            deta_telemetry::metrics::counter_add(
                "deta_socket_resync_replayed_frames",
                &name,
                replayed,
            );
        }
        if resumed {
            shared.recorder.event(
                "link_resumed",
                &[
                    ("node", TelemetryValue::Str(name.clone())),
                    ("replayed_frames", TelemetryValue::U64(replayed)),
                ],
            );
        }
    }
    let writer = std::thread::spawn(move || write_loop(sender, rx));
    // Ingress: inject every accepted frame into the hub network.
    let mut clean_exit = false;
    let mut parked = false;
    loop {
        let next = match pending.take() {
            Some(frame) => Ok(Some(frame)),
            None => receiver.recv(None, Some(&shared.stop)),
        };
        match next {
            Ok(Some(SocketFrame::Data {
                src,
                dst,
                seq,
                payload,
            })) => {
                if src != name {
                    shared.record_error(SocketError::Auth {
                        peer: name.clone(),
                        detail: "data frame with spoofed source name",
                    });
                    break;
                }
                if let Err(e) = lock(&shared.window).accept_named(&src, &dst, seq) {
                    if deta_telemetry::enabled() {
                        deta_telemetry::metrics::counter_add(
                            "deta_socket_rejects_total",
                            &format!("{src}->{dst}"),
                            1,
                        );
                    }
                    shared.record_error(e);
                    break;
                }
                if deta_telemetry::enabled() {
                    let link_name = format!("{src}->{dst}");
                    deta_telemetry::metrics::counter_add("deta_socket_frames_total", &link_name, 1);
                    deta_telemetry::metrics::counter_add(
                        "deta_socket_bytes_total",
                        &link_name,
                        payload.len() as u64,
                    );
                }
                match shared.network.send_as(&src, &dst, payload) {
                    Ok(()) => {}
                    Err(NetError::UnknownEndpoint(_)) | Err(NetError::Closed(_)) => {
                        if deta_telemetry::enabled() {
                            deta_telemetry::metrics::counter_add(
                                "deta_socket_drops_total",
                                &format!("{src}->{dst}"),
                                1,
                            );
                        }
                    }
                }
                let mut sever_now = false;
                {
                    let mut egress = lock(&shared.egress);
                    if let Some(entry) = egress.get_mut(&name) {
                        // Custody: the frame is the destination seat's to
                        // retransmit now, so its sender may let go of it.
                        // Through the seat's writer — this thread never
                        // waits on a socket write.
                        entry.forward(Arc::new(SocketFrame::Ack {
                            src,
                            dst,
                            next: seq + 1,
                        }));
                        // Chaos: sever this node's connection abruptly
                        // once its cumulative accepted-frame count
                        // crosses the next planned threshold.
                        entry.ingress_frames += 1;
                        let count = entry.ingress_frames;
                        let mut chaos = lock(&shared.chaos);
                        if let Some(cuts) = chaos.get_mut(&name) {
                            if cuts.first().is_some_and(|t| count >= *t) {
                                cuts.remove(0);
                                sever_now = true;
                            }
                        }
                    }
                }
                if sever_now {
                    // Both directions die without a Bye; the next read
                    // observes EOF and parks the seat like any abrupt
                    // disconnect.
                    receiver.sever();
                }
            }
            Ok(Some(SocketFrame::Ack { src, dst, next })) => {
                // Only the seat a link ends at can say what arrived
                // there: anyone else's word would make the hub drop
                // frames their real receiver may still need replayed.
                if dst != name {
                    shared.record_error(SocketError::Auth {
                        peer: name.clone(),
                        detail: "acknowledgement for a link that ends at another node",
                    });
                    break;
                }
                let honoured = match lock(&shared.egress).get_mut(&name) {
                    Some(entry) => entry.buffer.acknowledge(&src, &dst, next),
                    None => Ok(()),
                };
                if let Err(e) = honoured {
                    shared.record_error(e);
                    break;
                }
            }
            Ok(Some(SocketFrame::Bye)) => {
                clean_exit = true;
                break;
            }
            Ok(Some(SocketFrame::Close { .. })) => {
                // The hub is authoritative for closures; a child telling
                // us about one is harmless.
            }
            Ok(Some(SocketFrame::TraceShip {
                name: ship_name,
                dropped,
                jsonl,
            })) => {
                // A node may only ship its own ring (same rule as Data
                // source names).
                if ship_name != name {
                    shared.record_error(SocketError::Auth {
                        peer: name.clone(),
                        detail: "trace ship with spoofed node name",
                    });
                    break;
                }
                let Ok(text) = String::from_utf8(jsonl) else {
                    shared.record_error(SocketError::Malformed {
                        link: receiver.label().to_string(),
                    });
                    break;
                };
                lock(&shared.traces).insert(ship_name, (text, dropped));
            }
            Ok(Some(_)) => {
                // Includes a mid-session Resume: the exchange happens
                // exactly once, right after auth.
                shared.record_error(SocketError::Malformed {
                    link: receiver.label().to_string(),
                });
                break;
            }
            Ok(None) => {
                // EOF without Bye. At shutdown, or for a seat whose
                // mailbox is already closed, this is the old closure
                // path; mid-session it parks the seat for a resume.
                if !shared.stop.load(Ordering::Relaxed) && !shared.network.is_closed(&name) {
                    parked = true;
                }
                break;
            }
            Err(e) => {
                shared.record_error(e);
                break;
            }
        }
    }
    if parked {
        // Keep the mailbox open and tell no one: hub-side senders keep
        // buffering, and the child is expected back.
        let depth = lock(&shared.egress)
            .get(&name)
            .map_or(0, |e| e.buffer.len());
        if deta_telemetry::enabled() {
            deta_telemetry::metrics::histogram_observe(
                "deta_socket_parked_depth",
                &name,
                depth as f64,
            );
        }
        shared.recorder.event(
            "link_down",
            &[
                ("node", TelemetryValue::Str(name.clone())),
                ("parked_frames", TelemetryValue::U64(depth as u64)),
            ],
        );
    } else if !clean_exit || !shared.stop.load(Ordering::Relaxed) {
        // Whatever ended the link for good: close the node's mailbox so
        // hub-side senders observe `Closed`, and tell every child.
        shared.network.close(&name);
        shared.broadcast(SocketFrame::Close { name: name.clone() });
    }
    shared.park(&name);
    let _ = writer.join();
}

/// Clock-alignment probe/echo: estimates the peer's monotonic-clock
/// offset (`child_ns - hub_ns`) at the round-trip midpoint. Runs right
/// after `Welcome`, before any data flows, so the link is otherwise
/// idle and the round trip is as tight as it gets.
fn clock_exchange(link: &mut SecureLink, peer: &str) -> Result<i64, SocketError> {
    let t_send = deta_telemetry::now_ns();
    link.send(&SocketFrame::ClockProbe { t_hub_ns: t_send })?;
    let deadline = Some(Instant::now() + AUTH_DEADLINE);
    match link.recv(deadline, None)? {
        Some(SocketFrame::ClockEcho {
            t_hub_ns,
            t_peer_ns,
        }) if t_hub_ns == t_send => {
            let t_recv = deta_telemetry::now_ns();
            let midpoint = (t_send / 2).wrapping_add(t_recv / 2);
            Ok(t_peer_ns as i64 - midpoint as i64)
        }
        _ => Err(SocketError::Auth {
            peer: peer.to_string(),
            detail: "peer did not echo the clock probe",
        }),
    }
}

/// Challenge/response over the fresh channel: the peer proves control
/// of a seat's key.
fn authenticate(
    link: &mut SecureLink,
    roster: &HashMap<String, VerifyingKey>,
    rng: &mut DetRng,
) -> Result<String, SocketError> {
    let mut nonce = [0u8; 32];
    rng.fill_bytes(&mut nonce);
    link.send(&SocketFrame::Challenge { nonce })?;
    let deadline = Some(Instant::now() + AUTH_DEADLINE);
    match link.recv(deadline, None)? {
        Some(SocketFrame::AuthProof { name, sig }) => {
            let Some(key) = roster.get(&name) else {
                return Err(SocketError::Auth {
                    peer: name,
                    detail: "unknown node name",
                });
            };
            let Some(sig) = deta_crypto::Signature::from_bytes(&sig) else {
                return Err(SocketError::Auth {
                    peer: name,
                    detail: "unparseable signature",
                });
            };
            if !key.verify(&auth_transcript(&nonce, &name), &sig) {
                return Err(SocketError::Auth {
                    peer: name,
                    detail: "signature does not verify against the node key",
                });
            }
            link.send(&SocketFrame::Welcome)?;
            Ok(name)
        }
        Some(_) | None => Err(SocketError::Auth {
            peer: "unknown".to_string(),
            detail: "peer did not present an auth proof",
        }),
    }
}

/// Egress writer: drains the node's queue onto the socket, then signs
/// off with `Bye` when the hub drops the queue.
fn write_loop(mut sender: LinkSender, rx: Receiver<Arc<SocketFrame>>) {
    while let Ok(frame) = rx.recv() {
        if sender.send(&frame).is_err() {
            return;
        }
    }
    let _ = sender.send(&SocketFrame::Bye);
}
