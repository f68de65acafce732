//! Coordinator-side bridge: one TCP listener, one authenticated link
//! per child process, two threads per live link and one acceptor.
//!
//! The hub owns the *authoritative* [`Network`]: the supervisor, fault
//! policy, tap, byte accounting, and telemetry all live there. Each
//! remote node is a *forwarded name* on that network
//! ([`Network::forward`]). Traffic flows:
//!
//! * **ingress** — a child's frames arrive on its link; after its seat's
//!   replay window accepts them they are injected with
//!   [`Network::send_as`], so verdicts, taps, and per-link byte counts
//!   apply exactly as for an in-process sender;
//! * **egress** — the network hands every delivery for a seat to that
//!   seat's `Egress`, under the network lock and in send order: stamped
//!   into a bounded retransmit buffer and, when a connection is live,
//!   queued for the link's writer. No thread stands in between.
//!
//! Locks are taken `network → egress`, never the other way: nobody calls
//! into the network — `close`, `is_closed`, `send_as` — while holding
//! the egress lock, and it is never held across IO. A serve thread reads
//! and never writes to a socket once its link is split; what it owes its
//! peer goes through the seat's writer (DESIGN.md §16).
//!
//! ## Custody
//!
//! A frame the ingress window accepts is from then on the *destination
//! seat's* to retransmit, so acceptance is acknowledged to the child it
//! came from ([`SocketFrame::Ack`], queued on that seat's writer) and the
//! child stops retaining it. The destination's child acknowledges in
//! turn, and the seat's buffer drops the frame: on a healthy link a
//! buffer holds what is in flight. An acknowledgement speaks for the
//! hub → child direction of the link it arrives on, and is never
//! honoured past what was stamped there.
//!
//! ## Link lifecycle
//!
//! A seat is *connected* while a serve thread holds its link. A child
//! that vanishes mid-session **without** sending [`SocketFrame::Bye`]
//! does not kill the session: the seat is *parked* — egress keeps
//! buffering, the seat's ingress [`ReplayWindow`] is retained — until
//! the child reconnects, re-proves the *same* identity, and exchanges
//! [`SocketFrame::Resume`]/[`SocketFrame::ResumeAck`] so both sides
//! retransmit exactly the frames the other never delivered. Every
//! connection leads with `Resume`, a first one claiming 0. A resume
//! that needs frames already evicted from the bounded buffer *retires*
//! the seat (structured [`SocketError::Resync`], name closed): the
//! gap cannot be hidden. Loss of a node that already said `Bye` stays
//! a normal closure, exactly as before reconnection existed.
//!
//! A seat's name closing on the network (supervisor shutdown, kill, or
//! seat retirement) is told to the forwarder once, by
//! [`Network::close`], and broadcast from there as
//! [`SocketFrame::Close`] to every live link — and re-announced to late
//! (re)connectors — so each child mirrors the closure into its local
//! replica.

use crate::link::{lock, write_loop, Egress, LinkReceiver, SecureLink};
use crate::wire::{auth_transcript, ReplayWindow, SocketFrame};
use crate::{drain_ring, hub_identity, party_link_key, SocketError};
use deta_core::session::{DetaConfig, SetupError};
use deta_crypto::{DetRng, VerifyingKey};
use deta_nn::train::LabeledData;
use deta_nn::Sequential;
use deta_obs::{parse_jsonl, FlightRecorder, ParsedTrace, TelemetryValue};
use deta_runtime::{DetachedNodes, FailoverPolicy, RuntimeConfig, RuntimeError, ThreadedSession};
use deta_transport::{Forwarder, Message, NetError, Network};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the acceptor and a rebinding connection recheck.
const TICK: Duration = Duration::from_millis(20);

/// Auth exchange deadline per connection.
const AUTH_DEADLINE: Duration = Duration::from_secs(10);

/// How long a fresh connection waits for the previous connection's
/// serve thread to observe its EOF and park the seat. Two connections
/// *both* live past this window remain an auth error.
const REBIND_WAIT: Duration = Duration::from_secs(1);

/// One hosted node as the hub sees it: the name a peer must prove — the
/// name [`SocketHub::bind`] forwards on the hub network — and the key
/// that proof is verified against.
pub struct HubSeat {
    /// Node endpoint name (e.g. `party-0`, `agg-1`).
    pub name: String,
    /// Verifying key for the node's [`SocketFrame::AuthProof`]: the
    /// Phase II attestation token key for aggregators, the derived link
    /// key for parties.
    pub key: VerifyingKey,
}

/// Builds the seat list for every node on a detached session's roster:
/// aggregators are keyed by their attestation token (the same key
/// parties verify in Phase II), parties by their derived link key.
pub fn seats_for(nodes: &DetachedNodes, seed: u64) -> Vec<HubSeat> {
    let mut seats = Vec::new();
    for name in &nodes.aggregators {
        // Every aggregator's token key is registered at build time; a
        // missing entry would mean the session itself is unusable.
        if let Some(key) = nodes.tokens.get(name) {
            seats.push(HubSeat {
                name: name.clone(),
                key: key.clone(),
            });
        }
    }
    for name in &nodes.parties {
        seats.push(HubSeat {
            name: name.clone(),
            key: party_link_key(seed, name).verifying_key(),
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
/// builds the coordinator's share of the session and no node (each host
/// builds its own from the seed), seats the roster, binds the hub on the
/// session network
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

/// What the hub keeps per seat: one end of each direction of the seat's
/// link — the egress toward its child and the window of what came from
/// it — and the connection history the lifecycle needs.
struct Seat {
    egress: Egress,
    /// Ingress window of the child → hub direction. It survives
    /// reconnects, so a genuinely replayed old frame dies with
    /// [`SocketError::Replay`] no matter how many resumes happened.
    window: ReplayWindow,
    /// Whether any connection ever served this seat (a later
    /// connection is a *resume*, counted as a reconnect).
    ever_connected: bool,
}

/// Every seat, under the hub's one egress lock; what the hub network
/// forwards into (apart from [`HubShared`], which holds the network: the
/// two must not keep each other alive). Entries exist from bind time, so
/// frames sent before or between connections buffer rather than block.
struct Seats(Mutex<HashMap<String, Seat>>);

impl Forwarder for Seats {
    fn forward(&self, to: &str, msg: Message) {
        if let Some(seat) = lock(&self.0).get_mut(to) {
            seat.egress.send(to, msg);
        }
    }

    /// The one origin of closure broadcasts. Parked seats are skipped on
    /// purpose: a closure is re-announced to a seat when it resumes.
    fn closed(&self, name: &str) {
        let frame = Arc::new(SocketFrame::Close {
            name: name.to_string(),
        });
        for seat in lock(&self.0).values() {
            seat.egress.control(Arc::clone(&frame));
        }
    }
}

/// State shared by every hub thread.
struct HubShared {
    network: Network,
    seats: Arc<Seats>,
    /// Every seat name, for re-announcing closures to (re)connectors.
    seat_names: Vec<String>,
    /// First structured failure observed by any hub thread.
    error: Mutex<Option<SocketError>>,
    stop: AtomicBool,
    /// Connection counter, forked into each responder handshake RNG.
    conns: AtomicU64,
    /// Per-node clock offsets from the post-auth probe/echo exchange:
    /// `child_ns - hub_ns` at the round-trip midpoint.
    offsets: Mutex<HashMap<String, i64>>,
    /// Per-node shipped flight-recorder rings, parsed where they arrive,
    /// delivered by `TraceShip` just before each child's `Bye`.
    traces: Mutex<HashMap<String, ParsedTrace>>,
    /// Chaos plan: per node, the accepted ingress `Data` frames seen from
    /// it so far (across all its connections) and the ascending counts
    /// after which the hub abruptly severs its connection.
    chaos: Mutex<HashMap<String, (u64, Vec<u64>)>>,
    /// Hub-side lifecycle ring (`link_down` / `link_resumed` events),
    /// harvested into the merged trace so an outage window is visible.
    recorder: Arc<FlightRecorder>,
}

impl HubShared {
    fn record_error(&self, e: SocketError) {
        lock(&self.error).get_or_insert(e);
    }

    /// Runs `f` on `name`'s seat under the egress lock: `f` must not call
    /// into the network.
    fn with_seat<R>(&self, name: &str, f: impl FnOnce(&mut Seat) -> R) -> Option<R> {
        lock(&self.seats.0).get_mut(name).map(f)
    }
}

/// The listener plus all bridge threads for one detached session.
pub struct SocketHub {
    addr: SocketAddr,
    shared: Arc<HubShared>,
    /// Joins every serve thread before it exits.
    acceptor: JoinHandle<()>,
}

impl SocketHub {
    /// Binds a loopback listener, forwards every seat's name on
    /// `network`, starts the acceptor — the one thread a hub has until a
    /// child connects — and returns immediately; children may connect at
    /// any time after this.
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
    /// `Bye`) — the real-socket analogue of the simulator's `LinkRestart`
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
        let seat_names: Vec<String> = seats.iter().map(|s| s.name.clone()).collect();
        let by_name = seat_names.iter().map(|name| {
            let seat = Seat {
                egress: Egress::new(name, format!("hub->{name}")),
                window: ReplayWindow::new(),
                ever_connected: false,
            };
            (name.clone(), seat)
        });
        let seat_table = Arc::new(Seats(Mutex::new(by_name.collect())));
        for name in &seat_names {
            network.forward(name, Arc::clone(&seat_table) as Arc<dyn Forwarder>);
        }
        let shared = Arc::new(HubShared {
            network,
            seats: seat_table,
            seat_names,
            error: Mutex::new(None),
            stop: AtomicBool::new(false),
            conns: AtomicU64::new(0),
            offsets: Mutex::new(HashMap::new()),
            traces: Mutex::new(HashMap::new()),
            chaos: Mutex::new(chaos.into_iter().map(|(n, cuts)| (n, (0, cuts))).collect()),
            recorder: FlightRecorder::new("hub", 4096),
        });
        let roster: Arc<HashMap<String, VerifyingKey>> = Arc::new(
            seats
                .iter()
                .map(|s| (s.name.clone(), s.key.clone()))
                .collect(),
        );
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared, roster, seed))
        };
        Ok(SocketHub {
            addr,
            shared,
            acceptor,
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
        lock(&self.shared.chaos)
            .values()
            .map(|(_, cuts)| cuts.len())
            .sum()
    }

    /// Stops every bridge thread and joins them. Call after the session
    /// has shut down (the seats' closures will already have been
    /// broadcast).
    pub fn join(self) -> Option<SocketError> {
        self.join_harvest().0
    }

    /// [`SocketHub::join`] plus the observability harvest: every child's
    /// shipped flight-recorder ring, as the records it parsed into, and
    /// its clock offset, collected once all bridge threads have drained,
    /// plus the hub's own link-lifecycle ring under the name `hub`. The
    /// trace merger (`deta_obs::merge`) aligns the shipped timestamps
    /// with these offsets.
    pub fn join_harvest(self) -> (Option<SocketError>, TraceHarvest) {
        let SocketHub {
            shared, acceptor, ..
        } = self;
        shared.stop.store(true, Ordering::Relaxed);
        // Every live writer drains its queue, says Bye, and exits; the
        // buffers go when the network that forwards into them does.
        for seat in lock(&shared.seats.0).values_mut() {
            seat.egress.control(SocketFrame::Bye);
            seat.egress.park();
        }
        let _ = acceptor.join();
        let offsets = lock(&shared.offsets).clone();
        let mut traces = std::mem::take(&mut *lock(&shared.traces));
        if let Some((records, dropped)) = drain_ring(&shared.recorder) {
            let trace = ParsedTrace {
                records,
                overflow: vec![("hub".to_string(), dropped)],
                ..ParsedTrace::default()
            };
            traces.insert("hub".to_string(), trace);
        }
        let harvest = TraceHarvest { offsets, traces };
        let first_error = lock(&shared.error).take();
        (first_error, harvest)
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
    /// Per-node ring: its records, its overflow count under the node's
    /// name, and the count of shipped lines that did not parse.
    pub traces: HashMap<String, ParsedTrace>,
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

/// A connection whose peer proved a seat's key and said where to resume.
struct Admitted {
    name: String,
    link: SecureLink,
    /// The next `seq` the peer's window takes (0 on a first connection).
    claim: u64,
}

/// Takes a connection up to the point where it can be served: handshake,
/// challenge auth, clock probe, seat rebind, resume exchange. `Ok(None)`
/// when the peer is gone again (or the hub is stopping) before it has
/// resumed: the seat simply stays parked — churn is not an error.
fn admit(
    stream: TcpStream,
    shared: &HubShared,
    roster: &HashMap<String, VerifyingKey>,
    seed: u64,
    idx: u64,
) -> Result<Option<Admitted>, SocketError> {
    // Unique responder randomness per connection; the identity key is
    // the same for all (children pin its verifying half).
    let identity = hub_identity(seed);
    let mut rng = DetRng::from_u64(seed)
        .fork(b"deta-socket/hub-conn")
        .fork_indexed(b"conn", idx);
    let mut link = SecureLink::accept(stream, "incoming", &identity, &mut rng)?;
    // The roster is fixed at bind time, so a reconnect under a known
    // name with a different key fails this verification exactly as any
    // other impostor does.
    let name = authenticate(&mut link, roster, &mut rng)?;
    let offset = clock_exchange(&mut link, &name)?;
    lock(&shared.offsets).insert(name.clone(), offset);
    // Seat rebind: give the previous connection's serve thread a moment
    // to observe its EOF and park the seat. Two connections both live
    // past the window remain an auth error, as before.
    let rebind_deadline = Instant::now() + REBIND_WAIT;
    while shared.with_seat(&name, |seat| seat.egress.is_live()) == Some(true) {
        if Instant::now() >= rebind_deadline {
            return Err(SocketError::Auth {
                peer: name,
                detail: "second connection for an already-linked node",
            });
        }
        std::thread::sleep(TICK);
    }
    // Resume exchange: every connection leads with `Resume`. The answer
    // is what the seat's window took from the peer, so the peer prunes
    // its retransmit buffer symmetrically; it precedes any retransmitted
    // Data. No serve thread reads into the window while the seat is
    // parked.
    let claim = match link.rx.recv(None, Some(&shared.stop)) {
        Ok(Some(SocketFrame::Resume { next })) => next,
        Ok(Some(_)) => {
            return Err(SocketError::Auth {
                peer: name,
                detail: "peer did not lead with a resume",
            })
        }
        Ok(None) | Err(SocketError::Io(_)) => return Ok(None),
        Err(e) => return Err(e),
    };
    let delivered = shared.with_seat(&name, |seat| seat.window.next());
    let ack = SocketFrame::ResumeAck {
        next: delivered.unwrap_or(0),
    };
    if link.tx.send(&ack).is_err() {
        return Ok(None);
    }
    Ok(Some(Admitted { name, link, claim }))
}

/// Serves one connection: admission, then the ingress loop (this thread)
/// plus an egress writer thread.
fn serve(
    stream: TcpStream,
    shared: Arc<HubShared>,
    roster: Arc<HashMap<String, VerifyingKey>>,
    seed: u64,
    idx: u64,
) {
    let admitted = match admit(stream, &shared, &roster, seed, idx) {
        Ok(Some(admitted)) => admitted,
        Ok(None) => return,
        Err(e) => return shared.record_error(e),
    };
    let Admitted {
        name,
        link: SecureLink {
            tx: sender,
            rx: mut receiver,
        },
        claim,
    } = admitted;
    // Prune, replay and go live under one egress lock, so the forwarder
    // cannot land a fresh frame among the replayed ones.
    let taken_over = shared.with_seat(&name, |seat| {
        let rx = seat.egress.resume(claim)?;
        let resumed = std::mem::replace(&mut seat.ever_connected, true);
        Ok((rx, seat.egress.unacked() as u64, resumed))
    });
    let (rx, replayed, resumed) = match taken_over {
        Some(Ok(live)) => live,
        Some(Err(e)) => {
            // The frames this peer needs are gone: retire the seat (and,
            // through the forwarder, tell every child).
            shared.record_error(e);
            shared.network.close(&name);
            return;
        }
        None => return,
    };
    let writer = std::thread::spawn(move || write_loop(sender, rx));
    // Closures are broadcast to live links only, so whatever closed while
    // this seat was parked (or before its first connection) is announced
    // now that it is live — after the backlog, and with the egress lock
    // released: asking the network under it would invert the lock order.
    // One that lands meanwhile may be told twice; `Close` is idempotent.
    for seat in &shared.seat_names {
        if shared.network.is_closed(seat) {
            shared.with_seat(&name, |live| {
                live.egress
                    .control(SocketFrame::Close { name: seat.clone() });
            });
        }
    }
    if deta_obs::enabled() {
        if resumed {
            deta_obs::metrics::counter_add("deta_socket_reconnects_total", &name, 1);
        }
        deta_obs::metrics::counter_add("deta_socket_resync_replayed_frames", &name, replayed);
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
    let end = ingest(&shared, &name, &mut receiver);
    // EOF without Bye parks the seat for a resume — mid-session. At
    // shutdown, or for a seat whose name is already closed, it is the old
    // closure path.
    let parked = matches!(end, Ok(LinkEnd::Lost))
        && !shared.stop.load(Ordering::Relaxed)
        && !shared.network.is_closed(&name);
    let clean_exit = matches!(end, Ok(LinkEnd::Bye));
    if let Err(e) = end {
        shared.record_error(e);
    }
    if parked {
        // Keep the name open and tell no one: hub-side senders keep
        // buffering, and the child is expected back.
        let depth = shared
            .with_seat(&name, |seat| seat.egress.unacked())
            .unwrap_or(0);
        if deta_obs::enabled() {
            deta_obs::metrics::histogram_observe("deta_socket_parked_depth", &name, depth as f64);
        }
        shared.recorder.event(
            "link_down",
            &[
                ("node", TelemetryValue::Str(name.clone())),
                ("parked_frames", TelemetryValue::U64(depth as u64)),
            ],
        );
    } else if !clean_exit || !shared.stop.load(Ordering::Relaxed) {
        // Whatever ended the link for good: close the node's name so
        // hub-side senders observe `Closed`; the forwarder tells every
        // child, this one included.
        shared.network.close(&name);
    }
    shared.with_seat(&name, |seat| {
        // A link that did not just die under us is signed off.
        if !parked {
            seat.egress.control(SocketFrame::Bye);
        }
        seat.egress.park();
    });
    let _ = writer.join();
}

/// How a connection's ingress ended, short of a violation.
enum LinkEnd {
    /// The child signed off.
    Bye,
    /// EOF (or hub stop) without `Bye`.
    Lost,
}

/// Ingress of one connection: injects every frame the seat's window
/// accepts into the hub network as `name`'s, until the link ends.
///
/// # Errors
///
/// The violation that ended it: a spoofed name, a sequence or
/// acknowledgement violation, a malformed or tampered frame.
fn ingest(
    shared: &HubShared,
    name: &str,
    receiver: &mut LinkReceiver,
) -> Result<LinkEnd, SocketError> {
    let spoofed = |detail| SocketError::Auth {
        peer: name.to_string(),
        detail,
    };
    loop {
        let Some((frame, trace)) = receiver.recv_message(&shared.stop)? else {
            return Ok(LinkEnd::Lost);
        };
        match frame {
            SocketFrame::Data {
                src,
                dst,
                seq,
                payload,
            } => {
                if src != name {
                    return Err(spoofed("data frame with spoofed source name"));
                }
                // The window is released before `send_as`: the network
                // lock comes first, never under a seat's.
                let accepted = shared.with_seat(name, |seat| seat.window.accept(&src, &dst, seq));
                if let Some(Err(e)) = accepted {
                    count_link("deta_socket_rejects_total", &src, &dst, 1);
                    return Err(e);
                }
                count_link("deta_socket_frames_total", &src, &dst, 1);
                count_link("deta_socket_bytes_total", &src, &dst, payload.len() as u64);
                match shared.network.send_as(&src, &dst, payload, trace) {
                    Ok(()) => {}
                    Err(NetError::UnknownEndpoint(_)) | Err(NetError::Closed(_)) => {
                        count_link("deta_socket_drops_total", &src, &dst, 1);
                    }
                }
                // Custody: the frame is the destination seat's to
                // retransmit now, so its sender may let go of it. Through
                // the seat's writer — this thread never waits on a socket
                // write.
                shared.with_seat(name, |seat| {
                    seat.egress.control(SocketFrame::Ack { next: seq + 1 });
                });
                // Chaos: sever this node's connection abruptly once its
                // cumulative accepted-frame count crosses the next planned
                // threshold.
                let sever_now = lock(&shared.chaos)
                    .get_mut(name)
                    .is_some_and(|(seen, cuts)| {
                        *seen += 1;
                        let due = cuts.first().is_some_and(|threshold| *seen >= *threshold);
                        if due {
                            cuts.remove(0);
                        }
                        due
                    });
                if sever_now {
                    // Both directions die without a Bye; the next read
                    // observes EOF and parks the seat like any abrupt
                    // disconnect.
                    receiver.sever();
                }
            }
            // What this seat's child took from its own link.
            SocketFrame::Ack { next } => {
                shared
                    .with_seat(name, |seat| seat.egress.acknowledge(next))
                    .unwrap_or(Ok(()))?;
            }
            SocketFrame::Bye => return Ok(LinkEnd::Bye),
            // The hub is authoritative for closures; a child telling us
            // about one is harmless.
            SocketFrame::Close { .. } => {}
            SocketFrame::TraceShip {
                name: ship_name,
                dropped,
                jsonl,
            } => {
                // A node may only ship its own ring (same rule as Data
                // source names).
                if ship_name != name {
                    return Err(spoofed("trace ship with spoofed node name"));
                }
                let text = String::from_utf8(jsonl).map_err(|_| SocketError::Malformed {
                    link: receiver.label().to_string(),
                })?;
                let trace = ParsedTrace {
                    overflow: vec![(ship_name.clone(), dropped)],
                    ..parse_jsonl(&text)
                };
                lock(&shared.traces).insert(ship_name, trace);
            }
            // Includes a mid-session Resume: the exchange happens exactly
            // once, right after auth.
            _ => {
                return Err(SocketError::Malformed {
                    link: receiver.label().to_string(),
                })
            }
        }
    }
}

/// Counts `n` under `name{src->dst}`; the label is built only with the
/// telemetry sink on.
fn count_link(name: &'static str, src: &str, dst: &str, n: u64) {
    if deta_obs::enabled() {
        deta_obs::metrics::counter_add(name, &format!("{src}->{dst}"), n);
    }
}

/// Clock-alignment probe/echo: estimates the peer's monotonic-clock
/// offset (`child_ns - hub_ns`) at the round-trip midpoint. Runs right
/// after `Welcome`, before any data flows, so the link is otherwise
/// idle and the round trip is as tight as it gets.
fn clock_exchange(link: &mut SecureLink, peer: &str) -> Result<i64, SocketError> {
    let t_send = deta_obs::now_ns();
    link.tx
        .send(&SocketFrame::ClockProbe { t_hub_ns: t_send })?;
    let deadline = Some(Instant::now() + AUTH_DEADLINE);
    match link.rx.recv(deadline, None)? {
        Some(SocketFrame::ClockEcho {
            t_hub_ns,
            t_peer_ns,
        }) if t_hub_ns == t_send => {
            let t_recv = deta_obs::now_ns();
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
    link.tx.send(&SocketFrame::Challenge { nonce })?;
    let deadline = Some(Instant::now() + AUTH_DEADLINE);
    match link.rx.recv(deadline, None)? {
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
            link.tx.send(&SocketFrame::Welcome)?;
            Ok(name)
        }
        Some(_) | None => Err(SocketError::Auth {
            peer: "unknown".to_string(),
            detail: "peer did not present an auth proof",
        }),
    }
}
