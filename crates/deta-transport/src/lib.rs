//! An in-process simulated network with latency accounting and TLS-like
//! secure channels.
//!
//! The paper's prototype connects parties and aggregators with gRPC over
//! TLS; this crate reproduces those message flows in-process:
//!
//! * [`Network`] / [`Endpoint`] — named endpoints exchanging byte messages
//!   through FIFO queues, with every transfer logged for the latency model
//!   (see [`NetStats`] and [`LinkModel`]).
//! * [`secure`] — an authenticated-encryption channel bootstrapped by a
//!   signed Diffie-Hellman handshake, standing in for TLS. The responder
//!   authenticates with its provisioned token key, which is exactly how
//!   DeTA parties confirm they talk to attested aggregators.
//! * [`wire`] — the length-prefix writers and the bounds-checked
//!   [`wire::Reader`] under every message codec in the workspace.
//!
//! The network is synchronous and deterministic: messages are delivered in
//! send order, and "latency" is an accounting quantity derived from
//! [`LinkModel`], not wall-clock sleeping. This keeps experiments exactly
//! reproducible while still modelling the paper's transfer costs.
//!
//! Endpoint names are interned as `Arc<str>` so fan-out sends clone a
//! pointer, not a `String`, and [`Network::close`] gives supervisors a
//! poison signal: a thread blocked in [`Endpoint::recv_timeout`] on a
//! closed endpoint wakes with [`RecvError::Closed`] instead of timing out
//! forever while its peer is gone.
//!
//! Two optional hooks make the network a testable *hostile* network
//! (used by `deta_drills::sim` for deterministic fault injection):
//!
//! * a [`FaultPolicy`] rules on every send attempt with a
//!   [`SendVerdict`] — deliver, drop, duplicate, corrupt, hold until the
//!   clock's owner releases it ([`Network::release_held`]), or crash the
//!   sender,
//! * a [`NetTap`] observes every delivery and every loss, giving test
//!   harnesses a complete per-link message log to replay.
//!
//! Both default to absent; production paths pay one `Option` check.
//!
//! A name whose mailbox is *somewhere else* — a node another process
//! hosts, behind a bridge — is a kind of endpoint, not a fault:
//! [`Network::forward`] hands what would be queued for it to a
//! [`Forwarder`], verdict and accounting as for any delivery. A drop
//! therefore always means a loss.
//!
//! # Examples
//!
//! ```
//! use deta_transport::{LinkModel, Network};
//!
//! let net = Network::new(LinkModel::lan());
//! let alice = net.register("alice");
//! let bob = net.register("bob");
//! alice.send("bob", &b"hello"[..]).unwrap();
//! assert_eq!(&bob.recv().unwrap().payload[..], b"hello");
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod secure;
pub mod wire;

pub use deta_obs::TraceCtx;
pub use secure::{HandshakeInitiator, SecureChannel, TransportError};

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Locks a mutex, recovering the data from a poisoned lock.
///
/// A panic on another thread while holding the lock poisons it; the
/// queue state itself is always valid (every critical section leaves it
/// consistent), so recovery is safe and keeps the network usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A received message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Sender endpoint name (shared, not cloned per recipient).
    pub from: Arc<str>,
    /// Payload bytes: what the sender sent, traced or not.
    pub payload: Vec<u8>,
    /// The context the receiver adopts: the sender's `trace_id`, and this
    /// message's id as `parent`. The default for a message sent with
    /// telemetry off.
    pub trace: TraceCtx,
}

/// Link cost model: `time = base_s + bytes / bytes_per_s`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkModel {
    /// Fixed per-message latency in seconds (propagation + RPC overhead).
    pub base_s: f64,
    /// Link throughput in bytes per second.
    pub bytes_per_s: f64,
}

impl LinkModel {
    /// A LAN-like default: 1 ms base, 1 Gbit/s.
    pub fn lan() -> LinkModel {
        LinkModel {
            base_s: 1e-3,
            bytes_per_s: 125e6,
        }
    }

    /// A WAN-like profile: 30 ms base, 100 Mbit/s (the paper's aggregators
    /// may sit at different geo-locations).
    pub fn wan() -> LinkModel {
        LinkModel {
            base_s: 30e-3,
            bytes_per_s: 12.5e6,
        }
    }

    /// Simulated transfer time for a message of `bytes` bytes.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.base_s + bytes as f64 / self.bytes_per_s
    }
}

/// Aggregate traffic statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetStats {
    /// Total messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub bytes: u64,
}

/// Errors from network operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The destination endpoint does not exist.
    UnknownEndpoint(String),
    /// The destination endpoint was closed (its owner is gone).
    Closed(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::UnknownEndpoint(name) => write!(f, "unknown endpoint {name:?}"),
            NetError::Closed(name) => write!(f, "endpoint {name:?} is closed"),
        }
    }
}

impl std::error::Error for NetError {}

/// Why a blocking receive returned without a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived before the timeout; the endpoint is still live.
    Timeout,
    /// The endpoint was closed and its queue is fully drained — no
    /// message will ever arrive again. The distinguishable "peer gone"
    /// signal that lets service loops exit instead of spinning.
    Closed,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Closed => write!(f, "endpoint closed"),
        }
    }
}

impl std::error::Error for RecvError {}

/// What a [`FaultPolicy`] decides about one send attempt.
///
/// Every variant keeps the *sender-visible* contract of the healthy
/// network except [`SendVerdict::CrashSender`]: drops and delays return
/// `Ok` to the sender (real networks lose frames silently), so protocol
/// code cannot accidentally compensate for injected faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendVerdict {
    /// Deliver normally (the default when no policy is installed).
    Deliver,
    /// Silently lose the message; the sender still sees `Ok`.
    Drop,
    /// Deliver two back-to-back copies of the message.
    Duplicate,
    /// Deliver this payload instead of the original (frame corruption).
    Replace(Vec<u8>),
    /// Hold the message back until whoever owns the clock releases it
    /// ([`Network::release_held`]): a frame in flight for a while. What
    /// is sent meanwhile overtakes it; nothing is lost unless its
    /// destination closes first.
    Hold,
    /// Close the *sender's* endpoint (peer crash): the message is lost
    /// and the send fails with [`NetError::Closed`] naming the sender.
    /// The crashed node keeps its ability to send (its outgoing half is
    /// not modelled), but its service loop will drain and observe
    /// [`RecvError::Closed`].
    CrashSender,
}

/// Rules on every send attempt. Installed via
/// [`Network::set_fault_policy`].
///
/// Called with the network lock held: implementations must be fast and
/// must not call back into the network (deadlock). Determinism is the
/// implementor's job — `deta_drills::sim` keys decisions on per-link send
/// counters so thread scheduling cannot change a verdict.
pub trait FaultPolicy: Send + Sync {
    /// Decides the fate of one message from `from` to `to`.
    fn on_send(&self, from: &str, to: &str, payload: &[u8]) -> SendVerdict;
}

/// Observes the network: one callback per actual delivery (enqueue into
/// the destination mailbox, or hand-over to its [`Forwarder`]) and one
/// per loss. Installed via [`Network::set_tap`].
///
/// Called with the network lock held — same constraints as
/// [`FaultPolicy`]. Delivery order as observed by the tap is exactly
/// mailbox enqueue order, which makes tap logs replayable evidence of
/// everything a node ever saw.
pub trait NetTap: Send + Sync {
    /// A payload was enqueued into `to`'s mailbox (or handed to its
    /// forwarder).
    fn on_deliver(&self, from: &str, to: &str, payload: &[u8]);
    /// A send attempt did not enqueue anything: fault drop, corruption
    /// (the original payload is reported lost), crash, or a held message
    /// whose destination closed before release.
    fn on_drop(&self, _from: &str, _to: &str, _payload: &[u8]) {}
}

/// Stands in for the mailbox of a name hosted elsewhere: a bridge to the
/// process that does host it. Installed via [`Network::forward`].
///
/// Called with the network lock held, in the order a mailbox would have
/// been filled — same constraints as [`FaultPolicy`] and [`NetTap`]:
/// fast, no IO, no call back into the network.
pub trait Forwarder: Send + Sync {
    /// `msg` is `to`'s: all of the delivery has happened (verdict, tap,
    /// stats, per-link bytes) but the enqueue. Whole — its trace context
    /// goes on with it: a relay adopts nothing, records no `net_recv`.
    fn forward(&self, to: &str, msg: Message);
    /// `name` was closed: told once, after everything forwarded to it.
    fn closed(&self, _name: &str) {}
}

/// One endpoint's queue plus its liveness flag.
#[derive(Default)]
struct Mailbox {
    queue: VecDeque<Message>,
    closed: bool,
    /// Set for a name hosted elsewhere: takes what `queue` would.
    forwarder: Option<Arc<dyn Forwarder>>,
}

impl Mailbox {
    /// Closes the mailbox; its forwarder hears of it the first time.
    fn close(&mut self, name: &str) {
        if !std::mem::replace(&mut self.closed, true) {
            if let Some(f) = &self.forwarder {
                f.closed(name);
            }
        }
    }
}

#[derive(Default)]
struct NetState {
    queues: HashMap<Arc<str>, Mailbox>,
    stats: NetStats,
    /// Delivered payload bytes per directed (from, to) link. Always on
    /// (it is what `ThreadedSession` bills round upload/download bytes
    /// from) and monotonic — unlike [`NetStats`] it is *not* cleared by
    /// [`Network::reset_stats`], so concurrent windows can be computed
    /// as deltas without racing a reset.
    link_bytes: BTreeMap<(Arc<str>, Arc<str>), u64>,
    policy: Option<Arc<dyn FaultPolicy>>,
    tap: Option<Arc<dyn NetTap>>,
    /// Messages held back by [`SendVerdict::Hold`], with their
    /// destinations.
    held: Vec<(String, Message)>,
}

impl NetState {
    /// A frame that reached no mailbox (fault drop, corrupted original,
    /// crash, dead destination): the tap's `on_drop`, a per-link counter
    /// and a `net_drop` event in the sending thread's flight recorder.
    /// Telemetry disabled, that part costs one branch + atomic load.
    fn lose(&self, from: &str, to: &str, payload: &[u8]) {
        if let Some(t) = &self.tap {
            t.on_drop(from, to, payload);
        }
        if !deta_obs::enabled() {
            return;
        }
        let link = format!("{from}->{to}");
        deta_obs::metrics::counter_add("deta_net_drops_total", &link, 1);
        deta_obs::event(
            "net_drop",
            &[
                ("link", deta_obs::TelemetryValue::from(link.as_str())),
                ("bytes", deta_obs::TelemetryValue::from(payload.len())),
            ],
        );
    }
}

/// The shared simulated network.
#[derive(Clone)]
pub struct Network {
    state: Arc<Mutex<NetState>>,
    arrivals: Arc<Condvar>,
}

impl Network {
    /// Creates a network. The link model is not read: transfer times are
    /// the latency model's ([`LinkModel::transfer_time`]), and the
    /// parameter stays for callers that pass one.
    pub fn new(_link: LinkModel) -> Network {
        Network {
            state: Arc::default(),
            arrivals: Arc::new(Condvar::new()),
        }
    }

    /// Registers a named endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered (endpoint names are
    /// protocol identities; accidental reuse is a bug).
    pub fn register(&self, name: &str) -> Endpoint {
        let name: Arc<str> = Arc::from(name);
        let mut st = lock(&self.state);
        let prev = st.queues.insert(Arc::clone(&name), Mailbox::default());
        assert!(prev.is_none(), "endpoint {name:?} already registered");
        Endpoint {
            name,
            network: self.clone(),
        }
    }

    /// Declares `name` hosted elsewhere (registering it if it is not):
    /// from now on every delivery to it is handed to `forwarder` instead
    /// of queued — same [`FaultPolicy`] verdict, [`NetTap::on_deliver`],
    /// [`NetStats`], [`Network::link_bytes`] and `deta_net_*` accounting,
    /// in exact send order — and [`Network::close`] tells the forwarder
    /// once. Anything already queued is handed over first.
    pub fn forward(&self, name: &str, forwarder: Arc<dyn Forwarder>) {
        let mut st = lock(&self.state);
        let mb = st.queues.entry(Arc::from(name)).or_default();
        for msg in mb.queue.drain(..) {
            forwarder.forward(name, msg);
        }
        mb.forwarder = Some(forwarder);
    }

    /// Every registered name, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.state)
            .queues
            .keys()
            .map(|name| name.to_string())
            .collect();
        names.sort();
        names
    }

    /// Closes an endpoint: queued messages stay receivable, but new sends
    /// fail with [`NetError::Closed`] and receivers that drain the queue
    /// get [`RecvError::Closed`] instead of blocking. Wakes every thread
    /// currently parked in a blocking receive. A forwarded name's
    /// [`Forwarder`] is told, the first time.
    ///
    /// Closing an unknown endpoint is a no-op; closing twice is idempotent.
    pub fn close(&self, name: &str) {
        let mut st = lock(&self.state);
        if let Some(mb) = st.queues.get_mut(name) {
            mb.close(name);
        }
        drop(st);
        deta_obs::metrics::counter_add("deta_net_closes_total", name, 1);
        self.arrivals.notify_all();
    }

    /// Whether `name` is registered and closed.
    pub fn is_closed(&self, name: &str) -> bool {
        lock(&self.state).queues.get(name).is_some_and(|m| m.closed)
    }

    /// Returns a snapshot of the traffic statistics.
    pub fn stats(&self) -> NetStats {
        lock(&self.state).stats.clone()
    }

    /// Snapshot of delivered payload bytes per directed link, keyed
    /// `(from, to)`. Monotonic since construction (never reset), so
    /// callers bill traffic windows as deltas between two snapshots —
    /// this is the exact ground truth the `NetTap` seam observes,
    /// without occupying the (single) tap slot.
    pub fn link_bytes(&self) -> BTreeMap<(String, String), u64> {
        lock(&self.state)
            .link_bytes
            .iter()
            .map(|((f, t), &b)| ((f.to_string(), t.to_string()), b))
            .collect()
    }

    /// Resets the traffic statistics (e.g. between training rounds).
    pub fn reset_stats(&self) {
        lock(&self.state).stats = NetStats::default();
    }

    /// Installs a fault policy ruling on every subsequent send. Replaces
    /// any previous policy; affects all clones of this network.
    pub fn set_fault_policy(&self, policy: Arc<dyn FaultPolicy>) {
        lock(&self.state).policy = Some(policy);
    }

    /// Installs a tap observing every delivery and loss. Replaces any
    /// previous tap; affects all clones of this network.
    pub fn set_tap(&self, tap: Arc<dyn NetTap>) {
        lock(&self.state).tap = Some(tap);
    }

    /// Sends `payload` to `to` attributed to the sender name `from`,
    /// without holding an [`Endpoint`] for `from`.
    ///
    /// This is the bridge seam for alternative transport backends: a
    /// process that receives a frame over an external medium (e.g. a TCP
    /// socket) re-emits it here so the [`FaultPolicy`], the [`NetTap`],
    /// the per-link byte counters, and the close semantics all observe
    /// the frame exactly as if `from` had sent it in-process. The
    /// attributed sender does not need to be a registered endpoint
    /// (interned names are reused when it is); the destination rules are
    /// identical to [`Endpoint::send`]. `trace` is the context the frame
    /// carried on its medium — the default for one sent untraced — and
    /// rides beside the payload as [`Message::trace`].
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownEndpoint`] / [`NetError::Closed`] exactly as
    /// for [`Endpoint::send`].
    pub fn send_as(
        &self,
        from: &str,
        to: &str,
        payload: Vec<u8>,
        trace: TraceCtx,
    ) -> Result<(), NetError> {
        let from: Arc<str> = {
            let st = lock(&self.state);
            match st.queues.get_key_value(from) {
                Some((name, _)) => Arc::clone(name),
                None => Arc::from(from),
            }
        };
        let msg = Message {
            from,
            payload,
            trace,
        };
        self.send(to, msg)
    }

    /// Releases every held message, in the order they were held, as
    /// deliveries (a destination closed meanwhile loses it). Whoever owns
    /// the session's clock calls this when the frames were in flight long
    /// enough; returns whether anything was held.
    pub fn release_held(&self) -> bool {
        let mut st = lock(&self.state);
        let held = std::mem::take(&mut st.held);
        let released = !held.is_empty();
        for (to, msg) in held {
            self.deliver_locked(&mut st, &to, msg);
        }
        drop(st);
        if released {
            self.arrivals.notify_all();
        }
        released
    }

    /// Delivers `msg` into `to`'s mailbox — or to its forwarder — with
    /// stats, tap and per-link bytes.
    fn deliver_locked(&self, st: &mut NetState, to: &str, msg: Message) {
        let (from, len) = (Arc::clone(&msg.from), msg.payload.len());
        let Some(mb) = st.queues.get_mut(to).filter(|mb| !mb.closed) else {
            // A held message can outlive its destination.
            st.lose(&from, to, &msg.payload);
            return;
        };
        if let Some(t) = &st.tap {
            t.on_deliver(&from, to, &msg.payload);
        }
        let mut depth = 0usize;
        match &mb.forwarder {
            Some(f) => f.forward(to, msg),
            None => {
                mb.queue.push_back(msg);
                depth = mb.queue.len();
            }
        }
        st.stats.messages += 1;
        st.stats.bytes += len as u64;
        // Per-link ground truth for byte accounting; keys reuse the
        // interned endpoint names, so steady state allocates nothing.
        if let Some((to_key, _)) = st.queues.get_key_value(to) {
            let link = (Arc::clone(&from), Arc::clone(to_key));
            *st.link_bytes.entry(link).or_insert(0) += len as u64;
        }
        // Gated observability at the same choke point the tap sees
        // (the metrics registry takes no other lock, so observing
        // under the network lock cannot deadlock).
        if deta_obs::enabled() {
            let link = format!("{from}->{to}");
            deta_obs::metrics::counter_add("deta_net_frames_total", &link, 1);
            deta_obs::metrics::counter_add("deta_net_bytes_total", &link, len as u64);
            deta_obs::metrics::histogram_observe("deta_net_queue_depth", to, depth as f64);
        }
    }

    fn send(&self, to: &str, msg: Message) -> Result<(), NetError> {
        let mut st = lock(&self.state);
        // Destination errors come before fault verdicts so close/unknown
        // semantics are identical with and without a policy installed.
        match st.queues.get(to) {
            None => return Err(NetError::UnknownEndpoint(to.to_string())),
            Some(mb) if mb.closed => return Err(NetError::Closed(to.to_string())),
            Some(_) => {}
        }
        let verdict = match &st.policy {
            Some(p) => p.on_send(&msg.from, to, &msg.payload),
            None => SendVerdict::Deliver,
        };
        let result = match verdict {
            SendVerdict::Deliver => {
                self.deliver_locked(&mut st, to, msg);
                Ok(())
            }
            SendVerdict::Drop => {
                st.lose(&msg.from, to, &msg.payload);
                Ok(())
            }
            SendVerdict::Duplicate => {
                self.deliver_locked(&mut st, to, msg.clone());
                self.deliver_locked(&mut st, to, msg);
                Ok(())
            }
            SendVerdict::Replace(payload) => {
                st.lose(&msg.from, to, &msg.payload);
                self.deliver_locked(&mut st, to, Message { payload, ..msg });
                Ok(())
            }
            SendVerdict::Hold => {
                st.held.push((to.to_string(), msg));
                Ok(())
            }
            SendVerdict::CrashSender => {
                st.lose(&msg.from, to, &msg.payload);
                if let Some(mb) = st.queues.get_mut(&msg.from) {
                    mb.close(&msg.from);
                }
                Err(NetError::Closed(msg.from.to_string()))
            }
        };
        drop(st);
        self.arrivals.notify_all();
        result
    }

    fn recv(&self, name: &str) -> Option<Message> {
        lock(&self.state).queues.get_mut(name)?.queue.pop_front()
    }

    fn recv_timeout(&self, name: &str, timeout: Duration) -> Result<Message, RecvError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = lock(&self.state);
        loop {
            let Some(mb) = st.queues.get_mut(name) else {
                return Err(RecvError::Closed);
            };
            if let Some(msg) = mb.queue.pop_front() {
                return Ok(msg);
            }
            if mb.closed {
                // Queue drained and no sender can ever refill it.
                return Err(RecvError::Closed);
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(RecvError::Timeout);
            }
            st = (self.arrivals.wait_timeout(st, remaining))
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }
}

/// One end of a causal edge: `name` (`net_send` or `net_recv`) with the
/// message's id and size. Ids and sizes only — no peer-name string field:
/// this runs per message, and the other end's node attribution already
/// names the peer in the merged trace.
fn edge(name: &'static str, trace: TraceCtx, payload: &[u8]) {
    use deta_obs::TelemetryValue;
    let id = TelemetryValue::U64(trace.parent);
    deta_obs::event(name, &[("msg_id", id), ("bytes", payload.len().into())]);
}

/// A named participant on the network.
#[derive(Clone)]
pub struct Endpoint {
    name: Arc<str>,
    network: Network,
}

impl Endpoint {
    /// This endpoint's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sends `payload` to the endpoint named `to`.
    ///
    /// While the telemetry sink is enabled the message carries the
    /// sending thread's trace id and a fresh message id beside the
    /// payload ([`Message::trace`]), and a `net_send` edge event lands in
    /// the sender's flight recorder. The payload is the same bytes either
    /// way.
    pub fn send(&self, to: &str, payload: impl Into<Vec<u8>>) -> Result<(), NetError> {
        let payload = payload.into();
        let mut trace = TraceCtx::default();
        if deta_obs::enabled() {
            trace.trace_id = deta_obs::trace::current().trace_id;
            trace.parent = deta_obs::trace::next_msg_id();
            edge("net_send", trace, &payload);
        }
        let from = Arc::clone(&self.name);
        self.network.send(
            to,
            Message {
                from,
                payload,
                trace,
            },
        )
    }

    /// Receives the next queued message, if any.
    pub fn recv(&self) -> Option<Message> {
        self.network.recv(&self.name).map(Endpoint::arrive)
    }

    /// Blocks (up to `timeout`) for the next message — the primitive that
    /// lets aggregator threads sleep instead of spinning. Returns
    /// [`RecvError::Closed`] once the endpoint is closed and drained, so
    /// service loops can distinguish "quiet" from "gone".
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvError> {
        self.network
            .recv_timeout(&self.name, timeout)
            .map(Endpoint::arrive)
    }

    /// Adopts an arrived message's trace context, if it was sent traced:
    /// the receiving thread takes it on (so spans emitted while handling
    /// the message parent to it) and a `net_recv` edge event lands in the
    /// receiver's flight recorder. The payload is never touched.
    fn arrive(msg: Message) -> Message {
        if msg.trace != TraceCtx::default() {
            deta_obs::trace::set_current(msg.trace);
            edge("net_recv", msg.trace, &msg.payload);
        }
        msg
    }

    /// Closes this endpoint (see [`Network::close`]).
    pub fn close(&self) {
        self.network.close(&self.name);
    }

    /// Whether this endpoint has been closed.
    pub fn is_closed(&self) -> bool {
        self.network.is_closed(&self.name)
    }

    /// Drains all currently queued messages.
    pub fn drain(&self) -> Vec<Message> {
        let mut out = Vec::new();
        while let Some(m) = self.recv() {
            out.push(m);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_receive() {
        let net = Network::new(LinkModel::lan());
        let a = net.register("a");
        let b = net.register("b");
        a.send("b", &b"hello"[..]).unwrap();
        let m = b.recv().unwrap();
        assert_eq!(&*m.from, "a");
        assert_eq!(&m.payload[..], b"hello");
        assert!(b.recv().is_none());
    }

    #[test]
    fn fifo_ordering() {
        let net = Network::new(LinkModel::lan());
        let a = net.register("a");
        let b = net.register("b");
        for i in 0u8..5 {
            a.send("b", vec![i]).unwrap();
        }
        for i in 0u8..5 {
            assert_eq!(&b.recv().unwrap().payload[..], &[i]);
        }
    }

    #[test]
    fn unknown_endpoint_errors() {
        let net = Network::new(LinkModel::lan());
        let a = net.register("a");
        assert_eq!(
            a.send("ghost", &b"x"[..]),
            Err(NetError::UnknownEndpoint("ghost".to_string()))
        );
    }

    #[test]
    #[should_panic]
    fn duplicate_registration_panics() {
        let net = Network::new(LinkModel::lan());
        let _a = net.register("a");
        let _a2 = net.register("a");
    }

    #[test]
    fn stats_accumulate() {
        let net = Network::new(LinkModel {
            base_s: 1.0,
            bytes_per_s: 10.0,
        });
        let a = net.register("a");
        let _b = net.register("b");
        a.send("b", vec![0u8; 20]).unwrap();
        a.send("b", vec![0u8; 10]).unwrap();
        let st = net.stats();
        assert_eq!(st.messages, 2);
        assert_eq!(st.bytes, 30);
        net.reset_stats();
        assert_eq!(net.stats(), NetStats::default());
    }

    #[test]
    fn link_bytes_track_deliveries_per_directed_link() {
        let net = Network::new(LinkModel::lan());
        let a = net.register("a");
        let b = net.register("b");
        a.send("b", vec![0u8; 7]).unwrap();
        a.send("b", vec![0u8; 5]).unwrap();
        b.send("a", vec![0u8; 3]).unwrap();
        let lb = net.link_bytes();
        assert_eq!(lb.get(&("a".to_string(), "b".to_string())), Some(&12));
        assert_eq!(lb.get(&("b".to_string(), "a".to_string())), Some(&3));
        // Monotonic: reset_stats clears NetStats but not the link map,
        // so in-flight accounting windows survive a reset.
        net.reset_stats();
        assert_eq!(
            net.link_bytes().get(&("a".to_string(), "b".to_string())),
            Some(&12)
        );
    }

    #[test]
    fn link_bytes_exclude_lost_frames() {
        struct DropAll;
        impl FaultPolicy for DropAll {
            fn on_send(&self, _f: &str, _t: &str, _p: &[u8]) -> SendVerdict {
                SendVerdict::Drop
            }
        }
        let net = Network::new(LinkModel::lan());
        let a = net.register("a");
        let _b = net.register("b");
        net.set_fault_policy(Arc::new(DropAll));
        a.send("b", vec![0u8; 9]).unwrap();
        assert!(net.link_bytes().is_empty());
    }

    #[test]
    fn transfer_time_model() {
        let lan = LinkModel::lan();
        // 125 MB at 1 Gbit/s is 1 second plus base.
        assert!((lan.transfer_time(125_000_000) - 1.001).abs() < 1e-6);
        let wan = LinkModel::wan();
        assert!(wan.transfer_time(1000) > lan.transfer_time(1000));
    }

    #[test]
    fn a_payload_arrives_byte_for_byte_whatever_its_first_byte() {
        // Telemetry is off in this binary: nothing rides beside these.
        let net = Network::new(LinkModel::lan());
        let a = net.register("a");
        let b = net.register("b");
        for first in [0x00, 0x01, 0xF7, 0xFF] {
            for len in [1, 24, 25, 41, 100] {
                let payload: Vec<u8> = std::iter::once(first)
                    .chain((1..len).map(|i| i as u8))
                    .collect();
                a.send("b", payload.clone()).unwrap();
                let got = b.recv().unwrap();
                assert_eq!(got.payload, payload, "{len} bytes led by {first:#04x}");
                assert_eq!(got.trace, TraceCtx::default());
            }
        }
    }

    #[test]
    fn drain_empties_queue() {
        let net = Network::new(LinkModel::lan());
        let a = net.register("a");
        let b = net.register("b");
        a.send("b", &b"1"[..]).unwrap();
        a.send("b", &b"2"[..]).unwrap();
        assert_eq!(b.drain().len(), 2);
        assert!(b.recv().is_none());
    }

    #[test]
    fn recv_timeout_times_out_when_quiet() {
        let net = Network::new(LinkModel::lan());
        let a = net.register("a");
        let t0 = std::time::Instant::now();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(30)),
            Err(RecvError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn recv_timeout_wakes_on_arrival() {
        let net = Network::new(LinkModel::lan());
        let a = net.register("a");
        let b = net.register("b");
        let _ = b; // registered so sends resolve
        let net2 = net.clone();
        let handle = std::thread::spawn(move || {
            let sender = net2.register("sender");
            std::thread::sleep(Duration::from_millis(20));
            sender.send("a", &b"wake"[..]).unwrap();
        });
        let msg = a
            .recv_timeout(Duration::from_secs(2))
            .expect("woken by arrival");
        assert_eq!(&msg.payload[..], b"wake");
        handle.join().unwrap();
    }

    #[test]
    fn network_is_cloneable_and_shared() {
        let net = Network::new(LinkModel::lan());
        let a = net.register("a");
        let net2 = net.clone();
        let b = net2.register("b");
        a.send("b", &b"via clone"[..]).unwrap();
        assert!(b.recv().is_some());
    }

    #[test]
    fn sender_name_is_shared_not_cloned() {
        let net = Network::new(LinkModel::lan());
        let a = net.register("a");
        let b = net.register("b");
        let c = net.register("c");
        a.send("b", &b"x"[..]).unwrap();
        a.send("c", &b"x"[..]).unwrap();
        let mb = b.recv().unwrap();
        let mc = c.recv().unwrap();
        // Both recipients see the very same interned sender name.
        assert!(Arc::ptr_eq(&mb.from, &mc.from));
    }

    #[test]
    fn close_rejects_new_sends_but_delivers_queued() {
        let net = Network::new(LinkModel::lan());
        let a = net.register("a");
        let b = net.register("b");
        a.send("b", &b"before"[..]).unwrap();
        net.close("b");
        assert_eq!(
            a.send("b", &b"after"[..]),
            Err(NetError::Closed("b".to_string()))
        );
        // The pre-close message is still delivered...
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(1)).unwrap().payload[..],
            b"before"
        );
        // ...then the closure is surfaced, immediately (no timeout wait).
        let t0 = std::time::Instant::now();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)),
            Err(RecvError::Closed)
        );
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert!(b.is_closed());
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        let net = Network::new(LinkModel::lan());
        let a = net.register("a");
        let net2 = net.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            net2.close("a");
        });
        let t0 = std::time::Instant::now();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(10)),
            Err(RecvError::Closed)
        );
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "woken by close, not timeout"
        );
        handle.join().unwrap();
    }

    #[test]
    fn close_is_idempotent_and_unknown_close_is_noop() {
        let net = Network::new(LinkModel::lan());
        let _a = net.register("a");
        net.close("a");
        net.close("a");
        net.close("ghost");
        assert!(net.is_closed("a"));
        assert!(!net.is_closed("ghost"));
    }

    /// A policy scripted per send attempt (global counter).
    struct Script(Mutex<Vec<SendVerdict>>);

    impl FaultPolicy for Script {
        fn on_send(&self, _from: &str, _to: &str, _payload: &[u8]) -> SendVerdict {
            let mut s = lock(&self.0);
            if s.is_empty() {
                SendVerdict::Deliver
            } else {
                s.remove(0)
            }
        }
    }

    /// A tap counting deliveries and drops, recording delivered payloads.
    #[derive(Default)]
    struct Counter {
        delivered: Mutex<Vec<(String, String, Vec<u8>)>>,
        dropped: Mutex<Vec<(String, String, Vec<u8>)>>,
    }

    impl NetTap for Counter {
        fn on_deliver(&self, from: &str, to: &str, payload: &[u8]) {
            lock(&self.delivered).push((from.into(), to.into(), payload.to_vec()));
        }
        fn on_drop(&self, from: &str, to: &str, payload: &[u8]) {
            lock(&self.dropped).push((from.into(), to.into(), payload.to_vec()));
        }
    }

    fn fault_net(script: Vec<SendVerdict>) -> (Network, Arc<Counter>) {
        let net = Network::new(LinkModel::lan());
        let tap = Arc::new(Counter::default());
        net.set_fault_policy(Arc::new(Script(Mutex::new(script))));
        net.set_tap(Arc::clone(&tap) as Arc<dyn NetTap>);
        (net, tap)
    }

    #[test]
    fn fault_drop_is_silent_and_tapped() {
        let (net, tap) = fault_net(vec![SendVerdict::Drop]);
        let a = net.register("a");
        let b = net.register("b");
        a.send("b", &b"lost"[..]).unwrap();
        a.send("b", &b"kept"[..]).unwrap();
        assert_eq!(&b.recv().unwrap().payload[..], b"kept");
        assert!(b.recv().is_none());
        assert_eq!(lock(&tap.dropped).len(), 1);
        assert_eq!(lock(&tap.delivered).len(), 1);
        // Dropped messages do not count as traffic.
        assert_eq!(net.stats().messages, 1);
    }

    #[test]
    fn fault_duplicate_delivers_two_copies() {
        let (net, tap) = fault_net(vec![SendVerdict::Duplicate]);
        let a = net.register("a");
        let b = net.register("b");
        a.send("b", &b"x"[..]).unwrap();
        assert_eq!(&b.recv().unwrap().payload[..], b"x");
        assert_eq!(&b.recv().unwrap().payload[..], b"x");
        assert!(b.recv().is_none());
        assert_eq!(lock(&tap.delivered).len(), 2);
        assert_eq!(net.stats().messages, 2);
    }

    #[test]
    fn fault_replace_corrupts_frame() {
        let (net, tap) = fault_net(vec![SendVerdict::Replace(b"bad".to_vec())]);
        let a = net.register("a");
        let b = net.register("b");
        a.send("b", &b"good"[..]).unwrap();
        assert_eq!(&b.recv().unwrap().payload[..], b"bad");
        // Original reported lost, replacement reported delivered.
        assert_eq!(lock(&tap.dropped)[0].2, b"good".to_vec());
        assert_eq!(lock(&tap.delivered)[0].2, b"bad".to_vec());
    }

    fn payloads(messages: Vec<Message>) -> Vec<Vec<u8>> {
        messages.into_iter().map(|m| m.payload).collect()
    }

    #[test]
    fn fault_delay_reorders_within_link() {
        let (net, _tap) = fault_net(vec![SendVerdict::Hold]);
        let a = net.register("a");
        let b = net.register("b");
        a.send("b", &b"1"[..]).unwrap(); // held until the clock releases it
        a.send("b", &b"2"[..]).unwrap();
        a.send("b", &b"3"[..]).unwrap();
        assert!(net.release_held());
        a.send("b", &b"4"[..]).unwrap();
        assert_eq!(
            payloads(b.drain()),
            vec![b"2".to_vec(), b"3".to_vec(), b"1".to_vec(), b"4".to_vec()]
        );
    }

    #[test]
    fn fault_hold_on_a_quiet_link_is_delivered_on_release() {
        let (net, tap) = fault_net(vec![SendVerdict::Hold]);
        let a = net.register("a");
        let b = net.register("b");
        a.send("b", &b"held"[..]).unwrap();
        a.send("b", &b"only"[..]).unwrap();
        // The link never sends again; the frame is late, not lost.
        assert_eq!(payloads(b.drain()), vec![b"only".to_vec()]);
        assert!(net.release_held());
        assert_eq!(payloads(b.drain()), vec![b"held".to_vec()]);
        assert_eq!(lock(&tap.delivered).len(), 2);
        assert!(lock(&tap.dropped).is_empty());
        assert!(!net.release_held(), "nothing is held twice");
    }

    #[test]
    fn fault_hold_ignores_same_link_deliveries() {
        let (net, _tap) = fault_net(vec![SendVerdict::Hold]);
        let a = net.register("a");
        let b = net.register("b");
        a.send("b", &b"held"[..]).unwrap();
        // Later frames on the held frame's own link overtake it.
        a.send("b", &b"same"[..]).unwrap();
        a.send("b", &b"again"[..]).unwrap();
        assert_eq!(
            payloads(b.drain()),
            vec![b"same".to_vec(), b"again".to_vec()]
        );
        assert!(net.release_held());
        assert_eq!(payloads(b.drain()), vec![b"held".to_vec()]);
    }

    #[test]
    fn fault_hold_ignores_unrelated_traffic() {
        let (net, _tap) = fault_net(vec![SendVerdict::Hold]);
        let a = net.register("a");
        let c = net.register("c");
        let b = net.register("b");
        a.send("b", &b"held"[..]).unwrap();
        // Deliveries on another link release nothing either.
        c.send("b", &b"other"[..]).unwrap();
        assert_eq!(payloads(b.drain()), vec![b"other".to_vec()]);
        assert!(net.release_held());
        assert_eq!(payloads(b.drain()), vec![b"held".to_vec()]);
    }

    #[test]
    fn fault_hold_preserves_link_fifo_among_held() {
        let (net, _tap) = fault_net(vec![SendVerdict::Hold, SendVerdict::Hold]);
        let a = net.register("a");
        let c = net.register("c");
        let b = net.register("b");
        a.send("b", &b"1"[..]).unwrap();
        a.send("b", &b"2"[..]).unwrap();
        c.send("b", &b"x"[..]).unwrap();
        c.send("b", &b"y"[..]).unwrap();
        // One release lets the whole buffer out in the order it was held.
        net.release_held();
        let order = payloads(b.drain());
        assert_eq!(
            order,
            vec![b"x".to_vec(), b"y".to_vec(), b"1".to_vec(), b"2".to_vec()]
        );
    }

    #[test]
    fn fault_crash_closes_sender_and_loses_message() {
        let (net, tap) = fault_net(vec![SendVerdict::CrashSender]);
        let a = net.register("a");
        let b = net.register("b");
        assert_eq!(
            a.send("b", &b"dying"[..]),
            Err(NetError::Closed("a".to_string()))
        );
        assert!(a.is_closed());
        assert!(b.recv().is_none());
        assert_eq!(lock(&tap.dropped).len(), 1);
        // The crashed node still drains to Closed, like any closed endpoint.
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)),
            Err(RecvError::Closed)
        );
    }

    #[test]
    fn tap_sees_sender_and_destination() {
        let (net, tap) = fault_net(vec![]);
        let a = net.register("a");
        let _b = net.register("b");
        a.send("b", &b"x"[..]).unwrap();
        let d = lock(&tap.delivered);
        assert_eq!(d[0].0, "a");
        assert_eq!(d[0].1, "b");
    }

    #[test]
    fn send_as_attributes_sender_and_bills_link() {
        let net = Network::new(LinkModel::lan());
        let b = net.register("b");
        // "remote" is not a registered endpoint — a bridged sender.
        net.send_as("remote", "b", b"x".to_vec(), TraceCtx::default())
            .unwrap();
        let m = b.recv().unwrap();
        assert_eq!(&*m.from, "remote");
        // Registered senders reuse the interned name.
        let a = net.register("a");
        net.send_as("a", "b", vec![0u8; 4], TraceCtx::default())
            .unwrap();
        let m = b.recv().unwrap();
        let direct = {
            a.send("b", &b"y"[..]).unwrap();
            b.recv().unwrap()
        };
        assert!(Arc::ptr_eq(&m.from, &direct.from));
        assert_eq!(
            net.link_bytes().get(&("a".to_string(), "b".to_string())),
            Some(&5)
        );
    }

    #[test]
    fn send_as_observed_by_policy_and_tap() {
        let (net, tap) = fault_net(vec![SendVerdict::Drop]);
        let _b = net.register("b");
        let untraced = TraceCtx::default();
        net.send_as("remote", "b", b"lost".to_vec(), untraced)
            .unwrap();
        net.send_as("remote", "b", b"kept".to_vec(), untraced)
            .unwrap();
        assert_eq!(lock(&tap.dropped).len(), 1);
        assert_eq!(lock(&tap.delivered).len(), 1);
        assert_eq!(lock(&tap.delivered)[0].0, "remote");
    }

    #[test]
    fn send_as_honors_close_and_unknown() {
        let net = Network::new(LinkModel::lan());
        let _b = net.register("b");
        net.close("b");
        let untraced = TraceCtx::default();
        assert_eq!(
            net.send_as("remote", "b", b"x".to_vec(), untraced),
            Err(NetError::Closed("b".to_string()))
        );
        assert_eq!(
            net.send_as("remote", "ghost", b"x".to_vec(), untraced),
            Err(NetError::UnknownEndpoint("ghost".to_string()))
        );
    }

    #[test]
    fn the_trace_context_rides_beside_the_payload_through_every_verdict() {
        let (net, tap) = fault_net(vec![
            SendVerdict::Duplicate,
            SendVerdict::Replace(b"bad".to_vec()),
            SendVerdict::Hold,
        ]);
        let relay = Arc::new(Relay::default());
        let b = net.register("b");
        net.forward("far", Arc::clone(&relay) as Arc<dyn Forwarder>);
        let trace = TraceCtx {
            trace_id: 3,
            parent: 42,
        };
        for (to, payload) in [("b", "twice"), ("b", "good"), ("far", "late")] {
            net.send_as("remote", to, payload.into(), trace).unwrap();
        }
        net.release_held();
        let arrived: Vec<(Vec<u8>, TraceCtx)> = b
            .drain()
            .into_iter()
            .map(|m| (m.payload, m.trace))
            .collect();
        let want = [&b"twice"[..], b"twice", b"bad"].map(|p| (p.to_vec(), trace));
        assert_eq!(arrived, want);
        assert_eq!(*lock(&relay.traces), [trace]);
        // What the policy, the tap and the byte counters saw is the
        // payload alone.
        assert_eq!(relay.payloads(), [b"late".to_vec()]);
        assert_eq!(lock(&tap.dropped)[0].2, b"good".to_vec());
        let total: u64 = net.link_bytes().values().sum();
        assert_eq!(total, (5 + 5 + 3 + 4) as u64);
    }

    /// A forwarder that keeps what it is handed, and what it is told.
    #[derive(Default)]
    struct Relay {
        forwarded: Mutex<Vec<(String, String, Vec<u8>)>>,
        traces: Mutex<Vec<TraceCtx>>,
        closed: Mutex<Vec<String>>,
    }

    impl Forwarder for Relay {
        fn forward(&self, to: &str, msg: Message) {
            lock(&self.traces).push(msg.trace);
            lock(&self.forwarded).push((msg.from.to_string(), to.into(), msg.payload));
        }
        fn closed(&self, name: &str) {
            lock(&self.closed).push(name.into());
        }
    }

    impl Relay {
        fn payloads(&self) -> Vec<Vec<u8>> {
            lock(&self.forwarded)
                .iter()
                .map(|(_, _, p)| p.clone())
                .collect()
        }
    }

    #[test]
    fn a_forwarded_delivery_is_accounted_like_a_queued_one() {
        // The same traffic over two networks: `b` a mailbox on one, a
        // forwarded name on the other.
        let run = |relay: Option<Arc<Relay>>| {
            let (net, tap) = fault_net(vec![]);
            let a = net.register("a");
            let b = net.register("b");
            let c = net.register("c");
            if let Some(relay) = relay {
                net.forward("b", relay);
            }
            a.send("b", vec![1u8; 7]).unwrap();
            a.send("c", vec![2u8; 3]).unwrap();
            net.send_as("remote", "b", vec![3u8; 5], TraceCtx::default())
                .unwrap();
            c.send("b", vec![4u8; 2]).unwrap();
            let delivered = lock(&tap.delivered).clone();
            (net.stats(), net.link_bytes(), delivered, b.drain())
        };
        let relay = Arc::new(Relay::default());
        let queued = run(None);
        let forwarded = run(Some(Arc::clone(&relay)));
        assert_eq!(queued.0, forwarded.0, "NetStats");
        assert_eq!(queued.1, forwarded.1, "link_bytes");
        assert_eq!(queued.2, forwarded.2, "tap order");
        // What the mailbox held on one is what the forwarder was handed on
        // the other, in the same order — and the mailbox there is empty.
        let mailbox: Vec<(String, Vec<u8>)> = (queued.3.into_iter())
            .map(|m| (m.from.to_string(), m.payload))
            .collect();
        let handed: Vec<(String, Vec<u8>)> = lock(&relay.forwarded)
            .iter()
            .map(|(from, to, p)| {
                assert_eq!(to, "b");
                (from.clone(), p.clone())
            })
            .collect();
        assert_eq!(mailbox, handed);
        assert!(forwarded.3.is_empty());
    }

    #[test]
    fn verdicts_reach_a_forwarder_like_a_mailbox() {
        let (net, tap) = fault_net(vec![
            SendVerdict::Duplicate,
            SendVerdict::Replace(b"bad".to_vec()),
            SendVerdict::Drop,
            SendVerdict::Hold,
            SendVerdict::Deliver,
            SendVerdict::Hold,
        ]);
        let relay = Arc::new(Relay::default());
        let a = net.register("a");
        let c = net.register("c");
        let _other = net.register("other");
        // An unknown name is registered by being forwarded.
        net.forward("b", Arc::clone(&relay) as Arc<dyn Forwarder>);
        assert!(net.names().contains(&"b".to_string()));
        a.send("b", &b"twice"[..]).unwrap();
        a.send("b", &b"good"[..]).unwrap();
        a.send("b", &b"lost"[..]).unwrap();
        a.send("b", &b"late"[..]).unwrap(); // held
        a.send("b", &b"1"[..]).unwrap();
        a.send("b", &b"held"[..]).unwrap(); // held
        c.send("other", &b"elsewhere"[..]).unwrap();
        a.send("b", &b"2"[..]).unwrap();
        net.release_held();
        let want: Vec<Vec<u8>> = [
            &b"twice"[..],
            b"twice",
            b"bad",
            b"1",
            b"2",
            b"late",
            b"held",
        ]
        .iter()
        .map(|p| p.to_vec())
        .collect();
        assert_eq!(relay.payloads(), want);
        let dropped: Vec<Vec<u8>> = lock(&tap.dropped).iter().map(|d| d.2.clone()).collect();
        assert_eq!(dropped, vec![b"good".to_vec(), b"lost".to_vec()]);
        assert_eq!(net.stats().messages, 8);
    }

    #[test]
    fn close_tells_a_forwarder_once_and_later_frames_are_losses() {
        let (net, tap) = fault_net(vec![SendVerdict::Hold]);
        let relay = Arc::new(Relay::default());
        let a = net.register("a");
        let c = net.register("c");
        net.forward("b", Arc::clone(&relay) as Arc<dyn Forwarder>);
        a.send("b", &b"held"[..]).unwrap();
        net.close("b");
        net.close("b");
        assert_eq!(*lock(&relay.closed), ["b"]);
        assert_eq!(
            a.send("b", &b"after"[..]),
            Err(NetError::Closed("b".to_string()))
        );
        // Released after its destination closed: lost, not forwarded.
        a.send("c", &b"other"[..]).unwrap();
        assert!(net.release_held());
        assert_eq!(c.drain().len(), 1);
        assert!(relay.payloads().is_empty());
        assert_eq!(lock(&tap.dropped)[0].2, b"held".to_vec());
        // A mailbox of its own has no one to tell.
        net.close("c");
        assert_eq!(*lock(&relay.closed), ["b"]);
    }

    #[test]
    fn a_crashed_forwarded_sender_is_a_closure_and_a_late_forwarder_inherits_the_queue() {
        let (net, _tap) = fault_net(vec![SendVerdict::Deliver, SendVerdict::CrashSender]);
        let relay = Arc::new(Relay::default());
        let a = net.register("a");
        let b = net.register("b");
        a.send("b", &b"queued"[..]).unwrap();
        net.forward("b", Arc::clone(&relay) as Arc<dyn Forwarder>);
        assert_eq!(relay.payloads(), vec![b"queued".to_vec()]);
        assert!(b.recv().is_none());
        // `b` lives elsewhere and its frames come in through `send_as`.
        assert_eq!(
            net.send_as("b", "a", b"dying".to_vec(), TraceCtx::default()),
            Err(NetError::Closed("b".to_string()))
        );
        assert_eq!(*lock(&relay.closed), ["b"]);
    }

    #[test]
    fn policy_rules_after_closed_check() {
        // Sends to a closed endpoint fail before the policy sees them.
        let (net, tap) = fault_net(vec![SendVerdict::Duplicate]);
        let a = net.register("a");
        let _b = net.register("b");
        net.close("b");
        assert_eq!(
            a.send("b", &b"x"[..]),
            Err(NetError::Closed("b".to_string()))
        );
        assert_eq!(lock(&tap.delivered).len(), 0);
    }
}
