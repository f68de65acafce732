//! [`ThreadedSession`]: the threaded deployment with the sequential
//! session's surface — `setup` → `run` → `Vec<RoundMetrics>`. It feeds
//! the [`Supervisor`] step on the wall clock and carries out its
//! directives on threads: node threads spawned (or nodes adopted from a
//! bridge), retired and reaped, flight recorders, and shutdown.

use crate::actor::{self, ActorContext};
use crate::{CtlMsg, Node, RuntimeConfig, RuntimeError, SUPERVISOR};
use deta_core::party::Party;
use deta_core::session::{CoordinatorParts, DetaConfig, RoundMetrics, SessionParts, SetupError};
use deta_core::supervise::{Directive, Event, SessionView, Supervisor};
use deta_crypto::{DetRng, VerifyingKey};
use deta_nn::train::LabeledData;
use deta_nn::Sequential;
use deta_obs::{ParsedTrace, Recorders, TelemetryValue};
use deta_transport::{Endpoint, Network, RecvError};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A DeTA session deployed as concurrent, supervised node threads.
pub struct ThreadedSession {
    supervisor: Supervisor,
    network: Network,
    /// A replica of the party model, evaluated on each round's reported
    /// parameters.
    eval_model: Sequential,
    /// The wall clock the supervisor reads, from the session's start.
    clock: Instant,
    /// The supervisor's mailbox.
    ctl: Endpoint,
    rt: RuntimeConfig,
    stop: Arc<AtomicBool>,
    /// Each node thread, with its halt flag (see [`ActorContext::halt`]):
    /// lets a failover retire exactly one node.
    threads: HashMap<String, (Arc<AtomicBool>, JoinHandle<Node>)>,
    /// Nodes hosted outside this process, behind a transport bridge: no
    /// join handle, so never reaped (a dead remote peer surfaces as a
    /// closed mailbox or a phase timeout), but shutdown and retirement
    /// still send them `Shutdown` and close their mailboxes, which the
    /// bridge propagates to the remote process.
    remote: HashSet<String>,
    /// Final states of the nodes retired, reaped or joined at shutdown.
    recovered: HashMap<String, Node>,
    /// Every node's flight recorder, after the supervisor's own.
    recorders: Recorders,
}

impl ThreadedSession {
    /// Bootstraps the threaded deployment: builds every node
    /// deterministically (`SessionParts::build`), spawns one thread per
    /// node, and waits (bounded by `rt.setup_deadline`) for every node to
    /// report `Ready` — aggregators once their service loop is up,
    /// parties once Phase II (attested channels + registration) is done.
    ///
    /// # Errors
    ///
    /// Structured: attestation/config problems as
    /// [`RuntimeError::Setup`], a node that cannot authenticate as
    /// [`RuntimeError::NodeFailed`], a wedged bootstrap as
    /// [`RuntimeError::Timeout`]. On any error all spawned threads are
    /// joined before returning.
    pub fn setup(
        config: DetaConfig,
        model_builder: &dyn Fn(&mut DetRng) -> Sequential,
        party_data: Vec<LabeledData>,
        rt: RuntimeConfig,
    ) -> Result<ThreadedSession, RuntimeError> {
        Self::setup_with(config, model_builder, party_data, rt, |_| {})
    }

    /// [`ThreadedSession::setup`] with a hook that runs after node
    /// construction and before any thread spawns. Test harnesses use it
    /// to instrument the deployment — install a fault policy or tap on
    /// `parts.network`, flip `Party::record_updates`, plant a
    /// misrouting — without the runtime growing bespoke knobs for each.
    ///
    /// # Errors
    ///
    /// Same contract as [`ThreadedSession::setup`].
    pub fn setup_with(
        config: DetaConfig,
        model_builder: &dyn Fn(&mut DetRng) -> Sequential,
        party_data: Vec<LabeledData>,
        rt: RuntimeConfig,
        instrument: impl FnOnce(&mut SessionParts),
    ) -> Result<ThreadedSession, RuntimeError> {
        let failover = rt.failover;
        let build = || {
            let mut parts = SessionParts::build(config, model_builder, party_data)?;
            instrument(&mut parts);
            let (coordinator, parties, aggregators) = parts.split(failover);
            Ok((coordinator, (parties, aggregators)))
        };
        let place = |session: &mut ThreadedSession, (parties, aggregators): (Vec<Party>, _)| {
            let tokens = session.view().tokens.clone();
            for agg in aggregators {
                session.spawn(Node::Aggregator(Box::new(agg)), &tokens)?;
            }
            for party in parties {
                session.spawn(Node::Party(Box::new(party)), &tokens)?;
            }
            Ok(())
        };
        Self::bootstrap(rt, build, place)
    }

    /// [`ThreadedSession::setup`] for externally hosted nodes: this
    /// process builds only the coordinator's share of the session
    /// ([`CoordinatorParts::build`]: Phase I, the model it evaluates on,
    /// an endpoint per node name) and no node at all. Instead of
    /// spawning one thread per node, it hands the session's roster to
    /// `host` — a transport bridge that runs the nodes elsewhere (another
    /// OS process over a socket, a remote machine), each built there from
    /// the same seed, and relays their traffic through this session's
    /// [`Network`]. The supervisor then waits for every node to report
    /// `Ready` over the bridge exactly as it would for thread hosting,
    /// and the returned session drives rounds unchanged.
    ///
    /// `host` receives the roster (every node's name, and the token keys
    /// that check a peer claiming an aggregator name) plus the session
    /// network, and must arrange for each node's frames to flow through
    /// that network — [`Network::send_as`] is the injection seam.
    ///
    /// The supervisor cannot re-home a remote process, so a failover
    /// policy that respawns nodes cannot heal a bridged session;
    /// `deta_socket::launch` refuses one.
    ///
    /// # Errors
    ///
    /// Same contract as [`ThreadedSession::setup`]; errors returned by
    /// `host` abort the bootstrap after signalling every adopted node.
    pub fn setup_detached(
        config: DetaConfig,
        model_builder: &dyn Fn(&mut DetRng) -> Sequential,
        party_data: Vec<LabeledData>,
        rt: RuntimeConfig,
        host: impl FnOnce(DetachedNodes, &Network) -> Result<(), RuntimeError>,
    ) -> Result<ThreadedSession, RuntimeError> {
        let build = || {
            let coordinator = CoordinatorParts::build(config, model_builder, &party_data)?;
            let roster = DetachedNodes {
                parties: coordinator.parties.clone(),
                aggregators: coordinator.aggregators.clone(),
                tokens: coordinator.tokens.clone(),
            };
            Ok((coordinator, roster))
        };
        let place = |session: &mut ThreadedSession, nodes: DetachedNodes| {
            let names = nodes.aggregators.iter().chain(&nodes.parties);
            session.remote.extend(names.cloned());
            host(nodes, &session.network)
        };
        Self::bootstrap(rt, build, place)
    }

    /// The bootstrap every `setup*` shares: `build` the coordinator's
    /// share and what this process hosts of the nodes, hand those to
    /// `place` (spawn them here, or let a bridge host them elsewhere),
    /// then wait for every node's `Ready`.
    fn bootstrap<N>(
        rt: RuntimeConfig,
        build: impl FnOnce() -> Result<(CoordinatorParts, N), SetupError>,
        place: impl FnOnce(&mut ThreadedSession, N) -> Result<(), RuntimeError>,
    ) -> Result<ThreadedSession, RuntimeError> {
        if rt.telemetry.enabled {
            deta_obs::enable();
        }
        // The supervisor's ring is live before the build, so the build's
        // set-up spans (attestation, model draw, mapper) land in it.
        let (capacity, dir) = (rt.telemetry.ring_capacity, rt.telemetry.trace_dir.clone());
        let recorders = Recorders::new(SUPERVISOR, capacity, dir);
        let (coordinator, nodes) = {
            let _trace_guard = deta_obs::attach(recorders.own());
            build()?
        };
        let network = coordinator.network.clone();
        let ctl = network.register(SUPERVISOR);
        let (supervisor, eval_model) = Supervisor::new(coordinator, rt.clone(), true);
        let mut session = ThreadedSession {
            supervisor,
            network,
            eval_model,
            clock: Instant::now(),
            ctl,
            rt,
            stop: Arc::new(AtomicBool::new(false)),
            threads: HashMap::new(),
            remote: HashSet::new(),
            recovered: HashMap::new(),
            recorders,
        };
        let ready = place(&mut session, nodes).and_then(|()| {
            let _trace_guard = deta_obs::attach(session.recorders.own());
            session.drive(Supervisor::setup)
        });
        if let Err(e) = ready {
            let _ = session.shutdown();
            return Err(e);
        }
        Ok(session)
    }

    /// Runs all configured rounds, evaluating on `test` after each, then
    /// shuts the deployment down (joining every node thread).
    ///
    /// # Errors
    ///
    /// The first round failure (timeout, node failure, panic) aborts the
    /// run; the deployment is shut down before the error is returned, so
    /// no threads leak on any path.
    pub fn run(&mut self, test: &LabeledData) -> Result<Vec<RoundMetrics>, RuntimeError> {
        let mut out = Vec::new();
        for _ in 0..self.supervisor.config().rounds {
            match self.run_round(test) {
                Ok(m) => out.push(m),
                Err(e) => {
                    let _ = self.shutdown();
                    return Err(e);
                }
            }
        }
        self.shutdown()?;
        Ok(out)
    }

    /// One training round, fully message-driven: the supervisor's plans
    /// and trigger, its wait (healed in place when its policy allows),
    /// then evaluation on the reported parameters.
    fn run_round(&mut self, test: &LabeledData) -> Result<RoundMetrics, RuntimeError> {
        let round = self.supervisor.completed_rounds() + 1;
        // Round-scoped trace: everything this driver thread sends from
        // here on carries trace id `round + 1` (0 means untraced), and
        // its transport edge events land in the supervisor's ring.
        deta_obs::trace::begin(round + 1);
        let _trace_guard = deta_obs::attach(self.recorders.own());
        self.drive(Supervisor::round)?;
        let Some(params) = self.supervisor.params() else {
            let err = RuntimeError::Protocol("missing parameter snapshot");
            return Err(self.record_failure(err));
        };
        // Driver-side work is on the round's blocking path too; span it
        // so critical-path reports name it instead of charging it to
        // idle.
        let (test_loss, test_accuracy) = {
            let _eval_span =
                deta_obs::span("eval").with_field("round", TelemetryValue::from(round));
            self.eval_model.set_flat_params(&params);
            deta_nn::train::evaluate(&mut self.eval_model, test, 128)
        };
        let metrics = self.supervisor.close(test_loss, test_accuracy);
        metrics.ok_or(RuntimeError::Protocol("no round to close"))
    }

    /// Opens a phase with `open`, then feeds the supervisor — reports,
    /// exits, its timers on the wall clock — and carries out what it
    /// directs, until the phase is complete or the session has failed.
    fn drive(
        &mut self,
        open: fn(&mut Supervisor, Duration) -> Vec<Directive>,
    ) -> Result<(), RuntimeError> {
        let mut directives = open(&mut self.supervisor, self.clock.elapsed());
        loop {
            for directive in directives {
                match directive {
                    Directive::Send(to, msg) => self.send_ctl(&to, &msg),
                    Directive::Retire(node) => self.retire(&node),
                    Directive::Spawn(node) => {
                        let tokens = self.view().tokens.clone();
                        if let Err(e) = self.spawn(Node::Aggregator(node), &tokens) {
                            return Err(self.record_failure(e));
                        }
                    }
                    Directive::Done => return Ok(()),
                    Directive::Fail(err) => return Err(self.record_failure(err)),
                }
            }
            let due = (self.supervisor.next_timer()).is_some_and(|t| self.clock.elapsed() >= t);
            let event = if due {
                // A thread that already exited beats the timer.
                Some(self.reap().unwrap_or(Event::Timer))
            } else {
                match self.ctl.recv_timeout(self.rt.tick) {
                    Ok(m) => CtlMsg::decode(&m.payload)
                        .ok()
                        .map(|r| Event::Report(m.from.to_string(), r)),
                    // An idle tick: the wall clock moved on for held
                    // frames, and a thread may have died silently.
                    Err(RecvError::Timeout) => {
                        self.network.release_held();
                        self.reap()
                    }
                    Err(RecvError::Closed) => {
                        let reason = "control mailbox closed".to_string();
                        let node = SUPERVISOR.to_string();
                        let err = RuntimeError::NodeFailed { node, reason };
                        return Err(self.record_failure(err));
                    }
                }
            };
            let now = self.clock.elapsed();
            directives = (event.map(|e| self.supervisor.on(e, now))).unwrap_or_default();
        }
    }

    /// Spawns `node` on its own thread. A party runs Phase II against
    /// `tokens` immediately; any stall configured for this node name in
    /// [`RuntimeConfig::stalls`] is armed here.
    fn spawn(
        &mut self,
        node: Node,
        tokens: &HashMap<String, VerifyingKey>,
    ) -> Result<(), RuntimeError> {
        let name = node.name().to_string();
        let stall = (self.rt.stalls.iter().find(|s| s.node == name)).map(|s| s.round);
        let halt = Arc::new(AtomicBool::new(false));
        let ctx = ActorContext {
            stop: Arc::clone(&self.stop),
            halt: Arc::clone(&halt),
            tick: self.rt.tick,
        };
        let recorder = self.recorders.ring(&name);
        let tokens = tokens.clone();
        let handle = std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || actor::serve(node, &tokens, stall, &ctx, recorder))
            .map_err(RuntimeError::Spawn)?;
        self.threads.insert(name, (halt, handle));
        Ok(())
    }

    fn send_ctl(&mut self, to: &str, msg: &CtlMsg) {
        if let Ok(frame) = msg.encode() {
            let _ = self.ctl.send(to, frame);
        }
    }

    /// Retires one node: sets its private halt flag (which also wakes a
    /// deliberately stalled node), closes its mailbox (which wakes a
    /// blocked `recv_timeout`), joins the thread, and keeps its final
    /// state. A panicked thread is absorbed rather than propagated —
    /// failover exists precisely to outlive it.
    fn retire(&mut self, name: &str) {
        let thread = self.threads.remove(name);
        if let Some((halt, _)) = &thread {
            halt.store(true, Ordering::Relaxed);
        }
        self.network.close(name);
        self.remote.remove(name);
        if let Some((_, handle)) = thread {
            match handle.join() {
                Ok(exit) => drop(self.recovered.insert(name.to_string(), exit)),
                Err(_) => (self.recorders.own()).event("panic_absorbed", &[("node", name.into())]),
            }
        }
    }

    /// Joins the first node the supervisor awaits whose thread already
    /// exited, keeping its final state unless it panicked.
    fn reap(&mut self) -> Option<Event> {
        let awaiting = self.supervisor.awaiting();
        let finished = awaiting
            .into_iter()
            .find(|n| self.threads.get(*n).is_some_and(|(_, t)| t.is_finished()))?;
        let node = finished.to_string();
        let (_, handle) = self.threads.remove(&node)?;
        (self.recorders.own()).event("node_reaped", &[("node", node.as_str().into())]);
        let exit = handle.join();
        let panicked = exit.is_err();
        if let Ok(exit) = exit {
            self.recovered.insert(node.clone(), exit);
        }
        Some(Event::Exited { node, panicked })
    }

    /// Records a fault verdict: on the supervisor's own ring, and for the
    /// *first* verdict a dump of every flight recorder, so the dump holds
    /// the timeline up to the fault, not post-shutdown noise. A no-op
    /// while telemetry is disabled.
    fn record_failure(&mut self, err: RuntimeError) -> RuntimeError {
        self.recorders.fault(err.kind(), &err.implicated());
        err
    }

    /// Stops every node and joins all threads: sets the stop flag and
    /// every per-node halt flag, then closes *all* node mailboxes before
    /// joining *any* thread (so a node blocked in `recv_timeout` — e.g.
    /// mid-failover, or one deliberately stalled — wakes immediately
    /// instead of extending shutdown by a full deadline), sends
    /// `Shutdown` as a courtesy to actors mid-drain, then joins.
    /// Idempotent; [`run`] already calls this on every path.
    ///
    /// [`run`]: ThreadedSession::run
    ///
    /// # Errors
    ///
    /// Reports a panicked node thread; all other threads are still
    /// joined first.
    pub fn shutdown(&mut self) -> Result<(), RuntimeError> {
        // Teardown is not part of any round: clear the session thread's
        // trace context so Shutdown frames (and the recvs they cause on
        // remote nodes) don't inflate the last round's wall time in a
        // merged trace.
        deta_obs::trace::begin(0);
        self.stop.store(true, Ordering::Relaxed);
        for (halt, _) in self.threads.values() {
            halt.store(true, Ordering::Relaxed);
        }
        let names: Vec<String> = (self.threads.keys().cloned())
            .chain(self.remote.drain())
            .collect();
        for name in &names {
            self.send_ctl(name, &CtlMsg::Shutdown);
        }
        for name in &names {
            self.network.close(name);
        }
        let mut panicked: Option<String> = None;
        for (name, (_, handle)) in self.threads.drain() {
            match handle.join() {
                Ok(exit) => drop(self.recovered.insert(name, exit)),
                Err(_) => panicked = Some(name),
            }
        }
        // Drop any control messages still queued for us (a late
        // `PartyDone` can hold a whole parameter snapshot).
        self.drain_ctl();
        match panicked {
            Some(node) => Err(self.record_failure(RuntimeError::NodePanicked { node })),
            None => Ok(()),
        }
    }

    /// Whether every node thread has been joined.
    pub fn is_shut_down(&self) -> bool {
        self.threads.is_empty()
    }

    /// Number of completed rounds.
    pub fn completed_rounds(&self) -> u64 {
        self.supervisor.completed_rounds()
    }

    /// Flat parameters of party `i`'s final model replica. Available
    /// after shutdown (nodes are recovered from their threads at join);
    /// `None` before that, or for an unknown index.
    pub fn party_params(&self, i: usize) -> Option<Vec<f32>> {
        let view = self.view();
        match view.node(view.party_names.get(i)?)? {
            Node::Party(p) => Some(p.model.flat_params()),
            Node::Aggregator(_) => None,
        }
    }

    /// The session's bookkeeping and recovered nodes, read-only: a node
    /// retired by a failover is there from the moment it was killed,
    /// every node after shutdown.
    pub fn view(&self) -> SessionView<'_> {
        self.supervisor.view(&self.recovered)
    }

    /// The deployment's network (e.g. for traffic stats).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The flight-recorder dump written for the first fault verdict (if
    /// telemetry is enabled and a fault occurred), or by
    /// [`ThreadedSession::dump_trace`].
    pub fn trace_dump_path(&self) -> Option<&Path> {
        self.recorders.first_dump()
    }

    /// Forces a flight-recorder dump now (no implicated nodes) — used by
    /// trace-capture runs that want a timeline even on success. Returns
    /// the JSONL path, or `None` while telemetry is disabled or when the
    /// write fails.
    ///
    /// Control frames still queued for the supervisor are taken first:
    /// a bridged child's last heartbeats reach the mailbox until its
    /// `Bye`, after [`ThreadedSession::shutdown`] has drained it, and each
    /// must meet its `net_send` in a merged trace.
    pub fn dump_trace(&mut self) -> Option<PathBuf> {
        self.drain_ctl();
        self.recorders.dump("trace", &[])
    }

    /// The session's trace as records, by the rule
    /// [`ThreadedSession::trace_dump_path`] follows for a path: the first
    /// dump's trace, or else the one [`ThreadedSession::dump_trace`]
    /// drains now. `None` while telemetry is disabled or when the dump
    /// cannot be written.
    pub fn trace(&mut self) -> Option<ParsedTrace> {
        if self.recorders.first_dump().is_none() {
            self.dump_trace()?;
        }
        self.recorders.first_trace().cloned()
    }

    /// Drops every control frame queued for the supervisor, received
    /// under its flight recorder so each traced one records its
    /// `net_recv`.
    fn drain_ctl(&self) {
        let _trace_guard = deta_obs::attach(self.recorders.own());
        self.ctl.drain();
    }
}

impl Drop for ThreadedSession {
    fn drop(&mut self) {
        if !self.threads.is_empty() || !self.remote.is_empty() {
            // Best effort: never leak running threads (and always signal
            // bridged remote nodes to stop).
            let _ = self.shutdown();
        }
    }
}

/// The roster of a deployment whose hosting is delegated to a transport
/// bridge (see [`ThreadedSession::setup_detached`]): which nodes to
/// seat, by name, and nothing of the nodes themselves — every host builds
/// its own. The token map is the Phase II verification material; a
/// bridge uses it to check that a remote peer claiming an aggregator
/// name can sign with the attested token key.
pub struct DetachedNodes {
    /// Every party's name, in index order.
    pub parties: Vec<String>,
    /// Every aggregator's name, index 0 the initiator.
    pub aggregators: Vec<String>,
    /// Aggregator token verification keys by endpoint name.
    pub tokens: HashMap<String, VerifyingKey>,
}
