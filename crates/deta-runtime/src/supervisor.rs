//! The supervisor: spawns node threads, enforces phase deadlines,
//! retries idempotent requests with capped backoff, reaps panicked
//! threads, and shuts the deployment down cleanly.

use crate::actor::{self, ActorContext};
use crate::rtmsg::{CtlMsg, SUPERVISOR};
use crate::{Node, Phase, RuntimeConfig, RuntimeError};
use deta_crypto::VerifyingKey;
use deta_telemetry::{FlightRecorder, TelemetryRecord, TelemetryValue, TraceDump};
use deta_transport::{Endpoint, Network, RecvError};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Supervises a set of node threads over a shared [`Network`].
pub struct Supervisor {
    network: Network,
    ctl: Endpoint,
    cfg: RuntimeConfig,
    stop: Arc<AtomicBool>,
    /// Per-node halt flags (see [`ActorContext::halt`]): lets the
    /// supervisor retire exactly one node during a failover.
    halts: HashMap<String, Arc<AtomicBool>>,
    nodes: HashMap<String, JoinHandle<Node>>,
    /// Nodes hosted outside this process (see [`Supervisor::adopt`]):
    /// no join handle, but shutdown still sends them `Shutdown` and
    /// closes their mailboxes so a transport bridge can propagate the
    /// stop signal.
    remote: HashSet<String>,
    recovered: HashMap<String, Node>,
    last_seen: HashMap<String, Instant>,
    /// Every node's flight recorder, plus the supervisor's own (first).
    recorders: Vec<Arc<FlightRecorder>>,
    /// The supervisor's own ring: verdicts, retries, reaps, deadlines.
    own: Arc<FlightRecorder>,
    /// The first flight-recorder dump written for a fault verdict.
    trace_dump_path: Option<PathBuf>,
}

impl Supervisor {
    /// Creates a supervisor with its own control endpoint on `network`.
    pub fn new(network: Network, cfg: RuntimeConfig) -> Supervisor {
        let ctl = network.register(SUPERVISOR);
        let own = FlightRecorder::new(SUPERVISOR, cfg.telemetry.ring_capacity);
        Supervisor {
            network,
            ctl,
            cfg,
            stop: Arc::new(AtomicBool::new(false)),
            halts: HashMap::new(),
            nodes: HashMap::new(),
            remote: HashSet::new(),
            recovered: HashMap::new(),
            last_seen: HashMap::new(),
            recorders: vec![Arc::clone(&own)],
            own,
            trace_dump_path: None,
        }
    }

    /// The runtime policy in effect.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Spawns `node` on its own thread. A party runs Phase II against
    /// `tokens` immediately; any stall configured for this node name in
    /// [`RuntimeConfig::stalls`] is armed here.
    ///
    /// # Errors
    ///
    /// Fails if the OS refuses the thread.
    pub fn spawn(
        &mut self,
        node: Node,
        tokens: &HashMap<String, VerifyingKey>,
    ) -> Result<(), RuntimeError> {
        let name = node.name().to_string();
        let stall = self
            .cfg
            .stalls
            .iter()
            .find(|s| s.node == name)
            .map(|s| s.round);
        let halt = Arc::new(AtomicBool::new(false));
        self.halts.insert(name.clone(), Arc::clone(&halt));
        let ctx = ActorContext {
            stop: Arc::clone(&self.stop),
            halt,
            tick: self.cfg.tick,
        };
        let recorder = self.recorder_for(&name);
        let tokens = tokens.clone();
        let handle = std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || actor::serve(node, &tokens, stall, &ctx, recorder))
            .map_err(RuntimeError::Spawn)?;
        self.nodes.insert(name, handle);
        Ok(())
    }

    /// Creates and registers the flight recorder a node thread will
    /// attach; the supervisor keeps a handle so it can drain every ring
    /// into a dump when it constructs a fault verdict.
    fn recorder_for(&mut self, name: &str) -> Arc<FlightRecorder> {
        let recorder = FlightRecorder::new(name, self.cfg.telemetry.ring_capacity);
        self.recorders.push(Arc::clone(&recorder));
        recorder
    }

    /// Registers a node that runs outside this process — behind a
    /// transport bridge rather than on a spawned thread. The supervisor
    /// waits on its control messages exactly as for a thread-hosted
    /// node; there is no join handle, so `reap` never blames it for a
    /// silent thread death (a dead remote peer surfaces as a closed
    /// mailbox or a phase timeout instead). Shutdown and `kill_node`
    /// still send `Shutdown` and close the node's mailbox, which the
    /// bridge propagates to the remote process.
    pub fn adopt(&mut self, name: &str) {
        self.remote.insert(name.to_string());
    }

    /// Sends a control message to a node.
    pub fn send_ctl(&mut self, to: &str, msg: &CtlMsg) {
        if let Ok(frame) = msg.encode() {
            let _ = self.ctl.send(to, frame);
        }
    }

    /// Retires one node during a failover: sets its private halt flag
    /// (which also wakes a deliberately stalled node), closes its mailbox
    /// (which wakes a blocked `recv_timeout`), joins the thread, and
    /// records its final state under [`Supervisor::recovered`]. A
    /// panicked thread is absorbed rather than propagated — failover
    /// exists precisely to outlive it.
    pub fn kill_node(&mut self, name: &str) {
        if let Some(halt) = self.halts.remove(name) {
            halt.store(true, Ordering::Relaxed);
        }
        self.network.close(name);
        self.remote.remove(name);
        if let Some(handle) = self.nodes.remove(name) {
            match handle.join() {
                Ok(exit) => {
                    self.recovered.insert(name.to_string(), exit);
                }
                Err(_) => {
                    self.note("panic_absorbed", &[("node", TelemetryValue::from(name))]);
                }
            }
        }
        self.last_seen.remove(name);
    }

    /// Emits an event on the supervisor's own flight-recorder ring (used
    /// by the session layer for failover milestones, so they appear in
    /// trace dumps). A no-op while telemetry is disabled.
    pub fn note(&self, name: &'static str, fields: &[(&'static str, TelemetryValue)]) {
        if deta_telemetry::enabled() {
            self.own.event(name, fields);
        }
    }

    /// The supervisor's own flight recorder. The session driver attaches
    /// it to the driving thread for the duration of a round so transport
    /// edge events (`net_send`/`net_recv`) emitted by the control
    /// endpoint land in the supervisor's ring.
    pub fn own_recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.own)
    }

    /// Waits until every node in `expected` has satisfied its phase
    /// obligation, with a hard deadline.
    ///
    /// `on_msg` sees every decoded control message (except heartbeats and
    /// failures, which the supervisor consumes) and returns `true` when
    /// the sender's obligation for this phase is fulfilled. `retry`, when
    /// set, is re-sent with capped exponential backoff while waiting —
    /// the retried request must be idempotent at the receiver.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::Timeout`] when the deadline passes — `missing`
    ///   lists the outstanding nodes and `stalled` the subset that also
    ///   stopped heartbeating.
    /// * [`RuntimeError::NodeFailed`] if a node reports failure or exits
    ///   without fulfilling the phase.
    /// * [`RuntimeError::NodePanicked`] if an outstanding node's thread
    ///   panicked (reaped via its join handle).
    pub fn wait(
        &mut self,
        phase: Phase,
        round: u64,
        deadline: std::time::Duration,
        expected: HashSet<String>,
        retry: Option<(String, CtlMsg)>,
        mut on_msg: impl FnMut(&str, CtlMsg) -> bool,
    ) -> Result<(), RuntimeError> {
        let start = Instant::now();
        let mut expected = expected;
        let mut backoff = self.cfg.retry_initial;
        let mut next_retry = start + backoff;
        while !expected.is_empty() {
            let now = Instant::now();
            let waited = now.duration_since(start);
            if waited >= deadline {
                if let Some(err) = self.reap(&expected) {
                    return Err(self.record_failure(err));
                }
                let mut missing: Vec<String> = expected.iter().cloned().collect();
                missing.sort();
                let stale_after = self.cfg.tick * 4;
                let mut stalled: Vec<String> = missing
                    .iter()
                    .filter(|n| {
                        self.last_seen
                            .get(*n)
                            .is_none_or(|t| now.duration_since(*t) > stale_after)
                    })
                    .cloned()
                    .collect();
                stalled.sort();
                self.own.event(
                    "deadline_expired",
                    &[
                        ("round", TelemetryValue::from(round)),
                        ("missing", TelemetryValue::from(missing.len())),
                        ("stalled", TelemetryValue::from(stalled.len())),
                    ],
                );
                return Err(self.record_failure(RuntimeError::Timeout {
                    phase,
                    round,
                    missing,
                    stalled,
                    waited,
                }));
            }
            if let Some((to, msg)) = &retry {
                if now >= next_retry {
                    let msg = msg.clone();
                    let to = to.clone();
                    self.send_ctl(&to, &msg);
                    if deta_telemetry::enabled() {
                        deta_telemetry::metrics::counter_add(
                            "deta_supervisor_retries_total",
                            &to,
                            1,
                        );
                        self.own.event(
                            "retry",
                            &[
                                ("round", TelemetryValue::from(round)),
                                (
                                    "backoff_ms",
                                    TelemetryValue::from(
                                        backoff.as_millis().min(u128::from(u64::MAX)) as u64,
                                    ),
                                ),
                            ],
                        );
                    }
                    backoff = (backoff * 2).min(self.cfg.retry_max);
                    next_retry = now + backoff;
                }
            }
            match self.ctl.recv_timeout(self.cfg.tick) {
                Ok(m) => {
                    let from = m.from.to_string();
                    let seen = Instant::now();
                    let gap = self.last_seen.get(&from).map(|t| seen.duration_since(*t));
                    self.last_seen.insert(from.clone(), seen);
                    match CtlMsg::decode(&m.payload) {
                        Ok(CtlMsg::Heartbeat { .. }) => {
                            if deta_telemetry::enabled() {
                                if let Some(gap) = gap {
                                    deta_telemetry::metrics::histogram_observe(
                                        "deta_heartbeat_gap_seconds",
                                        &from,
                                        gap.as_secs_f64(),
                                    );
                                }
                            }
                        }
                        Ok(CtlMsg::Failed { reason }) => {
                            return Err(self
                                .record_failure(RuntimeError::NodeFailed { node: from, reason }));
                        }
                        Ok(msg) => {
                            if on_msg(&from, msg) {
                                expected.remove(&from);
                            }
                        }
                        Err(_) => {} // Malformed control traffic is dropped.
                    }
                }
                Err(RecvError::Timeout) => {
                    // An idle tick: check for nodes that died silently.
                    if let Some(err) = self.reap(&expected) {
                        return Err(self.record_failure(err));
                    }
                }
                Err(RecvError::Closed) => {
                    return Err(self.record_failure(RuntimeError::NodeFailed {
                        node: SUPERVISOR.to_string(),
                        reason: "control mailbox closed".to_string(),
                    }));
                }
            }
        }
        Ok(())
    }

    /// Joins any `watched` node whose thread already exited; a panic or a
    /// premature exit is converted into a structured error.
    fn reap(&mut self, watched: &HashSet<String>) -> Option<RuntimeError> {
        let finished: Vec<String> = watched
            .iter()
            .filter(|n| self.nodes.get(*n).is_some_and(|h| h.is_finished()))
            .cloned()
            .collect();
        for name in finished {
            let Some(handle) = self.nodes.remove(&name) else {
                continue;
            };
            if deta_telemetry::enabled() {
                self.own.event(
                    "node_reaped",
                    &[("node", TelemetryValue::from(name.as_str()))],
                );
            }
            match handle.join() {
                Err(_) => return Some(RuntimeError::NodePanicked { node: name }),
                Ok(exit) => {
                    self.recovered.insert(name.clone(), exit);
                    return Some(RuntimeError::NodeFailed {
                        node: name,
                        reason: "exited before completing the phase".to_string(),
                    });
                }
            }
        }
        None
    }

    /// Stops every node and joins all threads: sets the stop flag and
    /// every per-node halt flag, then closes *all* node mailboxes before
    /// joining *any* thread (so a node blocked in `recv_timeout` — e.g.
    /// mid-failover, or one deliberately stalled — wakes immediately
    /// instead of extending shutdown by a full deadline), sends
    /// `Shutdown` as a courtesy to actors mid-drain, then joins.
    /// Idempotent — a second call is a no-op over an empty node set.
    ///
    /// # Errors
    ///
    /// Reports the first panicked thread as [`RuntimeError::NodePanicked`]
    /// (remaining threads are still joined first, so nothing leaks).
    pub fn shutdown(&mut self) -> Result<(), RuntimeError> {
        // Teardown is not part of any round: clear the driver thread's
        // trace context so Shutdown frames (and the recvs they cause on
        // remote nodes) don't inflate the last round's wall time in a
        // merged trace.
        deta_telemetry::trace::begin(0);
        self.stop.store(true, Ordering::Relaxed);
        for halt in self.halts.values() {
            halt.store(true, Ordering::Relaxed);
        }
        self.halts.clear();
        let names: Vec<String> = self
            .nodes
            .keys()
            .cloned()
            .chain(self.remote.drain())
            .collect();
        for name in &names {
            self.send_ctl(name, &CtlMsg::Shutdown);
        }
        for name in &names {
            self.network.close(name);
        }
        let mut panicked: Option<String> = None;
        for (name, handle) in self.nodes.drain() {
            match handle.join() {
                Ok(exit) => {
                    self.recovered.insert(name, exit);
                }
                Err(_) => panicked = Some(name),
            }
        }
        // Drop any control messages still queued for us (a late
        // `PartyDone` can hold a whole parameter snapshot).
        self.ctl.drain();
        match panicked {
            Some(node) => {
                let err = self.record_failure(RuntimeError::NodePanicked { node });
                Err(err)
            }
            None => Ok(()),
        }
    }

    /// Records a fault verdict on the supervisor's own ring and, for the
    /// *first* verdict only, drains every flight recorder into a JSONL
    /// dump under the configured trace directory (so the dump captures
    /// the timeline leading up to the fault, not post-shutdown noise).
    /// Returns the error unchanged; a no-op while telemetry is disabled.
    pub(crate) fn record_failure(&mut self, err: RuntimeError) -> RuntimeError {
        if deta_telemetry::enabled() {
            self.own.event(
                "fault_verdict",
                &[("kind", TelemetryValue::from(error_kind(&err)))],
            );
            if self.trace_dump_path.is_none() {
                if let Ok(dump) = self.dump("fault", &implicated_nodes(&err)) {
                    self.trace_dump_path = Some(dump.jsonl);
                }
            }
        }
        err
    }

    /// Drains every registered flight recorder and writes a trace dump.
    fn dump(&self, prefix: &str, implicated: &[String]) -> std::io::Result<TraceDump> {
        let nodes: Vec<(String, Vec<TelemetryRecord>, u64)> = self
            .recorders
            .iter()
            .map(|r| {
                let (records, dropped) = r.drain();
                (r.node().to_string(), records, dropped)
            })
            .collect();
        deta_telemetry::trace_dump(
            &self.cfg.telemetry.trace_dir,
            &deta_telemetry::unique_stem(prefix),
            &nodes,
            implicated,
        )
    }

    /// The JSONL dump written for the first fault verdict (or by
    /// [`Supervisor::dump_trace`]), if any.
    pub fn trace_dump_path(&self) -> Option<&Path> {
        self.trace_dump_path.as_deref()
    }

    /// Forces a flight-recorder dump now (no implicated nodes) — used by
    /// trace-capture runs that want a timeline even on success. Returns
    /// the JSONL path, or `None` while telemetry is disabled or when the
    /// write fails.
    pub fn dump_trace(&mut self) -> Option<PathBuf> {
        if !deta_telemetry::enabled() {
            return None;
        }
        let dump = self.dump("trace", &[]).ok()?;
        if self.trace_dump_path.is_none() {
            self.trace_dump_path = Some(dump.jsonl.clone());
        }
        Some(dump.jsonl)
    }

    /// Whether shutdown has completed (no live node threads).
    pub fn is_shut_down(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The final state of a node recovered at shutdown (or after an early
    /// exit was reaped).
    pub fn recovered(&self, name: &str) -> Option<&Node> {
        self.recovered.get(name)
    }
}

/// A short static tag for a [`RuntimeError`] variant (dump metadata).
fn error_kind(err: &RuntimeError) -> &'static str {
    match err {
        RuntimeError::Setup(_) => "setup",
        RuntimeError::Spawn(_) => "spawn",
        RuntimeError::NodeFailed { .. } => "node_failed",
        RuntimeError::NodePanicked { .. } => "node_panicked",
        RuntimeError::Timeout { .. } => "timeout",
        RuntimeError::Protocol(_) => "protocol",
    }
}

/// The node(s) a fault verdict blames, for the dump's `meta` line (and
/// for failover target selection). A timeout blames the stalled subset
/// when there is one (those nodes also stopped heartbeating), otherwise
/// everything still missing.
pub(crate) fn implicated_nodes(err: &RuntimeError) -> Vec<String> {
    match err {
        RuntimeError::NodeFailed { node, .. } | RuntimeError::NodePanicked { node } => {
            vec![node.clone()]
        }
        RuntimeError::Timeout {
            missing, stalled, ..
        } => {
            if stalled.is_empty() {
                missing.clone()
            } else {
                stalled.clone()
            }
        }
        RuntimeError::Setup(_) | RuntimeError::Spawn(_) | RuntimeError::Protocol(_) => Vec::new(),
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        if !self.nodes.is_empty() || !self.remote.is_empty() {
            // Best effort: never leak running threads (and always signal
            // bridged remote nodes to stop).
            let _ = self.shutdown();
        }
    }
}
