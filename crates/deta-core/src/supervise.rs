//! The supervisor's decisions, as one step.
//!
//! However a session's nodes are hosted, its control plane decides the
//! same things: when a phase is complete, when it has waited too long and
//! who is to blame, whether a lost party may be dropped, and whether and
//! how a lost aggregator is replaced. [`Supervisor::on`] makes every one
//! of those decisions from one [`Event`] and the session's clock reading,
//! and returns the [`Directive`]s the session carries out. Two sessions
//! run it: `deta-runtime`'s node threads on the wall clock, and
//! [`crate::DetaSession`] on one thread and a virtual clock. Nothing here
//! reads a clock; `now` is whatever the session says it is, measured from
//! the start of the session.
//!
//! A phase is a wait: the set of nodes it expects and a deadline; a
//! round's trigger is sent once, when the wait opens (DESIGN.md §7).
//! Every node's report counts as a sign of life, so at the deadline the
//! missing nodes split into *stalled* (silent for over four ticks) and
//! merely slow. A failed round is healed when the policy allows it
//! (DESIGN.md §12, §16): parties are dropped to partial participation,
//! or aggregators are respawned through [`RecoveryKit::respawn`] in
//! their own mapper slots; anything else is terminal. The model partition is fixed at setup: a
//! failover replaces an aggregator, it never hands its share to another.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::aggregator::AggregatorNode;
use crate::node::Node;
use crate::recovery::RecoveryKit;
use crate::round::{OpenRound, RoundLedger};
use crate::rtmsg::{CtlMsg, RebindEntry};
use crate::session::{CoordinatorParts, DetaConfig, RoundMetrics, SetupError};
use deta_crypto::VerifyingKey;
use deta_nn::Sequential;
use deta_obs::TelemetryValue;
use deta_transport::Network;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::Duration;

/// Telemetry wiring for a supervised session (see `deta-obs` and
/// DESIGN.md §9).
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Turn the process-global telemetry sink on at setup. The switch is
    /// sticky-on for the life of the process; leaving it `false` costs a
    /// branch plus one atomic load per emit site.
    pub enabled: bool,
    /// Per-node flight-recorder capacity, in records. Each node keeps
    /// this many recent spans/events for post-mortem dumps.
    pub ring_capacity: usize,
    /// Directory flight-recorder dumps (JSONL + Prometheus text) are
    /// written to when the session fails.
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
/// aggregator stops servicing its mailbox the moment it first sees
/// `round` or a later one (it stays joinable — shutdown still works).
/// The triggered aggregator sees a round in the supervisor's `Trigger`
/// and parks before announcing it; any other sees it in its first
/// upload of the round and parks holding that upload.
#[derive(Clone, Debug)]
pub struct StallFault {
    /// Aggregator endpoint name (e.g. `agg-1`).
    pub node: String,
    /// First round whose sight triggers the stall.
    pub round: u64,
}

/// What the supervisor does when a round fails with aggregators
/// implicated (see DESIGN.md §12).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FailoverPolicy {
    /// The first terminal failure ends the session with a structured
    /// [`RuntimeError`].
    #[default]
    None,
    /// Respawn each dead aggregator as a freshly attested CVM under a
    /// new endpoint name in its own mapper slot, rebind every party to it
    /// (re-running the Phase II challenge-response against the proxy's
    /// new token), and replay the failed round from the parties' sealed
    /// uploads.
    Restart,
}

/// Session policy: deadlines, tick rate, fault injection, and failover.
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
    /// Not read: a round's trigger is sent once. Kept for callers that
    /// still name it in a struct literal.
    pub retry_initial: Duration,
    /// Not read, like `retry_initial`.
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

/// Structured failures of a supervised session. Every wait is bounded,
/// so a misbehaving node yields one of these instead of a hang.
#[derive(Debug)]
pub enum RuntimeError {
    /// Node construction failed (Phase I attestation, configuration).
    Setup(SetupError),
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
        /// Of `missing`, the nodes that also went silent — stalled
        /// rather than merely slow.
        stalled: Vec<String>,
        /// How long the supervisor waited.
        waited: Duration,
    },
    /// The deployment reached a state the protocol forbids.
    Protocol(&'static str),
}

impl RuntimeError {
    /// The node(s) the error blames: the failed or panicked node, and
    /// for a timeout the stalled subset when there is one, otherwise
    /// everything still missing. Failover targets, dump `meta` lines and
    /// the simulator's attribution check all read this.
    pub fn implicated(&self) -> Vec<String> {
        match self {
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
            RuntimeError::Setup(_) | RuntimeError::Spawn(_) | RuntimeError::Protocol(_) => {
                Vec::new()
            }
        }
    }

    /// A short static tag for the variant (dump metadata).
    pub fn kind(&self) -> &'static str {
        match self {
            RuntimeError::Setup(_) => "setup",
            RuntimeError::Spawn(_) => "spawn",
            RuntimeError::NodeFailed { .. } => "node_failed",
            RuntimeError::NodePanicked { .. } => "node_panicked",
            RuntimeError::Timeout { .. } => "timeout",
            RuntimeError::Protocol(_) => "protocol",
        }
    }
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

impl From<SetupError> for RuntimeError {
    fn from(e: SetupError) -> Self {
        RuntimeError::Setup(e)
    }
}

/// The stable base of an aggregator name across reincarnations
/// (`agg-1#r2` → `agg-1`).
pub fn base_name(name: &str) -> &str {
    name.split('#').next().unwrap_or(name)
}

/// Something that happened, for the supervisor to decide on.
pub enum Event {
    /// A node's report (heartbeats included): who, and what.
    Report(String, CtlMsg),
    /// The session's clock reached [`Supervisor::next_timer`].
    Timer,
    /// A node's host handed it back: it exited, or it panicked.
    Exited {
        /// The node.
        node: String,
        /// Whether it panicked.
        panicked: bool,
    },
}

/// What the supervisor has its session do, in order.
pub enum Directive {
    /// Send a node (the first) a control message.
    Send(String, CtlMsg),
    /// Stop the node and close its mailbox, keeping its final state for
    /// audit.
    Retire(String),
    /// Host and start an aggregator just attested through
    /// [`RecoveryKit::respawn`]; its token is in [`SessionView::tokens`].
    Spawn(Box<AggregatorNode>),
    /// The phase is complete.
    Done,
    /// The session failed: nothing heals this.
    Fail(RuntimeError),
}

/// What a wait is for.
enum Goal {
    /// Every node's `Ready`.
    Setup,
    /// The open round's completions.
    Round,
    /// A failover's readiness barrier over the parties and the
    /// replacements; then `aggs` takes effect and the parties replay the
    /// round.
    Barrier {
        parties: Vec<String>,
        aggs: Vec<String>,
    },
}

/// The wait of the phase in progress.
struct Wait {
    goal: Goal,
    start: Duration,
    deadline: Duration,
    expected: HashSet<String>,
}

/// A read-only view of a session's bookkeeping and — once their hosts
/// handed them back — its nodes' final state, for audits and drills.
pub struct SessionView<'a> {
    /// Party endpoint names, in index order.
    pub party_names: &'a [String],
    /// Aggregator endpoint names in effect, index 0 the initiator.
    pub agg_names: &'a [String],
    /// Endpoint names of aggregator incarnations retired by failovers,
    /// in retirement order.
    pub retired_aggs: &'a [String],
    /// Parties dropped to partial participation (or by the operator).
    pub dropped_parties: &'a HashSet<String>,
    /// Phase II token verifying keys by aggregator endpoint name, as the
    /// attestation proxy published them: a retired incarnation's key
    /// stays next to its replacement's, so drills can prove it dead.
    pub tokens: &'a HashMap<String, VerifyingKey>,
    /// Number of failovers performed so far.
    pub failovers: u64,
    nodes: &'a HashMap<String, Node>,
}

impl<'a> SessionView<'a> {
    /// A node's state by endpoint name, as its host holds it: from its
    /// retirement or the session's end on threads, all along inline.
    /// `None` for an unknown name, or a thread that panicked.
    pub fn node(&self, name: &str) -> Option<&'a Node> {
        self.nodes.get(name)
    }
}

/// A session's control plane: its round ledger, aggregator set, recovery
/// budget and the phase it waits on.
pub struct Supervisor {
    cfg: RuntimeConfig,
    config: DetaConfig,
    network: Network,
    tokens: HashMap<String, VerifyingKey>,
    recovery: RecoveryKit,
    ledger: RoundLedger,
    /// The model's parameter count when the first party of a round
    /// attaches its parameters to `PartyDone` (a session that evaluates
    /// on a replica of its own).
    snapshot_len: Option<usize>,
    agg_names: Vec<String>,
    retired_aggs: Vec<String>,
    failovers: u64,
    /// Failovers consumed per aggregator *base* name (reincarnations
    /// share one allowance).
    budget_used: HashMap<String, u32>,
    open: Option<OpenRound>,
    wait: Option<Wait>,
    /// When each node last reported anything.
    last_seen: HashMap<String, Duration>,
}

impl Supervisor {
    /// Takes charge of the session `coordinator` holds the share of,
    /// under policy `cfg`; hands back the model replica to evaluate on.
    /// With `report_params` the first party of each round reports its
    /// parameters for that replica.
    pub fn new(
        coordinator: CoordinatorParts,
        cfg: RuntimeConfig,
        report_params: bool,
    ) -> (Supervisor, Sequential) {
        let CoordinatorParts {
            config,
            network,
            tokens,
            eval_model,
            recovery,
            parties,
            aggregators,
        } = coordinator;
        let snapshot_len = report_params.then(|| eval_model.param_count());
        let supervisor = Supervisor {
            ledger: RoundLedger::new(&config, network.clone(), parties),
            cfg,
            config,
            network,
            tokens,
            recovery,
            snapshot_len,
            agg_names: aggregators,
            retired_aggs: Vec::new(),
            failovers: 0,
            budget_used: HashMap::new(),
            open: None,
            wait: None,
            last_seen: HashMap::new(),
        };
        (supervisor, eval_model)
    }

    /// Opens the bootstrap: a wait, under the setup deadline, for every
    /// node's `Ready`. The nodes start themselves; nothing is sent.
    pub fn setup(&mut self, now: Duration) -> Vec<Directive> {
        let parties = self.ledger.party_names().iter();
        let expected = self.agg_names.iter().chain(parties).cloned().collect();
        let mut out = Vec::new();
        self.arm(Goal::Setup, expected, now, &mut out);
        out
    }

    /// Opens the next round: each online party's `RoundPlan`, sent once,
    /// then the trigger to the initiator and a wait for every completion.
    pub fn round(&mut self, now: Duration) -> Vec<Directive> {
        let open = self.ledger.open(self.snapshot_len);
        deta_obs::event("round_begin", &[("round", open.round.into())]);
        let names = self.ledger.party_names();
        let plans = open.plans().into_iter();
        let send = |(i, msg): (usize, CtlMsg)| Directive::Send(names[i].clone(), msg);
        let mut out = plans.map(send).collect();
        self.open = Some(open);
        self.await_round(now, &mut out);
        out
    }

    /// Decides on `event` at `now`. Outside a phase nothing happens.
    pub fn on(&mut self, event: Event, now: Duration) -> Vec<Directive> {
        let mut out = Vec::new();
        let Some(wait) = self.wait.as_mut() else {
            return out;
        };
        let fault = match event {
            Event::Report(from, msg) => {
                let previous = self.last_seen.insert(from.clone(), now);
                let done = match msg {
                    CtlMsg::Heartbeat { .. } => {
                        if let (true, Some(t)) = (deta_obs::enabled(), previous) {
                            let gap = now.saturating_sub(t).as_secs_f64();
                            let metric = "deta_heartbeat_gap_seconds";
                            deta_obs::metrics::histogram_observe(metric, &from, gap);
                        }
                        false
                    }
                    CtlMsg::Failed { reason } => {
                        return self.fault(RuntimeError::NodeFailed { node: from, reason }, now);
                    }
                    CtlMsg::Ready if !matches!(wait.goal, Goal::Round) => true,
                    // Completions racing in during a failover barrier
                    // still count toward the round.
                    msg => match self.open.as_mut().map(|o| o.absorb(&from, msg)) {
                        Some(Err(reason)) => {
                            let err = RuntimeError::NodeFailed { node: from, reason };
                            return self.fault(err, now);
                        }
                        absorbed => absorbed == Some(Ok(true)) && matches!(wait.goal, Goal::Round),
                    },
                };
                if done {
                    wait.expected.remove(&from);
                }
                None
            }
            Event::Exited { node, .. } if !wait.expected.contains(&node) => None,
            Event::Exited { node, panicked } => Some(match panicked {
                true => RuntimeError::NodePanicked { node },
                false => RuntimeError::NodeFailed {
                    node,
                    reason: "exited before completing the phase".to_string(),
                },
            }),
            Event::Timer => self.timer(now),
        };
        match fault {
            Some(err) => return self.fault(err, now),
            None if self.wait.as_ref().is_some_and(|w| w.expected.is_empty()) => {
                self.complete(now, &mut out);
            }
            None => {}
        }
        out
    }

    /// When the phase in progress next needs the clock: its deadline.
    /// `None` outside a phase.
    pub fn next_timer(&self) -> Option<Duration> {
        self.wait.as_ref().map(|w| w.deadline)
    }

    /// The nodes the phase in progress still waits on, sorted.
    pub fn awaiting(&self) -> Vec<&str> {
        let expected = self.wait.iter().flat_map(|w| &w.expected);
        let mut names: Vec<&str> = expected.map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Takes the parameter snapshot a `PartyDone` of the open round
    /// carried.
    pub fn params(&mut self) -> Option<Vec<f32>> {
        self.open.as_mut()?.params.take()
    }

    /// Closes the completed round into its metrics, over the aggregator
    /// set it completed under. `None` when no round is open.
    pub fn close(&mut self, test_loss: f32, test_accuracy: f32) -> Option<RoundMetrics> {
        let (open, aggs) = (self.open.take()?, &self.agg_names);
        Some(self.ledger.close(open, aggs, test_loss, test_accuracy))
    }

    /// The session configuration.
    pub fn config(&self) -> &DetaConfig {
        &self.config
    }

    /// `party` leaves the session: no later round plans for it, and the
    /// returned directives tell every aggregator to deregister it.
    pub fn leave(&mut self, party: &str) -> Vec<Directive> {
        self.ledger.leave(party);
        let party = party.to_string();
        let msg = CtlMsg::Deregister { party };
        (self.agg_names.iter())
            .map(|agg| Directive::Send(agg.clone(), msg.clone()))
            .collect()
    }

    /// Ascending indices of the parties still in the session.
    pub fn online(&self) -> Vec<usize> {
        self.ledger.online()
    }

    /// Number of rounds opened so far.
    pub fn completed_rounds(&self) -> u64 {
        self.ledger.completed_rounds()
    }

    /// The session's bookkeeping, and the final states `nodes` holds.
    pub fn view<'a>(&'a self, nodes: &'a HashMap<String, Node>) -> SessionView<'a> {
        SessionView {
            party_names: self.ledger.party_names(),
            agg_names: &self.agg_names,
            retired_aggs: &self.retired_aggs,
            dropped_parties: self.ledger.left(),
            tokens: &self.tokens,
            failovers: self.failovers,
            nodes,
        }
    }

    /// The deadline, which ends the wait with the missing/stalled split.
    fn timer(&self, now: Duration) -> Option<RuntimeError> {
        let wait = self.wait.as_ref().filter(|w| now >= w.deadline)?;
        let round = self.open.as_ref().map_or(0, |o| o.round);
        let mut missing: Vec<String> = wait.expected.iter().cloned().collect();
        missing.sort();
        let stale_after = self.cfg.tick * 4;
        let silent = |n: &&String| {
            let seen = self.last_seen.get(*n);
            seen.is_none_or(|t| now.saturating_sub(*t) > stale_after)
        };
        let stalled: Vec<String> = missing.iter().filter(silent).cloned().collect();
        deta_obs::event(
            "deadline_expired",
            &[
                ("round", TelemetryValue::from(round)),
                ("missing", TelemetryValue::from(missing.len())),
                ("stalled", TelemetryValue::from(stalled.len())),
            ],
        );
        let round_wait = matches!(wait.goal, Goal::Round);
        Some(RuntimeError::Timeout {
            phase: if round_wait {
                Phase::Round
            } else {
                Phase::Setup
            },
            round,
            missing,
            stalled,
            waited: now.saturating_sub(wait.start),
        })
    }

    /// Waits on `expected` for `goal`; an empty set completes at once.
    fn arm(
        &mut self,
        goal: Goal,
        expected: HashSet<String>,
        now: Duration,
        out: &mut Vec<Directive>,
    ) {
        let deadline = if matches!(goal, Goal::Round) {
            self.cfg.round_deadline
        } else {
            self.cfg.setup_deadline
        };
        let empty = expected.is_empty();
        self.wait = Some(Wait {
            goal,
            start: now,
            deadline: now.saturating_add(deadline),
            expected,
        });
        if empty {
            self.complete(now, out);
        }
    }

    /// (Re-)enters the open round's completion wait: the trigger, sent
    /// once, to the initiator in effect.
    fn await_round(&mut self, now: Duration, out: &mut Vec<Directive>) {
        let (Some(open), Some(initiator)) = (&self.open, self.agg_names.first()) else {
            let err = RuntimeError::Protocol("no aggregators deployed");
            return out.push(Directive::Fail(err));
        };
        let expected = self.ledger.awaiting(open, &self.agg_names);
        let trigger = CtlMsg::Trigger { round: open.round };
        out.push(Directive::Send(initiator.clone(), trigger));
        self.arm(Goal::Round, expected, now, out);
    }

    /// Nobody is awaited any more: the phase is done, or a failover's
    /// barrier falls and the round replays.
    fn complete(&mut self, now: Duration, out: &mut Vec<Directive>) {
        match self.wait.take().map(|w| w.goal) {
            Some(Goal::Barrier { parties, aggs }) => {
                self.agg_names = aggs;
                let round = self.open.as_ref().map_or(0, |o| o.round);
                for p in parties {
                    out.push(Directive::Send(p, CtlMsg::Replay { round }));
                }
                deta_obs::event("round_replayed", &[("round", round.into())]);
                self.await_round(now, out);
            }
            _ => out.push(Directive::Done),
        }
    }

    /// A failed wait: a round may heal (a party drop, then a failover);
    /// the bootstrap and a failover barrier are terminal.
    fn fault(&mut self, err: RuntimeError, now: Duration) -> Vec<Directive> {
        let mut out = Vec::new();
        let healed = match self.wait.take().map(|w| w.goal) {
            Some(Goal::Round) => match self.drop_parties(err, &mut out) {
                Ok(()) => {
                    self.await_round(now, &mut out);
                    Ok(())
                }
                Err(err) => self.failover(err, now, &mut out),
            },
            _ => Err(err),
        };
        if let Err(err) = healed {
            out.push(Directive::Fail(err));
        }
        out
    }

    /// Graceful degradation to partial participation (DESIGN.md §16):
    /// when `party_drop` is on and a round fault implicates only parties,
    /// drop them — retire them, take them out of the ledger, deregister
    /// them at every aggregator.
    ///
    /// Refused (the original fault, or a refusal naming the lost node)
    /// when the knob is off or an aggregator is implicated, when the
    /// survivors would fall below the aggregation
    /// rule's quorum floor ([`crate::agg::AggKind::participation_floor`]),
    /// or when the lost party was to report this round's parameter
    /// snapshot and has not.
    fn drop_parties(
        &mut self,
        err: RuntimeError,
        out: &mut Vec<Directive>,
    ) -> Result<(), RuntimeError> {
        let implicated = err.implicated();
        let online = self.active_parties();
        let lost: Vec<String> = (online.iter())
            .filter(|n| implicated.contains(n))
            .cloned()
            .collect();
        let Some(open) = &self.open else {
            return Err(err);
        };
        if !self.cfg.party_drop
            || lost.is_empty()
            || implicated.iter().any(|n| self.agg_names.contains(n))
        {
            return Err(err);
        }
        let survivors = online.len() - lost.len();
        let floor = self.config.algorithm.participation_floor();
        if survivors < floor {
            return Err(RuntimeError::NodeFailed {
                node: lost[0].clone(),
                reason: format!(
                    "lost mid-round; dropping it would leave {survivors} of {} parties, \
                     below the quorum floor of {floor} for {:?}",
                    self.ledger.party_names().len(),
                    self.config.algorithm
                ),
            });
        }
        if let (None, Some(reporter)) = (&open.params, open.reporter()) {
            if lost.iter().any(|n| n == reporter) {
                return Err(RuntimeError::NodeFailed {
                    node: reporter.to_string(),
                    reason: "lost mid-round while designated to report the parameter \
                             snapshot; no survivor was planned to report it"
                        .to_string(),
                });
            }
        }
        let round = open.round;
        for party in &lost {
            self.retire(party, out);
            out.extend(self.leave(party));
            deta_obs::event(
                "party_dropped",
                &[
                    ("round", TelemetryValue::from(round)),
                    ("party", TelemetryValue::from(party.as_str())),
                    ("survivors", TelemetryValue::from(survivors)),
                ],
            );
        }
        Ok(())
    }

    /// Heals a failed round with `FailoverPolicy::Restart`, or returns the
    /// fault: recoverable means the policy is on, the fault implicates at
    /// least one aggregator (parties own private data no replacement
    /// could re-create), the Paillier path is off (a replayed upload must
    /// be byte-identical, and re-encrypting would consume party RNG
    /// state), and every target is within its budget.
    ///
    /// Every dead aggregator respawns as a freshly attested CVM under a
    /// new incarnation name in its own mapper slot, and the survivors
    /// learn the new topology. Every party is told one batched `Rebind`,
    /// to re-run Phase II against the proxy's new tokens; the round
    /// replays once the parties and the replacements are ready.
    fn failover(
        &mut self,
        err: RuntimeError,
        now: Duration,
        out: &mut Vec<Directive>,
    ) -> Result<(), RuntimeError> {
        let implicated = err.implicated();
        let targets: Vec<String> = (self.agg_names.iter())
            .filter(|n| implicated.contains(n))
            .cloned()
            .collect();
        if self.cfg.failover == FailoverPolicy::None
            || self.config.paillier.is_some()
            || targets.is_empty()
        {
            return Err(err);
        }
        // Bounded recovery budget, counted against each aggregator's
        // base name so its reincarnations share one allowance.
        for t in &targets {
            let used = (self.budget_used)
                .entry(base_name(t).to_string())
                .or_insert(0);
            if *used >= self.cfg.recovery_attempts {
                return Err(err);
            }
            *used += 1;
        }
        let Some(open) = self.open.as_mut() else {
            return Err(err);
        };
        self.failovers += 1;
        deta_obs::event(
            "failover_started",
            &[
                ("round", TelemetryValue::from(open.round)),
                ("targets", TelemetryValue::from(targets.len())),
            ],
        );
        for t in &targets {
            open.expect_again(t);
        }
        for t in &targets {
            self.retire(t, out);
            self.retired_aggs.push(t.clone());
        }
        let mut aggs = self.agg_names.clone();
        let mut rebinds: Vec<RebindEntry> = Vec::new();
        for (slot, name) in aggs.iter_mut().enumerate() {
            if !targets.contains(name) {
                continue;
            }
            let generation = self.budget_used.get(base_name(name)).copied().unwrap_or(1);
            *name = format!("{}#r{generation}", base_name(name));
            let Ok(index) = u32::try_from(slot) else {
                return Err(RuntimeError::Protocol("aggregator slot exceeds u32"));
            };
            let (name, verifying_key) = (name.clone(), Vec::new());
            rebinds.push(RebindEntry {
                index,
                name,
                verifying_key,
            });
        }
        let round = self.ledger.completed_rounds();
        // Phase I for each replacement: attestation against the sev-sim
        // AP, token provisioning into the fresh CVM.
        for entry in &mut rebinds {
            let endpoint = self.network.register(&entry.name);
            let (node, token) = self.recovery.respawn(&entry.name, endpoint)?;
            entry.verifying_key = token.to_bytes();
            self.tokens.insert(entry.name.clone(), token);
            out.push(Directive::Spawn(Box::new(node)));
            let node = TelemetryValue::from(entry.name.as_str());
            let fields = [("node", node), ("round", TelemetryValue::from(round))];
            deta_obs::event("reattested", &fields);
        }
        let fresh: Vec<String> = rebinds.iter().map(|e| e.name.clone()).collect();
        // Every party re-proves readiness against the new aggregator set
        // before the round replays: no replacement may aggregate over a
        // partially re-registered party set.
        let parties = self.active_parties();
        let rebind = CtlMsg::Rebind { rebinds };
        for p in &parties {
            out.push(Directive::Send(p.clone(), rebind.clone()));
        }
        let expected = parties.iter().chain(&fresh).cloned().collect();
        self.arm(Goal::Barrier { parties, aggs }, expected, now, out);
        Ok(())
    }

    /// Names of the parties still in the session, in index order.
    fn active_parties(&self) -> Vec<String> {
        let names = self.ledger.party_names();
        let online = self.ledger.online().into_iter();
        online.map(|i| names[i].clone()).collect()
    }

    /// Has the session retire `node`; it reports nothing from now on.
    fn retire(&mut self, node: &str, out: &mut Vec<Directive>) {
        self.last_seen.remove(node);
        out.push(Directive::Retire(node.to_string()));
    }
}
