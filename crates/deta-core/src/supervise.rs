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
//! A phase is a wait: the set of nodes it expects, a deadline, and for a
//! round a trigger retried with capped exponential backoff. Every node's
//! report counts as a sign of life, so at the deadline the missing nodes
//! split into *stalled* (silent for over four ticks) and merely slow. A
//! failed round is healed when the policy allows it (DESIGN.md §12, §16):
//! parties are dropped to partial participation, or aggregators are
//! respawned through [`RecoveryKit::respawn`] or re-partitioned away;
//! anything else is terminal.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::aggregator::{AggRole, AggregatorNode};
use crate::keybroker::KeyBroker;
use crate::mapper::ModelMapper;
use crate::node::Node;
use crate::party::Party;
use crate::recovery::RecoveryKit;
use crate::round::{OpenRound, RoundLedger};
use crate::rtmsg::{CtlMsg, RebindEntry};
use crate::session::{DetaConfig, RoundMetrics, SessionParts, SetupError};
use crate::transform::Transformer;
use deta_crypto::{DetRng, VerifyingKey};
use deta_nn::Sequential;
use deta_telemetry::TelemetryValue;
use deta_transport::Network;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::time::Duration;

/// Telemetry wiring for a supervised session (see `deta-telemetry` and
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
    /// The first terminal failure ends the session with a structured
    /// [`RuntimeError`].
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

/// Session policy: deadlines, tick rate, retry backoff, fault injection,
/// and failover.
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

/// One model-partition epoch: the transformer (mapper + keyed shuffle)
/// and aggregator set in effect from [`MapperEpoch::from_round`] until
/// the next epoch begins.
///
/// A round healed by re-partition belongs to BOTH the epoch it started
/// under and the epoch it completed under — its failed attempt put
/// old-epoch fragments in flight, so auditors must accept either view
/// for that round (and only that round).
#[derive(Clone)]
pub struct MapperEpoch {
    /// First round this epoch applies to.
    pub from_round: u64,
    /// The party-side transformer of this epoch.
    pub transformer: Transformer,
    /// Aggregator endpoint names of this epoch, index 0 the initiator.
    pub agg_names: Vec<String>,
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
    /// replacements; then `aggs` takes effect, `epoch` begins and the
    /// parties replay the round.
    Barrier {
        parties: Vec<String>,
        aggs: Vec<String>,
        epoch: Option<MapperEpoch>,
    },
}

/// The wait of the phase in progress.
struct Wait {
    goal: Goal,
    start: Duration,
    deadline: Duration,
    expected: HashSet<String>,
    /// A round's trigger retry: when it is due, and the backoff.
    retry: Option<(Duration, Duration)>,
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
    /// Every model-partition epoch so far, oldest first. A session that
    /// never re-partitioned has exactly one.
    pub epochs: &'a [MapperEpoch],
    /// Phase II token verifying keys by aggregator endpoint name, as the
    /// attestation proxy published them: a retired incarnation's key
    /// stays next to its replacement's, so drills can prove it dead.
    pub tokens: &'a HashMap<String, VerifyingKey>,
    /// The key broker (per-round training ids and the permutation key).
    pub broker: &'a KeyBroker,
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

/// A session's control plane: its round ledger, aggregator set, mapper
/// epochs, recovery budget and the phase it waits on.
pub struct Supervisor {
    cfg: RuntimeConfig,
    config: DetaConfig,
    network: Network,
    broker: KeyBroker,
    tokens: HashMap<String, VerifyingKey>,
    recovery: RecoveryKit,
    transformer: Transformer,
    ledger: RoundLedger,
    /// Whether the first party of a round attaches its parameters to
    /// `PartyDone` (a session that evaluates on a replica of its own).
    report_params: bool,
    agg_names: Vec<String>,
    retired_aggs: Vec<String>,
    epochs: Vec<MapperEpoch>,
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
    /// Takes charge of the session `parts` built, under policy `cfg`;
    /// hands back what the session hosts — the parties, the aggregators —
    /// and the model replica to evaluate on. With `report_params` the
    /// first party of each round reports its parameters for that replica.
    pub fn new(
        parts: SessionParts,
        cfg: RuntimeConfig,
        report_params: bool,
    ) -> (Supervisor, Vec<Party>, Vec<AggregatorNode>, Sequential) {
        let party_names = parts.parties.iter().map(|p| p.name.clone()).collect();
        let agg_names: Vec<String> = parts.aggregators.iter().map(|a| a.name.clone()).collect();
        let (network, latency) = (parts.network, parts.latency_model);
        let supervisor = Supervisor {
            ledger: RoundLedger::new(&parts.config, network.clone(), latency, party_names),
            cfg,
            config: parts.config,
            network,
            broker: parts.broker,
            tokens: parts.tokens,
            recovery: parts.recovery,
            epochs: vec![MapperEpoch {
                from_round: 1,
                transformer: parts.transformer.clone(),
                agg_names: agg_names.clone(),
            }],
            transformer: parts.transformer,
            report_params,
            agg_names,
            retired_aggs: Vec::new(),
            failovers: 0,
            budget_used: HashMap::new(),
            open: None,
            wait: None,
            last_seen: HashMap::new(),
        };
        let SessionParts {
            parties,
            aggregators,
            eval_model,
            ..
        } = parts;
        (supervisor, parties, aggregators, eval_model)
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
        let open = self.ledger.open();
        deta_telemetry::event("round_begin", &[("round", open.round.into())]);
        let names = self.ledger.party_names();
        let plans = open.plans(self.report_params).into_iter();
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
                        if let (true, Some(t)) = (deta_telemetry::enabled(), previous) {
                            let gap = now.saturating_sub(t).as_secs_f64();
                            let metric = "deta_heartbeat_gap_seconds";
                            deta_telemetry::metrics::histogram_observe(metric, &from, gap);
                        }
                        false
                    }
                    CtlMsg::Failed { reason } => {
                        return self.fault(RuntimeError::NodeFailed { node: from, reason }, now);
                    }
                    CtlMsg::Ready if !matches!(wait.goal, Goal::Round) => true,
                    // Completions racing in during a failover barrier
                    // still count toward the round.
                    msg => {
                        let absorbed = self.open.as_mut().is_some_and(|o| o.absorb(&from, msg));
                        absorbed && matches!(wait.goal, Goal::Round)
                    }
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
            Event::Timer => self.timer(now, &mut out),
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

    /// When the phase in progress next needs the clock: its deadline, or
    /// an earlier retry. `None` outside a phase.
    pub fn next_timer(&self) -> Option<Duration> {
        let wait = self.wait.as_ref()?;
        Some(
            wait.retry
                .map_or(wait.deadline, |(at, _)| at.min(wait.deadline)),
        )
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

    /// `party` leaves the session at a round boundary (an operator's
    /// dropout, not a fault).
    pub fn leave(&mut self, party: &str) {
        self.ledger.leave(party);
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
            epochs: &self.epochs,
            tokens: &self.tokens,
            broker: &self.broker,
            failovers: self.failovers,
            nodes,
        }
    }

    /// The deadline, which ends the wait with the missing/stalled split,
    /// or the trigger retry, which re-sends and backs off.
    fn timer(&mut self, now: Duration, out: &mut Vec<Directive>) -> Option<RuntimeError> {
        let wait = self.wait.as_ref()?;
        let round = self.open.as_ref().map_or(0, |o| o.round);
        if now >= wait.deadline {
            let mut missing: Vec<String> = wait.expected.iter().cloned().collect();
            missing.sort();
            let stale_after = self.cfg.tick * 4;
            let silent = |n: &&String| {
                let seen = self.last_seen.get(*n);
                seen.is_none_or(|t| now.saturating_sub(*t) > stale_after)
            };
            let stalled: Vec<String> = missing.iter().filter(silent).cloned().collect();
            deta_telemetry::event(
                "deadline_expired",
                &[
                    ("round", TelemetryValue::from(round)),
                    ("missing", TelemetryValue::from(missing.len())),
                    ("stalled", TelemetryValue::from(stalled.len())),
                ],
            );
            let round_wait = matches!(wait.goal, Goal::Round);
            return Some(RuntimeError::Timeout {
                phase: if round_wait {
                    Phase::Round
                } else {
                    Phase::Setup
                },
                round,
                missing,
                stalled,
                waited: now.saturating_sub(wait.start),
            });
        }
        let (_, backoff) = wait.retry.filter(|(at, _)| now >= *at)?;
        let (to, trigger) = self.trigger()?;
        if deta_telemetry::enabled() {
            deta_telemetry::metrics::counter_add("deta_supervisor_retries_total", &to, 1);
            let backoff_ms = u64::try_from(backoff.as_millis()).unwrap_or(u64::MAX);
            let fields = [("round", round.into()), ("backoff_ms", backoff_ms.into())];
            deta_telemetry::event("retry", &fields);
        }
        out.push(Directive::Send(to, trigger));
        let backoff = backoff.saturating_mul(2).min(self.cfg.retry_max);
        if let Some(wait) = self.wait.as_mut() {
            wait.retry = Some((now.saturating_add(backoff), backoff));
        }
        None
    }

    /// Waits on `expected` for `goal`; an empty set completes at once.
    fn arm(
        &mut self,
        goal: Goal,
        expected: HashSet<String>,
        now: Duration,
        out: &mut Vec<Directive>,
    ) {
        let round_wait = matches!(goal, Goal::Round);
        let (initial, cfg) = (self.cfg.retry_initial, &self.cfg);
        let deadline = if round_wait {
            cfg.round_deadline
        } else {
            cfg.setup_deadline
        };
        let empty = expected.is_empty();
        self.wait = Some(Wait {
            goal,
            start: now,
            deadline: now.saturating_add(deadline),
            expected,
            retry: round_wait.then(|| (now.saturating_add(initial), initial)),
        });
        if empty {
            self.complete(now, out);
        }
    }

    /// The open round's trigger, for the initiator in effect.
    fn trigger(&self) -> Option<(String, CtlMsg)> {
        let round = self.open.as_ref()?.round;
        let training_id = self.broker.training_id(round);
        let initiator = self.agg_names.first()?.clone();
        Some((initiator, CtlMsg::Trigger { round, training_id }))
    }

    /// (Re-)enters the open round's completion wait: the trigger to the
    /// initiator, retried while the round waits on anyone.
    fn await_round(&mut self, now: Duration, out: &mut Vec<Directive>) {
        let (Some(open), Some((to, trigger))) = (&self.open, self.trigger()) else {
            let err = RuntimeError::Protocol("no aggregators deployed");
            return out.push(Directive::Fail(err));
        };
        let expected = self.ledger.awaiting(open, &self.agg_names);
        out.push(Directive::Send(to, trigger));
        self.arm(Goal::Round, expected, now, out);
    }

    /// Nobody is awaited any more: the phase is done, or a failover's
    /// barrier falls and the round replays.
    fn complete(&mut self, now: Duration, out: &mut Vec<Directive>) {
        match self.wait.take().map(|w| w.goal) {
            Some(Goal::Barrier {
                parties,
                aggs,
                epoch,
            }) => {
                self.agg_names = aggs;
                self.epochs.extend(epoch);
                let round = self.open.as_ref().map_or(0, |o| o.round);
                for p in parties {
                    out.push(Directive::Send(p, CtlMsg::Replay { round }));
                }
                deta_telemetry::event("round_replayed", &[("round", round.into())]);
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
        // The first party still in the session is the one planned to
        // report the parameter snapshot.
        let reporter = online.first().filter(|_| self.report_params);
        if let (None, Some(reporter)) = (&open.params, reporter) {
            if lost.contains(reporter) {
                return Err(RuntimeError::NodeFailed {
                    node: reporter.clone(),
                    reason: "lost mid-round while designated to report the parameter \
                             snapshot; no survivor was planned to report it"
                        .to_string(),
                });
            }
        }
        let round = open.round;
        for party in &lost {
            self.retire(party, out);
            self.ledger.leave(party);
            for agg in &self.agg_names {
                let msg = CtlMsg::Deregister {
                    party: party.clone(),
                };
                out.push(Directive::Send(agg.clone(), msg));
            }
            deta_telemetry::event(
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

    /// Heals a failed round with the failover policy, or returns the
    /// fault: recoverable means a policy is configured, the fault
    /// implicates at least one aggregator (parties own private data no
    /// replacement could re-create), the Paillier path is off (a
    /// replayed upload must be byte-identical, and re-encrypting would
    /// consume party RNG state), and every target is within its budget.
    fn failover(
        &mut self,
        err: RuntimeError,
        now: Duration,
        out: &mut Vec<Directive>,
    ) -> Result<(), RuntimeError> {
        let policy = self.cfg.failover;
        let implicated = err.implicated();
        let targets: Vec<String> = (self.agg_names.iter())
            .filter(|n| implicated.contains(n))
            .cloned()
            .collect();
        let repartition = policy == FailoverPolicy::Repartition;
        if policy == FailoverPolicy::None
            || self.config.paillier.is_some()
            || targets.is_empty()
            // Krum / FLAME-lite score whole fragments, so survivors
            // re-aggregating under a new partition would select
            // differently than the original epoch.
            || (repartition && !self.config.algorithm.partition_commutative())
            // Nobody would survive to absorb the dead partitions.
            || (repartition && targets.len() >= self.agg_names.len())
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
        deta_telemetry::event(
            "failover_started",
            &[
                ("round", TelemetryValue::from(open.round)),
                (
                    "policy",
                    TelemetryValue::from(format!("{policy:?}").to_lowercase()),
                ),
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
        let (aggs, told, fresh, epoch) = match repartition {
            true => self.repartition(&targets, out)?,
            false => self.restart(&targets, out)?,
        };
        // Every party re-proves readiness against the new aggregator set
        // before the round replays: no replacement may aggregate over a
        // partially re-registered party set.
        let parties = self.active_parties();
        for p in &parties {
            out.push(Directive::Send(p.clone(), told.clone()));
        }
        let expected = parties.iter().chain(&fresh).cloned().collect();
        let goal = Goal::Barrier {
            parties,
            aggs,
            epoch,
        };
        self.arm(goal, expected, now, out);
        Ok(())
    }

    /// `FailoverPolicy::Restart`: every dead aggregator respawns as a
    /// freshly attested CVM under a new incarnation name (same mapper
    /// slot) and the survivors learn the new topology. Every party is told
    /// one batched `Rebind`, to re-run Phase II against the proxy's new
    /// tokens; the replacements are waited for.
    fn restart(&mut self, targets: &[String], out: &mut Vec<Directive>) -> Rearranged {
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
            let role = AggRole::among(&entry.name, &aggs[0], &aggs);
            let endpoint = self.network.register(&entry.name);
            let (node, token) = self.recovery.respawn(&entry.name, endpoint, role)?;
            entry.verifying_key = token.to_bytes();
            self.tokens.insert(entry.name.clone(), token);
            out.push(Directive::Spawn(Box::new(node)));
            let node = TelemetryValue::from(entry.name.as_str());
            let fields = [("node", node), ("round", TelemetryValue::from(round))];
            deta_telemetry::event("reattested", &fields);
        }
        let fresh: Vec<String> = rebinds.iter().map(|e| e.name.clone()).collect();
        for survivor in aggs.iter().filter(|n| !fresh.contains(n)) {
            let (initiator, aggs) = (aggs[0].clone(), aggs.clone());
            let topology = CtlMsg::Topology { initiator, aggs };
            out.push(Directive::Send(survivor.clone(), topology));
        }
        Ok((aggs, CtlMsg::Rebind { rebinds }, fresh, None))
    }

    /// `FailoverPolicy::Repartition`: the survivors discard the failed
    /// round (never merged) and learn a possibly promoted initiator; every
    /// party is told to `Remap` onto a deterministic replacement mapper
    /// over them — a pure function of (seed, epoch), so a replay of the
    /// session rebuilds it bit-exactly — whose epoch begins with the
    /// round. Privacy argument: DESIGN.md §12.
    fn repartition(&mut self, targets: &[String], out: &mut Vec<Directive>) -> Rearranged {
        let survivors: Vec<String> = (self.agg_names.iter())
            .filter(|n| !targets.contains(n))
            .cloned()
            .collect();
        let (Some(initiator), Some(open)) = (survivors.first(), self.open.as_mut()) else {
            let why = "no surviving aggregators to re-partition over";
            return Err(RuntimeError::Protocol(why));
        };
        let round = open.round;
        for s in &survivors {
            let (initiator, aggs) = (initiator.clone(), survivors.clone());
            out.push(Directive::Send(s.clone(), CtlMsg::Reopen { round }));
            out.push(Directive::Send(
                s.clone(),
                CtlMsg::Topology { initiator, aggs },
            ));
            // Reopened survivors must re-complete the round.
            open.expect_again(s);
        }
        let epoch = self.epochs.len() as u64;
        let n_params = self.transformer.mapper().n_params();
        let mut rng = DetRng::from_u64(self.config.seed).fork_indexed(b"mapper-epoch", epoch);
        let mapper = ModelMapper::generate(n_params, survivors.len(), None, &mut rng);
        let (bytes, aggs) = (mapper.to_bytes(), survivors.clone());
        self.transformer = self.transformer.with_mapper(mapper);
        let epoch = MapperEpoch {
            from_round: round,
            transformer: self.transformer.clone(),
            agg_names: survivors.clone(),
        };
        let remap = CtlMsg::Remap {
            round,
            mapper: bytes,
            aggs,
        };
        Ok((survivors, remap, Vec::new(), Some(epoch)))
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

/// A failover's new arrangement: the aggregator set, what every party is
/// told, the replacements to wait for, and the mapper epoch it begins.
type Rearranged = Result<(Vec<String>, CtlMsg, Vec<String>, Option<MapperEpoch>), RuntimeError>;
