//! [`ThreadedSession`]: the threaded deployment with the sequential
//! session's surface — `setup` → `run` → `Vec<RoundMetrics>`.
//!
//! Node construction is shared with `DetaSession` via
//! `SessionParts::build`, so for a fixed seed both deployments build
//! byte-identical nodes; from there every numeric path is driven by
//! per-node state (independent RNG forks, name-sorted aggregation),
//! which is what makes the final model parameters bit-identical
//! regardless of thread scheduling. What a round selects and reports —
//! cohort, byte windows, timer deltas, the loss mean — is the
//! [`RoundLedger`]'s, the same one the sequential session owns
//! (DESIGN.md §7); this module is the message-driven scheduler around
//! it, plus failover.

use crate::supervisor::{implicated_nodes, Supervisor};
use crate::{FailoverPolicy, Node, Phase, RuntimeConfig, RuntimeError};
use deta_core::aggregator::{AggRole, AggregatorNode};
use deta_core::keybroker::KeyBroker;
use deta_core::mapper::ModelMapper;
use deta_core::party::Party;
use deta_core::round::{OpenRound, RoundLedger};
use deta_core::rtmsg::{CtlMsg, RebindEntry};
use deta_core::session::{DetaConfig, RoundMetrics, SessionParts};
use deta_core::transform::Transformer;
use deta_crypto::{DetRng, VerifyingKey};
use deta_nn::train::LabeledData;
use deta_nn::Sequential;
use deta_telemetry::TelemetryValue;
use deta_transport::Network;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

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

/// A DeTA session deployed as concurrent, supervised node threads.
pub struct ThreadedSession {
    /// What `SessionParts::build` produced, less the nodes (they moved to
    /// their hosts). `tokens` also holds the keys of incarnations retired
    /// by a failover next to their replacements' fresh ones.
    parts: SessionParts,
    supervisor: Supervisor,
    ledger: RoundLedger,
    agg_names: Vec<String>,
    epochs: Vec<MapperEpoch>,
    retired_aggs: Vec<String>,
    failovers: u64,
    /// Failovers consumed per aggregator *base* name (reincarnations
    /// share one allowance).
    budget_used: HashMap<String, u32>,
}

/// A read-only view of a session's bookkeeping and — once their threads
/// are joined — its nodes' final state, for audits and drills
/// ([`ThreadedSession::view`]).
pub struct SessionView<'a> {
    /// Party endpoint names, in index order.
    pub party_names: &'a [String],
    /// Aggregator endpoint names in effect, index 0 the initiator.
    pub agg_names: &'a [String],
    /// Endpoint names of aggregator incarnations retired by failovers,
    /// in retirement order.
    pub retired_aggs: &'a [String],
    /// Parties dropped to partial participation so far (empty unless
    /// `RuntimeConfig::party_drop` engaged).
    pub dropped_parties: &'a HashSet<String>,
    /// Every model-partition epoch so far, oldest first. A session that
    /// never re-partitioned has exactly one.
    pub epochs: &'a [MapperEpoch],
    /// Phase II token verifying keys by aggregator endpoint name —
    /// exactly what the attestation proxy published (and re-published
    /// on every failover re-attestation). Retired incarnations keep
    /// their entries next to their replacements', so adversarial drills
    /// can prove a retired incarnation's key is dead: it must differ
    /// from (and fail verification against) the live entry.
    pub tokens: &'a HashMap<String, VerifyingKey>,
    /// The key broker (per-round training ids and the permutation key).
    pub broker: &'a KeyBroker,
    /// Number of failovers performed so far.
    pub failovers: u64,
    supervisor: &'a Supervisor,
}

impl<'a> SessionView<'a> {
    /// A node's final state by endpoint name, recovered from its joined
    /// thread: available after shutdown, and for a dropped party or an
    /// aggregator incarnation retired by a failover from the moment it
    /// was killed. `None` before that, for an unknown name, or if the
    /// thread panicked.
    pub fn node(&self, name: &str) -> Option<&'a Node> {
        self.supervisor.recovered(name)
    }
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
        let place = |supervisor: &mut Supervisor, nodes: DetachedNodes, _: &Network| {
            for agg in nodes.aggregators {
                supervisor.spawn(Node::Aggregator(Box::new(agg)), &nodes.tokens)?;
            }
            for party in nodes.parties {
                supervisor.spawn(Node::Party(Box::new(party)), &nodes.tokens)?;
            }
            Ok(())
        };
        Self::bootstrap(config, model_builder, party_data, rt, instrument, place)
    }

    /// [`ThreadedSession::setup`] for externally hosted nodes: the nodes
    /// are built deterministically as usual, but instead of spawning one
    /// thread per node, every node is handed to `host` — a transport
    /// bridge that runs them elsewhere (another OS process over a
    /// socket, a remote machine) and relays their traffic through this
    /// session's [`Network`]. The supervisor then waits for every node
    /// to report `Ready` over the bridge exactly as it would for thread
    /// hosting, and the returned session drives rounds unchanged.
    ///
    /// `host` receives the built nodes (it may drop them when the remote
    /// side rebuilds its own copy from the same seed) plus the session
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
        let place = |supervisor: &mut Supervisor, nodes: DetachedNodes, network: &Network| {
            for a in &nodes.aggregators {
                supervisor.adopt(&a.name);
            }
            for p in &nodes.parties {
                supervisor.adopt(&p.name);
            }
            host(nodes, network)
        };
        Self::bootstrap(config, model_builder, party_data, rt, |_| {}, place)
    }

    /// The bootstrap every `setup*` shares: build, instrument, hand the
    /// nodes to `place` (spawn them here, or adopt them and let a bridge
    /// host them), then wait for every node's `Ready`.
    fn bootstrap(
        config: DetaConfig,
        model_builder: &dyn Fn(&mut DetRng) -> Sequential,
        party_data: Vec<LabeledData>,
        rt: RuntimeConfig,
        instrument: impl FnOnce(&mut SessionParts),
        place: impl FnOnce(&mut Supervisor, DetachedNodes, &Network) -> Result<(), RuntimeError>,
    ) -> Result<ThreadedSession, RuntimeError> {
        if rt.telemetry.enabled {
            deta_telemetry::enable();
        }
        let mut parts = SessionParts::build(config, model_builder, party_data)?;
        instrument(&mut parts);
        let nodes = DetachedNodes {
            parties: std::mem::take(&mut parts.parties),
            aggregators: std::mem::take(&mut parts.aggregators),
            tokens: parts.tokens.clone(),
        };
        let party_names: Vec<String> = nodes.parties.iter().map(|p| p.name.clone()).collect();
        let agg_names: Vec<String> = nodes.aggregators.iter().map(|a| a.name.clone()).collect();
        let expected: HashSet<String> = agg_names.iter().chain(&party_names).cloned().collect();
        let mut supervisor = Supervisor::new(parts.network.clone(), rt);
        let deadline = supervisor.config().setup_deadline;
        let ready = place(&mut supervisor, nodes, &parts.network).and_then(|()| {
            supervisor.wait(Phase::Setup, 0, deadline, expected, None, |_, msg| {
                matches!(msg, CtlMsg::Ready)
            })
        });
        if let Err(e) = ready {
            let _ = supervisor.shutdown();
            return Err(e);
        }
        Ok(ThreadedSession {
            ledger: RoundLedger::new(
                &parts.config,
                parts.network.clone(),
                parts.latency_model,
                party_names,
            ),
            epochs: vec![MapperEpoch {
                from_round: 1,
                transformer: parts.transformer.clone(),
                agg_names: agg_names.clone(),
            }],
            parts,
            supervisor,
            agg_names,
            retired_aggs: Vec::new(),
            failovers: 0,
            budget_used: HashMap::new(),
        })
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
        let rounds = self.parts.config.rounds;
        let mut out = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            match self.run_round(test) {
                Ok(m) => out.push(m),
                Err(e) => {
                    let _ = self.supervisor.shutdown();
                    return Err(e);
                }
            }
        }
        self.supervisor.shutdown()?;
        Ok(out)
    }

    /// One training round, fully message-driven. A failed attempt is
    /// healed in place when the failover policy allows it: the loop
    /// below re-enters the completion wait after each recovery, carrying
    /// the completions already collected, until the round finishes or
    /// the failure is terminal.
    fn run_round(&mut self, test: &LabeledData) -> Result<RoundMetrics, RuntimeError> {
        let mut open = self.ledger.open();
        let round = open.round;
        let training_id = self.parts.broker.training_id(round);
        let trigger = CtlMsg::Trigger { round, training_id };

        // Round-scoped trace: everything this driver thread sends from
        // here on carries trace id `round + 1` (0 means untraced), and
        // its transport edge events land in the supervisor's ring.
        deta_telemetry::trace::begin(round + 1);
        let _trace_guard = deta_telemetry::attach(self.supervisor.own_recorder());
        self.supervisor
            .note("round_begin", &[("round", TelemetryValue::from(round))]);

        // Marching orders to every party still in the session (sent once
        // — a failover re-enters the completion wait without
        // re-planning, so no party can be told to train the same round
        // twice), then the round trigger to the initiator. The first
        // party is the designated parameter reporter.
        for (i, plan) in open.plans(true) {
            self.supervisor
                .send_ctl(&self.ledger.party_names()[i], &plan);
        }

        // Collect completions: every aggregator's AggDone and every
        // party's PartyDone, under the round deadline. A recoverable
        // failure runs a failover and re-enters the wait for whoever has
        // not finished yet.
        loop {
            let Some(initiator) = self.agg_names.first().cloned() else {
                return Err(self
                    .supervisor
                    .record_failure(RuntimeError::Protocol("no aggregators deployed")));
            };
            self.supervisor.send_ctl(&initiator, &trigger);
            let expected = self.ledger.awaiting(&open, &self.agg_names);
            let deadline = self.supervisor.config().round_deadline;
            let attempt = self.supervisor.wait(
                Phase::Round,
                round,
                deadline,
                expected,
                Some((initiator, trigger.clone())),
                |from, msg| open.absorb(from, msg),
            );
            match attempt {
                Ok(()) => break,
                Err(err) => self.failover(err, &mut open)?,
            }
        }

        // Evaluate on the supervisor's replica of the (synchronized,
        // therefore identical) party model.
        let Some(params) = open.params.take() else {
            return Err(self
                .supervisor
                .record_failure(RuntimeError::Protocol("missing parameter snapshot")));
        };
        // Driver-side work is on the round's blocking path too; span it
        // so critical-path reports name it instead of charging it to
        // idle.
        let (test_loss, test_accuracy) = {
            let _eval_span =
                deta_telemetry::span("eval").with_field("round", TelemetryValue::from(round));
            self.parts.eval_model.set_flat_params(&params);
            deta_nn::train::evaluate(&mut self.parts.eval_model, test, 128)
        };
        Ok(self
            .ledger
            .close(open, &self.agg_names, test_loss, test_accuracy))
    }

    /// Attempts to heal a failed round attempt. On success the caller
    /// re-enters the completion wait; any error returned here is
    /// terminal (the session degrades to today's structured failure).
    ///
    /// Recoverable means: a failover policy is configured, the fault
    /// implicates at least one aggregator (parties own private data no
    /// replacement could re-create), the Paillier path is off (a
    /// replayed upload must be byte-identical, and re-encrypting would
    /// consume party RNG state), and every target is within its
    /// recovery budget.
    fn failover(&mut self, err: RuntimeError, open: &mut OpenRound) -> Result<(), RuntimeError> {
        let round = open.round;
        // Partial participation first: a lost *party* holds private data
        // no replacement could re-create, so the only recovery is to
        // drop it and continue with the survivors. Aggregator faults
        // fall through to the failover policies below unchanged.
        let err = match self.drop_parties(err, open) {
            Ok(()) => return Ok(()),
            Err(e) => e,
        };
        let policy = self.supervisor.config().failover;
        let budget = self.supervisor.config().recovery_attempts;
        if policy == FailoverPolicy::None || self.parts.config.paillier.is_some() {
            return Err(err);
        }
        let algorithm = self.parts.config.algorithm;
        if policy == FailoverPolicy::Repartition && !algorithm.partition_commutative() {
            // Krum / FLAME-lite score whole fragments, so survivors
            // re-aggregating under a new partition would select
            // differently than the original epoch — re-partition would
            // silently change the round's semantics.
            return Err(err);
        }
        let implicated = implicated_nodes(&err);
        let targets: Vec<String> = self
            .agg_names
            .iter()
            .filter(|n| implicated.contains(n))
            .cloned()
            .collect();
        if targets.is_empty() {
            return Err(err);
        }
        if policy == FailoverPolicy::Repartition && targets.len() >= self.agg_names.len() {
            // Nobody would survive to absorb the dead partitions; degrade
            // to the original (attributed) terminal error.
            return Err(err);
        }
        // Bounded recovery budget, counted against each aggregator's
        // base name so its reincarnations share one allowance.
        for t in &targets {
            let used = self
                .budget_used
                .entry(base_name(t).to_string())
                .or_insert(0);
            if *used >= budget {
                return Err(err);
            }
            *used += 1;
        }
        self.failovers += 1;
        self.supervisor.note(
            "failover_started",
            &[
                ("round", TelemetryValue::from(round)),
                ("policy", TelemetryValue::from(policy_tag(policy))),
                ("targets", TelemetryValue::from(targets.len())),
            ],
        );
        for t in &targets {
            self.supervisor.kill_node(t);
            self.retired_aggs.push(t.clone());
            open.expect_again(t);
        }
        if policy == FailoverPolicy::Repartition {
            self.failover_repartition(&targets, open)?;
        } else {
            self.failover_restart(&targets, open)?;
        }
        self.supervisor
            .note("round_replayed", &[("round", TelemetryValue::from(round))]);
        Ok(())
    }

    /// Graceful degradation to partial participation (DESIGN.md §16):
    /// when `RuntimeConfig::party_drop` is on and a round fault
    /// implicates only parties, drop them from the session — deregister
    /// at every aggregator, retire their threads/mailboxes, and re-enter
    /// the completion wait over the survivors.
    ///
    /// Refused (the original fault, or a structured refusal naming the
    /// lost node, is returned) when:
    ///
    /// * the knob is off, or any implicated node is an aggregator,
    /// * the survivors would fall below the aggregation rule's quorum
    ///   floor ([`deta_core::agg::AggKind::participation_floor`]),
    /// * the lost party is this round's designated parameter reporter
    ///   and its snapshot has not arrived — no survivor was told to
    ///   report, so the round could never complete.
    fn drop_parties(&mut self, err: RuntimeError, open: &OpenRound) -> Result<(), RuntimeError> {
        if !self.supervisor.config().party_drop {
            return Err(err);
        }
        let implicated = implicated_nodes(&err);
        if implicated.is_empty() || implicated.iter().any(|n| self.agg_names.contains(n)) {
            return Err(err);
        }
        let online = self.active_parties();
        let lost: Vec<String> = online
            .iter()
            .filter(|n| implicated.contains(n))
            .cloned()
            .collect();
        if lost.is_empty() {
            return Err(err);
        }
        let survivors = online.len() - lost.len();
        let floor = self.parts.config.algorithm.participation_floor();
        if survivors < floor {
            return Err(self.supervisor.record_failure(RuntimeError::NodeFailed {
                node: lost[0].clone(),
                reason: format!(
                    "lost mid-round; dropping it would leave {survivors} of {} parties, \
                     below the quorum floor of {floor} for {:?}",
                    self.ledger.party_names().len(),
                    self.parts.config.algorithm
                ),
            }));
        }
        // The first party still in the session is the one planned to
        // report the parameter snapshot.
        if let (None, Some(reporter)) = (&open.params, online.first()) {
            if lost.contains(reporter) {
                return Err(self.supervisor.record_failure(RuntimeError::NodeFailed {
                    node: reporter.clone(),
                    reason: "lost mid-round while designated to report the parameter \
                             snapshot; no survivor was planned to report it"
                        .to_string(),
                }));
            }
        }
        for party in &lost {
            self.supervisor.kill_node(party);
            self.ledger.leave(party);
            for agg in &self.agg_names {
                self.supervisor.send_ctl(
                    agg,
                    &CtlMsg::Deregister {
                        party: party.clone(),
                    },
                );
            }
            self.supervisor.note(
                "party_dropped",
                &[
                    ("round", TelemetryValue::from(open.round)),
                    ("party", TelemetryValue::from(party.as_str())),
                    ("survivors", TelemetryValue::from(survivors)),
                ],
            );
        }
        Ok(())
    }

    /// `FailoverPolicy::Restart`: respawn every dead aggregator as a
    /// freshly attested CVM under a new incarnation name (same mapper
    /// slot), rebind every party to the replacements (re-running the
    /// Phase II challenge-response against the proxy's new token), wait
    /// for readiness, then replay the failed round's sealed uploads.
    fn failover_restart(
        &mut self,
        targets: &[String],
        open: &mut OpenRound,
    ) -> Result<(), RuntimeError> {
        let round = open.round;
        // New incarnation names, preserving each target's mapper slot.
        let mut new_names = self.agg_names.clone();
        let mut replaced: Vec<(usize, String)> = Vec::new();
        for t in targets {
            let Some(slot) = self.agg_names.iter().position(|n| n == t) else {
                continue;
            };
            let generation = self.budget_used.get(base_name(t)).copied().unwrap_or(1);
            let name = format!("{}#r{generation}", base_name(t));
            new_names[slot] = name.clone();
            replaced.push((slot, name));
        }
        let Some(initiator) = new_names.first().cloned() else {
            return Err(RuntimeError::Protocol("no aggregators deployed"));
        };
        // Phase I for each replacement (attestation against the sev-sim
        // AP, token provisioning into the fresh CVM), then its thread.
        let mut rebinds: Vec<RebindEntry> = Vec::new();
        for (slot, name) in &replaced {
            let role = AggRole::among(name, &initiator, &new_names);
            let endpoint = self.parts.network.register(name);
            let (node, token) = self.parts.recovery.respawn(name, endpoint, role)?;
            self.parts.tokens.insert(name.clone(), token.clone());
            self.supervisor
                .spawn(Node::Aggregator(Box::new(node)), &self.parts.tokens)?;
            self.supervisor.note(
                "reattested",
                &[
                    ("node", TelemetryValue::from(name.as_str())),
                    ("round", TelemetryValue::from(round)),
                ],
            );
            let Ok(index) = u32::try_from(*slot) else {
                return Err(RuntimeError::Protocol("aggregator slot exceeds u32"));
            };
            rebinds.push(RebindEntry {
                index,
                name: name.clone(),
                verifying_key: token.to_bytes(),
            });
        }
        // Survivors learn the new topology (replacement follower names,
        // or a replacement initiator to report to).
        for name in &new_names {
            if replaced.iter().any(|(_, n)| n == name) {
                continue;
            }
            self.supervisor.send_ctl(
                name,
                &CtlMsg::Topology {
                    initiator: initiator.clone(),
                    aggs: new_names.clone(),
                },
            );
        }
        // Every party re-runs Phase II against the replacements. The
        // rebind is one batched message so no party can report readiness
        // between two rebinds of the same failover.
        let parties = self.active_parties();
        for p in &parties {
            self.supervisor.send_ctl(
                p,
                &CtlMsg::Rebind {
                    rebinds: rebinds.clone(),
                },
            );
        }
        // Barrier: every replacement's service loop up AND every party
        // re-registered before any replay flows — a replacement must
        // never aggregate over a partially re-registered party set.
        let replacements = replaced.into_iter().map(|(_, name)| name).collect();
        self.resume_round(parties, replacements, new_names, open)
    }

    /// `FailoverPolicy::Repartition`: drop the dead aggregators and
    /// rebuild the partition over the survivors. The failed round is
    /// discarded at every survivor (never merged) before any new-epoch
    /// fragment can arrive, a deterministic replacement mapper is
    /// generated over the surviving set, and the round replays under
    /// the new epoch. Privacy argument (DESIGN.md §12): a survivor sees
    /// the failed round's fragments under exactly one partition per
    /// epoch, and the keyed shuffle breaks positional correlation
    /// between the two views of the boundary round.
    fn failover_repartition(
        &mut self,
        targets: &[String],
        open: &mut OpenRound,
    ) -> Result<(), RuntimeError> {
        let round = open.round;
        let survivors: Vec<String> = self
            .agg_names
            .iter()
            .filter(|n| !targets.contains(n))
            .cloned()
            .collect();
        let Some(initiator) = survivors.first().cloned() else {
            return Err(RuntimeError::Protocol(
                "no surviving aggregators to re-partition over",
            ));
        };
        // Survivors discard the failed round and (possibly) learn a
        // promoted initiator. FIFO mailboxes order the Reopen ahead of
        // every replayed upload the parties send later.
        for s in &survivors {
            self.supervisor.send_ctl(s, &CtlMsg::Reopen { round });
            self.supervisor.send_ctl(
                s,
                &CtlMsg::Topology {
                    initiator: initiator.clone(),
                    aggs: survivors.clone(),
                },
            );
            // Reopened survivors must re-complete the round.
            open.expect_again(s);
        }
        // Deterministic replacement partition: epoch `e` is a pure
        // function of (seed, e), so a replay of the whole session
        // rebuilds it bit-exactly.
        let epoch_index = self.epochs.len() as u64;
        let n_params = self.parts.transformer.mapper().n_params();
        let mut rng =
            DetRng::from_u64(self.parts.config.seed).fork_indexed(b"mapper-epoch", epoch_index);
        let mapper = ModelMapper::generate(n_params, survivors.len(), None, &mut rng);
        let mapper_bytes = mapper.to_bytes();
        self.parts.transformer = self.parts.transformer.with_mapper(mapper);
        // Re-point every party at the new partition (drops dead
        // channels, discards this round's old-epoch downloads) and make
        // them re-prove readiness.
        let parties = self.active_parties();
        for p in &parties {
            self.supervisor.send_ctl(
                p,
                &CtlMsg::Remap {
                    round,
                    mapper: mapper_bytes.clone(),
                    aggs: survivors.clone(),
                },
            );
        }
        self.resume_round(parties, Vec::new(), survivors.clone(), open)?;
        // The boundary round belongs to BOTH epochs for audit: its
        // failed attempt put old-epoch fragments in flight.
        self.epochs.push(MapperEpoch {
            from_round: round,
            transformer: self.parts.transformer.clone(),
            agg_names: survivors,
        });
        Ok(())
    }

    /// Names of the parties still in the session, in index order.
    fn active_parties(&self) -> Vec<String> {
        let (names, online) = (self.ledger.party_names(), self.ledger.online());
        online.into_iter().map(|i| names[i].clone()).collect()
    }

    /// The tail both failover policies share: a readiness barrier over
    /// `parties` and the `replacements` just spawned (completions racing
    /// in from survivors meanwhile still count toward the round), then
    /// `agg_names` takes effect and every party re-uploads the failed
    /// round's sealed fragments — idempotently, the bytes are the same.
    fn resume_round(
        &mut self,
        parties: Vec<String>,
        replacements: Vec<String>,
        agg_names: Vec<String>,
        open: &mut OpenRound,
    ) -> Result<(), RuntimeError> {
        let round = open.round;
        let expected = parties.iter().cloned().chain(replacements).collect();
        let deadline = self.supervisor.config().setup_deadline;
        self.supervisor.wait(
            Phase::Setup,
            round,
            deadline,
            expected,
            None,
            |from, msg| {
                matches!(msg, CtlMsg::Ready) || {
                    open.absorb(from, msg);
                    false
                }
            },
        )?;
        self.agg_names = agg_names;
        for p in &parties {
            self.supervisor.send_ctl(p, &CtlMsg::Replay { round });
        }
        Ok(())
    }

    /// Stops every node and joins all threads. Idempotent; [`run`]
    /// already calls this on every path (success and failure).
    ///
    /// [`run`]: ThreadedSession::run
    ///
    /// # Errors
    ///
    /// Reports a panicked node thread; all other threads are still
    /// joined first.
    pub fn shutdown(&mut self) -> Result<(), RuntimeError> {
        self.supervisor.shutdown()
    }

    /// Whether every node thread has been joined.
    pub fn is_shut_down(&self) -> bool {
        self.supervisor.is_shut_down()
    }

    /// Number of completed rounds.
    pub fn completed_rounds(&self) -> u64 {
        self.ledger.completed_rounds()
    }

    /// Flat parameters of party `i`'s final model replica. Available
    /// after shutdown (nodes are recovered from their threads at join);
    /// `None` before that, or for an unknown index.
    pub fn party_params(&self, i: usize) -> Option<Vec<f32>> {
        match self
            .supervisor
            .recovered(self.ledger.party_names().get(i)?)?
        {
            Node::Party(p) => Some(p.model.flat_params()),
            Node::Aggregator(_) => None,
        }
    }

    /// The session's bookkeeping and recovered nodes, read-only.
    pub fn view(&self) -> SessionView<'_> {
        SessionView {
            party_names: self.ledger.party_names(),
            agg_names: &self.agg_names,
            retired_aggs: &self.retired_aggs,
            dropped_parties: self.ledger.left(),
            epochs: &self.epochs,
            tokens: &self.parts.tokens,
            broker: &self.parts.broker,
            failovers: self.failovers,
            supervisor: &self.supervisor,
        }
    }

    /// The deployment's network (e.g. for traffic stats).
    pub fn network(&self) -> &Network {
        &self.parts.network
    }

    /// The flight-recorder dump written for the first fault verdict (if
    /// telemetry is enabled and a fault occurred). See
    /// [`Supervisor::trace_dump_path`].
    pub fn trace_dump_path(&self) -> Option<&Path> {
        self.supervisor.trace_dump_path()
    }

    /// Forces a flight-recorder dump now; see
    /// [`Supervisor::dump_trace`].
    pub fn dump_trace(&mut self) -> Option<PathBuf> {
        self.supervisor.dump_trace()
    }
}

/// The deterministically built nodes of a deployment whose hosting is
/// delegated to a transport bridge (see
/// [`ThreadedSession::setup_detached`]). The token map is the Phase II
/// verification material parties need; a bridge also uses it to check
/// that a remote peer claiming an aggregator name can sign with the
/// attested token key.
pub struct DetachedNodes {
    /// Every party node, in index order.
    pub parties: Vec<Party>,
    /// Every aggregator node, index 0 the initiator.
    pub aggregators: Vec<AggregatorNode>,
    /// Aggregator token verification keys by endpoint name.
    pub tokens: HashMap<String, VerifyingKey>,
}

/// The stable base of an aggregator name across reincarnations
/// (`agg-1#r2` → `agg-1`).
pub fn base_name(name: &str) -> &str {
    name.split('#').next().unwrap_or(name)
}

/// A short static tag for a failover policy (telemetry fields).
fn policy_tag(policy: FailoverPolicy) -> &'static str {
    match policy {
        FailoverPolicy::None => "none",
        FailoverPolicy::Restart => "restart",
        FailoverPolicy::Repartition => "repartition",
    }
}
