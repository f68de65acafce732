//! End-to-end orchestration of the DeTA training life cycle (paper
//! Figure 1).
//!
//! [`DetaSession::setup`] performs the full bootstrap:
//!
//! 1. launches one (simulated) SEV platform per aggregator and runs the
//!    attestation proxy's Phase I verification + token provisioning,
//! 2. generates the shared model mapper and permutation key (key broker),
//! 3. builds identically initialized party models and runs Phase II
//!    (challenge-response verification, registration, secure channels).
//!
//! [`DetaSession::run`] then drives synchronized training rounds through
//! the initiator aggregator, collecting accuracy/loss and latency metrics
//! per round — the quantities plotted in the paper's Figures 5-7.

use crate::agg::AggKind;
use crate::aggregator::{AggError, AggRole, AggregatorNode};
use crate::dp::LdpConfig;
use crate::keybroker::KeyBroker;
use crate::latency::{LatencyModel, RoundLatency};
use crate::mapper::ModelMapper;
use crate::paillier_fusion::{PaillierFusion, PaillierFusionConfig};
use crate::party::{Party, PartyConfig, PartyError};
use crate::recovery::RecoveryKit;
use crate::round::{OpenRound, RoundLedger};
use crate::transform::{TransformConfig, Transformer};
use deta_crypto::{DetRng, VerifyingKey};
use deta_nn::train::LabeledData;
use deta_nn::Sequential;
use deta_sev_sim::{BreachDump, Cvm, SevError};
use deta_transport::{LinkModel, Network};
use std::collections::{HashMap, HashSet};

/// Model-update synchronization mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncMode {
    /// Parties train locally for several epochs and upload parameters.
    FedAvg,
    /// Parties upload per-batch gradients each round.
    FedSgd,
}

/// Full configuration of a DeTA (or baseline) FL session.
#[derive(Clone, Debug)]
pub struct DetaConfig {
    /// Number of participating parties.
    pub n_parties: usize,
    /// Number of decentralized aggregators.
    pub n_aggregators: usize,
    /// Partition proportions (None = equal).
    pub proportions: Option<Vec<f32>>,
    /// Which defense layers are active.
    pub transform: TransformConfig,
    /// Aggregation algorithm.
    pub algorithm: AggKind,
    /// Enable the Paillier encrypted-fusion path.
    pub paillier: Option<PaillierFusionConfig>,
    /// FedAvg or FedSGD.
    pub mode: SyncMode,
    /// Number of training rounds.
    pub rounds: usize,
    /// Local epochs per round (FedAvg).
    pub local_epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f32,
    /// Master seed (controls every random choice in the session).
    pub seed: u64,
    /// Network link model.
    pub link: LinkModel,
    /// Whether aggregators run CC-protected (affects latency accounting;
    /// the FFL baseline sets this false).
    pub cc_protected: bool,
    /// Optional party-side local differential privacy.
    pub ldp: Option<LdpConfig>,
    /// Per-round participation quorum: only this many parties train and
    /// upload each round (chosen deterministically per round); the rest
    /// synchronize with the aggregate. `None` = full participation.
    pub participation: Option<usize>,
}

impl DetaConfig {
    /// A standard DeTA deployment: three SEV aggregators (as in the
    /// paper's evaluation), full transform, iterative averaging.
    pub fn deta(n_parties: usize, rounds: usize) -> DetaConfig {
        DetaConfig {
            n_parties,
            n_aggregators: 3,
            proportions: None,
            transform: TransformConfig::full(),
            algorithm: AggKind::IterativeAveraging,
            paillier: None,
            mode: SyncMode::FedAvg,
            rounds,
            local_epochs: 1,
            batch_size: 32,
            lr: 0.1,
            seed: 0,
            link: LinkModel::lan(),
            cc_protected: true,
            ldp: None,
            participation: None,
        }
    }

    /// The FFL baseline: one central aggregator, no transform, no CC.
    pub fn ffl_baseline(n_parties: usize, rounds: usize) -> DetaConfig {
        DetaConfig {
            n_aggregators: 1,
            transform: TransformConfig::none(),
            cc_protected: false,
            ..Self::deta(n_parties, rounds)
        }
    }
}

/// Per-round metrics (the data behind the paper's figures).
#[derive(Clone, Copy, Debug)]
pub struct RoundMetrics {
    /// Round number, starting at 1.
    pub round: u64,
    /// Mean training loss across parties during this round.
    pub train_loss: f32,
    /// Global test loss after synchronization.
    pub test_loss: f32,
    /// Global test accuracy after synchronization.
    pub test_accuracy: f32,
    /// Latency breakdown of this round.
    pub latency: RoundLatency,
    /// This round's total latency in seconds.
    pub round_latency_s: f64,
    /// Cumulative latency since round 1 (the paper's y-axis).
    pub cumulative_latency_s: f64,
    /// Bytes uploaded by all parties this round.
    pub upload_bytes: u64,
    /// Bytes downloaded by all parties this round.
    pub download_bytes: u64,
}

/// Errors during session setup.
#[derive(Debug)]
pub enum SetupError {
    /// Attestation failure (Phase I).
    Sev(SevError),
    /// Aggregator bring-up failure.
    Agg(AggError),
    /// Party authentication/registration failure (Phase II).
    Party(PartyError),
    /// Configuration inconsistency.
    Config(&'static str),
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetupError::Sev(e) => write!(f, "attestation failed: {e}"),
            SetupError::Agg(e) => write!(f, "aggregator setup failed: {e}"),
            SetupError::Party(e) => write!(f, "party setup failed: {e}"),
            SetupError::Config(why) => write!(f, "bad configuration: {why}"),
        }
    }
}

impl std::error::Error for SetupError {}

impl From<SevError> for SetupError {
    fn from(e: SevError) -> Self {
        SetupError::Sev(e)
    }
}

impl From<AggError> for SetupError {
    fn from(e: AggError) -> Self {
        SetupError::Agg(e)
    }
}

impl From<PartyError> for SetupError {
    fn from(e: PartyError) -> Self {
        SetupError::Party(e)
    }
}

/// The deployable pieces of a session, before Phase II runs.
///
/// [`SessionParts::build`] performs everything that is independent of
/// *how* the nodes are driven: Phase I attestation, mapper/permutation-key
/// generation, optional Paillier material, and construction of every
/// aggregator node and party with deterministic per-node RNG forks. The
/// synchronous [`DetaSession`] and the threaded runtime both start from
/// these parts, which is what makes their results bit-identical for a
/// fixed seed.
pub struct SessionParts {
    /// The session configuration the parts were built from.
    pub config: DetaConfig,
    /// The shared in-process network.
    pub network: Network,
    /// Parties, in index order (`party-{i}`), Phase II not yet run.
    pub parties: Vec<Party>,
    /// Aggregator nodes (`agg-{j}`, index 0 is the initiator).
    pub aggregators: Vec<AggregatorNode>,
    /// The key broker (per-round training ids).
    pub broker: KeyBroker,
    /// The latency model matching `cc_protected`.
    pub latency_model: LatencyModel,
    /// Token verifying keys published by the attestation proxy, keyed by
    /// aggregator name; parties need these to run Phase II.
    pub tokens: HashMap<String, VerifyingKey>,
    /// A model replica identical to every party's starting model (for
    /// driver-side evaluation without reaching into a party thread).
    pub eval_model: Sequential,
    /// The shared transform (mapper + permutation key) every party
    /// uploads through. Exposed so external checkers (deta-simnet's
    /// privacy auditor) can recompute which shuffled partition each
    /// aggregator is entitled to see.
    pub transformer: Transformer,
    /// Attestation material for mid-session aggregator failover: the
    /// proxy (with its token directory), RAS, and reference image move
    /// in here instead of being dropped after setup, plus a dedicated
    /// RNG fork so respawns never perturb the original node streams.
    pub recovery: RecoveryKit,
}

/// What every process of a session derives identically from the seed
/// before it builds a single node: the checked configuration, Phase I
/// for every aggregator (the proxy's challenge stream is sequential, so
/// the token directory only comes out the same if everyone attests the
/// whole fleet), the network, and the RNG forks the nodes are cut from.
/// [`SessionParts::build`] constructs every node from one and
/// [`NodeParts::build`] exactly one — through the same constructors, so
/// a node built alone is bit-identical to its twin in the full build.
struct Blueprint<'a> {
    config: DetaConfig,
    model_builder: &'a dyn Fn(&mut DetRng) -> Sequential,
    root: DetRng,
    sev_rng: DetRng,
    network: Network,
    agg_names: Vec<String>,
    /// The provisioned CVMs, by aggregator index, until a caller hands
    /// each to its node's constructor.
    cvms: Vec<Cvm>,
    tokens: HashMap<String, VerifyingKey>,
    paillier: Option<PaillierFusion>,
    /// The session's trust pipeline: it attested and provisions the
    /// original fleet here, replacements after setup.
    recovery: RecoveryKit,
}

fn party_name(i: usize) -> String {
    format!("party-{i}")
}

impl<'a> Blueprint<'a> {
    fn new(
        config: DetaConfig,
        model_builder: &'a dyn Fn(&mut DetRng) -> Sequential,
        party_shards: usize,
    ) -> Result<Blueprint<'a>, SetupError> {
        if party_shards != config.n_parties {
            return Err(SetupError::Config("party_data count != n_parties"));
        }
        if config.n_aggregators == 0 {
            return Err(SetupError::Config("need at least one aggregator"));
        }
        if !config.transform.partition && config.n_aggregators != 1 {
            return Err(SetupError::Config(
                "partitioning disabled requires exactly one aggregator",
            ));
        }
        if let Some(q) = config.participation {
            if q == 0 || q > config.n_parties {
                return Err(SetupError::Config("participation quorum out of range"));
            }
            if config.paillier.is_some() {
                // Paillier decoding needs a summand count known to parties
                // up front; partial participation is plain-path only here.
                return Err(SetupError::Config(
                    "partial participation is not supported with Paillier fusion",
                ));
            }
        }
        let root = DetRng::from_u64(config.seed);

        // --- Optional Paillier fusion material. ---
        let paillier = config
            .paillier
            .as_ref()
            .map(|pc| PaillierFusion::setup(pc, config.n_parties, &mut root.fork(b"paillier")));

        // --- Phase I: attest and provision every aggregator. ---
        let sev_rng = root.fork(b"sev");
        let aggregator_key = paillier.as_ref().map(|f| f.aggregator_key());
        let mut recovery = RecoveryKit::new(&config, &sev_rng, aggregator_key);
        let agg_names: Vec<String> = (0..config.n_aggregators)
            .map(|j| format!("agg-{j}"))
            .collect();
        let mut cvms = Vec::with_capacity(agg_names.len());
        let mut tokens: HashMap<String, VerifyingKey> = HashMap::new();
        for (j, name) in agg_names.iter().enumerate() {
            let mut rng = sev_rng.fork_indexed(b"platform", j as u64);
            let prov = recovery.attest(&format!("EPYC-7642-{j:03}"), &mut rng)?;
            tokens.insert(name.clone(), prov.token_key);
            cvms.push(prov.cvm);
        }
        Ok(Blueprint {
            network: Network::new(config.link),
            config,
            model_builder,
            root,
            sev_rng,
            agg_names,
            cvms,
            tokens,
            paillier,
            recovery,
        })
    }

    /// Aggregator `j`, around the CVM Phase I provisioned for it. No
    /// model, no mapper: an aggregator only ever sees fragments.
    fn aggregator(&self, j: usize, cvm: Cvm) -> Result<AggregatorNode, SetupError> {
        let name = &self.agg_names[j];
        let endpoint = self.network.register(name);
        let role = AggRole::among(name, &self.agg_names[0], &self.agg_names);
        let rng = self.sev_rng.fork_indexed(b"agg-rng", j as u64);
        Ok(self.recovery.node(name, cvm, endpoint, role, rng)?)
    }

    /// The starting model: every call returns the same replica.
    fn model(&self) -> Sequential {
        (self.model_builder)(&mut self.root.fork(b"model-init"))
    }

    /// The key broker and the transform every party uploads through,
    /// for a model of `n_params` parameters.
    fn transformer(&self, n_params: usize) -> (KeyBroker, Transformer) {
        let mapper = ModelMapper::generate(
            n_params,
            self.config.n_aggregators,
            self.config.proportions.as_deref(),
            &mut self.root.fork(b"mapper"),
        );
        let broker = KeyBroker::new(&mut self.root.fork(b"keybroker"));
        let transformer = Transformer::new(mapper, broker.permutation_key(), self.config.transform);
        (broker, transformer)
    }

    /// Party `i` over `data`, with a model replica of its own.
    fn party(
        &self,
        i: usize,
        model: Sequential,
        data: LabeledData,
        transformer: Transformer,
    ) -> Party {
        let config = &self.config;
        let grad_scale = match config.algorithm {
            AggKind::GradientSum => 1.0 / config.n_parties as f32,
            _ => 1.0,
        };
        let party_cfg = PartyConfig {
            local_epochs: config.local_epochs,
            batch_size: config.batch_size,
            lr: config.lr,
            mode: config.mode,
            n_parties: config.n_parties,
            grad_scale,
            ldp: config.ldp,
        };
        let name = party_name(i);
        let mut party = Party::new(
            &name,
            self.network.register(&name),
            model,
            data,
            transformer,
            self.agg_names.clone(),
            party_cfg,
            self.root.fork_indexed(b"party-rng", i as u64),
        );
        party.paillier = self.paillier.clone();
        party
    }
}

impl SessionParts {
    /// Phase II, every node driven inline: parties verify the
    /// aggregators, open their channels and register.
    ///
    /// # Errors
    ///
    /// An aggregator that fails authentication, or a registration an
    /// aggregator never acknowledged.
    pub fn phase_two(&mut self) -> Result<(), SetupError> {
        for p in &mut self.parties {
            p.send_hellos(&self.tokens);
        }
        for a in &mut self.aggregators {
            a.pump();
        }
        for p in &mut self.parties {
            p.complete_handshakes()?;
        }
        for a in &mut self.aggregators {
            a.pump();
        }
        for p in &mut self.parties {
            if !p.registration_complete() {
                return Err(SetupError::Party(PartyError::Protocol(
                    "registration incomplete",
                )));
            }
        }
        Ok(())
    }

    /// Builds every node of a session deterministically from the seed.
    ///
    /// `model_builder` must be deterministic in its RNG; every party's
    /// model is built from the same fork so replicas start identical.
    ///
    /// # Errors
    ///
    /// Fails if any aggregator cannot be attested or the configuration is
    /// inconsistent.
    pub fn build(
        config: DetaConfig,
        model_builder: &dyn Fn(&mut DetRng) -> Sequential,
        party_data: Vec<LabeledData>,
    ) -> Result<SessionParts, SetupError> {
        let mut plan = Blueprint::new(config, model_builder, party_data.len())?;
        let aggregators = std::mem::take(&mut plan.cvms)
            .into_iter()
            .enumerate()
            .map(|(j, cvm)| plan.aggregator(j, cvm))
            .collect::<Result<Vec<_>, _>>()?;
        let eval_model = plan.model();
        let (broker, transformer) = plan.transformer(eval_model.param_count());
        let parties = party_data
            .into_iter()
            .enumerate()
            .map(|(i, data)| plan.party(i, plan.model(), data, transformer.clone()))
            .collect();

        let config = plan.config;
        let latency_model = if config.cc_protected {
            LatencyModel::deta_default(config.link)
        } else {
            LatencyModel::ffl_default(config.link)
        };
        Ok(SessionParts {
            config,
            network: plan.network,
            parties,
            aggregators,
            broker,
            latency_model,
            tokens: plan.tokens,
            eval_model,
            transformer,
            recovery: plan.recovery,
        })
    }
}

/// A node, as a host holds it: the value an actor loop serves and hands
/// back when it exits, final state intact, so the host can inspect it
/// (model parameters, breached memory) after the join.
pub enum Node {
    /// A party.
    Party(Box<Party>),
    /// An aggregator.
    Aggregator(Box<AggregatorNode>),
}

impl Node {
    /// The node's endpoint name.
    pub fn name(&self) -> &str {
        match self {
            Node::Party(p) => &p.name,
            Node::Aggregator(a) => &a.name,
        }
    }
}

/// One node of a session built on its own: everything a process that
/// hosts a single node holds. A party comes with its model, transformer
/// and shard; an aggregator with *no model and no mapper* — it is
/// entitled to neither. Both come with the token directory of the whole
/// fleet and a network replica on which every name of the session has a
/// mailbox, so sends resolve and closures can be mirrored.
pub struct NodeParts {
    /// The local network replica.
    pub network: Network,
    /// The hosted node, Phase II not yet run.
    pub node: Node,
    /// Token verifying keys published by the attestation proxy, keyed by
    /// aggregator name.
    pub tokens: HashMap<String, VerifyingKey>,
}

impl NodeParts {
    /// Builds the node `name` (`party-{i}` or `agg-{j}`) of the session
    /// [`SessionParts::build`] would build from the same arguments, and
    /// nothing else: the other shards are dropped, no other model is
    /// initialised, nothing of the construction outlives the call. The
    /// node is bit-identical to its twin in the full build.
    ///
    /// # Errors
    ///
    /// As [`SessionParts::build`], plus a `name` the session does not
    /// have.
    pub fn build(
        config: DetaConfig,
        model_builder: &dyn Fn(&mut DetRng) -> Sequential,
        party_data: Vec<LabeledData>,
        name: &str,
    ) -> Result<NodeParts, SetupError> {
        let mut plan = Blueprint::new(config, model_builder, party_data.len())?;
        let parties = party_data.len();
        let mut shards = party_data.into_iter().enumerate();
        let node = if let Some(j) = plan.agg_names.iter().position(|a| a == name) {
            let cvm = plan.cvms.swap_remove(j);
            Node::Aggregator(Box::new(plan.aggregator(j, cvm)?))
        } else if let Some((i, data)) = shards.find(|(i, _)| party_name(*i) == name) {
            let model = plan.model();
            let (_, transformer) = plan.transformer(model.param_count());
            Node::Party(Box::new(plan.party(i, model, data, transformer)))
        } else {
            return Err(SetupError::Config("no node of that name in the session"));
        };
        // Everyone else's mailbox, so that sends to them resolve (a host
        // routes them out) and their closures can be mirrored in.
        let others = plan
            .agg_names
            .iter()
            .cloned()
            .chain((0..parties).map(party_name));
        for other in others.filter(|other| other != name) {
            let _ = plan.network.register(&other);
        }
        Ok(NodeParts {
            network: plan.network,
            node,
            tokens: plan.tokens,
        })
    }
}

/// A fully bootstrapped FL session.
pub struct DetaSession {
    /// The active configuration.
    pub config: DetaConfig,
    network: Network,
    parties: Vec<Party>,
    aggregators: Vec<AggregatorNode>,
    broker: KeyBroker,
    ledger: RoundLedger,
    offline: HashSet<usize>,
}

impl DetaSession {
    /// Bootstraps a session: Phase I attestation, mapper/key generation,
    /// Phase II authentication and registration.
    ///
    /// `model_builder` must be deterministic in its RNG; every party's
    /// model is built from the same fork so replicas start identical.
    ///
    /// # Errors
    ///
    /// Fails if any aggregator cannot be attested or authenticated, or if
    /// the configuration is inconsistent.
    pub fn setup(
        config: DetaConfig,
        model_builder: &dyn Fn(&mut DetRng) -> Sequential,
        party_data: Vec<LabeledData>,
    ) -> Result<DetaSession, SetupError> {
        let mut parts = SessionParts::build(config, model_builder, party_data)?;
        parts.phase_two()?;
        let SessionParts {
            config,
            network,
            parties,
            aggregators,
            broker,
            latency_model,
            ..
        } = parts;

        let party_names = parties.iter().map(|p| p.name.clone()).collect();
        Ok(DetaSession {
            ledger: RoundLedger::new(&config, network.clone(), latency_model, party_names),
            config,
            network,
            parties,
            aggregators,
            broker,
            offline: HashSet::new(),
        })
    }

    /// Takes party `i` offline at a round boundary (cross-silo dropout).
    ///
    /// The party is deregistered from every aggregator; subsequent rounds
    /// aggregate over the remaining parties. At least one party must stay
    /// online.
    ///
    /// # Panics
    ///
    /// Panics if this would leave no online parties, or mid-round.
    pub fn drop_party(&mut self, i: usize) {
        assert!(i < self.parties.len(), "no such party");
        assert!(
            self.offline.len() + 1 < self.parties.len(),
            "cannot drop the last online party"
        );
        self.offline.insert(i);
        let name = self.parties[i].name.clone();
        for a in &mut self.aggregators {
            a.deregister(&name);
        }
    }

    /// Number of currently online parties.
    pub fn online_parties(&self) -> usize {
        self.parties.len() - self.offline.len()
    }

    /// Schedules one training round — every node driven inline, phase by
    /// phase — and returns it still open; what the round selects and
    /// reports is the ledger's.
    ///
    /// # Panics
    ///
    /// Panics on protocol desynchronization (a bug, not an input error).
    fn run_round(&mut self) -> OpenRound {
        let online: Vec<usize> = (0..self.parties.len())
            .filter(|i| !self.offline.contains(i))
            .collect();
        let mut open = self.ledger.open(&online);
        let round = open.round;
        let tid = self.broker.training_id(round);

        // Initiator announces the round to followers and parties.
        self.aggregators[0]
            .begin_round(round, tid)
            .expect("initiator announces the round");
        for a in &mut self.aggregators {
            a.pump();
        }

        // Participants train and upload; the rest only synchronize.
        for &i in &online {
            let p = &mut self.parties[i];
            let started = p.poll_round_start();
            assert!(started.is_some(), "party missed round start");
            if open.trains(i) {
                p.run_local_round().expect("party runs announced round");
            } else {
                p.skip_local_round().expect("party skips announced round");
            }
        }

        // Aggregators aggregate and dispatch; loop until all complete.
        loop {
            let done = self.aggregators.iter().all(|a| a.completed_rounds >= round);
            if done {
                break;
            }
            let mut progress = 0;
            for a in &mut self.aggregators {
                progress += a.pump();
            }
            assert!(progress > 0, "aggregation deadlock at round {round}");
        }

        // Parties merge and synchronize.
        for &i in &online {
            let p = &mut self.parties[i];
            assert!(p.try_finish_round(), "party could not finish round {round}");
            let loss = open.trains(i).then_some(p.last_train_loss);
            open.party_done(i, p.timers, loss);
        }
        // Initiator absorbs follower completion acks.
        self.aggregators[0].pump();
        for a in &self.aggregators {
            open.aggregator_done(&a.name, a.aggregate_time_s);
        }
        open
    }

    /// Runs all configured rounds, evaluating on `test` after each.
    pub fn run(&mut self, test: &LabeledData) -> Vec<RoundMetrics> {
        let rounds = self.config.rounds;
        let mut out = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            out.push(self.step(test));
        }
        out
    }

    /// Runs a single round and evaluates.
    pub fn step(&mut self, test: &LabeledData) -> RoundMetrics {
        let open = self.run_round();
        let eval_idx = (0..self.parties.len())
            .find(|i| !self.offline.contains(i))
            .expect("at least one online party");
        let (test_loss, test_accuracy) = self.parties[eval_idx].evaluate(test, 128);
        let agg_names: Vec<String> = self.aggregators.iter().map(|a| a.name.clone()).collect();
        self.ledger
            .close(open, &agg_names, test_loss, test_accuracy)
    }

    /// Number of completed rounds.
    pub fn completed_rounds(&self) -> u64 {
        self.ledger.completed_rounds()
    }

    /// The session's network (e.g. to install a tap).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Flat parameters of party `i`'s model replica (for tests asserting
    /// replica consistency and for the attack harness).
    pub fn party_params(&self, i: usize) -> Vec<f32> {
        self.parties[i].model.flat_params()
    }

    /// Simulates a full breach of aggregator `j`'s CVM, returning the
    /// attacker's view (paper Section 6's worst-case assumption).
    pub fn breach_aggregator(&self, j: usize) -> BreachDump {
        self.aggregators[j].cvm().breach()
    }

    /// Access to a party (e.g. for the attack harness).
    pub fn party_mut(&mut self, i: usize) -> &mut Party {
        &mut self.parties[i]
    }

    /// Access to an aggregator node. Adversarial drills use this to act
    /// as a breached, actively malicious aggregator (replaying stale
    /// fragments through `AggregatorNode::drill_send_sealed`).
    pub fn aggregator_mut(&mut self, j: usize) -> &mut AggregatorNode {
        &mut self.aggregators[j]
    }
}
