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
use crate::aggregator::{AggError, AggregatorNode};
use crate::dp::LdpConfig;
use crate::keybroker::KeyBroker;
use crate::latency::RoundLatency;
use crate::mapper::ModelMapper;
use crate::node::{report, Actor, Input};
use crate::paillier_fusion::{PaillierFusion, PaillierFusionConfig};
use crate::party::{Party, PartyConfig, PartyError};
use crate::recovery::RecoveryKit;
use crate::rtmsg::{CtlMsg, SUPERVISOR};
use crate::supervise::{
    Directive, Event, FailoverPolicy, RuntimeConfig, RuntimeError, SessionView, Supervisor,
};
use crate::transform::{TransformConfig, Transformer};
use deta_crypto::{DetRng, Secret, VerifyingKey};
use deta_nn::train::LabeledData;
use deta_nn::Sequential;
use deta_obs::{Recorders, TelemetryValue};
use deta_sev_sim::{BreachDump, Cvm, SevError};
use deta_transport::{Endpoint, LinkModel, Network};
use std::collections::{HashMap, VecDeque};
use std::time::Duration;

pub use crate::node::Node;

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
    /// The key broker. Every party holds its two secrets; the session's
    /// supervisor and aggregators hold neither, so this is for the
    /// callers that drive or audit rounds from outside the session.
    pub broker: KeyBroker,
    /// Token verifying keys published by the attestation proxy, keyed by
    /// aggregator name; parties need these to run Phase II.
    pub tokens: HashMap<String, VerifyingKey>,
    /// The session's one draw of the starting model (for driver-side
    /// evaluation without reaching into a party thread); every party's
    /// model is a [`Clone`] of it.
    pub eval_model: Sequential,
    /// The shared transform (mapper + permutation key) every party
    /// uploads through. Exposed so external checkers (`deta_drills::sim`'s
    /// privacy auditor) can recompute which shuffled partition each
    /// aggregator is entitled to see.
    pub transformer: Transformer,
    /// Attestation material for mid-session aggregator failover: the
    /// proxy (with its token directory), RAS, and reference image move
    /// in here instead of being dropped after setup, plus a dedicated
    /// RNG fork so respawns never perturb the original node streams.
    pub recovery: RecoveryKit,
}

/// What a session's coordinator holds, whether it hosts the nodes or
/// not: the configuration, the network every node's name is registered
/// on, Phase I's token directory and trust pipeline, and the session's
/// one draw of the starting model to evaluate on. No node, mapper or key
/// broker: [`CoordinatorParts::build`] is what a coordinator whose nodes
/// run elsewhere builds, and [`SessionParts::split`] cuts the same share
/// off a full build.
pub struct CoordinatorParts {
    /// The session configuration.
    pub config: DetaConfig,
    /// The shared network; every node's name has an endpoint on it.
    pub network: Network,
    /// Token verifying keys published by the attestation proxy, keyed by
    /// aggregator name.
    pub tokens: HashMap<String, VerifyingKey>,
    /// The session's one draw of the starting model.
    pub eval_model: Sequential,
    /// Attestation material for mid-session aggregator failover.
    pub recovery: RecoveryKit,
    /// Every party's name, in index order (`party-{i}`).
    pub parties: Vec<String>,
    /// Every aggregator's name, index 0 the initiator (`agg-{j}`).
    pub aggregators: Vec<String>,
}

/// What every process of a session derives identically from the seed
/// before it builds a single node: the checked configuration, Phase I
/// for every aggregator (the proxy's challenge stream is sequential, so
/// the token directory only comes out the same if everyone attests the
/// whole fleet), the network, and the RNG forks the nodes are cut from.
/// [`SessionParts::build`] constructs every node from one,
/// [`NodeParts::build`] exactly one and [`CoordinatorParts::build`] none
/// — through the same constructors, so a node built alone is
/// bit-identical to its twin in the full build. The model builder runs
/// at most once per blueprint: the full build copies its one draw to
/// every party, a party built alone draws its own, the coordinator alone
/// draws one to evaluate on and an aggregator none.
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
        party_data: &[LabeledData],
    ) -> Result<Blueprint<'a>, SetupError> {
        if party_data.len() != config.n_parties {
            return Err(SetupError::Config("party_data count != n_parties"));
        }
        // Local training asserts both, mid-run; refuse them here instead.
        if config.batch_size == 0 {
            return Err(SetupError::Config("batch_size must be positive"));
        }
        if party_data.iter().any(LabeledData::is_empty) {
            return Err(SetupError::Config("every party needs at least one example"));
        }
        if config.n_aggregators == 0 {
            return Err(SetupError::Config("need at least one aggregator"));
        }
        // The mapper asserts these, after Phase I; refuse them before it.
        if config.n_aggregators > usize::from(u16::MAX) {
            return Err(SetupError::Config("at most 65535 aggregators"));
        }
        if let Some(p) = &config.proportions {
            if p.len() != config.n_aggregators || !p.iter().all(|x| x.is_finite() && *x > 0.0) {
                return Err(SetupError::Config(
                    "need one finite, positive proportion per aggregator",
                ));
            }
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
        // Every round of such a trimmed mean would fail with `OverTrim`.
        if let AggKind::TrimmedMean { trim } = config.algorithm {
            if trim.saturating_mul(2) >= config.participation.unwrap_or(config.n_parties) {
                return Err(SetupError::Config("a trimmed mean must leave an upload"));
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
        let rng = self.sev_rng.fork_indexed(b"agg-rng", j as u64);
        Ok(AggregatorNode::new(name, cvm, endpoint, rng)?)
    }

    /// Draws the starting model from the seed's `model-init` fork. Callers
    /// draw once and [`Clone`] the result for further replicas: a draw of
    /// 10⁶ parameters costs tens of milliseconds, a copy a fraction.
    fn model(&self) -> Sequential {
        let _span = deta_obs::span("model_draw");
        (self.model_builder)(&mut self.root.fork(b"model-init"))
    }

    /// The key broker and the transform every party uploads through,
    /// for a model of `n_params` parameters.
    fn transformer(&self, n_params: usize) -> (KeyBroker, Transformer) {
        let span = deta_obs::span("mapper").with_field("params", TelemetryValue::from(n_params));
        let mapper = ModelMapper::generate(
            n_params,
            self.config.n_aggregators,
            self.config.proportions.as_deref(),
            &mut self.root.fork(b"mapper"),
        );
        drop(span);
        let broker = KeyBroker::new(&mut self.root.fork(b"keybroker"));
        let transformer = Transformer::new(mapper, broker.permutation_key(), self.config.transform);
        (broker, transformer)
    }

    /// The coordinator's share, once the nodes are cut: everything the
    /// blueprint holds but the CVMs, the start model `eval_model`, and
    /// the names of `parties` parties.
    fn into_coordinator(self, eval_model: Sequential, parties: usize) -> CoordinatorParts {
        CoordinatorParts {
            config: self.config,
            network: self.network,
            tokens: self.tokens,
            eval_model,
            recovery: self.recovery,
            parties: (0..parties).map(party_name).collect(),
            aggregators: self.agg_names,
        }
    }

    /// Party `i` over `data`, with a model replica of its own, and the
    /// key broker's two secrets: the permutation key inside `transformer`
    /// and the `session_id` the party derives each round's id from.
    fn party(
        &self,
        i: usize,
        model: Sequential,
        data: LabeledData,
        transformer: Transformer,
        session_id: Secret<[u8; 16]>,
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
            session_id,
            self.agg_names.clone(),
            party_cfg,
            self.root.fork_indexed(b"party-rng", i as u64),
        );
        party.paillier = self.paillier.clone();
        party
    }
}

impl SessionParts {
    /// Builds every node of a session deterministically from the seed.
    ///
    /// `model_builder` runs exactly once, on the seed's `model-init` fork;
    /// that draw is [`SessionParts::eval_model`] and every party starts
    /// from a [`Clone`] of it, so in-process replicas start identical
    /// whatever the builder does. It must still be deterministic in its
    /// RNG for a node built alone in another process
    /// ([`NodeParts::build`]) to match its twin here.
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
        let mut plan = Blueprint::new(config, model_builder, &party_data)?;
        let aggregators = std::mem::take(&mut plan.cvms)
            .into_iter()
            .enumerate()
            .map(|(j, cvm)| plan.aggregator(j, cvm))
            .collect::<Result<Vec<_>, _>>()?;
        let eval_model = plan.model();
        let (broker, transformer) = plan.transformer(eval_model.param_count());
        let parties: Vec<Party> = party_data
            .into_iter()
            .enumerate()
            .map(|(i, data)| {
                let (model, session_id) = (eval_model.clone(), broker.session_id());
                plan.party(i, model, data, transformer.clone(), session_id)
            })
            .collect();
        let CoordinatorParts {
            config,
            network,
            tokens,
            eval_model,
            recovery,
            ..
        } = plan.into_coordinator(eval_model, parties.len());
        Ok(SessionParts {
            config,
            network,
            parties,
            aggregators,
            broker,
            tokens,
            eval_model,
            transformer,
            recovery,
        })
    }

    /// Splits the parts into the coordinator's share and the nodes it
    /// hosts. This is where the parties meet the runtime policy: each is
    /// told whether `failover` may ask it to replay a round, and so
    /// whether it keeps a copy of its update. The key broker and the
    /// transformer stay behind: every party holds what it needs of them.
    pub fn split(
        self,
        failover: FailoverPolicy,
    ) -> (CoordinatorParts, Vec<Party>, Vec<AggregatorNode>) {
        let SessionParts {
            config,
            network,
            mut parties,
            aggregators,
            tokens,
            eval_model,
            recovery,
            ..
        } = self;
        // Only `Restart` ever sends a party `Replay`; under any other
        // policy a party keeps no copy of its update past the upload.
        for party in &mut parties {
            party.keep_replays(failover == FailoverPolicy::Restart);
        }
        let coordinator = CoordinatorParts {
            config,
            network,
            tokens,
            eval_model,
            recovery,
            parties: parties.iter().map(|p| p.name.clone()).collect(),
            aggregators: aggregators.iter().map(|a| a.name.clone()).collect(),
        };
        (coordinator, parties, aggregators)
    }
}

impl CoordinatorParts {
    /// Builds the coordinator's share of the session
    /// [`SessionParts::build`] would build from the same arguments, and
    /// builds no node: Phase I for the whole fleet, the one `model-init`
    /// draw it evaluates on, and an endpoint for every node's name on
    /// the network (a bridge forwards each to wherever its node runs).
    /// No party replica, mapper or key broker is made: a process hosting
    /// a node builds its own ([`NodeParts::build`]).
    ///
    /// # Errors
    ///
    /// As [`SessionParts::build`], less what only a node's own
    /// construction can refuse.
    pub fn build(
        config: DetaConfig,
        model_builder: &dyn Fn(&mut DetRng) -> Sequential,
        party_data: &[LabeledData],
    ) -> Result<CoordinatorParts, SetupError> {
        let plan = Blueprint::new(config, model_builder, party_data)?;
        let names = plan.agg_names.iter().cloned();
        for name in names.chain((0..party_data.len()).map(party_name)) {
            let _ = plan.network.register(&name);
        }
        let eval_model = plan.model();
        Ok(plan.into_coordinator(eval_model, party_data.len()))
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
    /// A party draws its model here, one builder call of its own: the
    /// process it stands for shares no memory with the one that holds
    /// the full build, which is why `model_builder` must be
    /// deterministic in its RNG. An aggregator calls the builder never.
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
        let mut plan = Blueprint::new(config, model_builder, &party_data)?;
        let parties = party_data.len();
        let mut shards = party_data.into_iter().enumerate();
        let node = if let Some(j) = plan.agg_names.iter().position(|a| a == name) {
            let cvm = plan.cvms.swap_remove(j);
            Node::Aggregator(Box::new(plan.aggregator(j, cvm)?))
        } else if let Some((i, data)) = shards.find(|(i, _)| party_name(*i) == name) {
            let model = plan.model();
            let (broker, transformer) = plan.transformer(model.param_count());
            let party = plan.party(i, model, data, transformer, broker.session_id());
            Node::Party(Box::new(party))
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

/// Frames a session steps without going quiet before it calls the run a
/// livelock: far past any round's traffic (~300 frames for 32 parties).
const QUIET_WITHIN: usize = 1 << 20;

/// A fully bootstrapped FL session on one thread and a virtual clock.
///
/// Every node is stepped in turn (see [`crate::node`]) — the aggregators,
/// then the parties, by index, then any replacement aggregator — each on
/// what its mailbox holds, until no mailbox holds a frame and the network
/// holds none back. The control plane is the [`Supervisor`] step over the
/// same mailboxes as on threads: its directives are frames from
/// [`SUPERVISOR`], the nodes' reports frames to it, which it takes as soon
/// as they arrive. Only when nothing is left to step does the virtual
/// clock move, straight to the supervisor's next timer: stepping takes no
/// virtual time, so a deadline costs nothing to wait out.
pub struct DetaSession {
    /// The active configuration.
    pub config: DetaConfig,
    network: Network,
    /// The supervisor's mailbox.
    ctl: Endpoint,
    supervisor: Supervisor,
    /// Every node by name, retired ones included.
    nodes: HashMap<String, Node>,
    /// The order nodes are stepped in. A node whose mailbox is closed —
    /// retired, or crashed — takes no more input.
    order: Vec<String>,
    /// The node stepped next, in `order`.
    cursor: usize,
    /// The virtual clock: time since the session started.
    now: Duration,
    /// Every node's flight recorder, when the session traces.
    recorders: Option<Recorders>,
}

impl DetaSession {
    /// Bootstraps a session: Phase I attestation, mapper/key generation,
    /// Phase II authentication and registration.
    ///
    /// `model_builder` runs once ([`SessionParts::build`]); every party
    /// starts from a copy of that one draw.
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
        let parts = SessionParts::build(config, model_builder, party_data)?;
        let mut session = DetaSession::new(parts, RuntimeConfig::default());
        match session.drive(Supervisor::setup) {
            Ok(()) => Ok(session),
            Err(RuntimeError::Setup(e)) => Err(e),
            Err(_) => Err(SetupError::Party(
                (session.order.iter())
                    .find_map(|n| match &session.nodes[n] {
                        Node::Party(p) => p.auth_failure(),
                        Node::Aggregator(_) => None,
                    })
                    .map_or(PartyError::Protocol("registration incomplete"), |agg| {
                        PartyError::AuthenticationFailed(agg.to_string())
                    }),
            )),
        }
    }

    /// Phase II over nodes already built (and perhaps instrumented — a
    /// fault policy or tap on `parts.network`), supervised under `rt`:
    /// every node is started, then stepped until each one is `Ready`.
    ///
    /// # Errors
    ///
    /// The supervisor's verdict on a bootstrap that did not complete: a
    /// node that failed (a party refusing an aggregator's authentication)
    /// or exited, or the setup deadline.
    pub fn bootstrap(parts: SessionParts, rt: RuntimeConfig) -> Result<DetaSession, RuntimeError> {
        let mut session = DetaSession::new(parts, rt);
        session.drive(Supervisor::setup)?;
        Ok(session)
    }

    /// Hands `parts` to a supervisor under `rt` and starts every node.
    fn new(parts: SessionParts, rt: RuntimeConfig) -> DetaSession {
        let (config, network) = (parts.config.clone(), parts.network.clone());
        let ctl = network.register(SUPERVISOR);
        let recorders = rt.telemetry.enabled.then(|| {
            deta_obs::enable();
            let (capacity, dir) = (rt.telemetry.ring_capacity, rt.telemetry.trace_dir.clone());
            Recorders::new(SUPERVISOR, capacity, dir)
        });
        let (coordinator, parties, aggregators) = parts.split(rt.failover);
        let (supervisor, _) = Supervisor::new(coordinator, rt, false);
        let aggregators = aggregators.into_iter().map(Box::new).map(Node::Aggregator);
        let parties = parties.into_iter().map(Box::new).map(Node::Party);
        let nodes: Vec<Node> = aggregators.chain(parties).collect();
        let order: Vec<String> = nodes.iter().map(|n| n.name().to_string()).collect();
        let mut session = DetaSession {
            config,
            network,
            ctl,
            supervisor,
            nodes: order.iter().cloned().zip(nodes).collect(),
            order,
            cursor: 0,
            now: Duration::ZERO,
            recorders,
        };
        let tokens = session.view().tokens.clone();
        for k in 0..session.order.len() {
            session.on_node(k, |node| node.start(&tokens));
        }
        session
    }

    /// Opens a phase with `open` and runs what follows — the supervisor's
    /// directives, the nodes' steps, held frames, the clock — until the
    /// phase is complete and nothing is left to step, or the session
    /// fails.
    fn drive(
        &mut self,
        open: fn(&mut Supervisor, Duration) -> Vec<Directive>,
    ) -> Result<(), RuntimeError> {
        let _own = (self.recorders.as_ref()).map(|r| deta_obs::attach(r.own()));
        let mut todo = VecDeque::from(open(&mut self.supervisor, self.now));
        let (mut done, mut busy) = (false, 0usize);
        self.cursor = 0;
        loop {
            while let Some(directive) = todo.pop_front() {
                match directive {
                    Directive::Send(to, msg) => self.send(&to, &msg),
                    Directive::Retire(node) => self.network.close(&node),
                    Directive::Spawn(node) => {
                        self.order.push(node.name.clone());
                        self.nodes.insert(node.name.clone(), Node::Aggregator(node));
                        let tokens = self.view().tokens.clone();
                        self.on_node(self.order.len() - 1, |node| node.start(&tokens));
                    }
                    Directive::Done => done = true,
                    Directive::Fail(err) => return Err(self.fail(err)),
                }
            }
            // The supervisor takes its mail first, while the phase lasts.
            if let Some(msg) = (!done).then(|| self.ctl.recv()).flatten() {
                if let Ok(report) = CtlMsg::decode(&msg.payload) {
                    let from = msg.from.to_string();
                    let event = Event::Report(from, report);
                    todo.extend(self.supervisor.on(event, self.now));
                }
                continue;
            }
            if self.step_one() || self.network.release_held() {
                busy += 1;
                if busy > QUIET_WITHIN {
                    let err = RuntimeError::Protocol("the session never went quiet");
                    return Err(self.fail(err));
                }
                continue;
            }
            if done {
                return Ok(());
            }
            (busy, self.cursor) = (0, 0);
            // Quiet, and the phase still waits: first a node it waits on
            // that exited, as a host reaps its threads...
            let awaiting = self.supervisor.awaiting();
            if let Some(node) = awaiting.into_iter().find(|n| self.network.is_closed(n)) {
                let (node, panicked) = (node.to_string(), false);
                todo.extend((self.supervisor).on(Event::Exited { node, panicked }, self.now));
                continue;
            }
            // ...then the clock, straight to the next timer. A node still
            // hosted is alive; a retired or exited one is silent.
            let Some(at) = self.supervisor.next_timer() else {
                return Err(self.fail(RuntimeError::Protocol("no phase to wait on")));
            };
            self.now = self.now.max(at);
            for from in self.order.iter().filter(|n| !self.network.is_closed(n)) {
                let (from, msg) = (from.clone(), CtlMsg::Heartbeat { seq: 0 });
                self.supervisor.on(Event::Report(from, msg), self.now);
            }
            todo.extend(self.supervisor.on(Event::Timer, self.now));
        }
    }

    /// Sends `msg` to `to` from the supervisor's mailbox.
    fn send(&self, to: &str, msg: &CtlMsg) {
        if let Ok(frame) = msg.encode() {
            let _ = self.ctl.send(to, frame);
        }
    }

    /// Steps one frame: the node under the cursor keeps it while its
    /// mailbox holds frames, then the cursor moves on in order. `false`
    /// once a whole cycle found nothing to step.
    fn step_one(&mut self) -> bool {
        for _ in 0..self.order.len() {
            let k = self.cursor;
            let mailbox = self
                .nodes
                .get_mut(&self.order[k])
                .map(|n| n.actor().endpoint());
            let msg = mailbox.filter(|m| !m.is_closed()).and_then(|m| m.recv());
            if let Some(msg) = msg {
                if let Some(input) = Input::from_mailbox(msg) {
                    self.on_node(k, |node| node.step(input));
                }
                return true;
            }
            self.cursor = (k + 1) % self.order.len();
        }
        false
    }

    /// Runs `f` on the `k`-th node — its flight recorder attached when the
    /// session traces — and sends what it reports to the supervisor.
    fn on_node(&mut self, k: usize, f: impl FnOnce(&mut dyn Actor) -> Vec<CtlMsg>) {
        let name = &self.order[k];
        let _ring = (self.recorders.as_mut()).map(|r| deta_obs::attach(r.ring(name)));
        if let Some(node) = self.nodes.get_mut(name).map(Node::actor) {
            let reports = f(node);
            report(&node.endpoint(), reports);
        }
    }

    /// The session failed; the first failure of a traced session dumps
    /// its flight recorders, blaming whom the error implicates.
    fn fail(&mut self, err: RuntimeError) -> RuntimeError {
        if let Some(r) = &mut self.recorders {
            r.fault(err.kind(), &err.implicated());
        }
        err
    }

    /// Takes party `i` offline at a round boundary (cross-silo dropout).
    ///
    /// The supervisor's `Deregister` directives go out through its
    /// mailbox, ahead of the next round's trigger and uploads; subsequent
    /// rounds aggregate over the remaining parties. At least one party
    /// must stay online.
    ///
    /// # Panics
    ///
    /// Panics if this would leave no online parties, or mid-round.
    pub fn drop_party(&mut self, i: usize) {
        assert!(i < self.config.n_parties, "no such party");
        assert!(
            self.online_parties() > 1,
            "cannot drop the last online party"
        );
        let name = self.party_mut(i).name.clone();
        for directive in self.supervisor.leave(&name) {
            if let Directive::Send(to, msg) = directive {
                self.send(&to, &msg);
            }
        }
    }

    /// Number of currently online parties.
    pub fn online_parties(&self) -> usize {
        self.supervisor.online().len()
    }

    /// Runs all configured rounds, evaluating on `test` after each.
    pub fn run(&mut self, test: &LabeledData) -> Vec<RoundMetrics> {
        (0..self.config.rounds).map(|_| self.step(test)).collect()
    }

    /// Runs a single round and evaluates (see [`DetaSession::try_step`]).
    ///
    /// # Panics
    ///
    /// Panics when the round fails: without faults that is protocol
    /// desynchronization (a bug, not an input error).
    pub fn step(&mut self, test: &LabeledData) -> RoundMetrics {
        self.try_step(test).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs a single round and evaluates on the first online party: the
    /// supervisor plans it, triggers it and decides when it is complete,
    /// or how it failed; what the round selects and reports is the
    /// ledger's.
    ///
    /// # Errors
    ///
    /// The supervisor's verdict on a round that did not complete (and
    /// that its policy could not heal).
    pub fn try_step(&mut self, test: &LabeledData) -> Result<RoundMetrics, RuntimeError> {
        self.drive(Supervisor::round)?;
        let Some(&evaluator) = self.supervisor.online().first() else {
            return Err(RuntimeError::Protocol("no party left to evaluate on"));
        };
        let (test_loss, test_accuracy) = self.party_mut(evaluator).evaluate(test, 128);
        let metrics = self.supervisor.close(test_loss, test_accuracy);
        metrics.ok_or(RuntimeError::Protocol("no round to close"))
    }

    /// Number of completed rounds.
    pub fn completed_rounds(&self) -> u64 {
        self.supervisor.completed_rounds()
    }

    /// The session's network (e.g. to install a tap).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The session's bookkeeping and every node, retired ones included.
    pub fn view(&self) -> SessionView<'_> {
        self.supervisor.view(&self.nodes)
    }

    /// The virtual clock: how long the session has waited on timers.
    pub fn now(&self) -> Duration {
        self.now
    }

    /// A traced session's flight-recorder dump: its first failure's, or
    /// one written now.
    pub fn trace(&mut self) -> Option<std::path::PathBuf> {
        let recorders = self.recorders.as_mut()?;
        let first = recorders.first_dump().map(std::path::Path::to_path_buf);
        first.or_else(|| recorders.dump("trace", &[]))
    }

    /// Flat parameters of party `i`'s model replica (for tests asserting
    /// replica consistency and for the attack harness).
    pub fn party_params(&self, i: usize) -> Vec<f32> {
        match &self.nodes[&self.order[self.config.n_aggregators + i]] {
            Node::Party(p) => p.model.flat_params(),
            Node::Aggregator(a) => panic!("{} is not a party", a.name),
        }
    }

    /// Simulates a full breach of aggregator `j`'s CVM, returning the
    /// attacker's view (paper Section 6's worst-case assumption).
    pub fn breach_aggregator(&self, j: usize) -> BreachDump {
        match &self.nodes[&self.order[j]] {
            Node::Aggregator(a) => a.cvm().breach(),
            Node::Party(p) => panic!("{} is not an aggregator", p.name),
        }
    }

    /// Access to a party (e.g. for the attack harness).
    pub fn party_mut(&mut self, i: usize) -> &mut Party {
        let name = &self.order[self.config.n_aggregators + i];
        match self.nodes.get_mut(name) {
            Some(Node::Party(p)) => p,
            _ => panic!("{name} is not a party"),
        }
    }

    /// Access to an aggregator node. Adversarial drills use this to act
    /// as a breached, actively malicious aggregator (replaying stale
    /// fragments through `AggregatorNode::drill_send_sealed`).
    pub fn aggregator_mut(&mut self, j: usize) -> &mut AggregatorNode {
        match self.nodes.get_mut(&self.order[j]) {
            Some(Node::Aggregator(a)) => a,
            _ => panic!("node {j} is not an aggregator"),
        }
    }
}
