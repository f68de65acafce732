//! The FL party runtime.
//!
//! Parties hold the private training data. Per the paper's life cycle
//! (Figure 1) each party:
//!
//! 1. verifies every aggregator via challenge-response against the token
//!    keys published by the attestation proxy, and registers (Phase II),
//! 2. on each round announcement, trains locally, applies
//!    `Trans` (partition + shuffle) to its flat model update, and uploads
//!    fragment `j` to aggregator `j` over its secure channel,
//! 3. collects aggregated fragments from all aggregators, applies
//!    `Trans^-1`, and synchronizes its local model.
//!
//! With the Paillier fusion algorithm, step 2 additionally encrypts each
//! fragment and step 3 decrypts the homomorphic sums.

use crate::dp::{gaussian_mechanism, LdpConfig, PrivacyAccountant};
use crate::latency::timed;
use crate::mapper::ModelMapper;
use crate::paillier_fusion::PaillierFusion;
use crate::session::SyncMode;
use crate::transform::{RoundPermutations, Transformer};
use crate::wire::{self, Msg, RecordFrame};
use deta_crypto::{DetRng, VerifyingKey};
use deta_nn::train::{batch_gradient, train_local, LabeledData};
use deta_nn::Sequential;
use deta_paillier::Ciphertext;
use deta_telemetry::TelemetryValue;
use deta_transport::{Endpoint, HandshakeInitiator, SecureChannel};
use std::collections::HashMap;

/// Party-side configuration for one FL session.
#[derive(Clone, Debug)]
pub struct PartyConfig {
    /// Local epochs per round (FedAvg).
    pub local_epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Local learning rate.
    pub lr: f32,
    /// FedAvg (parameter upload) or FedSGD (gradient upload).
    pub mode: SyncMode,
    /// Total number of participating parties (used to scale FedSGD sums).
    pub n_parties: usize,
    /// Scale applied to the aggregated gradient before the FedSGD step
    /// (1.0 when the aggregator averages; 1/N when it sums).
    pub grad_scale: f32,
    /// Optional local differential privacy applied to updates before
    /// `Trans` (the paper's Section 8.1 composition).
    pub ldp: Option<LdpConfig>,
}

/// Accumulated party-side compute timers (seconds), feeding the latency
/// model.
#[derive(Clone, Copy, Debug, Default)]
pub struct PartyTimers {
    /// Local training time.
    pub train_s: f64,
    /// Transform + inverse-transform time.
    pub transform_s: f64,
    /// Paillier encryption/decryption time.
    pub crypto_s: f64,
}

/// Errors in the party protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartyError {
    /// An aggregator failed challenge-response authentication.
    AuthenticationFailed(String),
    /// Protocol desynchronization.
    Protocol(&'static str),
}

impl std::fmt::Display for PartyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartyError::AuthenticationFailed(a) => {
                write!(f, "aggregator {a:?} failed authentication")
            }
            PartyError::Protocol(why) => write!(f, "protocol error: {why}"),
        }
    }
}

impl std::error::Error for PartyError {}

/// An update-rewriting closure installed by [`Party::set_update_tamper`]:
/// called with the round number and the post-LDP update about to upload.
pub type UpdateTamper = Box<dyn FnMut(u64, &mut Vec<f32>) + Send>;

/// The link to one aggregator: a Phase II handshake in flight, or the
/// secure channel it verified into.
enum Link {
    Down,
    /// Hello sent. The reply must verify against the token key the
    /// attestation proxy published for the aggregator; without one it
    /// cannot.
    Handshaking(HandshakeInitiator, Option<VerifyingKey>),
    Up(SecureChannel),
}

/// An aggregated fragment as an aggregator sent it. Which kind a party
/// holds is decided where downloads come in: plain values without
/// Paillier material, ciphertexts with it.
enum Download {
    /// The aggregate, in transformed coordinates.
    Plain(Vec<f32>),
    /// Its homomorphic sum, to decrypt and average.
    Encrypted {
        ciphertexts: Vec<Ciphertext>,
        /// Number of packed plaintext values.
        value_count: u64,
        /// Number of party inputs summed.
        summands: u64,
    },
}

/// Everything a party knows about one aggregator. The records sit in
/// fragment order: record `j` is where fragment `j` goes and comes from.
struct AggPeer {
    /// Endpoint name.
    name: String,
    link: Link,
    /// Whether it acknowledged this party's registration.
    acked: bool,
    /// A failover replacement this party is re-handshaking with; once the
    /// channel comes up the party re-registers with just this one.
    rebinding: bool,
    /// The aggregated fragment it sent last, tagged with its round.
    /// Tagging (rather than keeping only the active round) makes
    /// delivery order-tolerant: in a threaded deployment a follower's
    /// aggregate can overtake the initiator's `RoundStart` announcement.
    download: Option<(u64, Download)>,
}

impl AggPeer {
    /// An aggregator this party has not spoken to yet.
    fn new(name: &str) -> AggPeer {
        AggPeer {
            name: name.to_string(),
            link: Link::Down,
            acked: false,
            rebinding: false,
            download: None,
        }
    }

    /// Starts a challenge-response handshake with this aggregator, to be
    /// verified against `token`.
    fn say_hello(&mut self, token: Option<VerifyingKey>, endpoint: &Endpoint, rng: &mut DetRng) {
        let hs = HandshakeInitiator::new(rng);
        let hello = Msg::Hello {
            handshake: hs.hello().to_vec(),
        };
        if let Ok(frame) = hello.encode() {
            let _ = endpoint.send(&self.name, frame);
        }
        self.link = Link::Handshaking(hs, token);
    }

    fn is_up(&self) -> bool {
        matches!(self.link, Link::Up(_))
    }

    fn send_sealed(&mut self, endpoint: &Endpoint, msg: &Msg) {
        if let Ok(frame) = RecordFrame::of(msg) {
            self.seal_and_send(endpoint, frame);
        }
    }

    /// Seals `frame` for this aggregator's channel, where it lies, and
    /// sends it. No-op without a channel.
    fn seal_and_send(&mut self, endpoint: &Endpoint, frame: RecordFrame) {
        let Link::Up(chan) = &mut self.link else {
            return;
        };
        let seal_span = deta_telemetry::span("seal");
        let frame = frame.seal(chan);
        drop(seal_span);
        let _ = endpoint.send(&self.name, frame);
    }
}

/// One FL party.
pub struct Party {
    /// Endpoint name.
    pub name: String,
    endpoint: Endpoint,
    rng: DetRng,
    transformer: Transformer,
    /// The local model replica.
    pub model: Sequential,
    data: LabeledData,
    cfg: PartyConfig,
    /// The aggregators, index = fragment index.
    aggregators: Vec<AggPeer>,
    current_round: Option<(u64, [u8; 16])>,
    /// Highest round this party has fully synchronized; stale
    /// re-announcements of completed rounds are ignored (idempotent
    /// retries from a supervisor).
    last_finished_round: u64,
    /// Whether `Register` has been sent to every aggregator.
    registration_sent: bool,
    /// First aggregator that failed challenge-response, if any.
    auth_failure: Option<String>,
    /// The open round's permutations, derived when its upload is
    /// transformed (or replayed) and consumed by `finish_round`, so the
    /// keyed derivation runs once per round rather than once per
    /// direction. Dropped whenever the mapper changes.
    round_perms: Option<RoundPermutations>,
    /// Parameters snapshot at round start (FedSGD applies deltas to it).
    round_base: Vec<f32>,
    /// Optional Paillier fusion material (aggregators never see the
    /// private key).
    pub paillier: Option<PaillierFusion>,
    /// Compute timers.
    pub timers: PartyTimers,
    /// Per-round training statistics from the last local round.
    pub last_train_loss: f32,
    /// Cumulative privacy spend when LDP is enabled.
    pub privacy: PrivacyAccountant,
    /// When set, every uploaded update (post-LDP, pre-transform) is
    /// appended to [`Party::update_log`]. Test harnesses (deta-simnet's
    /// privacy checker) use the log as ground truth for what each
    /// aggregator's fragment *should* contain; off by default so
    /// production runs never retain plaintext updates.
    pub record_updates: bool,
    /// `(round, flat update)` log populated when `record_updates` is set.
    pub update_log: Vec<(u64, Vec<f32>)>,
    /// The last uploaded update `(round, training id, post-LDP values)`,
    /// kept so a failed round can be replayed idempotently after an
    /// aggregator failover without re-training (training consumes no
    /// party randomness, so the stored update is bit-identical to what a
    /// re-run would produce).
    last_upload: Option<(u64, [u8; 16], Vec<f32>)>,
    /// Adversarial-drill hook (see [`Party::set_update_tamper`]):
    /// mutates the post-LDP update before it is logged, retained, and
    /// transformed, turning this party into an active model-poisoning
    /// adversary. `None` in production use.
    update_tamper: Option<UpdateTamper>,
}

impl Party {
    /// Creates a party.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        endpoint: Endpoint,
        model: Sequential,
        data: LabeledData,
        transformer: Transformer,
        aggregators: Vec<String>,
        cfg: PartyConfig,
        rng: DetRng,
    ) -> Party {
        assert_eq!(
            aggregators.len(),
            transformer.n_fragments(),
            "aggregator count must match transformer fragments"
        );
        Party {
            name: name.to_string(),
            endpoint,
            rng,
            transformer,
            model,
            data,
            cfg,
            aggregators: aggregators.iter().map(|a| AggPeer::new(a)).collect(),
            current_round: None,
            last_finished_round: 0,
            registration_sent: false,
            auth_failure: None,
            round_perms: None,
            round_base: Vec::new(),
            paillier: None,
            timers: PartyTimers::default(),
            last_train_loss: 0.0,
            privacy: PrivacyAccountant::default(),
            record_updates: false,
            update_log: Vec::new(),
            last_upload: None,
            update_tamper: None,
        }
    }

    /// Turns this party into an active model-poisoning adversary: the
    /// closure rewrites each round's update (post-LDP, pre-transform),
    /// and the party uploads the poisoned fragments through the normal
    /// transform path — exactly a malicious insider following the wire
    /// protocol with hostile values. The tampered update is also what
    /// lands in [`Party::update_log`] and the replay buffer, so privacy
    /// audits stay consistent (a poisoner's entitled fragments are its
    /// poisoned ones). Drill/test-harness hook, like
    /// [`Party::swap_fragment_routes`]; never set in production use.
    pub fn set_update_tamper(&mut self, tamper: UpdateTamper) {
        self.update_tamper = Some(tamper);
    }

    /// Adversarial-drill hook: sends an arbitrary protocol message to an
    /// aggregator over this party's established secure channel — what a
    /// malicious insider holding a genuine registration can do, e.g. a
    /// second `Register` with a hostile weight or somebody else's name.
    /// No-op when no channel to `to` exists. Drill/test-harness hook,
    /// like `AggregatorNode::drill_send_sealed`; never called in
    /// production.
    pub fn drill_send_sealed(&mut self, to: &str, msg: &Msg) {
        if let Some(agg) = self.aggregators.iter_mut().find(|a| a.name == to) {
            agg.send_sealed(&self.endpoint, msg);
        }
    }

    /// Swaps the destination aggregators of fragments `a` and `b`: after
    /// this, fragment `a` is uploaded to aggregator `b` and vice versa —
    /// a deliberate violation of the paper's partition/aggregator
    /// correspondence. Test-harness hook: deta-simnet plants it to prove
    /// the privacy checker catches misrouted fragments. No-op when out of
    /// range or `a == b`.
    pub fn swap_fragment_routes(&mut self, a: usize, b: usize) {
        if a != b && a < self.aggregators.len() && b < self.aggregators.len() {
            self.aggregators.swap(a, b);
        }
    }

    /// The shared transformer (mapper + shuffle) this party uploads
    /// through.
    pub fn transformer(&self) -> &Transformer {
        &self.transformer
    }

    /// Local dataset size (the FedAvg weight `n_i`).
    pub fn weight(&self) -> f32 {
        self.data.len() as f32
    }

    /// A handle onto this party's mailbox (clones share the queue): an
    /// actor loop receives on the clone and feeds [`Party::handle_wire`].
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Phase II step 1: sends handshake hellos to all aggregators.
    ///
    /// `tokens` maps aggregator endpoint names to the token verifying keys
    /// published by the attestation proxy.
    pub fn send_hellos(&mut self, tokens: &HashMap<String, VerifyingKey>) {
        for agg in &mut self.aggregators {
            let token = tokens.get(&agg.name).cloned();
            agg.say_hello(token, &self.endpoint, &mut self.rng);
        }
    }

    /// Failover rebind: replaces the aggregator at fragment `index` with
    /// a freshly attested replacement and starts a new challenge-response
    /// handshake against its proxy-published token key. The old
    /// endpoint's record (channel, ack, collected fragment, token) is
    /// dropped whole; once the new channel verifies, the party re-registers
    /// with just that aggregator (see [`Party::handle_wire`]).
    ///
    /// No-op when `index` is out of range.
    pub fn rebind(&mut self, index: usize, name: &str, token: VerifyingKey) {
        let Some(slot) = self.aggregators.get_mut(index) else {
            return;
        };
        *slot = AggPeer::new(name);
        slot.rebinding = true;
        slot.say_hello(Some(token), &self.endpoint, &mut self.rng);
    }

    /// Failover re-partition: swaps in a new mapper over the surviving
    /// aggregator set `aggs` (keeping the session permutation key) and
    /// drops every connection, ack, and collected fragment tied to
    /// removed aggregators, plus any fragments collected for `round` or
    /// later under the old partition (the failed round is discarded,
    /// never merged — no survivor's old-epoch fragment is ever combined
    /// with a new-epoch one).
    ///
    /// Returns `false` (leaving the party untouched) when the mapper
    /// bytes are malformed or inconsistent with `aggs` / the model size.
    pub fn apply_remap(&mut self, round: u64, mapper_bytes: &[u8], aggs: &[String]) -> bool {
        let Some(mapper) = ModelMapper::from_bytes(mapper_bytes) else {
            return false;
        };
        if mapper.n_aggregators() != aggs.len()
            || mapper.n_params() != self.transformer.mapper().n_params()
        {
            return false;
        }
        self.transformer = self.transformer.with_mapper(mapper);
        // Permutations of the old partition have the wrong lengths.
        self.round_perms = None;
        let mut old = std::mem::take(&mut self.aggregators);
        self.aggregators = aggs
            .iter()
            .map(|name| match old.iter().position(|a| a.name == *name) {
                Some(i) => old.swap_remove(i),
                None => AggPeer::new(name),
            })
            .collect();
        for agg in &mut self.aggregators {
            agg.download.take_if(|(r, _)| *r >= round);
        }
        true
    }

    /// Replays the stored upload for `round` through the *current*
    /// transformer and aggregator set — the idempotent re-upload step of
    /// round replay after a failover. The update log is not re-appended
    /// (one entry per trained round stays the audit ground truth).
    ///
    /// Returns `false` when this party has no stored upload for `round`
    /// (it skipped the round under partial participation, or never
    /// reached it) or when Paillier fusion is active (re-encryption would
    /// consume fresh randomness and break replay determinism).
    pub fn replay_upload(&mut self, round: u64) -> bool {
        let Some((r, tid, update)) = self.last_upload.clone() else {
            return false;
        };
        if r != round || self.paillier.is_some() {
            return false;
        }
        let perms = Self::take_permutations(&mut self.round_perms, &self.transformer, &tid);
        self.upload_fragments(round, &update, &perms, "upload_replayed");
        if self.current_round == Some((round, tid)) {
            // Still open: `finish_round` will want them. A replay of a
            // round already synchronized must not leave them behind.
            self.round_perms = Some(perms);
        }
        true
    }

    /// Phase II step 2: completes handshakes from queued replies, then
    /// registers over each established channel.
    ///
    /// # Errors
    ///
    /// Fails if any aggregator's challenge response does not verify
    /// against its expected token key — the party refuses to share updates
    /// with it.
    pub fn complete_handshakes(&mut self) -> Result<(), PartyError> {
        if self.handshakes_complete() {
            // Already done: stay idempotent so polling callers (e.g. the
            // threaded deployment) cannot drain unrelated records.
            return Ok(());
        }
        self.drain_wire();
        if let Some(agg) = &self.auth_failure {
            return Err(PartyError::AuthenticationFailed(agg.clone()));
        }
        if !self.aggregators.iter().all(AggPeer::is_up) {
            return Err(PartyError::Protocol("missing handshake replies"));
        }
        Ok(())
    }

    /// Phase II step 3: drains registration acks; returns `true` when all
    /// aggregators acknowledged.
    pub fn registration_complete(&mut self) -> bool {
        self.drain_wire();
        self.acks_complete()
    }

    /// Whether every aggregator has acknowledged registration (no drain —
    /// mailbox loops feed messages through [`Party::handle_wire`]).
    pub fn acks_complete(&self) -> bool {
        self.aggregators.iter().all(|a| a.acked)
    }

    /// Whether a secure channel is up with every aggregator (no drain).
    pub fn handshakes_complete(&self) -> bool {
        !self.aggregators.is_empty() && self.aggregators.iter().all(AggPeer::is_up)
    }

    /// The first aggregator that failed challenge-response, if any.
    pub fn auth_failure(&self) -> Option<&str> {
        self.auth_failure.as_deref()
    }

    /// Polls for a round announcement from the initiator.
    pub fn poll_round_start(&mut self) -> Option<(u64, [u8; 16])> {
        self.drain_wire();
        self.current_round
    }

    /// The currently announced round, if any (no drain).
    pub fn current_round(&self) -> Option<(u64, [u8; 16])> {
        self.current_round
    }

    /// Highest round this party has fully synchronized.
    pub fn last_finished_round(&self) -> u64 {
        self.last_finished_round
    }

    /// Runs the local training step for the announced round and uploads
    /// transformed fragments.
    ///
    /// # Errors
    ///
    /// Fails if no round is active or required Paillier material is
    /// missing.
    pub fn run_local_round(&mut self) -> Result<(), PartyError> {
        let Some((round, tid)) = self.current_round else {
            return Err(PartyError::Protocol("no active round"));
        };
        self.snapshot_round_base();
        let mut update: Vec<f32> = timed(&mut self.timers.train_s, || {
            let _span = deta_telemetry::span("local_train")
                .with_field("round", TelemetryValue::from(round));
            match self.cfg.mode {
                SyncMode::FedAvg => {
                    let stats = train_local(
                        &mut self.model,
                        &self.data,
                        self.cfg.local_epochs,
                        self.cfg.batch_size,
                        self.cfg.lr,
                    );
                    self.last_train_loss = stats.loss;
                    self.model.flat_params()
                }
                SyncMode::FedSgd => {
                    // One batch per round, cycling deterministically.
                    let n_batches = self.data.len().div_ceil(self.cfg.batch_size);
                    let b = (round as usize - 1) % n_batches;
                    let start = b * self.cfg.batch_size;
                    let end = (start + self.cfg.batch_size).min(self.data.len());
                    let (x, y) = self.data.slice(start, end);
                    let (loss, grad) = batch_gradient(&mut self.model, &x, y);
                    self.last_train_loss = loss;
                    grad
                }
            }
        });
        if let Some(ldp) = self.cfg.ldp {
            // LDP perturbation happens on the party's device, before any
            // transformation — aggregators only ever see noised values.
            // The mechanism protects the party's *contribution*: for
            // FedAvg that is the parameter delta against the shared round
            // base (raw parameters have unbounded sensitivity), for
            // FedSGD it is the gradient itself.
            match self.cfg.mode {
                SyncMode::FedAvg => {
                    let mut delta: Vec<f32> = update
                        .iter()
                        .zip(self.round_base.iter())
                        .map(|(n, b)| n - b)
                        .collect();
                    gaussian_mechanism(&mut delta, &ldp, &mut self.privacy, &mut self.rng);
                    for (u, (b, d)) in update
                        .iter_mut()
                        .zip(self.round_base.iter().zip(delta.iter()))
                    {
                        *u = b + d;
                    }
                }
                SyncMode::FedSgd => {
                    gaussian_mechanism(&mut update, &ldp, &mut self.privacy, &mut self.rng);
                }
            }
        }
        if let Some(tamper) = self.update_tamper.as_mut() {
            tamper(round, &mut update);
        }
        if self.record_updates {
            self.update_log.push((round, update.clone()));
        }
        let perms = Self::take_permutations(&mut self.round_perms, &self.transformer, &tid);
        if self.paillier.is_some() {
            let fragments = timed(&mut self.timers.transform_s, || {
                let _span = deta_telemetry::span("transform")
                    .with_field("round", TelemetryValue::from(round));
                self.transformer.transform_with(&update, &perms)
            });
            self.upload_encrypted(round, &fragments)?;
        } else {
            self.upload_fragments(round, &update, &perms, "upload");
        }
        self.round_perms = Some(perms);
        self.last_upload = Some((round, tid, update));
        Ok(())
    }

    /// `Trans(update)` and its upload: each fragment's permuted values
    /// are gathered straight into the `Record` frame that is then sealed
    /// where it lies and sent, so a fragment exists once on this side of
    /// the wire. All frames are filled before the first is sealed, so the
    /// transform keeps one span and one timer.
    fn upload_fragments(
        &mut self,
        round: u64,
        update: &[f32],
        perms: &RoundPermutations,
        event: &'static str,
    ) {
        let frames: Vec<_> = timed(&mut self.timers.transform_s, || {
            let _span =
                deta_telemetry::span("transform").with_field("round", TelemetryValue::from(round));
            let mut scratch = Vec::new();
            (0..self.transformer.n_fragments())
                .map(|j| {
                    let values = self
                        .transformer
                        .fragment_values(update, perms, j, &mut scratch);
                    (values.len(), RecordFrame::upload(round, values))
                })
                .collect()
        });
        // Record `j` is fragment `j`'s aggregator.
        let routed = self.aggregators.iter_mut().zip(frames);
        for (j, (agg, (values, frame))) in routed.enumerate() {
            if let Ok(frame) = frame {
                agg.seal_and_send(&self.endpoint, frame);
            }
            deta_telemetry::event(
                event,
                &[
                    ("round", TelemetryValue::from(round)),
                    ("fragment", TelemetryValue::from(j)),
                    ("values", TelemetryValue::from(values)),
                ],
            );
        }
    }

    /// Skips local training for the announced round (partial
    /// participation): the party still synchronizes with the aggregated
    /// result when it arrives.
    ///
    /// # Errors
    ///
    /// Fails if no round is active.
    pub fn skip_local_round(&mut self) -> Result<(), PartyError> {
        if self.current_round.is_none() {
            return Err(PartyError::Protocol("no active round"));
        }
        self.snapshot_round_base();
        Ok(())
    }

    /// Keeps the parameters the round starts from, for the two readers
    /// there are: FedSGD's step and the LDP delta. A plain FedAvg round
    /// replaces its parameters wholesale and never looks back.
    fn snapshot_round_base(&mut self) {
        if self.cfg.mode == SyncMode::FedSgd || self.cfg.ldp.is_some() {
            self.round_base = self.model.flat_params();
        }
    }

    /// Takes the held permutations if they belong to round `tid`, and
    /// derives them otherwise (first use in the round, a remap since, or
    /// a round this party sat out).
    fn take_permutations(
        held: &mut Option<RoundPermutations>,
        transformer: &Transformer,
        tid: &[u8; 16],
    ) -> RoundPermutations {
        match held.take() {
            Some(perms) if perms.training_id() == tid => perms,
            _ => transformer.permutations(tid),
        }
    }

    fn upload_encrypted(&mut self, round: u64, fragments: &[Vec<f32>]) -> Result<(), PartyError> {
        let Some(p) = self.paillier.as_ref() else {
            return Err(PartyError::Protocol("paillier material missing"));
        };
        let encrypted: Vec<Vec<Vec<u8>>> = timed(&mut self.timers.crypto_s, || {
            fragments
                .iter()
                .map(|frag| {
                    let cts = p.codec.encrypt_vector(&p.keys.public, frag, &mut self.rng);
                    cts.iter().map(|c| c.0.to_bytes_be()).collect()
                })
                .collect()
        });
        // Record `j` is fragment `j`'s aggregator.
        let routed = self.aggregators.iter_mut().zip(fragments).zip(encrypted);
        for ((agg, frag), ciphertexts) in routed {
            let value_count = frag.len() as u64;
            let upload = Msg::UploadEncrypted {
                round,
                ciphertexts,
                value_count,
            };
            agg.send_sealed(&self.endpoint, &upload);
            deta_telemetry::event(
                "upload",
                &[
                    ("round", TelemetryValue::from(round)),
                    ("values", TelemetryValue::from(value_count)),
                    ("encrypted", TelemetryValue::from(true)),
                ],
            );
        }
        Ok(())
    }

    /// Collects aggregated fragments; when all have arrived, reverses the
    /// transformation and synchronizes the local model.
    ///
    /// Returns `true` when no round remains pending — either this call
    /// applied the aggregate, or none was in flight. Pollers can therefore
    /// call it repeatedly without tracking which parties already finished.
    pub fn try_finish_round(&mut self) -> bool {
        self.drain_wire();
        self.finish_round()
    }

    /// No-drain variant of [`Party::try_finish_round`] for mailbox loops
    /// that already routed every queued message through
    /// [`Party::handle_wire`].
    pub fn finish_round(&mut self) -> bool {
        let Some((round, tid)) = self.current_round else {
            return true;
        };
        let arrived = |a: &AggPeer| matches!(a.download, Some((r, _)) if r == round);
        if !self.aggregators.iter().all(arrived) {
            return false;
        }
        let (paillier, crypto_s) = (self.paillier.as_ref(), &mut self.timers.crypto_s);
        let downloads = self
            .aggregators
            .iter_mut()
            .filter_map(|a| a.download.take());
        let fragments: Vec<Vec<f32>> = downloads
            .filter_map(|(_, download)| match (download, paillier) {
                (Download::Plain(fragment), None) => Some(fragment),
                (
                    Download::Encrypted {
                        ciphertexts,
                        value_count,
                        summands,
                    },
                    Some(p),
                ) => Some(timed(crypto_s, || {
                    let (values, summands) = (value_count as usize, summands as usize);
                    let sums = p
                        .codec
                        .decrypt_sum(&p.keys.private, &ciphertexts, values, summands);
                    // Equal-weight average of the homomorphic sum.
                    sums.iter().map(|&s| s / summands as f32).collect()
                })),
                // Refused where downloads come in.
                _ => None,
            })
            .collect();
        let merged = timed(&mut self.timers.transform_s, || {
            let _span =
                deta_telemetry::span("unshuffle").with_field("round", TelemetryValue::from(round));
            let perms = Self::take_permutations(&mut self.round_perms, &self.transformer, &tid);
            self.transformer.inverse_with(&fragments, &perms)
        });
        self.apply_update(&merged);
        deta_telemetry::event(
            "round_synchronized",
            &[("round", TelemetryValue::from(round))],
        );
        self.last_finished_round = self.last_finished_round.max(round);
        self.current_round = None;
        true
    }

    fn apply_update(&mut self, merged: &[f32]) {
        match self.cfg.mode {
            SyncMode::FedAvg => self.model.set_flat_params(merged),
            SyncMode::FedSgd => {
                // theta <- theta - lr * grad_scale * aggregated gradient.
                // With iterative averaging the aggregate is already the
                // mean (grad_scale = 1); with gradient-sum the session
                // sets grad_scale = 1/N.
                let step = self.cfg.lr * self.cfg.grad_scale;
                let params: Vec<f32> = self
                    .round_base
                    .iter()
                    .zip(merged.iter())
                    .map(|(p, g)| p - step * g)
                    .collect();
                self.model.set_flat_params(&params);
            }
        }
    }

    /// Drains the endpoint, routing each message through
    /// [`Party::handle_wire`].
    fn drain_wire(&mut self) {
        for msg in self.endpoint.drain() {
            self.handle_wire(&msg.from, msg.payload);
        }
    }

    /// Processes one wire message. This is the party's entire reactive
    /// surface: the synchronous session drains the queue into it, and the
    /// threaded runtime's mailbox loop feeds it one message at a time.
    /// The payload comes by value so that a sealed record is opened in
    /// the buffer it arrived in. Malformed or out-of-protocol traffic is
    /// dropped.
    pub fn handle_wire(&mut self, from: &str, payload: Vec<u8>) {
        if wire::is_record(&payload) {
            return self.handle_record(from, payload);
        }
        match Msg::decode(&payload) {
            Ok(Msg::HelloReply { handshake }) => self.handle_hello_reply(from, &handshake),
            // Everything else is aggregator-bound or must arrive inside
            // a sealed Record; dropping it is correct, but the drop is
            // counted so misrouted traffic shows up in metrics.
            Ok(other) => {
                deta_telemetry::metrics::counter_add("deta_wire_ignored_total", other.name(), 1);
            }
            Err(_) => {}
        }
    }

    /// Phase II: verifies an aggregator's challenge response and, once the
    /// last channel is up, registers with every aggregator.
    fn handle_hello_reply(&mut self, from: &str, handshake: &[u8]) {
        let register = Msg::Register {
            party: self.name.clone(),
            weight: self.weight(),
        };
        let Some(agg) = self.aggregators.iter_mut().find(|a| a.name == from) else {
            return;
        };
        let (hs, token) = match std::mem::replace(&mut agg.link, Link::Down) {
            Link::Handshaking(hs, token) => (hs, token),
            // No handshake in flight: nothing this reply could answer.
            other => {
                agg.link = other;
                return;
            }
        };
        let Some(chan) = token.and_then(|t| hs.complete(handshake, &t).ok()) else {
            self.auth_failure.get_or_insert_with(|| from.to_string());
            return;
        };
        agg.link = Link::Up(chan);
        if std::mem::take(&mut agg.rebinding) {
            // Failover rebind: the original registration round already
            // happened, so re-register with just the replacement.
            agg.send_sealed(&self.endpoint, &register);
        } else if self.handshakes_complete() && !self.registration_sent {
            self.registration_sent = true;
            for agg in &mut self.aggregators {
                agg.send_sealed(&self.endpoint, &register);
            }
        }
    }

    /// Opens a `Record` frame where it arrived and dispatches the inner
    /// message.
    fn handle_record(&mut self, from: &str, frame: Vec<u8>) {
        // Record `j` is fragment `j`'s aggregator.
        let Some(j) = self.aggregators.iter().position(|a| a.name == from) else {
            return;
        };
        let agg = &mut self.aggregators[j];
        let Link::Up(chan) = &mut agg.link else {
            return;
        };
        let Some(inner) = wire::open_record(chan, frame) else {
            return;
        };
        // A download is checked against the fragment this aggregator owes
        // before it is kept: the merge and the decryption assert what
        // they are given, and an aggregator must not be able to fail
        // those assertions from afar. A refused one is counted, attributed
        // and leaves the slot as it was, so the round times out on this
        // aggregator.
        let fragment_len = self.transformer.mapper().fragment_len(j);
        let refuse = |kind: &str, round: u64| {
            deta_telemetry::metrics::counter_add("deta_wire_rejected_total", kind, 1);
            if deta_telemetry::enabled() {
                deta_telemetry::event(
                    "download_rejected",
                    &[
                        ("from", TelemetryValue::from(from)),
                        ("kind", TelemetryValue::from(kind)),
                        ("round", TelemetryValue::from(round)),
                    ],
                );
            }
        };
        match inner {
            Msg::RegisterAck => agg.acked = true,
            Msg::RoundStart { round, training_id }
                // Re-announcements of already-synchronized rounds are
                // dropped so supervisor retries stay idempotent.
                if round > self.last_finished_round =>
            {
                self.current_round = Some((round, training_id));
            }
            Msg::Aggregated { round, fragment }
                // Guard against stale deliveries: aggregates for
                // already-synchronized rounds are dropped; the live
                // round's (or, transiently, the next round's) are kept.
                // So is the kind this party cannot read: plain values
                // under Paillier fusion, ciphertexts without it.
                if round > self.last_finished_round && self.paillier.is_none() =>
            {
                let values = fragment.len();
                if values != fragment_len {
                    return refuse("Aggregated", round);
                }
                deta_telemetry::event(
                    "download",
                    &[
                        ("round", TelemetryValue::from(round)),
                        ("values", TelemetryValue::from(values)),
                    ],
                );
                agg.download = Some((round, Download::Plain(fragment)));
            }
            Msg::AggregatedEncrypted {
                round,
                ciphertexts,
                value_count,
                summands,
            } if round > self.last_finished_round && self.paillier.is_some() => {
                let ciphertexts: Vec<Ciphertext> = ciphertexts
                    .iter()
                    .map(|b| Ciphertext(deta_bignum::BigUint::from_bytes_be(b)))
                    .collect();
                let readable = self
                    .paillier
                    .as_ref()
                    .is_some_and(|p| p.admits(&ciphertexts, value_count, summands, fragment_len));
                if !readable {
                    return refuse("AggregatedEncrypted", round);
                }
                deta_telemetry::event(
                    "download",
                    &[
                        ("round", TelemetryValue::from(round)),
                        ("values", TelemetryValue::from(value_count)),
                        ("encrypted", TelemetryValue::from(true)),
                    ],
                );
                let download = Download::Encrypted {
                    ciphertexts,
                    value_count,
                    summands,
                };
                agg.download = Some((round, download));
            }
            // Out-of-protocol inner messages and guard-failed downloads
            // (a stale round's RoundStart or aggregate, an aggregate of
            // the wrong kind) land here; the drop is deliberate and
            // counted.
            other => {
                deta_telemetry::metrics::counter_add("deta_wire_ignored_total", other.name(), 1);
            }
        }
    }

    /// Evaluates the current model on a dataset.
    pub fn evaluate(&mut self, data: &LabeledData, batch_size: usize) -> (f32, f32) {
        deta_nn::train::evaluate(&mut self.model, data, batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{DetaConfig, DetaSession};
    use deta_datasets::{iid_partition, DatasetSpec};
    use deta_nn::models::mlp;

    const TID: [u8; 16] = [0x5a; 16];

    fn session(n_parties: usize, participation: Option<usize>) -> (DetaSession, LabeledData) {
        let spec = DatasetSpec::mnist_like().at_resolution(8);
        let shards = iid_partition(&spec.generate(20 * n_parties, 1), n_parties, 2);
        let mut cfg = DetaConfig::deta(n_parties, 2);
        cfg.seed = 11;
        cfg.participation = participation;
        let (dim, classes) = (spec.dim(), spec.classes);
        let s = DetaSession::setup(cfg, &move |rng| mlp(&[dim, 12, classes], rng), shards)
            .expect("session sets up");
        (s, spec.generate(16, 9))
    }

    /// Announces `round` under `tid` and lets party 0 train and upload.
    fn open_round_and_upload(s: &mut DetaSession, round: u64, tid: [u8; 16]) {
        s.aggregator_mut(0)
            .begin_round(round, tid)
            .expect("initiator");
        for j in 0..3 {
            s.aggregator_mut(j).pump();
        }
        let p = s.party_mut(0);
        p.record_updates = true;
        assert_eq!(p.poll_round_start(), Some((round, tid)));
        p.run_local_round().expect("announced round runs");
    }

    #[test]
    fn permutations_are_held_from_upload_to_finish_only() {
        let (mut s, _test) = session(2, None);
        assert!(s.party_mut(0).round_perms.is_none());
        open_round_and_upload(&mut s, 1, TID);
        let held = s
            .party_mut(0)
            .round_perms
            .as_ref()
            .expect("held after upload");
        assert_eq!(held.training_id(), &TID);
        // Nothing about the slot order is printable.
        assert_eq!(
            format!("{held:?}"),
            "RoundPermutations { fragments: 3, .. }"
        );
        // Party 1 joins and the round completes.
        let p1 = s.party_mut(1);
        p1.poll_round_start();
        p1.run_local_round().expect("announced round runs");
        for j in 0..3 {
            s.aggregator_mut(j).pump();
        }
        for i in 0..2 {
            assert!(s.party_mut(i).try_finish_round());
            assert!(s.party_mut(i).round_perms.is_none(), "dropped at finish");
        }
        assert_eq!(s.party_params(0), s.party_params(1));
        // The next round holds its own set, under its own training id.
        open_round_and_upload(&mut s, 2, [0x33; 16]);
        let held = s.party_mut(0).round_perms.as_ref().expect("held again");
        assert_eq!(held.training_id(), &[0x33; 16]);
    }

    #[test]
    fn replay_after_remap_matches_a_fresh_transformer() {
        let (mut s, _test) = session(2, None);
        open_round_and_upload(&mut s, 1, TID);
        let update = s.party_mut(0).update_log[0].1.clone();
        let old_lens: Vec<usize> = (0..3)
            .map(|j| s.party_mut(0).transformer().mapper().fragment_len(j))
            .collect();

        // Aggregator 2 dies: the survivors take over under a fresh
        // two-way partition and the round is replayed.
        let survivors: Vec<String> = s.party_mut(0).aggregators[..2]
            .iter()
            .map(|a| a.name.clone())
            .collect();
        let remapped = ModelMapper::generate(update.len(), 2, None, &mut DetRng::from_u64(99));
        // What a party that never saw the old mapper would upload.
        let fresh = s.party_mut(0).transformer().with_mapper(remapped.clone());
        let expected = fresh.transform(&update, &TID);
        for j in 0..2 {
            s.aggregator_mut(j).reopen_round(1);
        }
        let p = s.party_mut(0);
        assert!(p.apply_remap(1, &remapped.to_bytes(), &survivors));
        assert!(p.round_perms.is_none(), "old-length permutations dropped");
        assert!(p.replay_upload(1));
        assert!(p.round_perms.is_some(), "re-derived for the open round");

        for (j, want) in expected.iter().enumerate() {
            s.aggregator_mut(j).pump();
            let pending = s.aggregator_mut(j).pending_uploads();
            assert_eq!(pending.len(), 1);
            assert_eq!(pending[0].1, "party-0");
            assert_ne!(want.len(), old_lens[j]);
            assert_eq!(&pending[0].2, want, "fragment {j}");
        }
    }

    #[test]
    fn a_party_that_skips_the_local_step_still_finishes() {
        // One of two parties trains each round; the other derives its
        // permutations for the first time in `finish_round`.
        let (mut s, test) = session(2, Some(1));
        for _ in 0..2 {
            s.step(&test);
            assert_eq!(s.party_params(0), s.party_params(1));
            for i in 0..2 {
                assert_eq!(s.party_mut(i).last_finished_round(), s.completed_rounds());
                assert!(s.party_mut(i).round_perms.is_none());
            }
        }
    }
}
