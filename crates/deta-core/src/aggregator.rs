//! The aggregator runtime, executing inside a (simulated) SEV CVM.
//!
//! Each aggregator:
//!
//! * loads its authentication-token signing key from the secret the
//!   attestation proxy injected at verified launch,
//! * answers party handshakes by signing the challenge transcript with
//!   that token (Phase II challenge-response),
//! * collects transformed fragment uploads over secure channels, keeping
//!   them in CVM guest memory (so a breach leaks exactly what the paper's
//!   threat model says it leaks: fragmented, shuffled vectors),
//! * runs the chosen coordinate-wise aggregation when all registered
//!   parties have uploaded, and dispatches aggregated fragments back,
//! * participates in inter-aggregator synchronization: one initiator node
//!   announces rounds; followers acknowledge completion.

use crate::agg::Aggregation;
use crate::latency::timed;
use crate::proxy::TOKEN_SECRET_LABEL;
use crate::wire::{self, Msg, RecordFrame};
use deta_bignum::BigUint;
use deta_crypto::{DetRng, SigningKey};
use deta_paillier::{Ciphertext, PublicKey as PaillierPk};
use deta_sev_sim::Cvm;
use deta_telemetry::TelemetryValue;
use deta_transport::wire::{put_bytes, Reader};
use deta_transport::{secure, Endpoint, SecureChannel};
use std::collections::BTreeMap;

/// Role in inter-aggregator synchronization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AggRole {
    /// Coordinates rounds: notifies parties and followers.
    Initiator {
        /// Endpoint names of the follower aggregators.
        followers: Vec<String>,
    },
    /// Waits for the initiator's round announcements.
    Follower {
        /// Endpoint name of the initiator.
        initiator: String,
    },
}

impl AggRole {
    /// `name`'s role in the aggregator set `aggs` coordinated by
    /// `initiator`.
    pub fn among(name: &str, initiator: &str, aggs: &[String]) -> AggRole {
        if name == initiator {
            let followers = aggs.iter().filter(|a| *a != name).cloned().collect();
            AggRole::Initiator { followers }
        } else {
            let initiator = initiator.to_string();
            AggRole::Follower { initiator }
        }
    }
}

/// Errors from the aggregator runtime.
#[derive(Debug)]
pub enum AggError {
    /// The CVM has no provisioned token secret.
    MissingToken,
    /// The token secret bytes are not a valid signing key.
    BadToken,
    /// A round-coordination call was made on the wrong role.
    NotInitiator,
}

impl std::fmt::Display for AggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggError::MissingToken => write!(f, "CVM has no provisioned auth token"),
            AggError::BadToken => write!(f, "provisioned auth token is invalid"),
            AggError::NotInitiator => write!(f, "round coordination requires the initiator role"),
        }
    }
}

impl std::error::Error for AggError {}

/// What a node knows about one party.
struct PartyPeer {
    /// The secure channel its Phase II handshake opened.
    channel: SecureChannel,
    /// The `Hello` that channel was built from and the encoded
    /// `HelloReply` that answered it: the same opener again is the same
    /// handshake, not a new one.
    opener: Vec<u8>,
    reply: Vec<u8>,
    /// The weight it registered with: `None` before `Register` and after
    /// [`AggregatorNode::deregister`], when the channel stays but rounds
    /// neither wait for the party nor reach it.
    weight: Option<f32>,
}

/// One party's upload, held until its round aggregates. Which kind a
/// node holds is decided where uploads come in: plain fragments without
/// a Paillier key, ciphertexts with one, never both.
enum Upload {
    /// A transformed fragment.
    Plain(Vec<f32>),
    /// A Paillier-encrypted fragment: its ciphertexts, and the number of
    /// plaintext values they pack.
    Encrypted(Vec<Ciphertext>, u64),
}

/// One aggregator node.
pub struct AggregatorNode {
    /// Endpoint name.
    pub name: String,
    cvm: Cvm,
    token: SigningKey,
    endpoint: Endpoint,
    rng: DetRng,
    /// Every party with a channel to this node. Ordered by name, and
    /// that order is the order of every fan-out: two runs of one seed
    /// put the same frames on the network in the same sequence.
    parties: BTreeMap<String, PartyPeer>,
    algorithm: Box<dyn Aggregation>,
    role: AggRole,
    /// Uploads waiting for their round to fill: round -> party -> upload.
    pending: BTreeMap<u64, BTreeMap<String, Upload>>,
    /// Paillier public key when running encrypted fusion.
    paillier_pk: Option<PaillierPk>,
    /// Rounds whose aggregation this node has completed.
    pub completed_rounds: u64,
    /// Measured aggregation compute seconds (for the latency model).
    pub aggregate_time_s: f64,
    /// Per-round upload quorum (None = wait for every registered party).
    quorum: Option<usize>,
}

impl AggregatorNode {
    /// Creates a node from a provisioned CVM.
    ///
    /// # Errors
    ///
    /// Fails if the CVM lacks a valid token secret (i.e. Phase I never
    /// completed for this CVM).
    pub fn new(
        name: &str,
        cvm: Cvm,
        endpoint: Endpoint,
        algorithm: Box<dyn Aggregation>,
        role: AggRole,
        rng: DetRng,
    ) -> Result<AggregatorNode, AggError> {
        let secret = cvm
            .guest()
            .secret(TOKEN_SECRET_LABEL)
            .ok_or(AggError::MissingToken)?;
        let token = SigningKey::from_bytes(&secret).ok_or(AggError::BadToken)?;
        Ok(AggregatorNode {
            name: name.to_string(),
            cvm,
            token,
            endpoint,
            rng,
            parties: BTreeMap::new(),
            algorithm,
            role,
            pending: BTreeMap::new(),
            paillier_pk: None,
            completed_rounds: 0,
            aggregate_time_s: 0.0,
            quorum: None,
        })
    }

    /// Enables the Paillier fusion path with the given public key.
    pub fn set_paillier_key(&mut self, pk: PaillierPk) {
        self.paillier_pk = Some(pk);
    }

    /// Sets a per-round upload quorum: aggregation fires once this many
    /// parties have uploaded (partial participation). `None` waits for
    /// all registered parties.
    pub fn set_quorum(&mut self, quorum: Option<usize>) {
        self.quorum = quorum;
    }

    /// Registered party count.
    pub fn registered_parties(&self) -> usize {
        self.parties.values().filter(|p| p.weight.is_some()).count()
    }

    /// Replaces this node's synchronization role — the failover topology
    /// update after an initiator dies or the aggregator set shrinks.
    pub fn set_role(&mut self, role: AggRole) {
        self.role = role;
    }

    /// Current synchronization role.
    pub fn role(&self) -> &AggRole {
        &self.role
    }

    /// Failover round replay: re-opens `round` so replayed uploads are
    /// accepted again. Completed-round bookkeeping rolls back to
    /// `round - 1` and any partial uploads for `round` or later are
    /// dropped (they belong to the discarded attempt; under a
    /// re-partition they may even have a different fragment length).
    pub fn reopen_round(&mut self, round: u64) {
        if round == 0 {
            return;
        }
        self.completed_rounds = self.completed_rounds.min(round - 1);
        self.pending.retain(|&r, _| r < round);
    }

    /// Every decrypted-but-not-yet-aggregated plain upload this node
    /// holds, as `(round, party, fragment)` sorted by round then party.
    /// Together with the CVM breach log this is the complete plaintext
    /// view of an aggregator — deta-simnet's privacy checker audits both.
    pub fn pending_uploads(&self) -> Vec<(u64, String, Vec<f32>)> {
        let mut out: Vec<(u64, String, Vec<f32>)> = Vec::new();
        for (&round, uploads) in &self.pending {
            for (party, upload) in uploads {
                if let Upload::Plain(frag) = upload {
                    out.push((round, party.clone(), frag.clone()));
                }
            }
        }
        out
    }

    /// Deregisters a party (dropout handling): pending and future rounds
    /// aggregate over the remaining parties only.
    ///
    /// Cross-silo parties leave for maintenance or network partitions;
    /// because every algorithm here aggregates whatever the registered
    /// set contributed, removal is safe at round boundaries.
    pub fn deregister(&mut self, party: &str) {
        if let Some(peer) = self.parties.get_mut(party) {
            peer.weight = None;
        }
        for uploads in self.pending.values_mut() {
            uploads.remove(party);
        }
        // The departed party may have been the last holdout for a round:
        // with the expected set shrunk, every pending round must be
        // re-examined, or aggregation would wait forever for an upload
        // that can no longer arrive.
        let rounds: Vec<u64> = self.pending.keys().copied().collect();
        for round in rounds {
            self.try_aggregate(round);
        }
    }

    /// Access to the CVM (e.g. for breach experiments).
    pub fn cvm(&self) -> &Cvm {
        &self.cvm
    }

    /// A handle onto this node's mailbox (clones share the queue): an
    /// actor loop receives on the clone and feeds
    /// [`AggregatorNode::handle_wire`].
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Signs `msg` with the Phase II attestation token key provisioned
    /// into this node's CVM — the same identity parties verify during
    /// the challenge-response handshake. Deployed transports use this to
    /// prove that a remote peer claiming this node's name holds the
    /// attested token, so a socket endpoint carries exactly the identity
    /// an in-process endpoint does.
    pub fn sign_with_token(&self, msg: &[u8]) -> deta_crypto::Signature {
        self.token.sign(msg)
    }

    /// A clone of the attestation token's signing key, for transports
    /// that must re-prove this node's identity after the node itself
    /// has been handed to its actor loop (socket link reconnection).
    pub fn link_signing_key(&self) -> deta_crypto::SigningKey {
        self.token.clone()
    }

    /// Initiator only: announces a round to all parties and followers.
    ///
    /// # Errors
    ///
    /// Fails with [`AggError::NotInitiator`] on a follower (a protocol
    /// misuse the caller must surface, not a crash).
    pub fn begin_round(&mut self, round: u64, training_id: [u8; 16]) -> Result<(), AggError> {
        let followers = match &self.role {
            AggRole::Initiator { followers } => followers.clone(),
            AggRole::Follower { .. } => return Err(AggError::NotInitiator),
        };
        // Idempotence: a supervisor may retry a round announcement it
        // believes was lost. Re-announcing a completed round must be a
        // no-op, not a protocol restart. An in-flight round IS
        // re-announced: the retry exists to recover a fan-out the
        // network swallowed, and parties dedupe repeated `RoundStart`s.
        if round <= self.completed_rounds {
            return Ok(());
        }
        deta_telemetry::event(
            "round_start",
            &[
                ("round", TelemetryValue::from(round)),
                ("followers", TelemetryValue::from(followers.len())),
            ],
        );
        for f in &followers {
            if let Ok(frame) = (Msg::SyncRound { round, training_id }).encode() {
                let _ = self.endpoint.send(f, frame);
            }
        }
        if let Ok(plain) = (Msg::RoundStart { round, training_id }).encode() {
            self.fan_out(&plain);
        }
        Ok(())
    }

    /// Processes all queued messages; returns how many were handled.
    pub fn pump(&mut self) -> usize {
        let mut handled = 0;
        while let Some(msg) = self.endpoint.recv() {
            self.handle_wire(&msg.from, msg.payload);
            handled += 1;
        }
        handled
    }

    /// Adversarial-drill hook: sends an arbitrary protocol message to a
    /// registered party over this node's established secure channel —
    /// what a *compromised* aggregator (the paper's threat model) can do
    /// after a breach: craft byte-level-valid sealed records carrying
    /// hostile payloads, e.g. a stale round's `Aggregated` fragment.
    /// No-op when no channel to `to` exists. Drill/test-harness hook,
    /// like `Party::swap_fragment_routes`; never called in production.
    pub fn drill_send_sealed(&mut self, to: &str, msg: &Msg) {
        self.send_sealed(to, msg);
    }

    fn send_sealed(&mut self, to: &str, msg: &Msg) {
        if let (Ok(frame), Some(peer)) = (RecordFrame::of(msg), self.parties.get_mut(to)) {
            let _ = self.endpoint.send(to, frame.seal(&mut peer.channel));
        }
    }

    /// Sends one encoded message to every registered party, in name
    /// order: a fan-out encodes once, and the plaintext is copied into
    /// each party's frame and sealed where it lies.
    fn fan_out(&mut self, plain: &[u8]) {
        let registered = self.parties.iter_mut().filter(|(_, p)| p.weight.is_some());
        for (name, peer) in registered {
            if let Ok(frame) = RecordFrame::of_encoded(plain) {
                let _ = self.endpoint.send(name, frame.seal(&mut peer.channel));
            }
        }
    }

    /// Dispatches one raw wire frame. Public so an actor loop (which owns
    /// the endpoint and routes every message itself) can drive the node.
    /// The payload comes by value so that a sealed record is opened in
    /// the buffer it arrived in.
    pub fn handle_wire(&mut self, from: &str, payload: Vec<u8>) {
        if wire::is_record(&payload) {
            let Some(peer) = self.parties.get_mut(from) else {
                return;
            };
            if let Some(inner) = wire::open_record(&mut peer.channel, payload) {
                self.handle_inner(from, inner);
            }
            return;
        }
        let Ok(msg) = Msg::decode(&payload) else {
            return; // Malformed traffic is dropped.
        };
        match msg {
            Msg::Hello { handshake } => {
                // The opener this party's channel was built from, again (a
                // duplicated frame, or a retry of a lost reply): the party
                // is — or will be — on the channel its first copy opened.
                // Answer as before; a fresh `respond` would move this node
                // to a channel whose reply the party never adopts.
                if let Some(peer) = self.parties.get(from).filter(|p| p.opener == handshake) {
                    let _ = self.endpoint.send(from, peer.reply.clone());
                    return;
                }
                // Phase II: sign the handshake transcript with the token.
                let Ok((resp, channel)) = secure::respond(&handshake, &self.token, &mut self.rng)
                else {
                    return;
                };
                if let Ok(reply) = (Msg::HelloReply { handshake: resp }).encode() {
                    // A party that says hello afresh (a rebind carries a new
                    // share) keeps its registration.
                    let weight = self.parties.get(from).and_then(|p| p.weight);
                    let peer = PartyPeer {
                        channel,
                        opener: handshake,
                        reply: reply.clone(),
                        weight,
                    };
                    self.parties.insert(from.to_string(), peer);
                    let _ = self.endpoint.send(from, reply);
                }
            }
            Msg::SyncRound { round, training_id } => {
                // On a follower the training id is opaque (the permutation
                // key never reaches aggregators) and there is nothing to
                // do until uploads arrive. On the initiator this message
                // is the operator's round trigger: fan it out.
                deta_telemetry::event("round_sync", &[("round", TelemetryValue::from(round))]);
                if matches!(self.role, AggRole::Initiator { .. }) {
                    let _ = self.begin_round(round, training_id);
                }
            }
            // A follower's completion ack. Nothing waits on it: whoever
            // schedules the round reads `completed_rounds` (or `AggDone`).
            Msg::SyncDone { .. } => {}
            // Party-bound replies and messages that must arrive inside a
            // sealed Record; the drop is deliberate and counted.
            other => {
                deta_telemetry::metrics::counter_add("deta_wire_ignored_total", other.name(), 1);
            }
        }
    }

    fn handle_inner(&mut self, from: &str, msg: Msg) {
        match msg {
            Msg::Register { party, weight } => {
                // Uploads are keyed by the authenticated sender, so a
                // registration under any other name would be waited for
                // forever; and the weight goes straight into the weighted
                // mean, where one NaN or non-positive sum spoils the round.
                if party != from || !weight.is_finite() || weight <= 0.0 {
                    deta_telemetry::metrics::counter_add("deta_wire_rejected_total", "Register", 1);
                    if deta_telemetry::enabled() {
                        deta_telemetry::event(
                            "register_rejected",
                            &[
                                ("from", TelemetryValue::from(from)),
                                ("claimed", TelemetryValue::from(party)),
                                ("weight", TelemetryValue::from(weight)),
                            ],
                        );
                    }
                    return;
                }
                if let Some(peer) = self.parties.get_mut(from) {
                    peer.weight = Some(weight);
                }
                self.send_sealed(from, &Msg::RegisterAck);
            }
            Msg::Upload { round, fragment } if self.paillier_pk.is_none() => {
                deta_telemetry::event(
                    "upload_received",
                    &[
                        ("round", TelemetryValue::from(round)),
                        ("values", TelemetryValue::from(fragment.len())),
                    ],
                );
                self.hold_upload(from, round, Upload::Plain(fragment));
            }
            Msg::UploadEncrypted {
                round,
                ciphertexts,
                value_count,
            } if self.paillier_pk.is_some() => {
                deta_telemetry::event(
                    "upload_received",
                    &[
                        ("round", TelemetryValue::from(round)),
                        ("values", TelemetryValue::from(value_count)),
                        ("encrypted", TelemetryValue::from(true)),
                    ],
                );
                let ciphertexts = ciphertexts
                    .iter()
                    .map(|b| Ciphertext(BigUint::from_bytes_be(b)))
                    .collect();
                self.hold_upload(from, round, Upload::Encrypted(ciphertexts, value_count));
            }
            // An upload of the kind this node does not aggregate — plain
            // to a node with a Paillier key, encrypted to one without —
            // would wait in `pending` for a round that can never use it.
            other @ (Msg::Upload { .. } | Msg::UploadEncrypted { .. }) => {
                deta_telemetry::metrics::counter_add("deta_wire_rejected_total", other.name(), 1);
            }
            // Inner frames other than registration and uploads are
            // out-of-protocol for the sealed channel; count each drop.
            other => {
                deta_telemetry::metrics::counter_add("deta_wire_ignored_total", other.name(), 1);
            }
        }
    }

    /// Holds `from`'s upload for `round`, and aggregates the round if it
    /// was the last one expected. A plain upload whose length differs
    /// from what *another* party holds for the round is refused: one odd
    /// (hostile, or stale) arrival must not cost the round the uploads it
    /// has. A party's own entry it may always replace — its channel is
    /// ordered, so its latest word is its newest (a replayed new-epoch
    /// upload overtaking its own old-epoch one, still in flight when
    /// `reopen_round` emptied the slot).
    fn hold_upload(&mut self, from: &str, round: u64, upload: Upload) {
        let slot = self.pending.entry(round).or_default();
        let other = slot.iter().find(|(party, _)| *party != from);
        if let (Upload::Plain(arriving), Some((_, Upload::Plain(held)))) = (&upload, other) {
            if held.len() != arriving.len() {
                deta_telemetry::metrics::counter_add("deta_wire_rejected_total", "Upload", 1);
                if deta_telemetry::enabled() {
                    deta_telemetry::event(
                        "upload_rejected",
                        &[
                            ("party", TelemetryValue::from(from)),
                            ("round", TelemetryValue::from(round)),
                            ("held", TelemetryValue::from(held.len())),
                            ("arriving", TelemetryValue::from(arriving.len())),
                        ],
                    );
                }
                return;
            }
        }
        slot.insert(from.to_string(), upload);
        self.try_aggregate(round);
    }

    /// Aggregates `round` once the expected number of parties (the
    /// quorum, or every registered party) has uploaded, and sends every
    /// registered party the result. Uploads arriving after the round
    /// completed are discarded.
    fn try_aggregate(&mut self, round: u64) {
        if round <= self.completed_rounds {
            self.pending.remove(&round);
            return;
        }
        let n = self.registered_parties();
        let expected = self.quorum.unwrap_or(n).min(n);
        if n == 0 || self.pending.get(&round).map_or(0, |m| m.len()) < expected {
            return;
        }
        // Deterministic party order: the table's own, by name.
        let Some(uploads) = self.pending.remove(&round) else {
            return;
        };
        let count = uploads.len();
        let (mut names, mut fragments, mut encrypted) = (Vec::new(), Vec::new(), Vec::new());
        for (name, upload) in uploads {
            match upload {
                Upload::Plain(fragment) => {
                    names.push(name);
                    fragments.push(fragment);
                }
                Upload::Encrypted(ciphertexts, value_count) => {
                    encrypted.push((ciphertexts, value_count));
                }
            }
        }
        self.cvm
            .guest()
            .write(breach_records(round, &names, &fragments));
        let aggregated = timed(&mut self.aggregate_time_s, || {
            let span = deta_telemetry::span("aggregate")
                .with_field("round", TelemetryValue::from(round))
                .with_field("uploads", TelemetryValue::from(count));
            match &self.paillier_pk {
                None => {
                    let _span = span;
                    let weight = |name| self.parties.get(name).and_then(|p| p.weight);
                    let weights: Vec<f32> =
                        names.iter().map(|n| weight(n).unwrap_or(1.0)).collect();
                    let fragment = self.algorithm.aggregate(&fragments, &weights);
                    fragment
                        .map(|fragment| Msg::Aggregated { round, fragment })
                        .map_err(|e| e.to_string())
                }
                Some(pk) => {
                    let _span = span.with_field("encrypted", TelemetryValue::from(true));
                    let (sums, value_count) = sum_ciphertexts(pk, &encrypted)?;
                    Ok(Msg::AggregatedEncrypted {
                        round,
                        ciphertexts: sums.iter().map(|c| c.0.to_bytes_be()).collect(),
                        value_count,
                        summands: n as u64,
                    })
                }
            }
        });
        // One plaintext for the whole fan-out.
        let plain = match aggregated.and_then(|msg| msg.encode().map_err(|e| e.to_string())) {
            Ok(plain) => plain,
            Err(cause) => return self.aggregate_failed(round, &cause),
        };
        self.fan_out(&plain);
        self.completed_rounds = self.completed_rounds.max(round);
        self.notify_initiator(round);
    }

    /// A round whose uploads could not be aggregated: counted and named,
    /// never a panic. The attempt's uploads are spent and the round stays
    /// open; the supervisor's recovery budget decides whether it is
    /// replayed or given up.
    fn aggregate_failed(&self, round: u64, cause: &str) {
        deta_telemetry::metrics::counter_add("deta_aggregate_failed_total", &self.name, 1);
        if deta_telemetry::enabled() {
            deta_telemetry::event(
                "aggregate_failed",
                &[
                    ("round", TelemetryValue::from(round)),
                    ("cause", TelemetryValue::from(cause)),
                ],
            );
        }
    }

    fn notify_initiator(&mut self, round: u64) {
        if let AggRole::Follower { initiator } = &self.role {
            if let Ok(frame) = (Msg::SyncDone { round }).encode() {
                let _ = self.endpoint.send(&initiator.clone(), frame);
            }
        }
    }
}

/// The homomorphic sum of encrypted `uploads`, ciphertext by ciphertext,
/// with the value count they share. Uploads of different shapes pack
/// different values into a slot and cannot be summed.
fn sum_ciphertexts(
    pk: &PaillierPk,
    uploads: &[(Vec<Ciphertext>, u64)],
) -> Result<(Vec<Ciphertext>, u64), &'static str> {
    let Some((first, value_count)) = uploads.first() else {
        return Err("no encrypted uploads");
    };
    let mut sums = vec![pk.zero_ciphertext(); first.len()];
    for (ciphertexts, values) in uploads {
        if ciphertexts.len() != first.len() || values != value_count {
            return Err("encrypted uploads disagree on ciphertext or value count");
        }
        for (sum, c) in sums.iter_mut().zip(ciphertexts) {
            *sum = sum.add(c, pk);
        }
    }
    Ok((sums, *value_count))
}

/// What a breach of an aggregator about to aggregate the plain
/// `fragments` of `names` leaks: length-prefixed records of (party name,
/// `Upload` message) — under Paillier fusion, where the node holds only
/// ciphertexts, nothing. Written into one buffer reserved for all the
/// records: it is the aggregator's largest allocation.
fn breach_records(round: u64, names: &[String], fragments: &[Vec<f32>]) -> Vec<u8> {
    let record_bytes = |(name, fragment): (&String, &Vec<f32>)| {
        8 + name.len() + wire::FRAGMENT_HEADER + 4 * fragment.len()
    };
    let records = || names.iter().zip(fragments);
    let mut mem = Vec::with_capacity(records().map(record_bytes).sum());
    for (name, fragment) in records() {
        let record_start = mem.len();
        if put_bytes(&mut mem, name.as_bytes()).is_err()
            || wire::put_upload(&mut mem, round, fragment).is_err()
        {
            mem.truncate(record_start);
        }
    }
    mem
}

/// Parses a breached aggregator's guest memory into the model-update
/// fragments it held: `(party name, round, fragment)` records.
///
/// This is the attacker-side counterpart of the record format
/// `breach_records` writes; malformed trailing bytes are ignored.
pub fn parse_breached_memory(memory: &[u8]) -> Vec<(String, u64, Vec<f32>)> {
    let mut out = Vec::new();
    let mut r = Reader::new(memory);
    while let (Ok(name), Ok(msg_bytes)) = (r.str(), r.bytes()) {
        if let Ok(Msg::Upload { round, fragment }) = Msg::decode(msg_bytes) {
            out.push((name.to_string(), round, fragment));
        }
    }
    out
}
