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
use crate::proxy::TOKEN_SECRET_LABEL;
use crate::wire::{self, Msg, RecordFrame};
use deta_bignum::BigUint;
use deta_crypto::{DetRng, SigningKey};
use deta_paillier::{Ciphertext, PublicKey as PaillierPk};
use deta_sev_sim::Cvm;
use deta_telemetry::TelemetryValue;
use deta_transport::wire::{put_bytes, Reader};
use deta_transport::{secure, Endpoint, SecureChannel};
use std::collections::HashMap;
use std::time::Instant;

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

/// One aggregator node.
pub struct AggregatorNode {
    /// Endpoint name.
    pub name: String,
    cvm: Cvm,
    token: SigningKey,
    endpoint: Endpoint,
    rng: DetRng,
    channels: HashMap<String, SecureChannel>,
    registered: HashMap<String, f32>,
    algorithm: Box<dyn Aggregation>,
    role: AggRole,
    /// Plain fragment uploads per round: party -> fragment.
    pending: HashMap<u64, HashMap<String, Vec<f32>>>,
    /// Encrypted uploads per round: party -> (ciphertexts, value count).
    pending_enc: HashMap<u64, HashMap<String, (Vec<Ciphertext>, u64)>>,
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
            channels: HashMap::new(),
            registered: HashMap::new(),
            algorithm,
            role,
            pending: HashMap::new(),
            pending_enc: HashMap::new(),
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
        self.registered.len()
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
        self.pending_enc.retain(|&r, _| r < round);
    }

    /// Every decrypted-but-not-yet-aggregated plain upload this node
    /// holds, as `(round, party, fragment)` sorted by round then party.
    /// Together with the CVM breach log this is the complete plaintext
    /// view of an aggregator — deta-simnet's privacy checker audits both.
    pub fn pending_uploads(&self) -> Vec<(u64, String, Vec<f32>)> {
        let mut out: Vec<(u64, String, Vec<f32>)> = Vec::new();
        for (&round, uploads) in &self.pending {
            for (party, frag) in uploads {
                out.push((round, party.clone(), frag.clone()));
            }
        }
        out.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        out
    }

    /// Deregisters a party (dropout handling): pending and future rounds
    /// aggregate over the remaining parties only.
    ///
    /// Cross-silo parties leave for maintenance or network partitions;
    /// because every algorithm here aggregates whatever the registered
    /// set contributed, removal is safe at round boundaries.
    pub fn deregister(&mut self, party: &str) {
        self.registered.remove(party);
        for uploads in self.pending.values_mut() {
            uploads.remove(party);
        }
        for uploads in self.pending_enc.values_mut() {
            uploads.remove(party);
        }
        // The departed party may have been the last holdout for a round:
        // with the expected set shrunk, every pending round must be
        // re-examined, or aggregation would wait forever for an upload
        // that can no longer arrive.
        let plain: Vec<u64> = self.pending.keys().copied().collect();
        for round in plain {
            self.try_aggregate(round);
        }
        let enc: Vec<u64> = self.pending_enc.keys().copied().collect();
        for round in enc {
            self.try_aggregate_encrypted(round);
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
        let parties: Vec<String> = self.registered.keys().cloned().collect();
        for p in parties {
            self.send_sealed(&p, &Msg::RoundStart { round, training_id });
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
        if let Ok(frame) = RecordFrame::of(msg) {
            self.seal_and_send(to, frame);
        }
    }

    /// Seals `frame` for `to`'s channel, where it lies, and sends it.
    fn seal_and_send(&mut self, to: &str, frame: RecordFrame) {
        if let Some(chan) = self.channels.get_mut(to) {
            let _ = self.endpoint.send(to, frame.seal(chan));
        }
    }

    /// Dispatches one raw wire frame. Public so an actor loop (which owns
    /// the endpoint and routes every message itself) can drive the node.
    /// The payload comes by value so that a sealed record is opened in
    /// the buffer it arrived in.
    pub fn handle_wire(&mut self, from: &str, payload: Vec<u8>) {
        if wire::is_record(&payload) {
            let Some(chan) = self.channels.get_mut(from) else {
                return;
            };
            if let Some(inner) = wire::open_record(chan, payload) {
                self.handle_inner(from, inner);
            }
            return;
        }
        let Ok(msg) = Msg::decode(&payload) else {
            return; // Malformed traffic is dropped.
        };
        match msg {
            Msg::Hello { handshake } => {
                // Phase II: sign the handshake transcript with the token.
                if let Ok((resp, chan)) = secure::respond(&handshake, &self.token, &mut self.rng) {
                    self.channels.insert(from.to_string(), chan);
                    if let Ok(frame) = (Msg::HelloReply { handshake: resp }).encode() {
                        let _ = self.endpoint.send(from, frame);
                    }
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
                self.registered.insert(party, weight);
                self.send_sealed(from, &Msg::RegisterAck);
            }
            Msg::Upload { round, fragment } => {
                deta_telemetry::event(
                    "upload_received",
                    &[
                        ("round", TelemetryValue::from(round)),
                        ("values", TelemetryValue::from(fragment.len())),
                    ],
                );
                let slot = self.pending.entry(round).or_default();
                if slot
                    .values()
                    .next()
                    .is_some_and(|f| f.len() != fragment.len())
                {
                    // Fragment lengths can only differ at a reopened
                    // round straddling a re-partition (a delayed
                    // old-epoch upload meeting a replayed new-epoch
                    // one). Never mix epochs in one aggregate: the
                    // arriving length wins, stale fragments drop, and a
                    // wedged round degrades to the bounded recovery
                    // budget rather than a mixed-length aggregate.
                    slot.clear();
                }
                slot.insert(from.to_string(), fragment);
                self.try_aggregate(round);
            }
            Msg::UploadEncrypted {
                round,
                ciphertexts,
                value_count,
            } => {
                deta_telemetry::event(
                    "upload_received",
                    &[
                        ("round", TelemetryValue::from(round)),
                        ("values", TelemetryValue::from(value_count)),
                        ("encrypted", TelemetryValue::from(true)),
                    ],
                );
                let cts: Vec<Ciphertext> = ciphertexts
                    .iter()
                    .map(|b| Ciphertext(BigUint::from_bytes_be(b)))
                    .collect();
                self.pending_enc
                    .entry(round)
                    .or_default()
                    .insert(from.to_string(), (cts, value_count));
                self.try_aggregate_encrypted(round);
            }
            // Inner frames other than registration and uploads are
            // out-of-protocol for the sealed channel; count each drop.
            other => {
                deta_telemetry::metrics::counter_add("deta_wire_ignored_total", other.name(), 1);
            }
        }
    }

    /// Runs plain aggregation once the expected number of parties (the
    /// quorum, or every registered party) has uploaded. Uploads arriving
    /// after the round completed are discarded.
    fn try_aggregate(&mut self, round: u64) {
        if round <= self.completed_rounds {
            self.pending.remove(&round);
            return;
        }
        let n = self.registered.len();
        let expected = self.quorum.unwrap_or(n).min(n);
        if n == 0 || self.pending.get(&round).map_or(0, |m| m.len()) < expected {
            return;
        }
        let Some(uploads) = self.pending.remove(&round) else {
            return;
        };
        // Deterministic party order: sorted by name.
        let mut uploads: Vec<(String, Vec<f32>)> = uploads.into_iter().collect();
        uploads.sort_by(|a, b| a.0.cmp(&b.0));
        let weights: Vec<f32> = uploads
            .iter()
            .map(|(n, _)| self.registered.get(n).copied().unwrap_or(1.0))
            .collect();
        // Record the fragments in CVM guest memory: this is precisely what
        // a breach of this aggregator leaks. Length-prefixed records of
        // (party name, Upload message), written into one buffer reserved
        // for all of them: it is the aggregator's largest allocation.
        let record_bytes = |(name, input): &(String, Vec<f32>)| {
            8 + name.len() + wire::FRAGMENT_HEADER + 4 * input.len()
        };
        let mut mem = Vec::with_capacity(uploads.iter().map(record_bytes).sum());
        for (name, input) in &uploads {
            let record_start = mem.len();
            if put_bytes(&mut mem, name.as_bytes()).is_err()
                || wire::put_upload(&mut mem, round, input).is_err()
            {
                mem.truncate(record_start);
            }
        }
        let inputs: Vec<Vec<f32>> = uploads.into_iter().map(|(_, frag)| frag).collect();
        self.cvm.guest().write(mem);
        let t0 = Instant::now();
        let agg_span = deta_telemetry::span("aggregate")
            .with_field("round", TelemetryValue::from(round))
            .with_field("uploads", TelemetryValue::from(inputs.len()));
        let aggregated = self.algorithm.aggregate(&inputs, &weights);
        drop(agg_span);
        self.aggregate_time_s += t0.elapsed().as_secs_f64();
        let fragment = match aggregated {
            Ok(fragment) => fragment,
            Err(e) => return self.aggregate_failed(round, &e),
        };
        // One plaintext for the whole fan-out, copied into each party's
        // frame and sealed there.
        let plain = match (Msg::Aggregated { round, fragment }).encode() {
            Ok(plain) => plain,
            Err(e) => return self.aggregate_failed(round, &e),
        };
        let parties: Vec<String> = self.registered.keys().cloned().collect();
        for p in parties {
            if let Ok(frame) = RecordFrame::of_encoded(&plain) {
                self.seal_and_send(&p, frame);
            }
        }
        self.completed_rounds = self.completed_rounds.max(round);
        self.notify_initiator(round);
    }

    /// A round whose uploads could not be aggregated: counted and named,
    /// never a panic. The attempt's uploads are spent and the round stays
    /// open; the supervisor's recovery budget decides whether it is
    /// replayed or given up.
    fn aggregate_failed(&self, round: u64, cause: &dyn std::fmt::Display) {
        deta_telemetry::metrics::counter_add("deta_aggregate_failed_total", &self.name, 1);
        if deta_telemetry::enabled() {
            deta_telemetry::event(
                "aggregate_failed",
                &[
                    ("round", TelemetryValue::from(round)),
                    ("cause", TelemetryValue::from(cause.to_string())),
                ],
            );
        }
    }

    /// Runs homomorphic aggregation once the expected number of parties
    /// has uploaded.
    fn try_aggregate_encrypted(&mut self, round: u64) {
        if round <= self.completed_rounds {
            self.pending_enc.remove(&round);
            return;
        }
        let n = self.registered.len();
        let expected = self.quorum.unwrap_or(n).min(n);
        if n == 0 || self.pending_enc.get(&round).map_or(0, |m| m.len()) < expected {
            return;
        }
        let Some(pk) = self.paillier_pk.clone() else {
            return;
        };
        let Some(uploads) = self.pending_enc.remove(&round) else {
            return;
        };
        let mut names: Vec<&String> = uploads.keys().collect();
        names.sort();
        let value_count = uploads[names[0]].1;
        let ct_len = uploads[names[0]].0.len();
        let t0 = Instant::now();
        let agg_span = deta_telemetry::span("aggregate")
            .with_field("round", TelemetryValue::from(round))
            .with_field("uploads", TelemetryValue::from(names.len()))
            .with_field("encrypted", TelemetryValue::from(true));
        let mut acc: Vec<Ciphertext> = vec![pk.zero_ciphertext(); ct_len];
        for name in &names {
            let (cts, vc) = &uploads[*name];
            if cts.len() != ct_len || *vc != value_count {
                return; // Inconsistent upload; drop the round.
            }
            for (a, c) in acc.iter_mut().zip(cts.iter()) {
                *a = a.add(c, &pk);
            }
        }
        drop(agg_span);
        self.aggregate_time_s += t0.elapsed().as_secs_f64();
        let serialized: Vec<Vec<u8>> = acc.iter().map(|c| c.0.to_bytes_be()).collect();
        let parties: Vec<String> = self.registered.keys().cloned().collect();
        for p in parties {
            self.send_sealed(
                &p,
                &Msg::AggregatedEncrypted {
                    round,
                    ciphertexts: serialized.clone(),
                    value_count,
                    summands: n as u64,
                },
            );
        }
        self.completed_rounds = self.completed_rounds.max(round);
        self.notify_initiator(round);
    }

    fn notify_initiator(&mut self, round: u64) {
        if let AggRole::Follower { initiator } = &self.role {
            if let Ok(frame) = (Msg::SyncDone { round }).encode() {
                let _ = self.endpoint.send(&initiator.clone(), frame);
            }
        }
    }
}

/// Parses a breached aggregator's guest memory into the model-update
/// fragments it held: `(party name, round, fragment)` records.
///
/// This is the attacker-side counterpart of the record format written in
/// [`AggregatorNode`]'s aggregation path; malformed trailing bytes are
/// ignored.
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
