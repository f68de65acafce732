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
//!   parties have uploaded, and dispatches aggregated fragments back.
//!
//! Aggregators never address one another. The paper's inter-aggregator
//! synchronization reduces to one rule: the node the supervisor triggers
//! announces each round to the parties, and every other node learns of
//! the round from the uploads it receives (DESIGN.md §1).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::iter_over_hash_type)]

use crate::agg::{Aggregation, Rows};
use crate::latency::timed;
use crate::proxy::TOKEN_SECRET_LABEL;
use crate::recovery::Manifest;
use crate::wire::{self, FragmentRecord, Msg, Opened, RecordFrame};
use deta_bignum::BigUint;
use deta_crypto::{DetRng, SigningKey};
use deta_obs::TelemetryValue;
use deta_paillier::{Ciphertext, PublicKey as PaillierPk};
use deta_sev_sim::{Cvm, GuestMemory};
use deta_transport::wire::{put_bytes, Reader};
use deta_transport::{secure, Endpoint, SecureChannel};
use std::collections::BTreeMap;
use std::error::Error;
use std::sync::Arc;

/// Errors from the aggregator runtime.
#[derive(Debug)]
pub enum AggError {
    /// The CVM has no provisioned token secret.
    MissingToken,
    /// The token secret bytes are not a valid signing key.
    BadToken,
    /// The CVM was not launched from an aggregator manifest.
    BadManifest,
}

impl std::fmt::Display for AggError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggError::MissingToken => write!(f, "CVM has no provisioned auth token"),
            AggError::BadToken => write!(f, "provisioned auth token is invalid"),
            AggError::BadManifest => write!(f, "CVM was not launched from an aggregator manifest"),
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
    /// A transformed fragment, in the record it was opened in.
    Plain(FragmentRecord),
    /// A Paillier-encrypted fragment: its ciphertexts, and the number of
    /// plaintext values they pack.
    Encrypted(Vec<Ciphertext>, u64),
}

/// The plain uploads of the round a node aggregated last, in party-name
/// order: its guest memory. They are moved there in the records they
/// were opened in, aggregated straight out of those records' bytes (the
/// rows of [`Rows`]), and rendered as the records a breach reads only
/// when the memory is read as bytes. Under Paillier fusion the node
/// holds only ciphertexts, and this is empty.
struct HeldRound {
    names: Vec<String>,
    records: Vec<FragmentRecord>,
}

impl GuestMemory for HeldRound {
    /// What a breach leaks: length-prefixed records of (party name,
    /// `Upload` message) — each message the plaintext its record opened
    /// to — rendered into one buffer reserved for all of them.
    fn render(&self) -> Vec<u8> {
        let records = || self.names.iter().zip(&self.records);
        let bytes =
            |(name, record): (&String, &FragmentRecord)| 8 + name.len() + record.message().len();
        let mut mem = Vec::with_capacity(records().map(bytes).sum());
        for (name, record) in records() {
            let record_start = mem.len();
            if put_bytes(&mut mem, name.as_bytes()).is_err()
                || put_bytes(&mut mem, record.message()).is_err()
            {
                mem.truncate(record_start);
            }
        }
        mem
    }
}

impl Rows for HeldRound {
    fn count(&self) -> usize {
        self.records.len()
    }

    fn row_len(&self, i: usize) -> usize {
        self.records[i].len()
    }

    fn load(&self, i: usize, start: usize, out: &mut [f32]) {
        self.records[i].load(start, out);
    }
}

/// One aggregator node.
pub struct AggregatorNode {
    /// Endpoint name.
    pub name: String,
    cvm: Cvm,
    token: SigningKey,
    pub(crate) endpoint: Endpoint,
    rng: DetRng,
    /// Every party with a channel to this node. Ordered by name, and
    /// that order is the order of every fan-out: two runs of one seed
    /// put the same frames on the network in the same sequence.
    parties: BTreeMap<String, PartyPeer>,
    algorithm: Box<dyn Aggregation>,
    /// Uploads waiting for their round to fill: round -> party -> upload.
    pending: BTreeMap<u64, BTreeMap<String, Upload>>,
    /// Paillier public key when running encrypted fusion.
    paillier_pk: Option<PaillierPk>,
    /// Rounds whose aggregation this node has completed.
    pub completed_rounds: u64,
    /// The last round this node reported done to the supervisor (see
    /// [`crate::node`]).
    pub(crate) reported: u64,
    /// Measured aggregation compute seconds (for the latency model): the
    /// rule, which writes its result into the first party's frame as it
    /// computes it, or the homomorphic sum and its encoding.
    pub aggregate_time_s: f64,
    /// Per-round upload quorum (None = wait for every registered party).
    quorum: Option<usize>,
}

impl AggregatorNode {
    /// Creates a node from a provisioned CVM, aggregating as the measured
    /// [`Manifest`] the CVM was launched with says.
    ///
    /// # Errors
    ///
    /// Fails if the CVM lacks a valid token secret (i.e. Phase I never
    /// completed for this CVM), or its memory holds no manifest.
    pub fn new(
        name: &str,
        cvm: Cvm,
        endpoint: Endpoint,
        rng: DetRng,
    ) -> Result<AggregatorNode, AggError> {
        let secret = cvm
            .guest()
            .secret(TOKEN_SECRET_LABEL)
            .ok_or(AggError::MissingToken)?;
        let token = SigningKey::from_bytes(&secret).ok_or(AggError::BadToken)?;
        let manifest = Manifest::decode(&cvm.guest().read()).map_err(|_| AggError::BadManifest)?;
        Ok(AggregatorNode {
            name: name.to_string(),
            cvm,
            token,
            endpoint,
            rng,
            parties: BTreeMap::new(),
            algorithm: manifest.algorithm.build(),
            pending: BTreeMap::new(),
            paillier_pk: manifest.paillier_pk,
            completed_rounds: 0,
            reported: 0,
            aggregate_time_s: 0.0,
            quorum: manifest.quorum,
        })
    }

    /// Registered party count.
    pub fn registered_parties(&self) -> usize {
        self.parties.values().filter(|p| p.weight.is_some()).count()
    }

    /// Every decrypted-but-not-yet-aggregated plain upload this node
    /// holds, as `(round, party, fragment)` sorted by round then party,
    /// each decoded from its record for the caller. Together with the
    /// CVM breach log this is the complete plaintext view of an
    /// aggregator — deta-simnet's privacy checker audits both.
    pub fn pending_uploads(&self) -> Vec<(u64, String, Vec<f32>)> {
        let mut out: Vec<(u64, String, Vec<f32>)> = Vec::new();
        for (&round, uploads) in &self.pending {
            for (party, upload) in uploads {
                if let Upload::Plain(record) = upload {
                    let mut fragment = vec![0.0; record.len()];
                    record.load(0, &mut fragment);
                    out.push((round, party.clone(), fragment));
                }
            }
        }
        out
    }

    /// The highest round this node holds uploads for, if any.
    pub fn latest_pending_round(&self) -> Option<u64> {
        self.pending.keys().next_back().copied()
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

    /// A clone of the attestation token's signing key, for transports
    /// that must re-prove this node's identity after the node itself
    /// has been handed to its actor loop (socket link reconnection).
    pub fn link_signing_key(&self) -> deta_crypto::SigningKey {
        self.token.clone()
    }

    /// Announces a round to every registered party. The supervisor asks
    /// one aggregator to do this; the others hear of the round only
    /// through the uploads it brings them. The announcement is the round
    /// number alone: each party derives the round's training id itself.
    pub fn announce(&mut self, round: u64) {
        // Idempotence: a trigger can arrive twice (a duplicated frame,
        // or a failover's re-trigger of the open round). Re-announcing a
        // completed round must be a no-op, not a protocol restart. An
        // in-flight round IS re-announced, and parties dedupe repeated
        // `RoundStart`s.
        if round <= self.completed_rounds {
            return;
        }
        deta_obs::event("round_start", &[("round", TelemetryValue::from(round))]);
        if let Ok(frame) = RecordFrame::of(&Msg::RoundStart { round }) {
            self.fan_out(frame);
        }
    }

    /// [`AggregatorNode::announce`], under the signature a hand-driven
    /// round in the round benchmark calls. The training id is ignored: no
    /// aggregator holds one, the parties derive it.
    ///
    /// # Errors
    ///
    /// Never fails: any aggregator may announce a round.
    pub fn begin_round(&mut self, round: u64, _training_id: [u8; 16]) -> Result<(), AggError> {
        self.announce(round);
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

    /// Adversarial-drill hook, as [`AggregatorNode::drill_send_sealed`]
    /// but for any inner bytes, no message of them needed: a breached
    /// aggregator speaking a layout the protocol retired.
    pub fn drill_send_sealed_bytes(&mut self, to: &str, inner: &[u8]) {
        self.seal_and_send(to, RecordFrame::raw(inner));
    }

    fn send_sealed(&mut self, to: &str, msg: &Msg) {
        self.seal_and_send(to, RecordFrame::of(msg));
    }

    fn seal_and_send(&mut self, to: &str, frame: Result<RecordFrame, wire::EncodeError>) {
        if let (Ok(frame), Some(peer)) = (frame, self.parties.get_mut(to)) {
            let _ = self.endpoint.send(to, frame.seal(&mut peer.channel));
        }
    }

    /// Sends the message of `frame` — the first party's — to every
    /// registered party, in name order: each next party's frame is copied
    /// from the one before, before that one is sealed where it lies and
    /// sent.
    fn fan_out(&mut self, mut frame: RecordFrame) {
        let mut registered = (self.parties.iter_mut())
            .filter(|(_, p)| p.weight.is_some())
            .peekable();
        while let Some((name, peer)) = registered.next() {
            let next = registered.peek().map(|_| frame.copy());
            let _ = self.endpoint.send(name, frame.seal(&mut peer.channel));
            match next {
                Some(next) => frame = next,
                None => break,
            }
        }
    }

    /// Dispatches one raw wire frame. Public so an actor loop (which owns
    /// the endpoint and routes every message itself) can drive the node.
    /// The payload comes by value so that a sealed record is opened in
    /// the buffer it arrived in.
    #[deny(clippy::wildcard_enum_match_arm)]
    pub fn handle_wire(&mut self, from: &str, payload: Vec<u8>) {
        if wire::is_record(&payload) {
            let Some(peer) = self.parties.get_mut(from) else {
                return;
            };
            match wire::open(&mut peer.channel, payload) {
                Some(Opened::Upload(record)) => self.receive_upload(from, record),
                Some(Opened::Msg(inner)) => self.handle_inner(from, inner),
                Some(Opened::Aggregated(_)) => {
                    deta_obs::metrics::counter_add("deta_wire_ignored_total", "Aggregated", 1);
                }
                None => {}
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
                let span = deta_obs::span("handshake")
                    .with_label("peer", from)
                    .with_label("step", "respond");
                let responded = secure::respond(&handshake, &self.token, &mut self.rng);
                drop(span);
                let Ok((resp, channel)) = responded else {
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
            // Party-bound replies and messages that must arrive inside a
            // sealed Record; the drop is deliberate and counted.
            other @ (Msg::HelloReply { .. }
            | Msg::Record { .. }
            | Msg::Register { .. }
            | Msg::RegisterAck
            | Msg::RoundStart { .. }
            | Msg::Upload { .. }
            | Msg::UploadEncrypted { .. }
            | Msg::Aggregated { .. }
            | Msg::AggregatedEncrypted { .. }) => {
                deta_obs::metrics::counter_add("deta_wire_ignored_total", other.name(), 1);
            }
        }
    }

    #[deny(clippy::wildcard_enum_match_arm)]
    fn handle_inner(&mut self, from: &str, msg: Msg) {
        match msg {
            Msg::Register { party, weight } => {
                // Uploads are keyed by the authenticated sender, so a
                // registration under any other name would be waited for
                // forever; and the weight goes straight into the weighted
                // mean, where one NaN or non-positive sum spoils the round.
                if party != from || !weight.is_finite() || weight <= 0.0 {
                    deta_obs::metrics::counter_add("deta_wire_rejected_total", "Register", 1);
                    if deta_obs::enabled() {
                        deta_obs::event(
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
            Msg::UploadEncrypted {
                round,
                ciphertexts,
                value_count,
            } if self.paillier_pk.is_some() => {
                deta_obs::event(
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
            // An encrypted upload to a node without a Paillier key would
            // wait in `pending` for a round that can never use it.
            other @ Msg::UploadEncrypted { .. } => {
                deta_obs::metrics::counter_add("deta_wire_rejected_total", other.name(), 1);
            }
            // Inner frames other than registration and uploads are
            // out-of-protocol for the sealed channel; count each drop.
            // (A plain upload or aggregate never gets here: it is opened
            // as `Opened::Upload` or `Opened::Aggregated`.)
            other @ (Msg::Hello { .. }
            | Msg::HelloReply { .. }
            | Msg::Record { .. }
            | Msg::RegisterAck
            | Msg::RoundStart { .. }
            | Msg::Upload { .. }
            | Msg::Aggregated { .. }
            | Msg::AggregatedEncrypted { .. }) => {
                deta_obs::metrics::counter_add("deta_wire_ignored_total", other.name(), 1);
            }
        }
    }

    /// A plain upload, in the record it was opened in. A node with a
    /// Paillier key refuses it: it would wait in `pending` for a round
    /// that can never use it.
    fn receive_upload(&mut self, from: &str, record: FragmentRecord) {
        if self.paillier_pk.is_some() {
            deta_obs::metrics::counter_add("deta_wire_rejected_total", "Upload", 1);
            return;
        }
        deta_obs::event(
            "upload_received",
            &[
                ("round", TelemetryValue::from(record.round())),
                ("values", TelemetryValue::from(record.len())),
            ],
        );
        self.hold_upload(from, record.round(), Upload::Plain(record));
    }

    /// Holds `from`'s upload for `round`, and aggregates the round if it
    /// was the last one expected. A plain upload whose length differs
    /// from what *another* party holds for the round is refused: one odd
    /// (hostile, or stale) arrival must not cost the round the uploads it
    /// has. A party's own entry it may always replace — its channel is
    /// ordered, so its latest word is its newest (a failover's replay
    /// re-sends the bytes a survivor already holds).
    fn hold_upload(&mut self, from: &str, round: u64, upload: Upload) {
        let slot = self.pending.entry(round).or_default();
        let other = slot.iter().find(|(party, _)| *party != from);
        if let (Upload::Plain(arriving), Some((_, Upload::Plain(held)))) = (&upload, other) {
            if held.len() != arriving.len() {
                deta_obs::metrics::counter_add("deta_wire_rejected_total", "Upload", 1);
                if deta_obs::enabled() {
                    deta_obs::event(
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
        let (mut names, mut records, mut encrypted) = (Vec::new(), Vec::new(), Vec::new());
        for (name, upload) in uploads {
            match upload {
                Upload::Plain(record) => {
                    names.push(name);
                    records.push(record);
                }
                Upload::Encrypted(ciphertexts, value_count) => {
                    encrypted.push((ciphertexts, value_count));
                }
            }
        }
        // The uploads move into guest memory, where a breach finds them,
        // and are aggregated there; the result is written into the first
        // party's frame.
        let held = Arc::new(HeldRound { names, records });
        self.cvm.guest().hold(held.clone());
        let aggregated = timed(
            &mut self.aggregate_time_s,
            || -> Result<_, Box<dyn Error>> {
                let span = deta_obs::span("aggregate")
                    .with_field("round", TelemetryValue::from(round))
                    .with_field("uploads", TelemetryValue::from(count));
                match &self.paillier_pk {
                    None => {
                        let _span = span;
                        let weight = |name| self.parties.get(name).and_then(|p| p.weight);
                        let weights: Vec<f32> = held
                            .names
                            .iter()
                            .map(|n| weight(n).unwrap_or(1.0))
                            .collect();
                        let len = held.records.first().map_or(0, FragmentRecord::len);
                        RecordFrame::aggregated(round, len, |emit| {
                            Ok(self.algorithm.aggregate_into(&*held, &weights, emit)?)
                        })
                    }
                    Some(pk) => {
                        let _span = span.with_field("encrypted", TelemetryValue::from(true));
                        let (sums, value_count) = sum_ciphertexts(pk, &encrypted)?;
                        Ok(RecordFrame::of(&Msg::AggregatedEncrypted {
                            round,
                            ciphertexts: sums.iter().map(|c| c.0.to_bytes_be()).collect(),
                            value_count,
                            summands: n as u64,
                        })?)
                    }
                }
            },
        );
        match aggregated {
            Ok(frame) => self.fan_out(frame),
            Err(cause) => return self.aggregate_failed(round, &cause.to_string()),
        }
        self.completed_rounds = self.completed_rounds.max(round);
    }

    /// A round whose uploads could not be aggregated: counted and named,
    /// never a panic. The attempt's uploads are spent and the round stays
    /// open; the supervisor's recovery budget decides whether it is
    /// replayed or given up.
    fn aggregate_failed(&self, round: u64, cause: &str) {
        deta_obs::metrics::counter_add("deta_aggregate_failed_total", &self.name, 1);
        if deta_obs::enabled() {
            deta_obs::event(
                "aggregate_failed",
                &[
                    ("round", TelemetryValue::from(round)),
                    ("cause", TelemetryValue::from(cause)),
                ],
            );
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

/// Parses a breached aggregator's guest memory into the model-update
/// fragments it held: `(party name, round, fragment)` records.
///
/// This is the attacker-side counterpart of the records an aggregator's
/// held round renders; malformed trailing bytes are ignored.
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
