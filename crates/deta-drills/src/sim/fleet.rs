//! The simulation fleet: runs the DeTA deployment under a fault plan —
//! every node stepped by the inline session on a virtual clock — and
//! machine-checks three invariants per run.
//!
//! 1. **Termination** — every run goes quiet and ends, either in
//!    bit-identical parity with the fault-free [`DetaSession`] or in a
//!    structured [`RuntimeError`] naming at least one node incident to a
//!    fired fault. Never an anonymous error; a run that never goes quiet
//!    is a violation, not a hang.
//! 2. **Privacy** — replaying each aggregator's materialized state
//!    (breached CVM memory plus pending uploads) proves it only ever
//!    held, for each party and round, *exactly* the shuffled fragment of
//!    its own mapper partition — recomputed independently from the
//!    party's raw update log via `ModelMapper::partition` and
//!    [`RoundPermutation::derive`] — and that each such fragment is
//!    backed by a tap-logged frame of the right size on the right link.
//! 3. **Idempotence** — duplicated round announcements and replayed
//!    sealed records must leave final parameters unchanged (checked here by parity;
//!    dedicated duplicate-only fixtures live in the test suite).

#![expect(
    clippy::disallowed_methods,
    reason = "the privacy oracle re-derives permutations"
)]

use super::fault::{FaultPlan, SimPolicy, Topology};
use super::tap::TapLog;
use crate::common::{self, bits};
use deta_core::aggregator::parse_breached_memory;
use deta_core::keybroker::KeyBroker;
use deta_core::node::Node;
use deta_core::rtmsg::SUPERVISOR;
use deta_core::session::{DetaConfig, DetaSession, SessionParts};
use deta_core::shuffle::RoundPermutation;
use deta_core::supervise::{
    base_name, FailoverPolicy, RuntimeConfig, RuntimeError, TelemetryConfig,
};
use deta_core::transform::Transformer;
use deta_core::wire::Msg;
use deta_crypto::poly1305::TAG_LEN;
use deta_crypto::Secret;
use deta_nn::models::mlp;
use deta_nn::train::LabeledData;
use deta_transport::FaultPolicy;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Number of parties.
const N_PARTIES: usize = 3;
/// The FL session seed (model init, mapper, keys) — *not* the fault
/// seed; the two vary independently.
const FL_SEED: u64 = 42;
/// Training examples across all parties.
const TRAIN_SAMPLES: usize = 48;
/// Test examples.
const TEST_SAMPLES: usize = 24;
/// Hidden layer width.
const HIDDEN: usize = 8;

/// Shape of one simulated deployment.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// Number of aggregators (index 0 is the initiator).
    pub n_aggregators: usize,
    /// Training rounds per run.
    pub rounds: usize,
    /// Capture a telemetry trace: enables the process-global sink and
    /// has every run dump its flight recorders (on a failure the dump is
    /// automatic; healthy runs are force-dumped at the end). Telemetry
    /// enablement is sticky process-wide, so leave this off for sweeps
    /// and on only for single-seed drill-downs.
    pub trace: bool,
    /// What the supervisor does when a round fails with aggregators
    /// implicated. With a policy armed, seeds whose faults hit an
    /// aggregator can end in [`Verdict::Recovered`] instead of
    /// [`Verdict::Failed`].
    pub failover: FailoverPolicy,
}

impl Default for SimSpec {
    fn default() -> SimSpec {
        SimSpec {
            n_aggregators: 3,
            rounds: 2,
            trace: false,
            failover: FailoverPolicy::None,
        }
    }
}

impl SimSpec {
    /// The session configuration this spec deploys.
    pub fn config(&self) -> DetaConfig {
        let mut cfg = DetaConfig::deta(N_PARTIES, self.rounds);
        cfg.n_aggregators = self.n_aggregators;
        cfg.seed = FL_SEED;
        cfg
    }

    /// The deployment's node names.
    pub fn topology(&self) -> Topology {
        Topology::new(N_PARTIES, self.n_aggregators)
    }

    /// Session policy for simulation: the defaults — waiting out a
    /// deadline on a virtual clock costs nothing — plus the spec's
    /// failover and tracing.
    pub fn runtime(&self) -> RuntimeConfig {
        RuntimeConfig {
            telemetry: TelemetryConfig {
                enabled: self.trace,
                ..TelemetryConfig::default()
            },
            failover: self.failover,
            ..RuntimeConfig::default()
        }
    }
}

/// How a run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Bit-identical parameters to the sequential reference.
    Parity,
    /// The run was hit by a terminal fault mid-round, the supervisor
    /// healed it (failover + replay), and the final parameters still
    /// match the sequential reference bit-for-bit.
    Recovered,
    /// A structured runtime error naming the dark node(s).
    Failed {
        /// The implicated nodes that are also incident to a fired fault.
        dark: Vec<String>,
    },
}

impl Verdict {
    /// Stable class name for the seed corpus
    /// ("parity" / "recovered" / "failed").
    pub fn class(&self) -> &'static str {
        match self {
            Verdict::Parity => "parity",
            Verdict::Recovered => "recovered",
            Verdict::Failed { .. } => "failed",
        }
    }
}

/// Everything the fleet observed about one run.
#[derive(Clone, Debug)]
pub struct SeedReport {
    /// The fault seed, if the run came from one.
    pub seed: Option<u64>,
    /// How the run ended.
    pub verdict: Verdict,
    /// The runtime error, if any (display form).
    pub error: Option<String>,
    /// Fault kinds that actually struck.
    pub fired_kinds: BTreeSet<&'static str>,
    /// Invariant violations. **Empty on every healthy run** — any entry
    /// is a bug in the deployment (or a deliberately planted one).
    pub violations: Vec<String>,
    /// Where the run's virtual clock stopped: the time it spent waiting
    /// on timers (stepping nodes takes none), so a run that waited out a
    /// deadline reads at least that deadline.
    pub elapsed: Duration,
    /// The flight-recorder dump (JSONL path) when the spec asked for a
    /// trace ([`SimSpec::trace`]); `None` otherwise.
    pub trace_path: Option<String>,
}

/// The harness: one fault-free reference run, then any number of faulted
/// runs checked against it.
pub struct SimFleet {
    spec: SimSpec,
    topo: Topology,
    shards: Vec<LabeledData>,
    test: LabeledData,
    dim: usize,
    classes: usize,
    /// Per-party reference parameters from the sequential session.
    reference: Vec<Vec<f32>>,
}

impl SimFleet {
    /// Builds the fleet: generates data and runs a fault-free
    /// [`DetaSession`] once to fix the parity reference.
    ///
    /// # Panics
    ///
    /// Panics if the fault-free sequential session itself cannot run —
    /// that is broken infrastructure, not a simulation outcome.
    pub fn new(spec: SimSpec) -> SimFleet {
        let (shards, test, dim, classes) = common::fl_data(N_PARTIES, TRAIN_SAMPLES, TEST_SAMPLES);
        let mut seq = DetaSession::setup(
            spec.config(),
            &move |rng| mlp(&[dim, HIDDEN, classes], rng),
            shards.clone(),
        )
        .expect("fault-free sequential setup");
        seq.run(&test);
        let reference = (0..N_PARTIES).map(|i| seq.party_params(i)).collect();
        let topo = spec.topology();
        SimFleet {
            spec,
            topo,
            shards,
            test,
            dim,
            classes,
            reference,
        }
    }

    /// The spec the fleet was built with.
    pub fn spec(&self) -> &SimSpec {
        &self.spec
    }

    /// The deployment's topology (for deriving fault plans).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Derives the fault plan for `seed` and runs it.
    pub fn run_seed(&self, seed: u64) -> SeedReport {
        let plan = FaultPlan::from_seed(seed, &self.topo);
        let mut report = self.run_plan(&plan);
        report.seed = Some(seed);
        report
    }

    /// Runs one deployment under `plan` and checks every invariant.
    pub fn run_plan(&self, plan: &FaultPlan) -> SeedReport {
        let policy = Arc::new(SimPolicy::new(plan));
        let incident = plan.incident_nodes();
        let mut report = self.run_custom(Some(policy.clone()), &incident, |_| {});
        report.fired_kinds = policy.fired_kinds();
        // An error with no fired fault — or with faults fired but naming
        // only bystanders — breaks the termination invariant's "names
        // the dark node" half.
        match &report.verdict {
            Verdict::Failed { dark } => {
                if report.fired_kinds.is_empty() {
                    report
                        .violations
                        .push("termination: run failed but no fault fired".into());
                } else if dark.is_empty() {
                    report.violations.push(format!(
                        "termination: error implicates no fault-incident node ({:?})",
                        report.error
                    ));
                }
            }
            // A failover with no fault fired means the supervisor healed
            // a round nothing broke — an infrastructure bug.
            Verdict::Recovered if report.fired_kinds.is_empty() => {
                report
                    .violations
                    .push("termination: run recovered but no fault fired".into());
            }
            _ => {}
        }
        report
    }

    /// The general entry point fixtures use: an arbitrary fault policy
    /// (or none), the set of nodes the caller considers fault-incident,
    /// and an extra instrumentation hook (e.g. planting a misrouting).
    ///
    /// Checks quiescence, parity, and privacy; the caller judges
    /// `dark`/`fired` semantics (see [`SimFleet::run_plan`]).
    pub fn run_custom(
        &self,
        policy: Option<Arc<dyn FaultPolicy>>,
        incident: &BTreeSet<String>,
        instrument: impl FnOnce(&mut SessionParts),
    ) -> SeedReport {
        let tap = Arc::new(TapLog::new());
        let (dim, classes) = (self.dim, self.classes);
        let mut violations = Vec::new();
        let mut trace_path = None;
        let mut elapsed = Duration::ZERO;
        let dump_before = deta_obs::last_dump_path();
        let model = move |rng: &mut _| mlp(&[dim, HIDDEN, classes], rng);
        let parts = SessionParts::build(self.spec.config(), &model, self.shards.clone());
        let setup = parts.map_err(RuntimeError::from).and_then(|mut parts| {
            // The partition every aggregator is entitled to, fixed at
            // setup, and the broker that derives each round's shuffle:
            // the session hands neither to its supervisor.
            let oracle = (parts.transformer.clone(), parts.broker.clone());
            if let Some(p) = policy {
                parts.network.set_fault_policy(p);
            }
            parts.network.set_tap(tap.clone());
            for party in &mut parts.parties {
                party.record_updates = true;
            }
            instrument(&mut parts);
            DetaSession::bootstrap(parts, self.spec.runtime()).map(|s| (s, oracle))
        });
        let failed = |e: RuntimeError, violations: &mut Vec<String>| {
            if let RuntimeError::Protocol(why) = e {
                violations.push(format!("termination: {why}"));
            }
            let dark = intersect(&e.implicated(), incident);
            (Verdict::Failed { dark }, Some(e.to_string()))
        };
        let (verdict, error) = match setup {
            Err(e) => {
                // A failed bootstrap drops the session before its dump
                // path is readable, but the dump is written; recover its
                // location from the telemetry crate (only a dump newer
                // than this run counts).
                if self.spec.trace {
                    trace_path = deta_obs::last_dump_path()
                        .filter(|p| dump_before.as_ref() != Some(p))
                        .map(|p| p.display().to_string());
                }
                // A bootstrap's clock moves only to its deadline.
                if let RuntimeError::Timeout { waited, .. } = &e {
                    elapsed = *waited;
                }
                failed(e, &mut violations)
            }
            Ok((mut session, (transformer, broker))) => {
                let rounds = (0..self.spec.rounds).map(|_| session.try_step(&self.test));
                let vd = match rounds.collect::<Result<Vec<_>, _>>() {
                    Ok(_) => {
                        let clean = violations.len();
                        for (i, reference) in self.reference.iter().enumerate() {
                            if bits(&session.party_params(i)) != bits(reference) {
                                violations.push(format!(
                                    "parity: party-{i} final parameters differ from the \
                                     fault-free reference"
                                ));
                            }
                        }
                        let verdict = match (violations.len() > clean, session.view().failovers) {
                            (true, _) => Verdict::Failed { dark: Vec::new() },
                            (false, 0) => Verdict::Parity,
                            (false, _) => Verdict::Recovered,
                        };
                        (verdict, None)
                    }
                    Err(e) => failed(e, &mut violations),
                };
                // Privacy audits each aggregator's materialized state
                // against recomputed entitlements, retired incarnations
                // and stopped nodes included.
                privacy_check(&session, &transformer, &broker, &tap, &mut violations);
                if self.spec.trace {
                    trace_path = session.trace().map(|p| p.display().to_string());
                }
                elapsed = session.now();
                vd
            }
        };
        SeedReport {
            seed: None,
            verdict,
            error,
            fired_kinds: BTreeSet::new(),
            violations,
            elapsed,
            trace_path,
        }
    }
}

/// Invariant 2. For every fragment an aggregator materialized (breached
/// CVM memory + pending upload buffers), recompute — from the producing
/// party's raw update log, the session's `transformer` and the round's
/// permutation, derived by the session's `broker` — the one fragment that aggregator was entitled to, and
/// demand bit-equality. Then replay the tap: the fragment must be backed
/// by a delivered frame on the party→agg link whose size matches a
/// sealed upload of exactly that length, and every frame into the
/// aggregator must come from a known endpoint.
///
/// The audit spans failovers: aggregator incarnations retired by a
/// failover are audited too (their final state is kept). The mapper is
/// fixed at setup and a replacement takes its predecessor's slot, so the
/// slot comes from the holder's base name (`agg-1#r1` keeps `agg-1`'s).
fn privacy_check(
    session: &DetaSession,
    transformer: &Transformer,
    broker: &KeyBroker,
    tap: &TapLog,
    violations: &mut Vec<String>,
) {
    let view = session.view();
    let perm_key = broker.permutation_key();
    let party_names = view.party_names;
    // Every incarnation that ever held uploads: the final aggregator set
    // plus everything a failover retired.
    let incarnations: Vec<&str> = (view.agg_names.iter())
        .chain(view.retired_aggs)
        .map(String::as_str)
        .collect();
    for agg_name in &incarnations {
        let Some(Node::Aggregator(agg)) = view.node(agg_name) else {
            continue;
        };
        let base = base_name(agg_name);
        let slot = (view.agg_names.iter()).position(|n| base_name(n) == base);
        let mut materialized: Vec<(String, u64, Vec<f32>)> =
            parse_breached_memory(&agg.cvm().breach().memory);
        for (round, party, frag) in agg.pending_uploads() {
            materialized.push((party, round, frag));
        }
        for (party, round, frag) in &materialized {
            if !party_names.contains(party) {
                violations.push(format!(
                    "privacy: {agg_name} holds a fragment from unknown sender {party:?}"
                ));
                continue;
            }
            let Some(Node::Party(node)) = view.node(party) else {
                continue;
            };
            let Some((_, update)) = node.update_log.iter().find(|(r, _)| r == round) else {
                violations.push(format!(
                    "privacy: {agg_name} holds a round-{round} fragment from {party}, \
                     but {party} never produced a round-{round} update"
                ));
                continue;
            };
            let Some(j) = slot else {
                violations.push(format!(
                    "privacy: {agg_name} holds a round-{round} fragment but holds no \
                     mapper slot"
                ));
                continue;
            };
            let tid = broker.training_id(*round);
            let entitled = entitled_fragment(transformer, update, j, &tid, &perm_key);
            if bits(&entitled) != bits(frag) {
                violations.push(format!(
                    "privacy: {agg_name} materialized a round-{round} fragment from \
                     {party} that is not the shuffled partition of slot {j} it is \
                     entitled to"
                ));
                continue;
            }
            if let Some(frame_len) = sealed_upload_frame_len(*round, frag) {
                let backed = tap
                    .delivered_on(party, agg_name)
                    .iter()
                    .any(|r| r.payload.len() == frame_len);
                if !backed {
                    violations.push(format!(
                        "privacy: no tap-logged frame on {party}->{agg_name} matches \
                         the round-{round} fragment {agg_name} materialized"
                    ));
                }
            }
        }
        for rec in tap.delivered_to(agg_name) {
            let known = rec.from == SUPERVISOR
                || party_names.contains(&rec.from)
                || incarnations.iter().any(|n| *n == rec.from);
            if !known {
                violations.push(format!(
                    "privacy: {agg_name} received a frame from unregistered \
                     endpoint {:?}",
                    rec.from
                ));
            }
        }
    }
}

/// The one fragment slot `j` of `transformer` entitles an aggregator to,
/// recomputed independently from the party's raw update.
pub(crate) fn entitled_fragment(
    transformer: &Transformer,
    update: &[f32],
    j: usize,
    tid: &[u8; 16],
    perm_key: &Secret<[u8; 32]>,
) -> Vec<f32> {
    let tcfg = transformer.config();
    let entitled = if tcfg.partition {
        transformer.mapper().partition(update).swap_remove(j)
    } else {
        update.to_vec()
    };
    if tcfg.shuffle {
        RoundPermutation::derive(perm_key.expose(), tid, j as u32, entitled.len()).apply(&entitled)
    } else {
        entitled
    }
}

/// Wire size of the sealed record that carries `fragment` for `round`:
/// the inner `Msg::Upload` encoding plus the AEAD tag, framed as a
/// `Msg::Record`. `None` only if encoding fails (it cannot for these
/// variants).
fn sealed_upload_frame_len(round: u64, fragment: &[f32]) -> Option<usize> {
    let inner = Msg::Upload {
        round,
        fragment: fragment.to_vec(),
    }
    .encode()
    .ok()?;
    let record = Msg::Record {
        sealed: vec![0u8; inner.len() + TAG_LEN],
    }
    .encode()
    .ok()?;
    Some(record.len())
}

fn intersect(named: &[String], incident: &BTreeSet<String>) -> Vec<String> {
    let mut out: Vec<String> = named
        .iter()
        .filter(|n| incident.contains(*n))
        .cloned()
        .collect();
    out.sort();
    out
}
