//! The simulation fleet: runs the full threaded DeTA deployment under a
//! fault plan and machine-checks three invariants per run.
//!
//! 1. **Termination** — every run ends within the supervisor's deadline
//!    budget, either in bit-identical parity with the sequential
//!    [`DetaSession`] or in a structured [`RuntimeError`] naming at
//!    least one node incident to a fired fault. Never a hang, never an
//!    anonymous error.
//! 2. **Privacy** — replaying each aggregator's materialized state
//!    (breached CVM memory plus pending uploads) proves it only ever
//!    held, for each party and round, *exactly* the shuffled fragment of
//!    its own mapper partition — recomputed independently from the
//!    party's raw update log via `ModelMapper::partition` and
//!    [`RoundPermutation::derive`] — and that each such fragment is
//!    backed by a tap-logged frame of the right size on the right link.
//! 3. **Idempotence** — duplicated triggers and replayed sealed records
//!    must leave final parameters unchanged (checked here by parity;
//!    dedicated duplicate-only fixtures live in the test suite).

use crate::fault::{FaultPlan, SimPolicy, Topology};
use crate::tap::TapLog;
use deta_core::aggregator::parse_breached_memory;
use deta_core::session::{DetaConfig, DetaSession, SessionParts};
use deta_core::shuffle::RoundPermutation;
use deta_core::transform::Transformer;
use deta_core::wire::Msg;
use deta_crypto::Secret;
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_nn::train::LabeledData;
use deta_runtime::{
    FailoverPolicy, MapperEpoch, Node, RuntimeConfig, RuntimeError, TelemetryConfig,
    ThreadedSession, SUPERVISOR,
};
use deta_transport::FaultPolicy;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// AEAD tag length of the secure channel's sealed records. `deta-crypto`
/// keeps its `TAG_LEN` crate-private; the ChaCha20-Poly1305 tag is 16
/// bytes by construction, so the tap replay hardcodes it.
const AEAD_TAG_LEN: usize = 16;

/// Shape and budget of one simulated deployment.
#[derive(Clone, Debug)]
pub struct SimSpec {
    /// Number of parties.
    pub n_parties: usize,
    /// Number of aggregators (index 0 is the initiator).
    pub n_aggregators: usize,
    /// Training rounds per run.
    pub rounds: usize,
    /// The FL session seed (model init, mapper, keys) — *not* the fault
    /// seed; the two vary independently.
    pub fl_seed: u64,
    /// Training examples across all parties.
    pub train_samples: usize,
    /// Test examples.
    pub test_samples: usize,
    /// Synthetic image resolution (dim = resolution²).
    pub resolution: usize,
    /// Hidden layer width.
    pub hidden: usize,
    /// Supervisor bootstrap deadline.
    pub setup_deadline: Duration,
    /// Supervisor per-round deadline.
    pub round_deadline: Duration,
    /// Actor poll tick.
    pub tick: Duration,
    /// Capture a telemetry trace: enables the process-global sink and
    /// has every run dump its flight recorders (on a fault verdict the
    /// dump is automatic; healthy runs are force-dumped at the end).
    /// Telemetry enablement is sticky process-wide, so leave this off
    /// for sweeps and on only for single-seed drill-downs.
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
            n_parties: 3,
            n_aggregators: 3,
            rounds: 2,
            fl_seed: 42,
            train_samples: 48,
            test_samples: 24,
            resolution: 8,
            hidden: 8,
            setup_deadline: Duration::from_secs(2),
            round_deadline: Duration::from_secs(2),
            tick: Duration::from_millis(5),
            trace: false,
            failover: FailoverPolicy::None,
        }
    }
}

impl SimSpec {
    /// The session configuration this spec deploys.
    pub fn config(&self) -> DetaConfig {
        let mut cfg = DetaConfig::deta(self.n_parties, self.rounds);
        cfg.n_aggregators = self.n_aggregators;
        cfg.seed = self.fl_seed;
        cfg
    }

    /// The deployment's node names.
    pub fn topology(&self) -> Topology {
        Topology::new(self.n_parties, self.n_aggregators)
    }

    /// Runtime knobs for simulation: short deadlines (faults surface as
    /// errors quickly), fast tick, and retries pushed past the deadline
    /// horizon so every round trigger is single-shot — retries would
    /// make which send-attempt a fault strikes depend on timing.
    pub fn runtime(&self) -> RuntimeConfig {
        RuntimeConfig {
            setup_deadline: self.setup_deadline,
            round_deadline: self.round_deadline,
            tick: self.tick,
            retry_initial: Duration::from_secs(3600),
            retry_max: Duration::from_secs(3600),
            stalls: Vec::new(),
            telemetry: TelemetryConfig {
                enabled: self.trace,
                ..TelemetryConfig::default()
            },
            failover: self.failover,
            recovery_attempts: 2,
            party_drop: false,
        }
    }

    /// Upper bound on one run's wall clock: every phase deadline plus
    /// generous join/teardown slack, plus — when a failover policy is
    /// armed — the full recovery budget (each failover costs at most one
    /// extra failed round wait plus one re-bootstrap barrier). Exceeding
    /// it is a termination violation (the deployment hung past its own
    /// supervision budget).
    pub fn termination_bound(&self) -> Duration {
        let base = self.setup_deadline
            + self.round_deadline * self.rounds as u32
            + Duration::from_secs(10);
        if self.failover == FailoverPolicy::None {
            return base;
        }
        let max_failovers = (self.n_aggregators * 2) as u32;
        base + (self.round_deadline + self.setup_deadline) * max_failovers
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
    /// Wall-clock duration of the threaded run.
    pub elapsed: Duration,
    /// The flight-recorder dump (JSONL path) when the spec asked for a
    /// trace ([`SimSpec::trace`]); `None` otherwise.
    pub trace_path: Option<String>,
}

/// The harness: one sequential reference run, then any number of faulted
/// threaded runs checked against it.
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
    /// Builds the fleet: generates data and runs the sequential
    /// [`DetaSession`] once to fix the parity reference.
    ///
    /// # Panics
    ///
    /// Panics if the fault-free sequential session itself cannot run —
    /// that is broken infrastructure, not a simulation outcome.
    pub fn new(spec: SimSpec) -> SimFleet {
        let ds = DatasetSpec::mnist_like().at_resolution(spec.resolution);
        let train = ds.generate(spec.train_samples, 1);
        let test = ds.generate(spec.test_samples, 2);
        let shards = iid_partition(&train, spec.n_parties, 3);
        let (dim, classes, hidden) = (ds.dim(), ds.classes, spec.hidden);
        let mut seq = DetaSession::setup(
            spec.config(),
            &move |rng| mlp(&[dim, hidden, classes], rng),
            shards.clone(),
        )
        .expect("fault-free sequential setup");
        seq.run(&test);
        let reference = (0..spec.n_parties).map(|i| seq.party_params(i)).collect();
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

    /// Runs one threaded deployment under `plan` and checks every
    /// invariant.
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
    /// Checks termination-bound, parity, and privacy; the caller judges
    /// `dark`/`fired` semantics (see [`SimFleet::run_plan`]).
    pub fn run_custom(
        &self,
        policy: Option<Arc<dyn FaultPolicy>>,
        incident: &BTreeSet<String>,
        instrument: impl FnOnce(&mut SessionParts),
    ) -> SeedReport {
        let tap = Arc::new(TapLog::new());
        let tap_for_setup = tap.clone();
        let (dim, classes, hidden) = (self.dim, self.classes, self.spec.hidden);
        let mut violations = Vec::new();
        let mut trace_path = None;
        let dump_before = deta_telemetry::last_dump_path();
        let start = Instant::now();
        let setup = ThreadedSession::setup_with(
            self.spec.config(),
            &move |rng| mlp(&[dim, hidden, classes], rng),
            self.shards.clone(),
            self.spec.runtime(),
            |parts| {
                if let Some(p) = policy {
                    parts.network.set_fault_policy(p);
                }
                parts.network.set_tap(tap_for_setup);
                for party in &mut parts.parties {
                    party.record_updates = true;
                }
                instrument(parts);
            },
        );
        let (verdict, error) = match setup {
            Err(e) => {
                // Setup-phase failures drop the session before its dump
                // path is readable, but the supervisor already wrote the
                // fault dump; recover its location from the telemetry
                // crate (only a dump newer than this run counts).
                if self.spec.trace {
                    trace_path = deta_telemetry::last_dump_path()
                        .filter(|p| dump_before.as_ref() != Some(p))
                        .map(|p| p.display().to_string());
                }
                let dark = intersect(&implicated(&e), incident);
                (Verdict::Failed { dark }, Some(format!("{e}")))
            }
            Ok(mut thr) => {
                let outcome = thr.run(&self.test);
                if !thr.is_shut_down() {
                    let _ = thr.shutdown();
                }
                let vd = match outcome {
                    Ok(_) => {
                        let mut parity = true;
                        for (i, reference) in self.reference.iter().enumerate() {
                            let got = thr.party_params(i);
                            if got.as_deref().map(bits) != Some(bits(reference)) {
                                parity = false;
                                violations.push(format!(
                                    "parity: party-{i} final parameters differ from the \
                                     sequential reference"
                                ));
                            }
                        }
                        if !parity {
                            (Verdict::Failed { dark: Vec::new() }, None)
                        } else if thr.view().failovers > 0 {
                            (Verdict::Recovered, None)
                        } else {
                            (Verdict::Parity, None)
                        }
                    }
                    Err(e) => {
                        let dark = intersect(&implicated(&e), incident);
                        (Verdict::Failed { dark }, Some(format!("{e}")))
                    }
                };
                // Privacy audits each aggregator's materialized state
                // against recomputed entitlements; it needs the joined
                // node states, which shutdown (on any path) recovered.
                self.privacy_check(&thr, &tap, &mut violations);
                if self.spec.trace {
                    // A fault verdict already wrote a dump; healthy runs
                    // are force-dumped so the trace always exists.
                    trace_path = thr
                        .trace_dump_path()
                        .map(|p| p.display().to_string())
                        .or_else(|| thr.dump_trace().map(|p| p.display().to_string()));
                }
                vd
            }
        };
        let elapsed = start.elapsed();
        if elapsed > self.spec.termination_bound() {
            violations.push(format!(
                "termination: run took {elapsed:?}, past the supervision budget {:?}",
                self.spec.termination_bound()
            ));
        }
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

    /// Invariant 2. For every fragment an aggregator materialized
    /// (breached CVM memory + pending upload buffers), recompute — from
    /// the producing party's raw update log, a mapper epoch covering
    /// that round, and the round's permutation — the one fragment that
    /// aggregator was entitled to, and demand bit-equality. Then replay
    /// the tap: the fragment must be backed by a delivered frame on the
    /// party→agg link whose size matches a sealed upload of exactly that
    /// length, and every frame into the aggregator must come from a
    /// known endpoint.
    ///
    /// The audit spans failovers: aggregator incarnations retired by a
    /// failover are audited too (their threads were joined the moment
    /// the failover killed them), and a round healed by re-partition is
    /// checked against *both* of its epochs — its failed attempt
    /// legitimately left old-epoch fragments behind. What must never
    /// appear is a fragment matching no epoch the holder belonged to:
    /// that would mean some aggregator saw a slice of the model it was
    /// never entitled to under any partition of the session.
    fn privacy_check(&self, thr: &ThreadedSession, tap: &TapLog, violations: &mut Vec<String>) {
        let thr = thr.view();
        let perm_key = thr.broker.permutation_key();
        let party_names = thr.party_names;
        let agg_names = thr.agg_names;
        let epochs = thr.epochs;
        // Every incarnation that ever held uploads: the final aggregator
        // set plus everything a failover retired.
        let incarnations: Vec<&str> = agg_names
            .iter()
            .chain(thr.retired_aggs)
            .map(String::as_str)
            .collect();
        for agg_name in &incarnations {
            let Some(Node::Aggregator(agg)) = thr.node(agg_name) else {
                continue; // panicked thread: state unrecoverable
            };
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
                let Some(Node::Party(node)) = thr.node(party) else {
                    continue; // panicked thread: no log to audit against
                };
                let Some((_, update)) = node.update_log.iter().find(|(r, _)| r == round) else {
                    violations.push(format!(
                        "privacy: {agg_name} holds a round-{round} fragment from {party}, \
                         but {party} never produced a round-{round} update"
                    ));
                    continue;
                };
                let views = epoch_views(epochs, agg_name, *round);
                if views.is_empty() {
                    violations.push(format!(
                        "privacy: {agg_name} holds a round-{round} fragment but belongs \
                         to no mapper epoch covering round {round}"
                    ));
                    continue;
                }
                let tid = thr.broker.training_id(*round);
                let entitled_somewhere = views.iter().any(|(j, transformer)| {
                    let entitled = entitled_fragment(transformer, update, *j, &tid, &perm_key);
                    bits(&entitled) == bits(frag)
                });
                if !entitled_somewhere {
                    violations.push(format!(
                        "privacy: {agg_name} materialized a round-{round} fragment from \
                         {party} that is not the shuffled partition it is entitled to \
                         under any of its {} epoch view(s)",
                        views.len()
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
}

/// The one fragment slot `j` of `transformer` entitles an aggregator to,
/// recomputed independently from the party's raw update.
fn entitled_fragment(
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

/// The (slot, transformer) views `agg_name` legitimately had of `round`:
/// one per mapper epoch that covers the round and lists the aggregator.
/// Slots are matched by base name (`agg-1#r1` inherits `agg-1`'s slot),
/// and an epoch covers `[from_round, next.from_round]` — the boundary
/// round belongs to *both* epochs, because a re-partition replays the
/// round whose old-epoch fragments were already in flight.
fn epoch_views<'a>(
    epochs: &'a [MapperEpoch],
    agg_name: &str,
    round: u64,
) -> Vec<(usize, &'a Transformer)> {
    let base = base_of(agg_name);
    let mut views = Vec::new();
    for (e, epoch) in epochs.iter().enumerate() {
        let upper = epochs.get(e + 1).map_or(u64::MAX, |next| next.from_round);
        if round < epoch.from_round || round > upper {
            continue;
        }
        if let Some(j) = epoch.agg_names.iter().position(|n| base_of(n) == base) {
            views.push((j, &epoch.transformer));
        }
    }
    views
}

/// An incarnation's base endpoint name (`agg-1#r2` → `agg-1`).
fn base_of(name: &str) -> &str {
    name.split('#').next().unwrap_or(name)
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
        sealed: vec![0u8; inner.len() + AEAD_TAG_LEN],
    }
    .encode()
    .ok()?;
    Some(record.len())
}

/// The nodes a structured error points at.
fn implicated(e: &RuntimeError) -> Vec<String> {
    match e {
        RuntimeError::NodeFailed { node, .. } | RuntimeError::NodePanicked { node } => {
            vec![node.clone()]
        }
        RuntimeError::Timeout { missing, .. } => missing.clone(),
        _ => Vec::new(),
    }
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

/// f32 slices compared exactly, NaN-safe.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
