//! Fleet invariants under injected faults (debug-profile smoke; the
//! 200-seed sweep lives in `tests/corpus.rs` and `sim_sweep`).

use deta_core::rtmsg::SUPERVISOR;
use deta_core::wire::Msg;
use deta_drills::sim::{FaultPlan, SimFleet, SimSpec, Verdict};
use deta_transport::{FaultPolicy, SendVerdict};
use std::collections::BTreeSet;

/// First seed scheduling each fault kind, plus the first fault-free
/// seed — selected by inspecting plans (cheap), not by running them.
fn representative_seeds(spec: &SimSpec) -> Vec<u64> {
    let topo = spec.topology();
    let mut picked = Vec::new();
    let mut missing: BTreeSet<&'static str> = [
        "drop",
        "duplicate",
        "delay",
        "corrupt",
        "partition",
        "crash",
    ]
    .into_iter()
    .collect();
    let mut fault_free = None;
    for seed in 0..500 {
        let plan = FaultPlan::from_seed(seed, &topo);
        if plan.faults.is_empty() {
            if fault_free.is_none() {
                fault_free = Some(seed);
            }
            continue;
        }
        let kinds = plan.kinds();
        if kinds.iter().any(|k| missing.contains(k)) {
            for k in kinds {
                missing.remove(k);
            }
            picked.push(seed);
        }
        if missing.is_empty() {
            break;
        }
    }
    assert!(missing.is_empty(), "no seed schedules {missing:?}");
    picked.push(fault_free.expect("a fault-free seed under 500"));
    picked
}

#[test]
fn representative_seeds_hold_every_invariant() {
    let spec = SimSpec::default();
    let seeds = representative_seeds(&spec);
    let fleet = SimFleet::new(spec);
    for seed in seeds {
        let report = fleet.run_seed(seed);
        assert!(
            report.violations.is_empty(),
            "seed {seed}: {:?}",
            report.violations
        );
    }
}

#[test]
fn verdict_class_is_deterministic_across_reruns() {
    let fleet = SimFleet::new(SimSpec::default());
    for seed in [0u64, 1, 2] {
        let a = fleet.run_seed(seed);
        let b = fleet.run_seed(seed);
        assert_eq!(
            a.verdict.class(),
            b.verdict.class(),
            "seed {seed}: verdict class changed between identical runs"
        );
        assert_eq!(
            a.fired_kinds, b.fired_kinds,
            "seed {seed}: fired fault set changed between identical runs"
        );
        assert!(a.violations.is_empty(), "seed {seed}: {:?}", a.violations);
        assert!(b.violations.is_empty(), "seed {seed}: {:?}", b.violations);
    }
}

/// Seed 0 holds agg-2's sealed `RegisterAck` to party-2 back. Released
/// by later traffic on its own link, it never arrived — that traffic
/// waited on the bootstrap, which waited on it — and the seed failed;
/// released by the clock once the session is quiet, it arrives late and
/// the run is exact.
#[test]
fn seed_0_s_held_register_ack_arrives_and_the_run_ends_in_parity() {
    let fleet = SimFleet::new(SimSpec::default());
    let report = fleet.run_seed(0);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.verdict, Verdict::Parity, "{:?}", report.error);
    let fired: Vec<&str> = report.fired_kinds.into_iter().collect();
    assert_eq!(fired, ["delay"]);
}

/// A deliberately planted leak: party 0 swaps which aggregator gets
/// which fragment. Both fragments have the same length (the spec is
/// sized so the mapper splits evenly), so aggregation proceeds — only
/// the privacy checker's content audit can catch it.
#[test]
fn planted_misrouting_is_caught_by_the_privacy_checker() {
    let spec = SimSpec {
        n_aggregators: 2,
        ..SimSpec::default()
    };
    let fleet = SimFleet::new(spec);
    let report = fleet.run_custom(None, &BTreeSet::new(), |parts| {
        parts.parties[0].swap_fragment_routes(0, 1);
    });
    assert!(
        report.violations.iter().any(|v| v.starts_with("privacy:")),
        "planted misrouting not flagged; violations: {:?}",
        report.violations
    );
}

/// Duplicates every supervisor frame to the initiator — the round
/// trigger included, so `begin_round` runs twice per round.
struct DupTrigger;
impl FaultPolicy for DupTrigger {
    fn on_send(&self, from: &str, to: &str, _payload: &[u8]) -> SendVerdict {
        if from == SUPERVISOR && to == "agg-0" {
            SendVerdict::Duplicate
        } else {
            SendVerdict::Deliver
        }
    }
}

#[test]
fn duplicated_round_triggers_are_idempotent() {
    let fleet = SimFleet::new(SimSpec::default());
    let report = fleet.run_custom(
        Some(std::sync::Arc::new(DupTrigger)),
        &BTreeSet::new(),
        |_| {},
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(
        report.verdict,
        Verdict::Parity,
        "re-announced rounds must not change final parameters ({:?})",
        report.error
    );
}

/// Replays every sealed party→aggregator record (fragment uploads
/// included). Handshake hellos are exempt: a *replayed* hello is a new
/// handshake attempt, which the protocol rightly treats as fatal.
struct DupUploads;
impl FaultPolicy for DupUploads {
    fn on_send(&self, from: &str, to: &str, payload: &[u8]) -> SendVerdict {
        let party_to_agg = from.starts_with("party-") && to.starts_with("agg-");
        if party_to_agg && !matches!(Msg::decode(payload), Ok(Msg::Hello { .. })) {
            SendVerdict::Duplicate
        } else {
            SendVerdict::Deliver
        }
    }
}

#[test]
fn replayed_fragment_uploads_are_idempotent() {
    let fleet = SimFleet::new(SimSpec::default());
    let report = fleet.run_custom(
        Some(std::sync::Arc::new(DupUploads)),
        &BTreeSet::new(),
        |_| {},
    );
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(
        report.verdict,
        Verdict::Parity,
        "replayed sealed records must not change final parameters ({:?})",
        report.error
    );
}
