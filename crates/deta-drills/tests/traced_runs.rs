//! Tracing is invisible to the simulator: a seed run with the telemetry
//! sink on reaches the verdict it reaches with the sink off, fires the
//! same faults, and gives the privacy oracle nothing to flag — the trace
//! context rides beside each payload, so a frame's bytes and sizes do not
//! depend on it. One test alone in its binary, because enabling the sink
//! is sticky for the process: every untraced run goes first.

use deta_core::supervise::FailoverPolicy;
use deta_drills::sim::{SeedReport, SimFleet, SimSpec};

/// A fault-free seed, a partition healed by failover, a delay, and two
/// corruptions, whose byte must land in a payload whether or not the
/// frame is traced.
const SEEDS: [u64; 5] = [1, 3, 5, 15, 21];

fn sweep(trace: bool) -> Vec<SeedReport> {
    let fleet = SimFleet::new(SimSpec {
        trace,
        failover: FailoverPolicy::Restart,
        ..SimSpec::default()
    });
    SEEDS.iter().map(|&seed| fleet.run_seed(seed)).collect()
}

#[test]
fn a_traced_run_reaches_the_untraced_verdict_with_no_violation() {
    let untraced = sweep(false);
    let traced = sweep(true);
    for (plain, traced) in untraced.iter().zip(&traced) {
        let seed = plain.seed.unwrap_or_default();
        assert_eq!(plain.violations, Vec::<String>::new(), "seed {seed}");
        assert_eq!(
            traced.violations,
            Vec::<String>::new(),
            "seed {seed} traced"
        );
        assert_eq!(plain.verdict, traced.verdict, "seed {seed}");
        assert_eq!(plain.fired_kinds, traced.fired_kinds, "seed {seed}");
        assert!(plain.trace_path.is_none(), "seed {seed}");
        // Each traced run dumped its flight recorders; they are not kept.
        let dump = traced.trace_path.as_ref().expect("a traced run dumps");
        let _ = std::fs::remove_file(dump);
        let _ = std::fs::remove_file(std::path::Path::new(dump).with_extension("prom"));
    }
}
