//! Fault drill: runs the DeTA deployment — every node stepped inline on a
//! virtual clock, the supervisor's deadlines, blame and failover included
//! — under a handful of seeded network-fault plans and prints, for each,
//! the fault plan, the machine-checked verdict, and the virtual time the
//! run spent waiting on timers (a failed seed shows the deadline it
//! waited out; stepping nodes takes none).
//!
//! ```text
//! cargo run --release --example simnet_fault_drill [seed...]
//! ```
//!
//! With no arguments, drills seeds 0..10. Every run is checked for the
//! three simnet invariants — termination-with-attribution, aggregator
//! privacy, and duplicate idempotence (via parity) — and the drill
//! exits non-zero if any run violates one.
//!
//! To capture the flight-recorder timeline of one interesting seed
//! (every node's last-N spans/events, dumped as JSONL under
//! `results/traces/`), re-run it with the sweep driver's trace mode:
//! `cargo run --release -p deta-simnet --bin sim_sweep -- --seed N --trace`.

use deta_simnet::{FaultPlan, SimFleet, SimSpec, Verdict};

fn main() {
    let seeds: Vec<u64> = {
        let args: Vec<u64> = std::env::args()
            .skip(1)
            .filter_map(|a| a.parse().ok())
            .collect();
        if args.is_empty() {
            (0..10).collect()
        } else {
            args
        }
    };

    println!("building fleet (one fault-free reference run)...");
    let fleet = SimFleet::new(SimSpec::default());
    let mut bad = 0usize;
    for seed in seeds {
        let plan = FaultPlan::from_seed(seed, fleet.topology());
        println!("\n== seed {seed} ==");
        if plan.faults.is_empty() {
            println!("   plan: (fault-free)");
        }
        for f in &plan.faults {
            println!(
                "   plan: {:?} on {} -> {} at send attempt {}",
                f.kind, f.from, f.to, f.at
            );
        }
        let report = fleet.run_seed(seed);
        match &report.verdict {
            Verdict::Parity => println!(
                "   verdict: PARITY with the fault-free session (virtual {:?}, fired {:?})",
                report.elapsed, report.fired_kinds
            ),
            Verdict::Recovered => println!(
                "   verdict: RECOVERED — failover healed the round, parity holds \
                 (virtual {:?}, fired {:?})",
                report.elapsed, report.fired_kinds
            ),
            Verdict::Failed { dark } => println!(
                "   verdict: FAILED, dark node(s) {dark:?} (virtual {:?})\n   error:   {}",
                report.elapsed,
                report.error.as_deref().unwrap_or("-")
            ),
        }
        for v in &report.violations {
            println!("   INVARIANT VIOLATION: {v}");
            bad += 1;
        }
    }
    if bad > 0 {
        eprintln!("\n{bad} invariant violation(s)");
        std::process::exit(1);
    }
    println!("\nall drilled seeds satisfied every invariant");
}
