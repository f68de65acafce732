//! The committed verdict corpus, re-verified in the test suite exactly
//! as `sim_sweep` verifies it: every one of its 200 seeds run twice
//! under the restart failover policy, no invariant violated on any run
//! (the privacy oracle among them reads every aggregator's breach dump),
//! the two runs of each seed agreeing, every fault kind firing in some
//! run, and the verdicts equal to `results/SIM_SEEDS.json`, entry for
//! entry. After an intended change of behaviour,
//! `DETA_SIM_REWRITE=1 cargo run --release -p deta-simnet --bin sim_sweep`
//! regenerates the corpus.

use deta_core::supervise::FailoverPolicy;
use deta_simnet::sweep::{self, Sweep};
use deta_simnet::{SimFleet, SimSpec};

const COMMITTED: &str = include_str!("../../../results/SIM_SEEDS.json");

#[test]
fn every_committed_verdict_holds_twice_without_a_violation() {
    let fleet = SimFleet::new(SimSpec {
        failover: FailoverPolicy::Restart,
        ..SimSpec::default()
    });
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let Sweep {
        problems,
        corpus,
        fired,
    } = sweep::sweep(&fleet, sweep::SEEDS, workers);
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    let silent: Vec<_> = (sweep::FAULT_KINDS.iter())
        .filter(|kind| !fired.contains(*kind))
        .collect();
    assert!(silent.is_empty(), "no seed fired a {silent:?} fault");
    let swept = sweep::render_corpus(&corpus);
    let (committed, swept) = (
        sweep::corpus_entries(COMMITTED),
        sweep::corpus_entries(&swept),
    );
    assert_eq!(swept.len(), committed.len(), "seeds in the corpus");
    for (got, want) in swept.iter().zip(&committed) {
        assert_eq!(got, want, "a verdict moved from the committed corpus");
    }
}
