//! Property tests for the transform pipeline under simnet-style message
//! mischief, and for shrinking a failing fault plan to its minimal core.

use deta_core::mapper::ModelMapper;
use deta_core::transform::{TransformConfig, Transformer};
use deta_drills::sim::{Fault, FaultKind, FaultPlan, SimFleet, SimSpec, Verdict};
use deta_proptest::{cases, shrink_set, Gen};

/// Partition + shuffle must round-trip **bit-exactly** no matter how the
/// network reorders or duplicates fragment deliveries: a receiver that
/// keeps the latest fragment per aggregator (what `Party` does) always
/// reconstructs the original update.
#[test]
fn partition_shuffle_round_trips_under_reordering_and_duplication() {
    cases(
        "transform round-trip vs simnet mischief",
        48,
        |g: &mut Gen| {
            let k = g.usize_in(1, 5);
            let n = g.usize_in(k, 80);
            let update: Vec<f32> = (0..n).map(|_| g.f32_in(-4.0, 4.0)).collect();
            let mapper = ModelMapper::generate(n, k, None, g.rng());
            let perm_key: [u8; 32] = g.array();
            let tid: [u8; 16] = g.array();
            let transformer = Transformer::new(mapper, perm_key, TransformConfig::full());
            let fragments = transformer.transform(&update, &tid);

            // Arbitrary delivery: 1-3 copies of each fragment, in any order.
            let mut deliveries: Vec<(usize, Vec<f32>)> = Vec::new();
            for (j, frag) in fragments.iter().enumerate() {
                for _ in 0..g.usize_in(1, 4) {
                    deliveries.push((j, frag.clone()));
                }
            }
            g.rng().shuffle(&mut deliveries);

            // Receiver semantics: latest delivery per aggregator wins.
            let mut collected: Vec<Option<Vec<f32>>> = vec![None; k];
            for (j, frag) in deliveries {
                collected[j] = Some(frag);
            }
            let collected: Vec<Vec<f32>> = collected
                .into_iter()
                .map(|f| f.expect("every fragment delivered at least once"))
                .collect();

            let recovered = transformer.inverse(&collected, &tid);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&recovered), bits(&update), "round-trip not bit-exact");
        },
    );
}

/// Shrinking a failing plan — one genuinely fatal crash padded with
/// dormant faults whose strike indices are never reached — must isolate
/// exactly the fatal fault: the 1-minimal subset that still fails.
#[test]
fn shrinker_minimizes_a_failing_fault_plan_to_the_fatal_fault() {
    let spec = SimSpec {
        rounds: 1,
        ..SimSpec::default()
    };
    let fleet = SimFleet::new(spec);
    let fatal = Fault {
        kind: FaultKind::Crash,
        from: "party-0".into(),
        to: "agg-0".into(),
        at: 0,
    };
    let faults = vec![
        Fault {
            kind: FaultKind::Drop,
            from: "party-1".into(),
            to: "agg-1".into(),
            at: 50, // dormant: the link never reaches 50 send attempts
        },
        fatal.clone(),
        Fault {
            kind: FaultKind::Duplicate,
            from: "agg-2".into(),
            to: "party-2".into(),
            at: 40, // dormant
        },
    ];
    let minimal = shrink_set(&faults, |subset| {
        let report = fleet.run_plan(&FaultPlan::from_faults(subset.to_vec()));
        matches!(report.verdict, Verdict::Failed { .. })
    });
    assert_eq!(minimal, vec![fatal], "shrinker kept non-essential faults");
}
