//! Property tests for the coordinate-wise invariance at the heart of
//! DeTA: for any updates, any mapper, any permutation key, aggregating
//! transformed fragments and inverting equals aggregating in the clear.

use deta::core::agg::{AggKind, Aggregation};
use deta::core::mapper::ModelMapper;
use deta::core::shuffle::RoundPermutation;
use deta::core::transform::{TransformConfig, Transformer};
use deta::crypto::DetRng;
use deta_proptest::{cases, Gen};

/// Aggregates through the DeTA pipeline: transform every party's update,
/// aggregate each fragment independently, then inverse-transform.
fn aggregate_via_deta(
    updates: &[Vec<f32>],
    weights: &[f32],
    alg: &dyn Aggregation,
    n_aggs: usize,
    seed: u64,
    shuffle: bool,
) -> Vec<f32> {
    let n = updates[0].len();
    let mapper = ModelMapper::generate(n, n_aggs, None, &mut DetRng::from_u64(seed));
    let cfg = if shuffle {
        TransformConfig::full()
    } else {
        TransformConfig::partition_only()
    };
    let t = Transformer::new(mapper, [seed as u8; 32], cfg);
    let tid = [1u8; 16];
    let per_party: Vec<Vec<Vec<f32>>> = updates.iter().map(|u| t.transform(u, &tid)).collect();
    let mut agg_fragments = Vec::with_capacity(n_aggs);
    for j in 0..n_aggs {
        let inputs: Vec<Vec<f32>> = per_party.iter().map(|f| f[j].clone()).collect();
        agg_fragments.push(
            alg.aggregate(&inputs, weights)
                .expect("fragments aggregate"),
        );
    }
    t.inverse(&agg_fragments, &tid)
}

/// Draws 2-5 parties, 8-60 parameters, finite values, positive weights.
fn updates_and_weights(g: &mut Gen) -> (Vec<Vec<f32>>, Vec<f32>) {
    let parties = g.usize_in(2, 6);
    let n = g.usize_in(8, 61);
    let updates = (0..parties)
        .map(|_| (0..n).map(|_| g.f32_in(-100.0, 100.0)).collect())
        .collect();
    let weights = (0..parties).map(|_| g.f32_in(0.1, 10.0)).collect();
    (updates, weights)
}

#[test]
fn averaging_invariant() {
    cases("averaging_invariant", 64, |g| {
        let (updates, weights) = updates_and_weights(g);
        let n_aggs = g.usize_in(1, 5);
        let seed = g.u64_in(0, 1000);
        let shuffle = g.bool();
        let alg = AggKind::IterativeAveraging.build();
        let plain = alg
            .aggregate(&updates, &weights)
            .expect("updates aggregate");
        let via = aggregate_via_deta(&updates, &weights, alg.as_ref(), n_aggs, seed, shuffle);
        assert_eq!(plain, via);
    });
}

#[test]
fn sum_invariant() {
    cases("sum_invariant", 64, |g| {
        let (updates, weights) = updates_and_weights(g);
        let n_aggs = g.usize_in(1, 5);
        let seed = g.u64_in(0, 1000);
        let alg = AggKind::GradientSum.build();
        let plain = alg
            .aggregate(&updates, &weights)
            .expect("updates aggregate");
        let via = aggregate_via_deta(&updates, &weights, alg.as_ref(), n_aggs, seed, true);
        assert_eq!(plain, via);
    });
}

#[test]
fn median_invariant() {
    cases("median_invariant", 64, |g| {
        let (updates, weights) = updates_and_weights(g);
        let n_aggs = g.usize_in(1, 5);
        let seed = g.u64_in(0, 1000);
        let shuffle = g.bool();
        let alg = AggKind::CoordinateMedian.build();
        let plain = alg
            .aggregate(&updates, &weights)
            .expect("updates aggregate");
        let via = aggregate_via_deta(&updates, &weights, alg.as_ref(), n_aggs, seed, shuffle);
        assert_eq!(plain, via);
    });
}

#[test]
fn trimmed_mean_invariant() {
    cases("trimmed_mean_invariant", 64, |g| {
        let (updates, weights) = updates_and_weights(g);
        let n_aggs = g.usize_in(1, 5);
        let seed = g.u64_in(0, 1000);
        let shuffle = g.bool();
        let trim = (updates.len() - 1) / 2;
        let alg = AggKind::TrimmedMean { trim }.build();
        let plain = alg
            .aggregate(&updates, &weights)
            .expect("updates aggregate");
        let via = aggregate_via_deta(&updates, &weights, alg.as_ref(), n_aggs, seed, shuffle);
        assert_eq!(plain, via);
    });
}

#[test]
fn permutation_preserves_l2_distances() {
    cases("permutation_preserves_l2_distances", 64, |g| {
        // The property FLAME/Krum rely on: shuffling is an isometry.
        let a = g.vec_of(4, 40, |g| g.f32_in(-50.0, 50.0));
        let seed = g.u64_in(0, 1000);
        let b: Vec<f32> = a.iter().map(|v| v * 0.5 + 1.0).collect();
        let key = [seed as u8; 32];
        let p = RoundPermutation::derive(&key, &[2u8; 16], 0, a.len());
        let d = |x: &[f32], y: &[f32]| -> f64 {
            x.iter().zip(y).map(|(u, v)| ((u - v) as f64).powi(2)).sum()
        };
        let before = d(&a, &b);
        let after = d(&p.apply(&a), &p.apply(&b));
        assert!((before - after).abs() < 1e-6 * before.max(1.0));
    });
}

#[test]
fn mapper_partition_is_a_partition() {
    cases("mapper_partition_is_a_partition", 64, |g| {
        let n = g.usize_in(1, 200);
        let k = g.usize_in(1, 6).min(n);
        let seed = g.u64_in(0, 1000);
        let mapper = ModelMapper::generate(n, k, None, &mut DetRng::from_u64(seed));
        let update: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let frags = mapper.partition(&update);
        // Every element appears exactly once across fragments.
        let mut all: Vec<f32> = frags.into_iter().flatten().collect();
        all.sort_by(f32::total_cmp);
        assert_eq!(all, update);
    });
}

#[test]
fn krum_still_rejects_outliers_per_fragment() {
    // Krum is not bit-identical under partitioning (selection happens per
    // fragment), but the paper's claim is that outlier elimination is
    // preserved. Verify: a poisoned update never survives into any
    // aggregated fragment.
    let mut rng = DetRng::from_u64(5);
    let honest: Vec<Vec<f32>> = (0..4)
        .map(|_| (0..40).map(|_| rng.next_gaussian() as f32 * 0.1).collect())
        .collect();
    let mut updates = honest;
    updates.push(vec![1e6; 40]); // Byzantine party.
    let weights = vec![1.0; 5];
    let alg = AggKind::Krum { f: 1 }.build();
    for n_aggs in [1usize, 2, 3] {
        let out = aggregate_via_deta(&updates, &weights, alg.as_ref(), n_aggs, 9, true);
        assert!(
            out.iter().all(|&v| v.abs() < 10.0),
            "poison leaked through {n_aggs}-way Krum"
        );
    }
}

#[test]
fn flame_still_rejects_outliers_per_fragment() {
    let mut rng = DetRng::from_u64(6);
    let honest: Vec<Vec<f32>> = (0..5)
        .map(|_| {
            (0..30)
                .map(|_| 1.0 + rng.next_gaussian() as f32 * 0.05)
                .collect()
        })
        .collect();
    let mut updates = honest;
    updates.push(vec![-100.0; 30]);
    let weights = vec![1.0; 6];
    let alg = AggKind::FlameLite.build();
    for n_aggs in [1usize, 2, 3] {
        let out = aggregate_via_deta(&updates, &weights, alg.as_ref(), n_aggs, 10, true);
        assert!(
            out.iter().all(|&v| (0.0..=2.0).contains(&v)),
            "poison influenced {n_aggs}-way FLAME aggregate"
        );
    }
}
