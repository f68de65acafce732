//! Byzantine-robust aggregation under DeTA: Krum, Coordinate Median, and
//! FLAME-lite still eliminate a poisoning party when updates are
//! partitioned and shuffled (paper Section 4.2, "Applicable Aggregation
//! Algorithms").
//!
//! ```text
//! cargo run --release --example byzantine_robust
//! ```

use deta::core::agg::AggKind;
use deta::core::mapper::ModelMapper;
use deta::core::transform::{TransformConfig, Transformer};
use deta::crypto::DetRng;

fn main() {
    let n_params = 1000;
    let mut rng = DetRng::from_u64(1);

    // Five honest parties with similar updates, one poisoner.
    let honest: Vec<Vec<f32>> = (0..5)
        .map(|_| {
            (0..n_params)
                .map(|_| 1.0 + rng.next_gaussian() as f32 * 0.05)
                .collect()
        })
        .collect();
    let mut updates = honest;
    updates.push(vec![-25.0; n_params]); // Model-poisoning update.
    let weights = vec![1.0f32; 6];

    let honest_mean = 1.0f32;
    println!(
        "{:<20} {:>14} {:>14} {:>10}",
        "algorithm", "plain agg[0]", "DeTA agg[0]", "poisoned?"
    );
    for kind in [
        AggKind::IterativeAveraging,
        AggKind::CoordinateMedian,
        AggKind::Krum { f: 1 },
        AggKind::FlameLite,
    ] {
        let alg = kind.build();
        let plain = alg
            .aggregate(&updates, &weights)
            .expect("equal-length updates");

        // The DeTA path: 3 aggregators, partition + shuffle, aggregate
        // each fragment independently, merge.
        let mapper = ModelMapper::generate(n_params, 3, None, &mut DetRng::from_u64(9));
        let t = Transformer::new(mapper, [7u8; 32], TransformConfig::full());
        let tid = [3u8; 16];
        let transformed: Vec<Vec<Vec<f32>>> =
            updates.iter().map(|u| t.transform(u, &tid)).collect();
        let mut agg_frags = Vec::new();
        for j in 0..3 {
            let inputs: Vec<Vec<f32>> = transformed.iter().map(|f| f[j].clone()).collect();
            agg_frags.push(
                alg.aggregate(&inputs, &weights)
                    .expect("equal-length fragments"),
            );
        }
        let deta = t.inverse(&agg_frags, &tid);

        let poisoned = (deta[0] - honest_mean).abs() > 0.5;
        println!(
            "{:<20} {:>14.4} {:>14.4} {:>10}",
            kind.name(),
            plain[0],
            deta[0],
            if poisoned { "YES" } else { "no" }
        );
    }
    println!();
    println!("Averaging is polluted by the poisoner (with or without DeTA);");
    println!("the robust algorithms reject it in both deployments — DeTA's");
    println!("partitioning and shuffling preserve the distances they rely on.");
}
