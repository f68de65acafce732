//! Regenerates **Figure 7**: RVL-CDIP document classification with
//! non-IID (90-10 skew) data over eight parties, transfer learning from a
//! frozen backbone, DeTA vs. (simulated) FFL.
//!
//! Paper setup: pre-trained VGG-16 with the last three FC layers
//! replaced, 320,000 documents split 90-10 across 8 parties, 30 rounds.
//! This reproduction: `vgg_lite` (frozen conv feature extractor standing
//! in for the pre-trained backbone + trainable 3-layer head) on 16x16
//! synthetic documents, `--examples` per party (default 150).
//!
//! ```text
//! cargo run --release -p deta-cli --bin fig7_rvlcdip
//! ```

use deta_cli::bench::{overhead, print_series, write_csv, Args};
use deta_core::baseline::run_ffl;
use deta_core::{DetaConfig, DetaSession};
use deta_datasets::{noniid_skew_partition, DatasetSpec};
use deta_nn::models::vgg_lite;

fn main() {
    let args = Args::parse(&["examples", "rounds"]);
    let per_party = args.count("examples", 150);
    let rounds = args.count("rounds", 30);
    let n_parties = 8usize;
    let hw = 16usize;

    let spec = DatasetSpec::rvlcdip_like().at_resolution(hw);
    let train = spec.generate(per_party * n_parties, 1);
    let test = spec.generate(400, 2);
    // The paper's non-IID split: two dominant classes hold 90% per party.
    let shards = noniid_skew_partition(&train, n_parties, 0.9, 3);
    for (p, s) in shards.iter().enumerate() {
        let mut counts = vec![0usize; spec.classes];
        for &l in &s.labels {
            counts[l] += 1;
        }
        let mut top: Vec<usize> = counts.clone();
        top.sort_unstable_by(|a, b| b.cmp(a));
        println!(
            "party {p}: {} examples, two dominant classes hold {:.0}%",
            s.len(),
            100.0 * (top[0] + top[1]) as f64 / s.len() as f64
        );
    }

    let classes = spec.classes;
    let builder = move |rng: &mut deta_crypto::DetRng| vgg_lite(1, hw, classes, rng);

    let mut rows: Vec<String> = Vec::new();
    println!("\n=== Figure 7: non-IID 90-10, 8 parties, transfer learning ===");
    let mut cfg = DetaConfig::deta(n_parties, rounds);
    cfg.local_epochs = 1;
    cfg.lr = 0.05;
    cfg.seed = 7;
    let mut session =
        DetaSession::setup(cfg.clone(), &builder, shards.clone()).expect("DeTA session setup");
    let deta_metrics = session.run(&test);
    rows.extend(print_series("DETA", 16, &deta_metrics));

    let ffl_metrics = run_ffl(cfg, &builder, shards, &test).expect("FFL baseline");
    rows.extend(print_series("Simulated-FFL", 16, &ffl_metrics));

    let d = deta_metrics.last().unwrap().cumulative_latency_s;
    let f = ffl_metrics.last().unwrap().cumulative_latency_s;
    println!(
        "\n--> DeTA {d:.2}s vs FFL {f:.2}s (overhead {:+.2}x; paper: +0.16x)",
        overhead(d, f)
    );
    println!(
        "--> final accuracy: DeTA {:.1}% vs FFL {:.1}% (paper: 83.50% vs 86.19%)",
        deta_metrics.last().unwrap().test_accuracy * 100.0,
        ffl_metrics.last().unwrap().test_accuracy * 100.0
    );
    write_csv(
        "fig7_rvlcdip.csv",
        "series,round,test_loss,test_accuracy,round_latency_s,cumulative_latency_s",
        &rows,
    );
}
