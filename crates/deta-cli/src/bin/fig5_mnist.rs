//! Regenerates **Figure 5**: MNIST loss/accuracy and cumulative latency
//! per training round for DeTA vs. FFL with three aggregation algorithms
//! (Iterative Averaging, Coordinate Median, Paillier fusion).
//!
//! Paper setup: 4 parties IID, 8-layer ConvNet, 10 rounds x 3 local
//! epochs (3 rounds for Paillier), 15,000 examples per party. This
//! reproduction scales the data to `--examples` per party (default 300)
//! and the images to 12x12; the Paillier key is simulation-grade
//! (`--paillier-bits`, default 512).
//!
//! ```text
//! cargo run --release -p deta-cli --bin fig5_mnist
//! ```

use deta_cli::bench::{overhead, print_series, write_csv, Args};
use deta_core::baseline::run_ffl;
use deta_core::paillier_fusion::PaillierFusionConfig;
use deta_core::{AggKind, DetaConfig, DetaSession};
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::convnet8;

fn main() {
    let args = Args::parse(&["examples", "rounds", "paillier-rounds", "paillier-bits"]);
    let per_party = args.count("examples", 300);
    let rounds = args.count("rounds", 10);
    let paillier_rounds = args.count("paillier-rounds", 3);
    let paillier_bits = args.count("paillier-bits", 512);
    let hw = 12usize;

    let spec = DatasetSpec::mnist_like().at_resolution(hw);
    let train = spec.generate(per_party * 4, 1);
    let test = spec.generate(400, 2);
    let shards = iid_partition(&train, 4, 3);
    let classes = spec.classes;
    let builder = move |rng: &mut deta_crypto::DetRng| convnet8(1, hw, classes, rng);

    let mut rows: Vec<String> = Vec::new();
    let algorithms: [(&str, AggKind, usize, bool); 3] = [
        (
            "iterative-averaging",
            AggKind::IterativeAveraging,
            rounds,
            false,
        ),
        (
            "coordinate-median",
            AggKind::CoordinateMedian,
            rounds,
            false,
        ),
        (
            "paillier",
            AggKind::IterativeAveraging,
            paillier_rounds,
            true,
        ),
    ];

    for (name, alg, n_rounds, use_paillier) in algorithms {
        println!("\n=== Figure 5: {name} ===");
        let mut cfg = DetaConfig::deta(4, n_rounds);
        cfg.algorithm = alg;
        cfg.local_epochs = 3;
        cfg.lr = 0.1;
        cfg.seed = 5;
        if use_paillier {
            cfg.paillier = Some(PaillierFusionConfig {
                n_bits: paillier_bits,
                ..Default::default()
            });
        }
        let mut session =
            DetaSession::setup(cfg.clone(), &builder, shards.clone()).expect("DeTA session setup");
        let deta_metrics = session.run(&test);
        rows.extend(print_series(&format!("DETA-{name}"), 24, &deta_metrics));

        let ffl_metrics = run_ffl(cfg, &builder, shards.clone(), &test).expect("FFL baseline");
        rows.extend(print_series(&format!("FFL-{name}"), 24, &ffl_metrics));

        let d = deta_metrics.last().unwrap().cumulative_latency_s;
        let f = ffl_metrics.last().unwrap().cumulative_latency_s;
        println!(
            "--> {name}: DeTA {d:.2}s vs FFL {f:.2}s  (overhead {:+.2}x; paper: \
             {} )",
            overhead(d, f),
            match name {
                "iterative-averaging" => "+0.40x",
                "coordinate-median" => "+0.45x",
                _ => "-0.04x (Paillier gets FASTER under DeTA)",
            }
        );
        let da = deta_metrics.last().unwrap().test_accuracy;
        let fa = ffl_metrics.last().unwrap().test_accuracy;
        println!(
            "--> final accuracy: DeTA {:.1}% vs FFL {:.1}% (paper: identical curves)",
            da * 100.0,
            fa * 100.0
        );
    }
    write_csv(
        "fig5_mnist.csv",
        "series,round,test_loss,test_accuracy,round_latency_s,cumulative_latency_s",
        &rows,
    );
}
