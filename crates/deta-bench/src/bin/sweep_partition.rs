//! Fine-grained partition-factor sweep (extension): where exactly does
//! DLG stop working as the breached aggregator's share shrinks?
//!
//! The paper evaluates three partition factors (1.0, 0.6, 0.2); this
//! sweep fills in the curve, with and without shuffling, reporting the
//! success rate (MSE < 1e-3) and median MSE at each factor.
//!
//! ```text
//! cargo run --release -p deta-bench --bin sweep_partition
//! ```

use deta_attacks::dlg::{run_dlg, DlgConfig};
use deta_attacks::graphnet::MlpSpec;
use deta_attacks::harness::{breach_view, victim_gradient, AttackView};
use deta_attacks::metrics::mse;
use deta_bench::tables::random_params;
use deta_bench::{write_csv, Args};
use deta_datasets::DatasetSpec;

fn main() {
    let args = Args::parse();
    let n_images: usize = args.get("images", 12);
    let iterations: usize = args.get("iterations", 300);

    let data_spec = DatasetSpec::cifar100_like().at_resolution(8);
    let dim = data_spec.dim();
    let classes = 20usize;
    let model = MlpSpec::new(&[dim, 24, classes]);
    let params = random_params(&model, 21);

    let factors = [1.0f32, 0.95, 0.9, 0.8, 0.7, 0.6, 0.4, 0.2];
    let mut rows = Vec::new();
    println!(
        "{:<8} {:<10} {:>10} {:>14}",
        "factor", "shuffle", "success", "median MSE"
    );
    for shuffled in [false, true] {
        for &factor in &factors {
            let mut mses = Vec::with_capacity(n_images);
            for img in 0..n_images {
                let label = img % classes;
                let sample = data_spec.generate_class(label, 1, img as u64 + 300);
                let image: Vec<f32> = sample.features.data().to_vec();
                let gradient = victim_gradient(&model, &params, &image, &[label]);
                let view = if shuffled {
                    AttackView::PartitionShuffle { factor }
                } else if factor >= 0.999 {
                    AttackView::Full
                } else {
                    AttackView::Partition { factor }
                };
                let bv = breach_view(&gradient, view, 22, &[(img % 251) as u8; 16]);
                let out = run_dlg(
                    &model,
                    &params,
                    &bv,
                    &DlgConfig {
                        iterations,
                        seed: img as u64,
                        restarts: 1,
                    },
                );
                let err = mse(&out.reconstruction, &image);
                mses.push(err);
                rows.push(format!("{factor},{shuffled},{img},{err:.6e}"));
            }
            mses.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let success = mses.iter().filter(|&&m| m < 1e-3).count();
            println!(
                "{:<8.2} {:<10} {:>7}/{:<2} {:>14.5}",
                factor,
                shuffled,
                success,
                n_images,
                mses[n_images / 2]
            );
        }
    }
    println!(
        "\nExpected: without shuffling, success collapses as soon as any \
         parameters are withheld (the misalignment poisons the whole \
         objective); with shuffling, zero success even at factor 1.0."
    );
    write_csv("sweep_partition.csv", "factor,shuffled,image,mse", &rows);
}
