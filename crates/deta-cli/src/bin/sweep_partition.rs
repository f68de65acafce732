//! Fine-grained partition-factor sweep (extension): where exactly does
//! DLG stop working as the breached aggregator's share shrinks?
//!
//! The paper evaluates three partition factors (1.0, 0.6, 0.2); this
//! sweep fills in the curve, with and without shuffling, reporting the
//! success rate (MSE < 1e-3) and median MSE at each factor.
//!
//! ```text
//! cargo run --release -p deta-cli --bin sweep_partition
//! ```

use deta_attacks::dlg::{run_dlg, DlgConfig};
use deta_attacks::harness::{breach_view, victim_gradient, AttackView};
use deta_attacks::metrics::mse;
use deta_cli::bench::tables::mlp_victim;
use deta_cli::bench::{write_csv, Args};
use deta_crypto::DetRng;
use deta_datasets::DatasetSpec;

fn main() {
    let args = Args::parse(&["images", "iterations"]);
    let n_images = args.count("images", 12);
    let iterations = args.count("iterations", 300);

    let data_spec = DatasetSpec::cifar100_like().at_resolution(8);
    let classes = 20usize;
    let model = mlp_victim(data_spec.dim(), classes, &mut DetRng::from_u64(21));

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
                let gradient = victim_gradient(&model, &image, &[label]).unwrap();
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
                    &bv,
                    &DlgConfig {
                        iterations,
                        seed: img as u64,
                        restarts: 1,
                    },
                )
                .unwrap();
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
