//! Defense-in-depth ablation (beyond the paper's tables): a strengthened
//! **oracle attacker** who has obtained the model mapper (e.g. via a
//! compromised participant) and can therefore align fragment slots with
//! their true model positions.
//!
//! Against this adversary, partitioning alone is *not* sufficient — the
//! attack reduces to gradient matching on a known coordinate subset,
//! which still reconstructs. The keyed per-round shuffle, whose key never
//! leaves participant custody, is what holds. This quantifies the paper's
//! defense-in-depth argument: each layer covers the other's failure mode.
//!
//! ```text
//! cargo run --release -p deta-cli --bin ablation_oracle
//! ```

use deta_attacks::dlg::{run_dlg, DlgConfig};
use deta_attacks::harness::{breach_view, oracle_breach_view, victim_gradient, AttackView};
use deta_attacks::metrics::{bucket_percentages, mse, mse_bucket, MSE_BUCKET_LABELS};
use deta_cli::bench::tables::mlp_victim;
use deta_cli::bench::{print_bucket_table, write_csv, Args};
use deta_crypto::DetRng;
use deta_datasets::DatasetSpec;

fn main() {
    let args = Args::parse(&["images", "iterations"]);
    let n_images = args.count("images", 30);
    let iterations = args.count("iterations", 300);
    let factor = 0.6f32;

    let data_spec = DatasetSpec::cifar100_like().at_resolution(8);
    let classes = data_spec.classes;
    let model = mlp_victim(data_spec.dim(), classes, &mut DetRng::from_u64(9));

    // Columns: standard attacker vs oracle attacker, each against
    // partition-only and partition+shuffle.
    let configs: [(&str, bool, bool); 4] = [
        ("std/part", false, false),
        ("std/part+shuf", false, true),
        ("oracle/part", true, false),
        ("oracle/part+shuf", true, true),
    ];
    let mut columns = Vec::new();
    let mut rows = Vec::new();
    eprintln!("ablation_oracle: {n_images} images, factor {factor}");
    for (name, oracle, shuffled) in configs {
        let mut mses = Vec::with_capacity(n_images);
        for img in 0..n_images {
            let label = (img * 13) % classes;
            let sample = data_spec.generate_class(label, 1, img as u64 + 700);
            let image: Vec<f32> = sample.features.data().to_vec();
            let gradient = victim_gradient(&model, &image, &[label]).unwrap();
            let tid = [(img % 251) as u8; 16];
            let bv = if oracle {
                oracle_breach_view(&gradient, factor, shuffled, 77, &tid)
            } else {
                let view = if shuffled {
                    AttackView::PartitionShuffle { factor }
                } else {
                    AttackView::Partition { factor }
                };
                breach_view(&gradient, view, 77, &tid)
            };
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
            rows.push(format!("{name},{img},{err:.6e}"));
        }
        columns.push(bucket_percentages(&mses, mse_bucket, 4));
        eprintln!("  {name} done");
    }
    print_bucket_table(
        "Oracle-attacker ablation: DLG with a leaked model mapper (0.6 partition)",
        &MSE_BUCKET_LABELS,
        &configs.iter().map(|c| c.0.to_string()).collect::<Vec<_>>(),
        &columns,
    );
    println!(
        "\nExpected: the oracle defeats partitioning alone (recognizable \
         reconstructions reappear) but not partitioning + shuffling — the \
         permutation key never left participant custody."
    );
    write_csv("ablation_oracle.csv", "config,image,mse", &rows);
}
