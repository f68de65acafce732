//! Attack vs. defense: runs the DLG gradient-inversion attack against
//! every DeTA view configuration and dumps reconstructions as PGM/PPM
//! images (the paper's Figure 3, in miniature).
//!
//! ```text
//! cargo run --release --example attack_defense
//! ```
//!
//! Reconstructed images land in `results/reconstructions/`.

use deta::attacks::dlg::{run_dlg, DlgConfig};
use deta::attacks::graphnet::{GraphModel, MlpSpec};
use deta::attacks::harness::{breach_view, victim_gradient, AttackView};
use deta::attacks::metrics::{mse, write_pnm};
use deta::crypto::DetRng;
use deta::datasets::DatasetSpec;

fn main() {
    let spec_data = DatasetSpec::cifar100_like().at_resolution(8);
    let (c, h, w) = (spec_data.channels, 8usize, 8usize);
    let dim = spec_data.dim();
    let classes = 10usize;
    let model = MlpSpec::new(&[dim, 24, classes]);

    // Victim model weights and one training image.
    let mut rng = DetRng::from_u64(7);
    let params: Vec<f32> = (0..model.param_count())
        .map(|_| rng.next_gaussian() as f32 * 0.3)
        .collect();
    let label = 3usize;
    let victim = spec_data.generate_class(label, 1, 11);
    let image: Vec<f32> = victim.features.data().to_vec();

    // The gradient the victim would share.
    let gradient = victim_gradient(&model, &params, &image, &[label]);

    let out_dir = std::path::Path::new("results/reconstructions");
    std::fs::create_dir_all(out_dir).expect("create results dir");
    write_pnm(&out_dir.join("ground_truth.ppm"), &image, c, h, w).unwrap();

    let views = [
        AttackView::Full,
        AttackView::Partition { factor: 0.6 },
        AttackView::Partition { factor: 0.2 },
        AttackView::PartitionShuffle { factor: 1.0 },
        AttackView::PartitionShuffle { factor: 0.6 },
        AttackView::PartitionShuffle { factor: 0.2 },
    ];
    println!("DLG against DeTA views ({} L-BFGS iterations each):", 300);
    println!("{:<16} {:>12} {:>14}", "view", "MSE", "recognizable?");
    for view in views {
        let bv = breach_view(&gradient, view, 99, &[1u8; 16]);
        let out = run_dlg(
            &model,
            &params,
            &bv,
            &DlgConfig {
                iterations: 300,
                seed: 5,
                restarts: 1,
            },
        );
        let err = mse(&out.reconstruction, &image);
        println!(
            "{:<16} {:>12.5} {:>14}",
            view.label(),
            err,
            if err < 1e-3 { "YES" } else { "no" }
        );
        let fname = format!("dlg_{}.ppm", view.label().replace('.', "_"));
        write_pnm(&out_dir.join(fname), &out.reconstruction, c, h, w).unwrap();
    }
    println!("\nImages written to {}", out_dir.display());
    println!(
        "One image, one run: Table 1 (`table1_dlg`) measures the rates, about two \
         full views in three reconstructed and no partitioned or shuffled one."
    );
}
