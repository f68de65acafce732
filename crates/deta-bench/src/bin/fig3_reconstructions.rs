//! Regenerates **Figures 3 and 4**: example reconstructions under every
//! combination of partitioning and shuffling, dumped as PPM images.
//!
//! Figure 3 (DLG/iDLG rows) uses the MLP victim; Figure 4 (IG rows) uses
//! the small conv victim. Ground truth plus one reconstruction per view
//! are written to `results/fig3/`.
//!
//! ```text
//! cargo run --release -p deta-bench --bin fig3_reconstructions
//! ```

use deta_attacks::dlg::{run_dlg, DlgConfig};
use deta_attacks::graphnet::{ConvSpec, GraphModel, MlpSpec};
use deta_attacks::harness::{breach_view, victim_gradient};
use deta_attacks::idlg::run_idlg;
use deta_attacks::ig::{run_ig, IgConfig};
use deta_attacks::metrics::{mse, write_pnm};
use deta_bench::results_dir;
use deta_bench::tables::VIEWS;
use deta_crypto::DetRng;
use deta_datasets::DatasetSpec;

fn main() {
    let dir = results_dir().join("fig3");
    std::fs::create_dir_all(&dir).expect("results dir");

    // --- DLG and iDLG rows (Figure 3): MLP on 8x8 CIFAR-100-like. ---
    let data8 = DatasetSpec::cifar100_like().at_resolution(8);
    let mlp = MlpSpec::new(&[data8.dim(), 24, data8.classes]);
    let mut rng = DetRng::from_u64(10);
    let mut mlp_params = vec![0.0f32; mlp.param_count()];
    rng.fill_gaussian(&mut mlp_params);
    mlp_params.iter_mut().for_each(|v| *v *= 0.3);
    let label = 13usize;
    let image8: Vec<f32> = data8.generate_class(label, 1, 77).features.data().to_vec();
    write_pnm(&dir.join("ground_truth_8x8.ppm"), &image8, 3, 8, 8).unwrap();
    let g8 = victim_gradient(&mlp, &mlp_params, &image8, &[label]);

    println!("{:<8} {:<16} {:>12}", "attack", "view", "MSE");
    for view in VIEWS {
        let bv = breach_view(&g8, view, 50, &[9u8; 16]);
        let dlg = run_dlg(
            &mlp,
            &mlp_params,
            &bv,
            &DlgConfig {
                iterations: 300,
                seed: 1,
                restarts: 1,
            },
        );
        println!(
            "{:<8} {:<16} {:>12.5}",
            "DLG",
            view.label(),
            mse(&dlg.reconstruction, &image8)
        );
        write_pnm(
            &dir.join(format!("dlg_{}.ppm", view.label().replace('.', "_"))),
            &dlg.reconstruction,
            3,
            8,
            8,
        )
        .unwrap();

        let idlg = run_idlg(
            &mlp,
            &mlp_params,
            &bv,
            &DlgConfig {
                iterations: 300,
                seed: 2,
                restarts: 1,
            },
        );
        println!(
            "{:<8} {:<16} {:>12.5}",
            "iDLG",
            view.label(),
            mse(&idlg.dlg.reconstruction, &image8)
        );
        write_pnm(
            &dir.join(format!("idlg_{}.ppm", view.label().replace('.', "_"))),
            &idlg.dlg.reconstruction,
            3,
            8,
            8,
        )
        .unwrap();
    }

    // --- IG rows (Figure 4): conv model on 16x16 ImageNet-like. ---
    let hw = 16usize;
    let data16 = DatasetSpec::imagenet_like().at_resolution(hw);
    let conv = ConvSpec {
        in_c: 3,
        hw,
        out_c: 4,
        k: 3,
        classes: 10,
    };
    let mut conv_params = vec![0.0f32; conv.param_count()];
    rng.fill_gaussian(&mut conv_params);
    conv_params.iter_mut().for_each(|v| *v *= 0.3);
    let ig_label = 4usize;
    let image16: Vec<f32> = data16
        .generate_class(ig_label, 1, 88)
        .features
        .data()
        .to_vec();
    write_pnm(&dir.join("ground_truth_16x16.ppm"), &image16, 3, hw, hw).unwrap();
    let g16 = victim_gradient(&conv, &conv_params, &image16, &[ig_label]);
    for view in VIEWS {
        let bv = breach_view(&g16, view, 51, &[9u8; 16]);
        let ig = run_ig(
            &conv,
            &conv_params,
            &bv,
            &IgConfig {
                iterations: 600,
                lr: 0.05,
                tv_weight: 1e-4,
                restarts: 2,
                seed: 3,
                image_shape: (3, hw, hw),
                label: ig_label,
            },
        );
        println!(
            "{:<8} {:<16} {:>12.5}  (cos {:.4})",
            "IG",
            view.label(),
            mse(&ig.reconstruction, &image16),
            ig.final_cosine
        );
        write_pnm(
            &dir.join(format!("ig_{}.ppm", view.label().replace('.', "_"))),
            &ig.reconstruction,
            3,
            hw,
            hw,
        )
        .unwrap();
    }
    println!("\nImages written to {}", dir.display());
}
