//! Regenerates **Table 2**: iDLG reconstruction fidelity (MSE buckets)
//! under model partitioning and parameter shuffling, plus the label
//! inference accuracy that distinguishes iDLG from DLG.
//!
//! ```text
//! cargo run --release -p deta-bench --bin table2_idlg [-- --images 100]
//! ```

use deta_attacks::dlg::DlgConfig;
use deta_attacks::graphnet::MlpSpec;
use deta_attacks::harness::{breach_view, victim_gradient};
use deta_attacks::idlg::run_idlg;
use deta_attacks::metrics::{bucket_percentages, mse, mse_bucket, MSE_BUCKET_LABELS};
use deta_bench::tables::{random_params, VIEWS};
use deta_bench::{print_bucket_table, write_csv, Args};
use deta_datasets::DatasetSpec;

fn main() {
    let args = Args::parse();
    let n_images: usize = args.get("images", 60);
    let iterations: usize = args.get("iterations", 300);

    let data_spec = DatasetSpec::cifar100_like().at_resolution(8);
    let dim = data_spec.dim();
    let classes = data_spec.classes;
    let model = MlpSpec::new(&[dim, 24, classes]);

    let params = random_params(&model, 2);

    let mut columns: Vec<Vec<f64>> = Vec::new();
    let mut label_acc: Vec<f64> = Vec::new();
    let mut rows: Vec<String> = Vec::new();
    eprintln!(
        "table2_idlg: {n_images} images x {} views, {iterations} iters",
        VIEWS.len()
    );
    for view in VIEWS {
        let mut mses = Vec::with_capacity(n_images);
        let mut labels_right = 0usize;
        for img in 0..n_images {
            let label = (img * 11) % classes;
            let sample = data_spec.generate_class(label, 1, img as u64 + 500);
            let image: Vec<f32> = sample.features.data().to_vec();
            let gradient = victim_gradient(&model, &params, &image, &[label]);
            let tid = [(img % 251) as u8; 16];
            let bv = breach_view(&gradient, view, 43, &tid);
            let out = run_idlg(
                &model,
                &params,
                &bv,
                &DlgConfig {
                    iterations,
                    seed: img as u64,
                    // Label inference frees the label dimensions; spend
                    // the saved budget on a restart (matches the paper's
                    // iDLG > DLG fidelity ordering).
                    restarts: 2,
                },
            );
            if out.inferred_label == label {
                labels_right += 1;
            }
            let err = mse(&out.dlg.reconstruction, &image);
            mses.push(err);
            rows.push(format!(
                "{},{},{:.6e},{},{}",
                view.label(),
                img,
                err,
                label,
                out.inferred_label
            ));
        }
        columns.push(bucket_percentages(&mses, mse_bucket, 4));
        label_acc.push(100.0 * labels_right as f64 / n_images as f64);
        eprintln!("  {} done", view.label());
    }

    let col_labels: Vec<String> = VIEWS.iter().map(|v| v.label()).collect();
    print_bucket_table(
        "Table 2: iDLG reconstruction MSE distribution",
        &MSE_BUCKET_LABELS,
        &col_labels,
        &columns,
    );
    print!("{:<12}", "label-acc");
    for acc in &label_acc {
        print!(" {acc:>15.1}%");
    }
    println!();
    println!(
        "\nPaper shape: Full ~83.7% recognizable (higher than DLG thanks to label \
         inference); any partition -> 0%; +shuffle -> ~100% top bucket."
    );
    write_csv(
        "table2_idlg.csv",
        "view,image,mse,true_label,inferred_label",
        &rows,
    );
}
