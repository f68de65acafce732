//! Regenerates **Table 1**: DLG reconstruction fidelity (MSE buckets)
//! under model partitioning and parameter shuffling.
//!
//! Paper setup: randomly initialized LeNet, 1000 CIFAR-100 inputs, 300
//! L-BFGS iterations. This reproduction: a Tanh MLP on 8x8 CIFAR-100-like
//! synthetic images (CPU-scale; see EXPERIMENTS.md), default 60 inputs
//! (`--images N` to change), 300 L-BFGS iterations.
//!
//! ```text
//! cargo run --release -p deta-bench --bin table1_dlg [-- --images 100]
//! ```

use deta_attacks::metrics::{bucket_percentages, mse_bucket, MSE_BUCKET_LABELS};
use deta_bench::tables::{Table1, VIEWS};
use deta_bench::{print_bucket_table, write_csv, Args};

fn main() {
    let args = Args::parse();
    let n_images: usize = args.get("images", 60);
    let iterations: usize = args.get("iterations", Table1::ITERATIONS);
    let table = Table1::new();

    let mut columns: Vec<Vec<f64>> = Vec::new();
    let mut rows: Vec<String> = Vec::new();
    eprintln!(
        "table1_dlg: {n_images} images x {} views, {iterations} iters",
        VIEWS.len()
    );
    for view in VIEWS {
        let mut mses = Vec::with_capacity(n_images);
        for img in 0..n_images {
            let err = table.mse(view, img, iterations);
            mses.push(err);
            rows.push(format!("{},{},{:.6e}", view.label(), img, err));
        }
        columns.push(bucket_percentages(&mses, mse_bucket, 4));
        eprintln!("  {} done", view.label());
    }

    let col_labels: Vec<String> = VIEWS.iter().map(|v| v.label()).collect();
    print_bucket_table(
        "Table 1: DLG reconstruction MSE distribution",
        &MSE_BUCKET_LABELS,
        &col_labels,
        &columns,
    );
    println!(
        "\nPaper shape: Full ~66.6% recognizable (MSE<1e-3); any partition -> 0% \
         recognizable; +shuffle -> ~100% in the top bucket."
    );
    write_csv("table1_dlg.csv", "view,image,mse", &rows);
}
