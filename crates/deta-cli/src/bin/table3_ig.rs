//! Regenerates **Table 3**: Inverting-Gradients final cosine distance
//! under model partitioning and parameter shuffling.
//!
//! Paper setup: randomly initialized ResNet-18, 50 ImageNet inputs,
//! 24,000 iterations with two restarts. This reproduction: a small
//! strided Tanh conv classifier on 16x16 ImageNet-like synthetic images,
//! default 30 inputs and 600 signed-Adam iterations with two restarts
//! (`--images`, `--iterations` to change).
//!
//! ```text
//! cargo run --release -p deta-cli --bin table3_ig
//! ```

use deta_attacks::metrics::{bucket_percentages, cosine_bucket, COSINE_BUCKET_LABELS};
use deta_cli::bench::tables::{Table3, VIEWS};
use deta_cli::bench::{print_bucket_table, write_csv, Args};

fn main() {
    let args = Args::parse(&["images", "iterations", "restarts"]);
    let n_images = args.count("images", 30);
    let iterations = args.count("iterations", Table3::ITERATIONS);
    let restarts = args.count("restarts", Table3::RESTARTS);
    let table = Table3::new();

    let mut columns: Vec<Vec<f64>> = Vec::new();
    let mut rows: Vec<String> = Vec::new();
    eprintln!(
        "table3_ig: {n_images} images x {} views, {iterations} iters x {restarts} restarts",
        VIEWS.len()
    );
    for view in VIEWS {
        let mut cosines = Vec::with_capacity(n_images);
        for img in 0..n_images {
            let cos = table.cosine(view, img, iterations, restarts);
            cosines.push(cos);
            rows.push(format!("{},{},{:.6}", view.label(), img, cos));
        }
        columns.push(bucket_percentages(&cosines, cosine_bucket, 6));
        eprintln!("  {} done", view.label());
    }

    let col_labels: Vec<String> = VIEWS.iter().map(|v| v.label()).collect();
    print_bucket_table(
        "Table 3: IG final cosine distance distribution",
        &COSINE_BUCKET_LABELS,
        &col_labels,
        &columns,
    );
    println!(
        "\nPaper shape: Full -> 100% in [0,0.01) (converged); 0.6 partition -> \
         [0.2,0.4); 0.2 -> [0.4,0.6); +shuffle -> 100% in [0.8,1]."
    );
    write_csv("table3_ig.csv", "view,image,cosine_distance", &rows);
}
