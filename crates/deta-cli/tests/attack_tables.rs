//! Ties the committed attack tables to the code: rows of
//! `results/table1_dlg.csv` and `results/table3_ig.csv` are recomputed at
//! their table's seeds and iterations, and each must land in the bucket
//! of its committed row. An attack, tape or optimizer change that moves a
//! table fails here until the binaries are re-run and the CSVs replaced
//! (`cargo run --release -p deta-cli --bin table1_dlg`, `--bin table3_ig`).

use deta_attacks::harness::AttackView;
use deta_attacks::metrics::{cosine_bucket, mse_bucket};
use deta_cli::bench::tables::{Table1, Table3, VIEWS};

const TABLE1: &str = include_str!("../../../results/table1_dlg.csv");
const TABLE3: &str = include_str!("../../../results/table3_ig.csv");

/// The committed value of `view`'s row for image `img`.
fn committed(csv: &str, view: AttackView, img: usize) -> f64 {
    let key = format!("{},{img},", view.label());
    let row = csv
        .lines()
        .find(|l| l.starts_with(&key))
        .unwrap_or_else(|| panic!("no committed row {key}"));
    row[key.len()..].parse().expect("a number")
}

#[test]
fn table1_first_four_images_land_in_their_committed_buckets() {
    let table = Table1::new();
    for view in VIEWS {
        for img in 0..4 {
            let got = table.mse(view, img, Table1::ITERATIONS);
            let want = committed(TABLE1, view, img);
            assert_eq!(
                mse_bucket(got),
                mse_bucket(want),
                "{} image {img}: MSE {got:e}, committed {want:e}",
                view.label()
            );
        }
    }
}

#[test]
fn table3_first_image_lands_in_its_committed_buckets() {
    let table = Table3::new();
    for view in [
        AttackView::Full,
        AttackView::PartitionShuffle { factor: 1.0 },
    ] {
        let got = table.cosine(view, 0, Table3::ITERATIONS, Table3::RESTARTS);
        let want = committed(TABLE3, view, 0);
        assert_eq!(
            cosine_bucket(got),
            cosine_bucket(want),
            "{}: cosine {got}, committed {want}",
            view.label()
        );
    }
}
