//! `deta-cli attack N` reports the first N images of the committed
//! Table 1: for each of its three views, the success count and the
//! median MSE that `results/table1_dlg.csv`'s first N rows of that view
//! give, the median within the CSV's seven significant digits.

use deta_attacks::metrics::mse_bucket;
use std::process::Command;

const TABLE1: &str = include_str!("../../../results/table1_dlg.csv");
const IMAGES: usize = 2;

/// The committed MSEs of `view`'s first `IMAGES` rows.
fn committed(view: &str) -> Vec<f64> {
    (0..IMAGES)
        .map(|img| {
            let key = format!("{view},{img},");
            let row = TABLE1
                .lines()
                .find(|l| l.starts_with(&key))
                .unwrap_or_else(|| panic!("no committed row {key}"));
            row[key.len()..].parse().expect("a number")
        })
        .collect()
}

#[test]
fn attack_prints_the_committed_table1_rows() {
    let out = Command::new(env!("CARGO_BIN_EXE_deta-cli"))
        .args(["attack", &IMAGES.to_string()])
        .output()
        .expect("spawn deta-cli");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for view in ["full", "part-0.6", "part-0.6+shuf"] {
        let line = stdout
            .lines()
            .find(|l| l.split_whitespace().next() == Some(view))
            .unwrap_or_else(|| panic!("no line for {view}:\n{stdout}"));
        let fields: Vec<&str> = line.split_whitespace().collect();
        let rows = committed(view);
        let success = rows.iter().filter(|&&m| mse_bucket(m) == 0).count();
        assert_eq!(fields[1], format!("{success}/{IMAGES}"), "{line}");
        let want = (rows[0] + rows[1]) / 2.0;
        let got: f64 = fields[2].parse().expect("a median");
        assert!(
            (got - want).abs() <= 2e-6 * want.abs(),
            "{view}: median {got:e}, committed rows give {want:e}"
        );
    }
}
