//! The entire drill catalog must PASS: every mounted attack is rejected
//! with its promised structured error, and the rendered report is the
//! committed `results/SECURITY_DRILLS.md`, byte for byte, which pins the
//! observed rejections across runs. After an intended change,
//! `cargo run --release -p deta-drills --bin security_drills -- --out
//! results/SECURITY_DRILLS.md` refreshes the committed copy.

use deta_drills::DrillReport;
use std::sync::OnceLock;

const COMMITTED: &str = include_str!("../../../results/SECURITY_DRILLS.md");

/// The catalog's reports, run once for every test of this binary.
fn reports() -> &'static [DrillReport] {
    static REPORTS: OnceLock<Vec<DrillReport>> = OnceLock::new();
    REPORTS.get_or_init(deta_drills::run_all)
}

#[test]
fn every_drill_is_rejected() {
    let reports = reports();
    assert!(
        reports.len() >= 10,
        "the catalog must hold at least ten drills, found {}",
        reports.len()
    );
    let failures: Vec<String> = reports
        .iter()
        .filter(|r| !r.pass)
        .map(|r| format!("{}: {}", r.id, r.observed))
        .collect();
    assert!(
        failures.is_empty(),
        "drills found falsified claims:\n{}",
        failures.join("\n")
    );
    // Every PASS row must actually describe a structured rejection or
    // an asserted numeric gate, not an empty string.
    for r in reports {
        assert!(
            !r.observed.is_empty(),
            "drill {} passed without naming its rejection",
            r.id
        );
    }
}

#[test]
fn the_report_is_the_committed_one_byte_for_byte() {
    let rendered = deta_drills::render_markdown(reports());
    for (n, (got, want)) in rendered.lines().zip(COMMITTED.lines()).enumerate() {
        assert_eq!(got, want, "line {} of the drill report moved", n + 1);
    }
    assert_eq!(rendered, COMMITTED, "the drill report's length moved");
}
