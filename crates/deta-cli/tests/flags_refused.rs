//! The evaluation binaries and `deta-cli cluster` refuse a flag they do
//! not read: a misspelt flag, a flag with no value and a zero count exit
//! with status 1, name the flag, and write nothing under `results/`.

use std::path::Path;
use std::process::{Command, Output};

/// Runs `exe` with `args` from an empty working directory and checks the
/// refusal: status 1, `named` in stderr, nothing on stdout, no `results/`.
fn assert_refused(exe: &str, args: &[&str], named: &str) {
    let dir = std::env::temp_dir().join(format!(
        "deta-flags-{}-{}",
        std::process::id(),
        args.join("_").replace(['/', '-', '.'], "")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out: Output = Command::new(exe)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains(named),
        "{args:?}: the refusal names {named}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran: {out:?}");
    assert!(
        !dir.join("results").exists(),
        "{args:?} wrote under results/"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_table_binary_refuses_flags_it_does_not_read() {
    let exe = env!("CARGO_BIN_EXE_table1_dlg");
    assert_refused(exe, &["--image", "100"], "\"--image\"");
    assert_refused(exe, &["--images"], "\"--images\"");
    assert_refused(exe, &["--images", "--iterations", "3"], "\"--images\"");
    assert_refused(exe, &["--images", "0"], "\"--images\"");
    assert_refused(exe, &["--iterations", "many"], "\"--iterations\"");
    assert_refused(exe, &["images", "3"], "\"images\"");
}

#[test]
fn a_figure_binary_refuses_zero_rounds() {
    assert_refused(
        env!("CARGO_BIN_EXE_fig5_mnist"),
        &["--rounds", "0"],
        "\"--rounds\"",
    );
}

#[test]
fn cluster_refuses_a_misspelt_switch() {
    let cfg = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../configs/mnist_deta.cfg");
    let cfg = cfg.to_str().expect("utf-8 path");
    let exe = env!("CARGO_BIN_EXE_deta-cli");
    assert_refused(exe, &["cluster", cfg, "--inprocesss"], "\"--inprocesss\"");
    assert_refused(exe, &["trace", cfg, "--perfetto"], "\"--perfetto\"");
}
