//! End-to-end multi-process runs over TCP loopback, one real OS process
//! per node:
//!
//! * parity: `deta-cli cluster` prints byte for byte what the same
//!   config prints in-process (`--inprocess`). The round lines print
//!   floats in Rust's shortest round-trip formatting, so identical lines
//!   mean bit-identical metrics;
//! * tracing: `deta-cli trace` harvests every node's flight recorder
//!   into one merged, clock-aligned timeline that a fault-free run
//!   leaves lossless: no `net_drop`, and a causal edge for every
//!   `net_send`.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Generous wall-clock bound per run (debug builds, loaded CI hosts).
const RUN_DEADLINE: Duration = Duration::from_secs(180);

/// One cluster at a time: each run is a handful of processes, and the
/// timing of one run must not be another's load.
static ONE_CLUSTER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_cluster() -> std::sync::MutexGuard<'static, ()> {
    ONE_CLUSTER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_config() -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "deta-multiproc-{}-{}.cfg",
        std::process::id(),
        std::thread::current()
            .name()
            .unwrap_or("t")
            .replace('/', "-")
    ));
    std::fs::write(
        &path,
        "dataset            = mnist\n\
         resolution         = 8\n\
         model              = mlp\n\
         parties            = 3\n\
         aggregators        = 2\n\
         rounds             = 2\n\
         algorithm          = avg\n\
         seed               = 42\n\
         examples_per_party = 40\n",
    )
    .expect("write config");
    path
}

/// Runs the CLI (in `dir`, when given) with a hard deadline, killing
/// the whole run on expiry.
fn run_cli_in(dir: Option<&std::path::Path>, args: &[&str]) -> String {
    let mut cli = Command::new(env!("CARGO_BIN_EXE_deta-cli"));
    if let Some(dir) = dir {
        cli.current_dir(dir);
    }
    let mut child = cli
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn deta-cli");
    let deadline = Instant::now() + RUN_DEADLINE;
    let status = loop {
        match child.try_wait().expect("poll child") {
            Some(status) => break status,
            None if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(100));
            }
            None => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("deta-cli {args:?} exceeded the {RUN_DEADLINE:?} deadline");
            }
        }
    };
    let mut out = String::new();
    let mut err = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        let _ = stdout.read_to_string(&mut out);
    }
    if let Some(mut stderr) = child.stderr.take() {
        let _ = stderr.read_to_string(&mut err);
    }
    assert!(
        status.success(),
        "deta-cli {args:?} failed ({status}):\nstdout:\n{out}\nstderr:\n{err}"
    );
    out
}

/// Runs the CLI with a hard deadline, killing the whole run on expiry.
fn run_cli(args: &[&str]) -> String {
    run_cli_in(None, args)
}

fn round_lines(output: &str) -> Vec<&str> {
    output.lines().filter(|l| l.starts_with("round ")).collect()
}

#[test]
fn cluster_processes_match_inprocess_bit_for_bit() {
    let _serial = one_cluster();
    let cfg = write_config();
    let cfg_str = cfg.to_str().expect("utf-8 temp path");
    let local = run_cli(&["cluster", cfg_str, "--inprocess"]);
    let remote = run_cli(&["cluster", cfg_str]);
    let _ = std::fs::remove_file(&cfg);

    let local_rounds = round_lines(&local);
    let remote_rounds = round_lines(&remote);
    assert_eq!(
        local_rounds.len(),
        2,
        "expected one line per round, got:\n{local}"
    );
    assert_eq!(
        local_rounds, remote_rounds,
        "multi-process round metrics must be byte-identical to in-process"
    );
    assert_eq!(local, remote, "the whole output must be byte-identical");
}

/// The traced twin of the parity run at the paper's 4-party, k = 2
/// shape: one traced process per node, every flight-recorder ring
/// harvested over the socket and clock-aligned into a non-empty merged
/// JSONL and Perfetto trace, and the per-round critical-path report.
/// The run is fault-free and a bridged name is a forwarded endpoint at
/// both ends of its link, so the merged trace holds no `net_drop` (a
/// drop means a loss). The trace ids ride beside the payload (a `Trace`
/// frame ahead of each traced `Data` over TCP), so a hop that dropped
/// them would show as fewer causal edges than `net_send` records.
#[test]
fn a_traced_cluster_merges_a_lossless_timeline() {
    let _serial = one_cluster();
    let dir = std::env::temp_dir().join(format!("deta-multiproc-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cfg = dir.join("trace.cfg");
    std::fs::write(
        &cfg,
        "dataset            = mnist\n\
         resolution         = 8\n\
         model              = mlp\n\
         parties            = 4\n\
         aggregators        = 2\n\
         rounds             = 3\n\
         algorithm          = avg\n\
         seed               = 42\n\
         examples_per_party = 40\n",
    )
    .expect("write config");
    // `results/traces` is resolved against the working directory.
    let out = run_cli_in(
        Some(&dir),
        &["trace", cfg.to_str().expect("utf-8 temp path")],
    );
    assert!(
        out.lines().any(|l| l.starts_with("round 1 ")) && out.contains("critical path"),
        "the output must carry the rounds and the critical-path report:\n{out}"
    );
    let merged = |suffix: &str| -> std::path::PathBuf {
        let traces = std::fs::read_dir(dir.join("results").join("traces")).expect("trace dir");
        (traces.filter_map(Result::ok).map(|e| e.path()))
            .find(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("merged-") && n.ends_with(suffix))
            })
            .unwrap_or_else(|| panic!("no merged-*{suffix} under results/traces"))
    };
    let jsonl = std::fs::read_to_string(merged(".jsonl")).expect("read merged trace");
    let perfetto = std::fs::metadata(merged(".perfetto.json")).expect("perfetto trace");
    assert!(!jsonl.is_empty(), "the merged JSONL is empty");
    assert!(perfetto.len() > 0, "the merged Perfetto trace is empty");
    let drops = jsonl.matches("\"net_drop\"").count();
    assert_eq!(
        drops, 0,
        "a fault-free trace recorded {drops} net_drop event(s)"
    );
    let sends = jsonl.matches("\"name\":\"net_send\"").count();
    let edges: usize = (out.lines())
        .find_map(|l| l.split("causal edges ").nth(1))
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no causal-edge count in the output:\n{out}"));
    assert!(
        edges >= sends,
        "the merged trace holds {edges} causal edges for {sends} net_send records"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
