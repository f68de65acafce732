//! Cluster fault drills over real OS processes:
//!
//! * SIGKILL one aggregator *process* mid-session and assert the
//!   coordinator fails with the supervisor's structured timeout naming
//!   the dead node — not the socket hub's secondary disconnect fallout.
//!   An in-process twin drives the same session with the runtime's own
//!   stall fault and asserts the identical error shape.
//! * Sever a party's and an aggregator's TCP link twice each via the
//!   hub's chaos plan and assert the run's stdout is byte-for-byte that
//!   of the fault-free run — link restarts must be observationally free.
//! * Plan a sever past a party's traffic and assert the run fails,
//!   naming the cut that never fired; plan one for the threaded
//!   deployment, which has no link to cut, and assert it is refused.
//! * SIGKILL a *party* process under `party_drop = true` and assert the
//!   run degrades to partial participation (one structured line, every
//!   round finished) instead of hanging or failing.

use deta_cli::Config;
use deta_runtime::{
    FailoverPolicy, Phase, RuntimeConfig, RuntimeError, StallFault, ThreadedSession,
};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Small fixed-seed session with the supervisor round deadline
/// shortened so a dead node is detected in seconds. The round count is
/// deliberately enormous: the process drills must kill their victim
/// *mid-session*, after Phase II bootstrap but well before the final
/// round, and a fast box chews through a short session before the kill
/// lands. The session never runs to completion — the kill plus the 3s
/// deadline ends it — so the count costs nothing. The in-process twin
/// stalls at round 1 and is equally indifferent to the total.
const CFG: &str = "dataset            = mnist\n\
                   resolution         = 8\n\
                   model              = mlp\n\
                   parties            = 3\n\
                   aggregators        = 2\n\
                   rounds             = 100000\n\
                   algorithm          = avg\n\
                   seed               = 7\n\
                   examples_per_party = 40\n\
                   round_deadline_s   = 3\n";

const VICTIM: &str = "agg-1";

/// One cluster at a time. The process drills are timing assumptions —
/// a kill one second after spawn lands past Phase II, a live node
/// heartbeats within four ticks of the deadline — that hold for one
/// seven-process cluster on a small box and not for five at once, and
/// tier-1 runs this file.
static ONE_CLUSTER: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_cluster() -> std::sync::MutexGuard<'static, ()> {
    ONE_CLUSTER
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Scans `/proc` for the spawned node process whose cmdline carries
/// both this run's unique config path and `--name <node>`.
fn wait_for_node_pid(cfg_path: &str, node: &str, timeout: Duration) -> Option<u32> {
    let name_needle = format!("--name\0{node}\0");
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        let entries = std::fs::read_dir("/proc").ok()?;
        for entry in entries.flatten() {
            let file_name = entry.file_name();
            let Ok(pid) = file_name.to_string_lossy().parse::<u32>() else {
                continue;
            };
            let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
                continue;
            };
            if contains(&cmdline, cfg_path.as_bytes()) && contains(&cmdline, name_needle.as_bytes())
            {
                return Some(pid);
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    None
}

#[test]
fn killed_aggregator_process_yields_structured_timeout() {
    let _serial = one_cluster();
    let dir = std::env::temp_dir().join(format!("deta-cluster-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cfg_path = dir.join("fault.cfg");
    std::fs::write(&cfg_path, CFG).expect("write config");
    let cfg_str = cfg_path.to_str().expect("utf-8 temp path");

    let coordinator = Command::new(env!("CARGO_BIN_EXE_deta-cli"))
        .args(["cluster", cfg_str])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cluster coordinator");
    // Watchdog: a wedged coordinator becomes a loud kill, not a hang.
    arm_watchdog(coordinator.id(), 120);

    let victim_pid = wait_for_node_pid(cfg_str, VICTIM, Duration::from_secs(60))
        .expect("the agg-1 node process never appeared");
    // Let Phase II bootstrap finish so the kill lands mid-round; the
    // session has orders of magnitude more rounds than a second buys.
    std::thread::sleep(Duration::from_millis(1000));
    let killed = Command::new("kill")
        .args(["-9", &victim_pid.to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "SIGKILL of the node process failed");

    let out = coordinator.wait_with_output().expect("reap coordinator");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "coordinator must fail after a node process dies; stderr:\n{stderr}"
    );
    // The supervisor's verdict, not the hub's: the structured timeout
    // names the dead node, and the secondary socket-level disconnect is
    // never what the user sees.
    assert!(
        stderr.contains("timed out"),
        "stderr must carry the supervisor timeout, got:\n{stderr}"
    );
    assert!(
        stderr.contains(VICTIM),
        "stderr must name the killed node, got:\n{stderr}"
    );
    assert!(
        !stderr.contains("disconnected without Bye"),
        "the hub's disconnect fallout must not mask the timeout, got:\n{stderr}"
    );
}

/// The traced twin of the SIGKILL drill: run the same cluster under
/// `deta-cli trace`, kill the same aggregator process, and assert the
/// merged multi-process trace still lands on disk *and* its meta line
/// implicates exactly the killed node — the observability layer must
/// not lose the post-mortem when the run it was recording dies.
#[test]
fn killed_node_is_implicated_in_merged_trace() {
    let _serial = one_cluster();
    let dir = std::env::temp_dir().join(format!("deta-cluster-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cfg_path = dir.join("trace-fault.cfg");
    std::fs::write(&cfg_path, CFG).expect("write config");
    let cfg_str = cfg_path.to_str().expect("utf-8 temp path");

    // `results/traces` is resolved against the coordinator's working
    // directory; point it at the temp dir so the repo stays clean.
    let coordinator = Command::new(env!("CARGO_BIN_EXE_deta-cli"))
        .args(["trace", cfg_str])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn trace coordinator");
    arm_watchdog(coordinator.id(), 120);

    let victim_pid = wait_for_node_pid(cfg_str, VICTIM, Duration::from_secs(60))
        .expect("the agg-1 node process never appeared");
    std::thread::sleep(Duration::from_millis(1000));
    let killed = Command::new("kill")
        .args(["-9", &victim_pid.to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "SIGKILL of the node process failed");

    let out = coordinator.wait_with_output().expect("reap coordinator");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "trace coordinator must still fail after a node dies; stderr:\n{stderr}"
    );

    // The merged trace must have been written before the error
    // surfaced, and its meta line must implicate exactly the victim.
    let traces_dir = dir.join("results").join("traces");
    let merged_path = std::fs::read_dir(&traces_dir)
        .expect("trace dir exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("merged-") && n.ends_with(".jsonl"))
        })
        .expect("a merged-*.jsonl trace must exist after a faulted traced run");
    let parsed =
        deta_obs::parse_jsonl(&std::fs::read_to_string(&merged_path).expect("read merged trace"));
    assert_eq!(
        parsed.implicated,
        vec![VICTIM.to_string()],
        "the merged trace must implicate exactly the killed node"
    );
    assert!(
        !parsed.records.is_empty(),
        "the merged trace must carry the records leading up to the fault"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Arms a detached watchdog that SIGKILLs `pid` after `secs` seconds:
/// a wedged coordinator becomes a loud kill, not a hung test run.
fn arm_watchdog(pid: u32, secs: u64) {
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(secs));
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    });
}

/// A cluster run whose `party-1` TCP link and whose `agg-0` link are
/// each abruptly severed *twice* by the hub's chaos plan produces
/// byte-for-byte the stdout of the undisturbed run. The park/resume
/// machinery must make a double link restart on either side of the
/// star observationally free: same rounds, same losses, same byte
/// counts, exit success (a planned cut that never fired fails the run).
#[test]
fn chaos_severed_run_is_byte_identical_to_fault_free_run() {
    let _serial = one_cluster();
    const SHAPE: &str = "dataset            = mnist\n\
                         resolution         = 8\n\
                         model              = mlp\n\
                         parties            = 3\n\
                         aggregators        = 2\n\
                         algorithm          = avg\n\
                         examples_per_party = 40\n\
                         round_deadline_s   = 30\n";
    let dir = std::env::temp_dir().join(format!("deta-cluster-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let run = |cfg_name: &str, cfg_text: &str| -> String {
        let cfg_path = dir.join(cfg_name);
        std::fs::write(&cfg_path, cfg_text).expect("write config");
        let coordinator = Command::new(env!("CARGO_BIN_EXE_deta-cli"))
            .args(["cluster", cfg_path.to_str().expect("utf-8 temp path")])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn cluster coordinator");
        arm_watchdog(coordinator.id(), 120);
        let out = coordinator.wait_with_output().expect("reap coordinator");
        assert!(
            out.status.success(),
            "cluster run {cfg_name} failed; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // Two plans. In the first, 20 rounds long, party thresholds 4 and 9
    // sit below one round's traffic, so both severs land early and the
    // second interrupts an already-resumed link. The second is a 2-round
    // run cutting party-1 after its 2nd and 5th ingress frames, earlier
    // still. In both, agg-0's 3rd ingress frame is a setup
    // `HelloReply`. Its 16th was read as a round-1 `RoundStart` on the
    // 2-round run at seed 42, so round 1's uploads reach agg-0 as a
    // resumed backlog interleaving the parties on one counter: setup is
    // 7 frames plus the heartbeats of agg-0's idle ticks, which vary with
    // timing (printing agg-0's frames at the hub over six runs read 6 to
    // 8 of them, so the 16th was always one of the three `RoundStart`).
    // The 20-round run has the same cluster shape, but there that
    // landing was not read; every run checks only that each cut fired.
    // A resume so runs in both directions, over buffers that
    // acknowledgements have been pruning.
    for (seed, rounds, plan) in [
        (7, 20, "party-1@4,party-1@9,agg-0@3,agg-0@16"),
        (42, 2, "party-1@2,party-1@5,agg-0@3,agg-0@16"),
    ] {
        let base = format!("{SHAPE}rounds             = {rounds}\nseed               = {seed}\n");
        let fault_free = run("fault-free.cfg", &base);
        let chaos = run("chaos.cfg", &format!("{base}chaos_severs       = {plan}\n"));
        assert!(
            fault_free.contains(&format!("round {rounds} ")),
            "the baseline run must reach its final round"
        );
        assert_eq!(
            chaos, fault_free,
            "a double link sever ({plan}) must leave the run byte-identical"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chaos plan whose cut never happens fails the run: a threshold past
/// the node's traffic must not credit the run with surviving a sever
/// that never came, so the coordinator exits non-zero and says how many
/// cuts are left.
#[test]
fn unfired_chaos_sever_fails_the_run() {
    let _serial = one_cluster();
    const CFG: &str = "dataset            = mnist\n\
                       resolution         = 8\n\
                       model              = mlp\n\
                       parties            = 3\n\
                       aggregators        = 2\n\
                       rounds             = 2\n\
                       algorithm          = avg\n\
                       seed               = 7\n\
                       examples_per_party = 40\n\
                       round_deadline_s   = 30\n\
                       chaos_severs       = party-1@100000\n";
    let dir = std::env::temp_dir().join(format!("deta-cluster-unfired-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cfg_path = dir.join("unfired.cfg");
    std::fs::write(&cfg_path, CFG).expect("write config");
    let coordinator = Command::new(env!("CARGO_BIN_EXE_deta-cli"))
        .args(["cluster", cfg_path.to_str().expect("utf-8 temp path")])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cluster coordinator");
    arm_watchdog(coordinator.id(), 120);
    let out = coordinator.wait_with_output().expect("reap coordinator");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "a run whose planned cut never fired must fail; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("1 chaos sever(s) never fired"),
        "the failure must count the unfired cuts; stderr:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The threaded deployment has no TCP link to cut, so a config that plans
/// cuts is refused there instead of passing without them: the run exits
/// non-zero, runs no round, and says the cuts need the TCP deployment.
#[test]
fn inprocess_cluster_refuses_chaos_severs() {
    const CFG: &str = "dataset            = mnist\n\
                       resolution         = 8\n\
                       model              = mlp\n\
                       parties            = 3\n\
                       aggregators        = 2\n\
                       rounds             = 2\n\
                       seed               = 7\n\
                       examples_per_party = 40\n\
                       chaos_severs       = party-1@2\n";
    let dir = std::env::temp_dir().join(format!("deta-cluster-inproc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cfg_path = dir.join("inprocess.cfg");
    std::fs::write(&cfg_path, CFG).expect("write config");
    let out = Command::new(env!("CARGO_BIN_EXE_deta-cli"))
        .args([
            "cluster",
            cfg_path.to_str().expect("utf-8 temp path"),
            "--inprocess",
        ])
        .output()
        .expect("run the in-process cluster");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "planned cuts on threads must fail the run; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("needs the TCP deployment"),
        "the refusal must say where the cuts can run; stderr:\n{stderr}"
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("round "),
        "no round may run under a refused plan"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `trace` launches its cluster with no chaos plan, so a config that
/// plans cuts is refused there too: the run exits non-zero before any
/// node process starts, and says the cuts need `cluster`.
#[test]
fn trace_refuses_chaos_severs() {
    let _serial = one_cluster();
    const CFG: &str = "dataset            = mnist\n\
                       resolution         = 8\n\
                       model              = mlp\n\
                       parties            = 3\n\
                       aggregators        = 2\n\
                       rounds             = 2\n\
                       seed               = 7\n\
                       examples_per_party = 40\n\
                       chaos_severs       = party-1@2\n";
    let dir = std::env::temp_dir().join(format!("deta-trace-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cfg_path = dir.join("trace.cfg");
    std::fs::write(&cfg_path, CFG).expect("write config");
    let out = Command::new(env!("CARGO_BIN_EXE_deta-cli"))
        .args(["trace", cfg_path.to_str().expect("utf-8 temp path")])
        .current_dir(&dir)
        .output()
        .expect("run the traced cluster");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "planned cuts under `trace` must fail the run; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("needs `cluster`"),
        "the refusal must say where the cuts can run; stderr:\n{stderr}"
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("round "),
        "no round may run under a refused plan"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful degradation: a party process that dies and never comes
/// back (its reconnect budget can never be spent — there is no process
/// left to spend it) must not hang the run or fail it. With
/// `party_drop = true` the coordinator drops the party to partial
/// participation, finishes every round, and reports the drop as one
/// structured line after the round output.
#[test]
fn dead_party_degrades_to_partial_participation() {
    let _serial = one_cluster();
    const CFG: &str = "dataset            = mnist\n\
                       resolution         = 8\n\
                       model              = mlp\n\
                       parties            = 3\n\
                       aggregators        = 2\n\
                       rounds             = 1000\n\
                       algorithm          = avg\n\
                       seed               = 7\n\
                       examples_per_party = 40\n\
                       round_deadline_s   = 2\n\
                       party_drop         = true\n";
    const DEAD: &str = "party-1";
    let dir = std::env::temp_dir().join(format!("deta-cluster-drop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cfg_path = dir.join("drop.cfg");
    std::fs::write(&cfg_path, CFG).expect("write config");
    let cfg_str = cfg_path.to_str().expect("utf-8 temp path");

    let coordinator = Command::new(env!("CARGO_BIN_EXE_deta-cli"))
        .args(["cluster", cfg_str])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cluster coordinator");
    arm_watchdog(coordinator.id(), 120);

    let victim_pid = wait_for_node_pid(cfg_str, DEAD, Duration::from_secs(60))
        .expect("the party-1 node process never appeared");
    // Let Phase II bootstrap finish so the kill lands mid-round; at
    // ~5ms per round the 1000-round session runs for several seconds.
    std::thread::sleep(Duration::from_millis(1500));
    let killed = Command::new("kill")
        .args(["-9", &victim_pid.to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success(), "SIGKILL of the node process failed");

    let out = coordinator.wait_with_output().expect("reap coordinator");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "with party_drop the run must degrade, not fail; stderr:\n{stderr}"
    );
    assert!(
        stdout.contains("round 1000 "),
        "the degraded run must still finish every round, got:\n{stdout}"
    );
    assert!(
        stdout.contains(&format!(
            "partial participation: dropped {DEAD} (link lost past its reconnect budget)"
        )),
        "the drop must surface as one structured line, got:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_aggregator_thread_yields_same_structured_timeout() {
    let _serial = one_cluster();
    let config = Config::parse(CFG).expect("parse config");
    let prepared = config.prepare().expect("prepare session");
    let rt = RuntimeConfig {
        failover: FailoverPolicy::None,
        round_deadline: Duration::from_secs_f64(config.round_deadline_s().expect("deadline")),
        tick: Duration::from_millis(10),
        stalls: vec![StallFault {
            node: VICTIM.to_string(),
            round: 1,
        }],
        ..RuntimeConfig::default()
    };
    let mut session = ThreadedSession::setup(
        prepared.session,
        prepared.builder.as_ref(),
        prepared.shards,
        rt,
    )
    .expect("setup completes before the stall triggers");
    let err = session
        .run(&prepared.test)
        .expect_err("a dark aggregator cannot converge without failover");
    match &err {
        RuntimeError::Timeout {
            phase,
            round,
            missing,
            stalled,
            ..
        } => {
            assert_eq!(*phase, Phase::Round);
            assert_eq!(*round, 1);
            assert!(
                missing.iter().any(|n| n == VICTIM),
                "missing must name the dark aggregator, got {missing:?}"
            );
            assert!(
                stalled.iter().any(|n| n == VICTIM),
                "stalled must name the dark aggregator, got {stalled:?}"
            );
        }
        other => panic!("expected a structured timeout, got: {other}"),
    }
    assert!(session.is_shut_down(), "threads leaked after the timeout");
}
