//! `deta-cli` — run DeTA federated-learning sessions and attack
//! evaluations from the command line.
//!
//! ```text
//! deta-cli run <config>            run a DeTA session (and FFL baseline)
//! deta-cli cluster <config>        multi-process run: one OS process per node
//! deta-cli trace <config>          traced multi-process run + merged analysis
//! deta-cli attack [N]              Table 1's DLG rows across three views
//! deta-cli help                    this message
//! ```

use deta_attacks::harness::AttackView;
use deta_attacks::metrics::mse_bucket;
use deta_cli::bench::tables::Table1;
use deta_cli::bench::{median, overhead, print_series, Args};
use deta_cli::{Config, Prepared};
use deta_core::baseline::run_ffl;
use deta_core::session::RoundMetrics;
use deta_core::DetaSession;
use deta_runtime::{FailoverPolicy, RuntimeConfig, RuntimeError, ThreadedSession};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const HELP: &str = "deta-cli — DeTA federated learning driver

USAGE:
    deta-cli run <config-file>     run a configured session, then the FFL baseline
    deta-cli cluster <config-file> run the threaded deployment with each node as
                                   its own OS process over TCP loopback
                                   (--inprocess runs the same deployment on
                                   threads instead, for output comparison;
                                   it refuses a config with chaos_severs)
    deta-cli trace <config-file>   cluster run with distributed tracing on:
                                   merges every process's flight recorder onto
                                   one clock-aligned timeline, writes JSONL +
                                   Perfetto files under results/traces/, and
                                   prints per-round critical paths
                                   (--perfetto <file> overrides the export path;
                                   it refuses a config with chaos_severs)
    deta-cli attack [N]            Table 1's DLG rows for its first N images (default 5)
                                   under no DeTA, partitioning, and partitioning
                                   with the keyed shuffle
    deta-cli help                  show this message

CONFIG KEYS (key = value; # comments):
    dataset      mnist|cifar10|cifar100|rvlcdip|imagenet   (default mnist)
    resolution   image side in pixels                      (default 12)
    model        mlp|convnet8|convnet23|vgg_lite|resnet_lite (default mlp)
    hidden       mlp hidden width                          (default 32)
    parties, aggregators, rounds, local_epochs, batch_size, lr, seed
    algorithm    avg|sum|median|krum|flame|trimmed         (default avg)
    mode         fedavg|fedsgd                             (default fedavg)
    partition, shuffle, cc_protected                       (default true)
    paillier     true enables encrypted fusion (paillier_bits, default 384)
    ldp_epsilon, ldp_delta, ldp_clip                       enable local DP
    participation  per-round quorum (partial participation)
    noniid       true uses the 90-10 skew split
    examples_per_party                                     (default 200)
    link         lan|wan                                   (default lan)
    round_deadline_s  cluster round deadline in seconds    (default 60)
    party_drop   true lets cluster runs drop a party whose link died
                 (partial participation) instead of failing the run
    chaos_severs cluster link chaos: `node@count,...` — sever the node's
                 TCP connection after `count` total frames (no Bye);
                 the run fails if a planned cut never happens; only
                 `cluster` without --inprocess runs it
";

/// Runs a config-file command, `args` being `[command, config, ..]`: what
/// follows the config must be among the command's `flags` (`--name
/// value`) and `switches` (`--name`). Any error exits with status 1.
fn with_config(
    args: &[String],
    flags: &[&str],
    switches: &[&str],
    cmd: impl FnOnce(&str, Args) -> Result<(), Box<dyn std::error::Error>>,
) -> ExitCode {
    let Some(path) = args.get(1).filter(|p| !p.starts_with("--")) else {
        eprintln!("error: `{}` needs a config file\n\n{HELP}", args[0]);
        return ExitCode::FAILURE;
    };
    let run = Args::from_args(args[2..].iter().cloned(), flags, switches)
        .map_err(Into::into)
        .and_then(|flags| cmd(path, flags));
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => with_config(&args, &[], &[], |path, _| cmd_run(path)),
        Some("cluster") => with_config(&args, &[], &["inprocess"], |path, flags| {
            cmd_cluster(path, flags.switch("inprocess"))
        }),
        Some("trace") => with_config(&args, &["perfetto"], &[], |path, flags| {
            cmd_trace(path, flags.value("perfetto"))
        }),
        // Internal: one hosted node of a `cluster` run. Spawned by the
        // coordinator, not meant for direct use.
        Some("node") => with_config(&args, &["name", "addr"], &["trace"], cmd_node),
        Some("attack") => {
            if let Some(extra) = args.get(2) {
                eprintln!("error: unexpected argument {extra:?}\n\n{HELP}");
                return ExitCode::FAILURE;
            }
            let n = match args.get(1).map(|v| (v, v.parse::<usize>())) {
                None => 5,
                Some((_, Ok(n))) if n > 0 => n,
                Some((v, _)) => {
                    eprintln!("error: `attack` needs a positive image count, got {v:?}\n\n{HELP}");
                    return ExitCode::FAILURE;
                }
            };
            cmd_attack(n);
            ExitCode::SUCCESS
        }
        Some("help") | None => {
            println!("{HELP}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n\n{HELP}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    let config = Config::parse(&text)?;
    let spec = config.dataset()?;
    let Prepared {
        session: session_cfg,
        builder,
        shards,
        test,
    } = config.prepare()?;

    println!(
        "dataset {} at {}x{}, {} parties x {} examples, model {}",
        spec.name,
        spec.height,
        spec.width,
        session_cfg.n_parties,
        config.examples_per_party()?,
        config.get("model").unwrap_or("mlp"),
    );
    println!(
        "\n== DeTA: {} aggregators, partition={} shuffle={} algorithm={} ==",
        session_cfg.n_aggregators,
        session_cfg.transform.partition,
        session_cfg.transform.shuffle,
        session_cfg.algorithm.name(),
    );
    let mut session = DetaSession::setup(session_cfg.clone(), builder.as_ref(), shards.clone())?;
    let deta = session.run(&test);
    print_series("", 0, &deta);

    println!("\n== FFL baseline ==");
    let ffl = run_ffl(session_cfg, builder.as_ref(), shards, &test)?;
    print_series("", 0, &ffl);
    let d = deta.last().map(|m| m.cumulative_latency_s).unwrap_or(0.0);
    let f = ffl.last().map(|m| m.cumulative_latency_s).unwrap_or(0.0);
    if f > 0.0 {
        println!("\nDeTA/FFL latency overhead: {:+.2}x", overhead(d, f));
    }
    Ok(())
}

/// Prints one line per round with every metric in Rust's shortest
/// round-trip float formatting, so two runs printing identical lines
/// have bit-identical metrics.
fn print_rounds(metrics: &[RoundMetrics]) {
    for m in metrics {
        println!(
            "round {} train_loss={} test_loss={} test_acc={} up={} down={}",
            m.round, m.train_loss, m.test_loss, m.test_accuracy, m.upload_bytes, m.download_bytes
        );
    }
}

fn cluster_runtime(config: &Config) -> Result<RuntimeConfig, deta_cli::ConfigError> {
    Ok(RuntimeConfig {
        // Respawning an OS process is outside the supervisor's reach,
        // so a cluster run never heals — it fails structurally instead.
        // Losing a *party* can still degrade to partial participation
        // when the config opts in.
        failover: FailoverPolicy::None,
        round_deadline: Duration::from_secs_f64(config.round_deadline_s()?),
        party_drop: config.party_drop()?,
        ..RuntimeConfig::default()
    })
}

/// The structured partial-participation notice: one line per dropped
/// party, after the round lines (which stay byte-identical to a
/// full-participation run up to the drop round).
fn print_dropped(session: &ThreadedSession) {
    let mut dropped: Vec<&String> = session.view().dropped_parties.iter().collect();
    dropped.sort();
    for party in dropped {
        println!("partial participation: dropped {party} (link lost past its reconnect budget)");
    }
}

/// A launched cluster: one `deta-cli node` child process per seat.
type Cluster = deta_socket::Launched<std::process::Child>;

/// Launches `prepared` behind the socket hub with one `deta-cli node`
/// child process per seat (`--trace` added for traced runs); returns the
/// test set next to the deployment.
fn launch_processes(
    path: &str,
    prepared: Prepared,
    rt: RuntimeConfig,
    chaos: std::collections::HashMap<String, Vec<u64>>,
    trace: bool,
) -> Result<(Cluster, deta_nn::train::LabeledData), Box<dyn std::error::Error>> {
    let exe = std::env::current_exe()?;
    let host = |name: &str, addr: std::net::SocketAddr| {
        std::process::Command::new(&exe)
            .args(["node", path, "--name", name, "--addr", &addr.to_string()])
            .args(trace.then_some("--trace"))
            .spawn()
            .map_err(RuntimeError::Spawn)
    };
    let cluster = deta_socket::launch(
        prepared.session,
        prepared.builder.as_ref(),
        prepared.shards,
        rt,
        chaos,
        host,
    )?;
    Ok((cluster, prepared.test))
}

fn cmd_cluster(path: &str, inprocess: bool) -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    let config = Config::parse(&text)?;
    let prepared = config.prepare()?;
    let rt = cluster_runtime(&config)?;
    let chaos = config.chaos_severs()?;
    if inprocess {
        // Threads share no TCP link to cut: a plan of cuts would pass
        // without one.
        if !chaos.is_empty() {
            return Err("chaos_severs cuts TCP links and needs the TCP deployment: \
                        run `cluster` without --inprocess"
                .into());
        }
        let mut session = ThreadedSession::setup(
            prepared.session,
            prepared.builder.as_ref(),
            prepared.shards,
            rt,
        )?;
        let metrics = session.run(&prepared.test)?;
        print_rounds(&metrics);
        print_dropped(&session);
        return Ok(());
    }
    let (mut cluster, test) = launch_processes(path, prepared, rt, chaos, false)?;
    let outcome = cluster.session.run(&test);
    reap_children(&mut cluster.hosts);
    let unfired = cluster.hub.pending_severs();
    // Join the hub either way, but let the session outcome win: a dead
    // node process must surface as the supervisor's structured
    // RuntimeError (a timeout naming the node), never as the hub's
    // secondary disconnect fallout.
    let hub_err = cluster.hub.join();
    let metrics = outcome?;
    if let Some(e) = hub_err {
        return Err(Box::new(e));
    }
    // A run cannot be credited with surviving cuts that never happened:
    // a threshold past the node's traffic would pass silently.
    if unfired > 0 {
        return Err(format!("{unfired} chaos sever(s) never fired").into());
    }
    print_rounds(&metrics);
    print_dropped(&cluster.session);
    Ok(())
}

/// Reaps child node processes with a bound so a wedged node cannot hang
/// the coordinator; the session is already over when this runs.
fn reap_children(children: &mut [std::process::Child]) {
    let deadline = Instant::now() + Duration::from_secs(60);
    for child in children {
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
    }
}

/// A `cluster` run with distributed tracing enabled end to end: every
/// process records spans/events, trace context rides each message, and
/// afterwards the coordinator merges all flight recorders onto one
/// clock-aligned timeline, writes JSONL + Perfetto exports under
/// `results/traces/`, and prints per-round critical paths. On a
/// `RuntimeError` the merged trace is still written — a fault trace
/// that dies with the fault would be useless — before the error is
/// surfaced.
fn cmd_trace(path: &str, perfetto: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    let config = Config::parse(&text)?;
    // A traced run launches with no chaos plan: a plan of cuts would
    // pass without one.
    if !config.chaos_severs()?.is_empty() {
        return Err("chaos_severs cuts TCP links and needs `cluster`: \
                    `trace` runs no chaos plan"
            .into());
    }
    deta_obs::enable();
    let prepared = config.prepare()?;
    let mut rt = cluster_runtime(&config)?;
    rt.telemetry.enabled = true;
    // The supervisor's ring must hold a whole session (per-round begin
    // markers plus every control-plane edge), not just a post-mortem
    // window.
    rt.telemetry.ring_capacity = 1 << 16;
    let trace_dir = rt.telemetry.trace_dir.clone();
    let (mut cluster, test) = launch_processes(path, prepared, rt, Default::default(), true)?;
    let mut session = cluster.session;
    let outcome = session.run(&test);
    reap_children(&mut cluster.hosts);
    let (hub_err, harvest) = cluster.hub.join_harvest();

    // Coordinator rings: on a fault the supervisor already dumped them
    // (with the implicated nodes in the meta line); otherwise a dump now.
    let coord = session
        .trace()
        .ok_or("coordinator flight-recorder dump failed")?;
    let mut overflow = coord.overflow;
    let mut skipped = coord.skipped;
    let mut procs = vec![deta_obs::ProcessTrace {
        label: "coordinator".to_string(),
        offset_ns: 0,
        records: coord.records,
    }];
    let mut shipped: Vec<(String, deta_obs::ParsedTrace)> = harvest.traces.into_iter().collect();
    shipped.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, trace) in shipped {
        skipped += trace.skipped;
        overflow.extend(trace.overflow.into_iter().filter(|&(_, n)| n > 0));
        procs.push(deta_obs::ProcessTrace {
            offset_ns: harvest.offsets.get(&name).copied().unwrap_or(0),
            label: name,
            records: trace.records,
        });
    }

    let nprocs = procs.len();
    let merged = deta_obs::merge(procs);
    std::fs::create_dir_all(&trace_dir)?;
    let stem = deta_obs::unique_stem("merged");
    let merged_path = trace_dir.join(format!("{stem}.jsonl"));
    std::fs::write(&merged_path, merged.to_jsonl(&coord.implicated, &overflow))?;
    let perfetto_path = perfetto
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| trace_dir.join(format!("{stem}.perfetto.json")));
    std::fs::write(&perfetto_path, deta_obs::chrome_trace(&merged))?;

    println!("== merged multi-process trace ==");
    println!(
        "processes {nprocs}  records {}  causal edges {}  unparsed lines {skipped}",
        merged.records.len(),
        merged.edges.len(),
    );
    for (label, residual) in &merged.shifts {
        if *residual != 0 {
            println!(
                "clock shift {label}: +{} beyond handshake estimate",
                deta_obs::fmt_ns(*residual as u64)
            );
        }
    }
    if !coord.implicated.is_empty() {
        println!("implicated: {}", coord.implicated.join(", "));
    }
    println!("merged jsonl: {}", merged_path.display());
    println!("perfetto:     {}", perfetto_path.display());

    println!("\n== per-round critical path (multi-process) ==");
    print_round_reports(&deta_obs::round_reports(&merged));

    let metrics = match outcome {
        Ok(metrics) => metrics,
        Err(e) => return Err(Box::new(e)),
    };
    if let Some(e) = hub_err {
        return Err(Box::new(e));
    }
    print_rounds(&metrics);

    // Side-by-side phase volumes: the same config run sequentially and
    // threaded, both in this process, so the two deployments' phase
    // costs can be compared on one workload.
    let seq: Vec<deta_obs::ObsRecord> = {
        let prepared = config.prepare()?;
        let rec = deta_obs::FlightRecorder::new("sequential", 1 << 16);
        let _guard = deta_obs::attach(std::sync::Arc::clone(&rec));
        let mut s =
            DetaSession::setup(prepared.session, prepared.builder.as_ref(), prepared.shards)?;
        let _ = s.run(&prepared.test);
        drop(_guard);
        let (records, _) = rec.drain();
        records.iter().map(|r| r.to_obs("sequential")).collect()
    };
    let thr = {
        let prepared = config.prepare()?;
        let mut rt = cluster_runtime(&config)?;
        rt.telemetry.enabled = true;
        rt.telemetry.ring_capacity = 1 << 16;
        let mut s = ThreadedSession::setup(
            prepared.session,
            prepared.builder.as_ref(),
            prepared.shards,
            rt,
        )?;
        let run = s.run(&prepared.test);
        let trace = s.trace().ok_or("threaded flight-recorder dump failed")?;
        run?;
        trace.records
    };
    println!("\n== phase volume: sequential vs threaded (in-process) ==");
    let seq_phases = deta_obs::phase_totals(&seq);
    let thr_phases = deta_obs::phase_totals(&thr);
    println!("{:<22} {:>12} {:>12}", "phase", "sequential", "threaded");
    let mut names: Vec<&str> = seq_phases
        .iter()
        .chain(&thr_phases)
        .map(|(n, _)| *n)
        .collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let s = seq_phases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v);
        let t = thr_phases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v);
        println!(
            "{:<22} {:>12} {:>12}",
            name,
            deta_obs::fmt_ns(s),
            deta_obs::fmt_ns(t)
        );
    }
    Ok(())
}

/// Prints the per-round critical-path table: wall time, the fraction
/// attributed to named work, and each bucket's share.
fn print_round_reports(reports: &[deta_obs::RoundReport]) {
    for r in reports {
        println!(
            "round {:3}  wall {:>10}  hops {:3}  attributed {:5.1}%",
            r.round,
            deta_obs::fmt_ns(r.wall_ns),
            r.hops,
            r.attributed_fraction() * 100.0
        );
        for (label, ns) in &r.critical {
            let pct = if r.wall_ns > 0 {
                *ns as f64 * 100.0 / r.wall_ns as f64
            } else {
                0.0
            };
            println!(
                "    {:<28} {:>10}  {:5.1}%",
                label,
                deta_obs::fmt_ns(*ns),
                pct
            );
        }
        if !r.phases.is_empty() {
            let volumes: Vec<String> = r
                .phases
                .iter()
                .map(|(p, ns)| format!("{p} {}", deta_obs::fmt_ns(*ns)))
                .collect();
            println!("    span volume: {}", volumes.join(", "));
        }
    }
}

fn cmd_node(path: &str, flags: Args) -> Result<(), Box<dyn std::error::Error>> {
    let (Some(name), Some(addr)) = (flags.value("name"), flags.value("addr")) else {
        return Err("node needs <config> --name <node> --addr <host:port>".into());
    };
    // Passed by `trace` coordinators: record spans/events and ship the
    // ring back over the link at teardown.
    if flags.switch("trace") {
        deta_obs::enable();
    }
    let text = std::fs::read_to_string(path)?;
    let config = Config::parse(&text)?;
    let prepared = config.prepare()?;
    deta_socket::run_node(
        addr.parse()?,
        name,
        prepared.session,
        prepared.builder.as_ref(),
        prepared.shards,
        Duration::from_millis(20),
    )?;
    Ok(())
}

/// Table 1's rows for its first `n_images` images under three of its
/// views: how many reconstruct (MSE in the lowest bucket) and the median
/// MSE.
fn cmd_attack(n_images: usize) {
    let table = Table1::new();
    let views = [
        AttackView::Full,
        AttackView::Partition { factor: 0.6 },
        AttackView::PartitionShuffle { factor: 0.6 },
    ];
    println!("{:<16} {:>10} {:>14}", "view", "success", "median MSE");
    for view in views {
        let mses: Vec<f64> = (0..n_images)
            .map(|img| table.mse(view, img, Table1::ITERATIONS))
            .collect();
        let success = mses.iter().filter(|&&m| mse_bucket(m) == 0).count();
        println!(
            "{:<16} {:>7}/{:<2} {:>14.6e}",
            view.label(),
            success,
            n_images,
            median(&mses)
        );
    }
}
