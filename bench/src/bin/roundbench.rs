//! `roundbench`: the end-to-end metrics of one workload (tracing and
//! the counting allocator off), `all` workloads, or `repeat`ed sets.

use deta_obs::Json;
use deta_roundbench::cli::{self, Cli};
use deta_roundbench::repeat::{detail_path, run_all, run_repeat};
use deta_roundbench::report::{end_to_end, rounds_json};
use deta_roundbench::run::run_workload;
use deta_roundbench::workload::{Workload, WARMUP_ROUNDS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("roundbench: {e}\n{}", cli::usage());
            return ExitCode::from(2);
        }
    };
    if cli.trace {
        return exec_traced(&cli);
    }
    let ok = match cli.command.as_str() {
        "all" => run_all(&cli),
        "repeat" => run_repeat(&cli),
        name => run_one(
            Workload::find(name).expect("cli::parse checked the name"),
            &cli,
        ),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its table and result
/// line. An incorrect run still exits 0: the verdict is in the line.
fn run_one(w: &'static Workload, cli: &Cli) -> bool {
    println!(
        "roundbench {}  seed {}  ({} params, {} parties, {} aggregators, \
         {WARMUP_ROUNDS} warm-up + {} timed rounds, {} cores; --seconds {} is not used)",
        w.name,
        cli.seed,
        w.n_params(),
        w.parties,
        w.aggregators,
        w.timed_rounds,
        std::thread::available_parallelism().map_or(0, usize::from),
        cli.seconds,
    );
    let log = run_workload(w, cli.seed);
    let report = end_to_end(w, cli.seed, &log);
    let line = report.to_json_line();
    let detail = Json::Obj(vec![
        ("workload".to_string(), Json::Str(w.name.to_string())),
        ("seed".to_string(), Json::Num(cli.seed.to_string())),
        (
            "result".to_string(),
            Json::parse(&line).expect("the result line is JSON"),
        ),
        ("rounds".to_string(), rounds_json(&log)),
    ]);
    let mut text = String::new();
    detail.render(&mut text);
    if let Err(e) = std::fs::write(detail_path(w.name, cli.seed), text) {
        eprintln!("roundbench: detail file not written: {e}");
    }
    print!("{}", report.table());
    println!("{line}");
    true
}

/// `--trace 1` reached the untraced binary (the driver's single
/// command): hand over to `roundbench-traced` beside it.
fn exec_traced(cli: &Cli) -> ExitCode {
    use std::os::unix::process::CommandExt;
    let traced = std::env::current_exe()
        .expect("path of the running binary")
        .with_file_name("roundbench-traced");
    let err = std::process::Command::new(&traced)
        .args([&cli.command, "--seed", &cli.seed.to_string()])
        .exec();
    eprintln!("roundbench: cannot run {}: {err}", traced.display());
    ExitCode::FAILURE
}
