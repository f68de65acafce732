//! The benchmark against its contract: `BENCHMARK.json` says what the
//! code measures, and the built binaries answer the driver's command
//! line with a result line of the agreed shape.

use deta_obs::Json;
use deta_roundbench::report::END_TO_END;
use deta_roundbench::traced::PER_LAYER;
use deta_roundbench::workload::{RUN_SECONDS, WARMUP_ROUNDS, WORKLOADS};
use std::process::Command;

fn manifest() -> (String, Json) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
    (text, json)
}

fn keys(value: &Json) -> Vec<&str> {
    match value {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key} should be an array, found {other:?}"),
    }
}

fn text<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} should be a string in {value:?}"))
}

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn manifest_has_exactly_the_contract_keys_and_limits() {
    let (raw, doc) = manifest();
    assert!(raw.len() <= 64 * 1024);
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = items(&doc, "command")
        .iter()
        .map(|c| c.as_str().expect("command entries are strings"))
        .collect();
    assert_eq!(command, ["bash", "bench/run.sh"]);
    let paths: Vec<&str> = items(&doc, "paths")
        .iter()
        .map(|c| c.as_str().expect("paths are strings"))
        .collect();
    assert_eq!(paths, ["bench"]);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_u64),
        Some(RUN_SECONDS)
    );
    assert!((1..=60).contains(&RUN_SECONDS));
}

#[test]
fn manifest_workloads_are_the_codes_workloads() {
    let (_, doc) = manifest();
    let declared = items(&doc, "workloads");
    assert_eq!(declared.len(), WORKLOADS.len());
    assert!((2..=8).contains(&declared.len()));
    for (d, w) in declared.iter().zip(&WORKLOADS) {
        assert_eq!(keys(d), ["name", "why"]);
        assert_eq!(text(d, "name"), w.name);
        assert_eq!(text(d, "why"), w.why);
        assert!(well_formed_name(w.name));
        assert!(w.why.chars().count() <= 200 && !w.why.contains('\n'));
    }
}

#[test]
fn manifest_end_to_end_metrics_are_the_codes_metrics() {
    let (_, doc) = manifest();
    let declared = items(&doc, "end_to_end");
    assert_eq!(declared.len(), END_TO_END.len());
    for (d, spec) in declared.iter().zip(&END_TO_END) {
        assert_eq!(keys(d), ["name", "unit", "better", "bound"]);
        assert_eq!(text(d, "name"), spec.name);
        assert_eq!(text(d, "unit"), spec.unit);
        assert_eq!(text(d, "better"), spec.better.as_str());
        assert_eq!(d.get("bound").and_then(Json::as_f64), Some(spec.bound));
        assert!(well_formed_name(spec.name) && well_formed_unit(spec.unit));
        assert!(spec.bound > 0.0 && spec.bound <= 0.25);
    }
    let setup = &END_TO_END[0];
    assert_eq!(
        (setup.name, setup.unit, setup.better.as_str()),
        ("setup_s", "s", "lower")
    );
    let largest = END_TO_END.iter().map(|s| s.bound).fold(0.0, f64::max);
    assert_eq!(
        setup.bound, largest,
        "set-up time carries the largest bound"
    );
}

#[test]
fn manifest_per_layer_metrics_are_the_codes_metrics() {
    let (_, doc) = manifest();
    let declared = items(&doc, "per_layer");
    assert_eq!(declared.len(), PER_LAYER.len());
    assert!((1..=128).contains(&declared.len()));
    for (d, (name, unit)) in declared.iter().zip(&PER_LAYER) {
        assert_eq!(keys(d), ["name", "unit", "better"]);
        assert_eq!(text(d, "name"), *name);
        assert_eq!(text(d, "unit"), *unit);
        assert!(matches!(text(d, "better"), "lower" | "higher"));
        assert!(well_formed_name(name) && well_formed_unit(unit));
        assert!(
            END_TO_END.iter().all(|spec| spec.name != *name),
            "{name} is declared at both levels"
        );
    }
}

/// Runs a built binary and returns `(exit code, stdout)`.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().expect("spawn");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

fn result_line(stdout: &str) -> Json {
    let line = stdout.trim_end().lines().last().expect("some output");
    Json::parse(line).unwrap_or_else(|| panic!("last line is not JSON: {line}"))
}

fn check_result_shape(result: &Json, names: &[(&str, &str)]) {
    assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
    assert!(matches!(result.get("correct"), Some(Json::Bool(_))));
    let attempted = result
        .get("attempted")
        .and_then(Json::as_u64)
        .expect("attempted");
    let failed = result.get("failed").and_then(Json::as_u64).expect("failed");
    assert!(attempted >= 1 && failed <= attempted);
    let metrics = result.get("metrics").expect("metrics");
    let expected: Vec<&str> = names.iter().map(|(name, _)| *name).collect();
    assert_eq!(keys(metrics), expected);
    for (name, unit) in names {
        let entry = metrics.get(name).expect("declared metric present");
        assert_eq!(keys(entry), ["value", "unit"]);
        assert_eq!(text(entry, "unit"), *unit);
        let value = entry
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn the_drivers_command_line_yields_every_end_to_end_metric() {
    let (code, stdout) = run(
        env!("CARGO_BIN_EXE_roundbench"),
        &[
            "--workload",
            "median_32p",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ],
    );
    assert_eq!(code, Some(0), "{stdout}");
    let result = result_line(&stdout);
    let names: Vec<(&str, &str)> = END_TO_END.iter().map(|s| (s.name, s.unit)).collect();
    check_result_shape(&result, &names);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    // Every planned round was attempted, none failed.
    let planned = WARMUP_ROUNDS + WORKLOADS[3].timed_rounds;
    assert_eq!(WORKLOADS[3].name, "median_32p");
    assert_eq!(
        result.get("attempted").and_then(Json::as_u64),
        Some(planned as u64)
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    let ratio = result.get("metrics").and_then(|m| m.get("round_ok_ratio"));
    assert_eq!(
        ratio.and_then(|r| r.get("value")).and_then(Json::as_f64),
        Some(1.0)
    );
}

#[test]
fn trace_1_is_handed_to_the_traced_binary_and_yields_every_layer_metric() {
    let (code, stdout) = run(
        env!("CARGO_BIN_EXE_roundbench"),
        &[
            "--workload",
            "train_conv",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ],
    );
    assert_eq!(code, Some(0), "{stdout}");
    let result = result_line(&stdout);
    check_result_shape(&result, &PER_LAYER);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stdout}");
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for exe in [
        env!("CARGO_BIN_EXE_roundbench"),
        env!("CARGO_BIN_EXE_roundbench-traced"),
    ] {
        for args in [
            &["--workload", "no_such_workload"][..],
            &["--seconds", "x"],
            &[],
        ] {
            let (code, stdout) = run(exe, args);
            assert_eq!(code, Some(2), "{exe} {args:?}");
            assert!(stdout.is_empty(), "{exe} {args:?} printed {stdout}");
        }
    }
}
