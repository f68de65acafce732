//! Reduces a [`RunLog`] to the eight end-to-end metrics, the
//! correctness verdict and the one-line JSON result.

use crate::procfs::peak_rss_mib;
use crate::run::RunLog;
use crate::stats::{median, quartiles, tail_percentile};
use crate::workload::{Workload, DEFAULT_SEED};
use deta_obs::Json;

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Name, unit, direction and regression bound of an end-to-end metric:
/// the same table `BENCHMARK.json` declares (a test keeps them equal).
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The bounds are what the calibration sets on a shared 2-core VM
/// support (`bench/CALIBRATION.md`). Every timing is taken over all
/// timed rounds, so that a change which slows only some of them shows;
/// the box's own slow stretches, which can outlast a run, are left to
/// the bounds and to medians over runs.
pub const END_TO_END: [MetricSpec; 8] = [
    MetricSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricSpec {
        name: "round_s.p50",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricSpec {
        name: "params_per_s",
        unit: "params/s",
        better: Better::Higher,
        bound: 0.25,
    },
    MetricSpec {
        name: "cpu_s_per_round",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricSpec {
        name: "wire_bytes_per_round",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.005,
    },
    MetricSpec {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    // One failed round in the longest workload moves this by 2 %: the
    // bound is "none may fail", written as a share the contract accepts.
    MetricSpec {
        name: "round_ok_ratio",
        unit: "ok/attempted",
        better: Better::Higher,
        bound: 0.001,
    },
    // 64 test examples: one step is 1/64, so 0.02 allows one example.
    MetricSpec {
        name: "final_accuracy",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.02,
    },
];

/// Lowest final accuracy a correct run may report.
pub const MIN_FINAL_ACCURACY: f64 = 0.9;
/// Relative band around a workload's reference test loss.
pub const REFERENCE_LOSS_BAND: f64 = 0.02;
/// Relative band around the plain reference's losses in the warm-up
/// rounds. A different summation order moves them by parts in a
/// million; a lost party or a mis-scaled weight by parts in a hundred.
pub const PLAIN_REFERENCE_BAND: f64 = 0.001;
/// How far the tapped round intervals may miss the `run` wall time.
pub const TILE_TOLERANCE: f64 = 0.02;

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// The result of one run in the shape the driver reads.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why the run is not correct (empty when it is).
    pub problems: Vec<String>,
    /// Human-readable notes per metric: sample counts, IQR, tail.
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// The one JSON object the contract asks for as the last line of
    /// standard output: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, every metric as `{"value": .., "unit": ..}`.
    pub fn to_json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = Json::Obj(vec![
                    ("value".to_string(), num(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect();
        let line = Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            (
                "attempted".to_string(),
                Json::Num(self.attempted.to_string()),
            ),
            ("failed".to_string(), Json::Num(self.failed.to_string())),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]);
        let mut out = String::new();
        line.render(&mut out);
        out
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable table printed above the JSON line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let note = self
                .notes
                .iter()
                .find(|(name, _)| *name == m.name)
                .map_or("", |(_, note)| note.as_str());
            out.push_str(&format!(
                "  {:<32} {:>16} {:<13} {note}\n",
                m.name,
                format_value(m.value),
                m.unit
            ));
        }
        out.push_str(&format!(
            "  correct: {}  (attempted {}, failed {})\n",
            self.correct, self.attempted, self.failed
        ));
        for p in &self.problems {
            out.push_str(&format!("  problem: {p}\n"));
        }
        out
    }
}

/// A finite float as a JSON number with all its digits; JSON has no
/// NaN or infinity, and a metric that is one is a harness bug.
pub fn num(v: f64) -> Json {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    Json::Num(format!("{v}"))
}

fn format_value(v: f64) -> String {
    if v == 0.0 || (1e-3..1e7).contains(&v.abs()) {
        format!("{v:.6}")
    } else {
        format!("{v:.4e}")
    }
}

fn spread_note(samples: &[f64]) -> String {
    let iqr = quartiles(samples).map_or(0.0, |(q1, q3)| q3 - q1);
    let mut note = format!("n={}, IQR {}", samples.len(), format_value(iqr));
    if let Some((p, v)) = tail_percentile(samples) {
        note.push_str(&format!(", p{p} {}", format_value(v)));
    }
    note
}

/// Whether `value` lies within `band` (relative) of `reference`. A NaN
/// is within no band.
fn within(value: f64, reference: f64, band: f64) -> bool {
    ((value - reference) / reference).abs() <= band
}

/// Computes the end-to-end report of one run.
pub fn end_to_end(w: &Workload, seed: u64, log: &RunLog) -> Report {
    let attempted = log.planned_rounds as u64;
    let completed = log.rounds.len() as u64;
    let timed = log.timed();
    let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    let n_timed = timed.len().max(1) as f64;
    let wall_sum: f64 = walls.iter().sum();
    let cpu_sum: f64 = timed.iter().map(|r| r.cpu_s).sum();
    let params_per_round = (w.parties * w.n_params()) as f64;
    let last = log.rounds.last();
    let final_accuracy = last.map_or(0.0, |r| f64::from(r.test_accuracy));
    let final_loss = last.map_or(f64::NAN, |r| f64::from(r.test_loss));

    let mut problems = Vec::new();
    if let Some(e) = &log.error {
        problems.push(e.clone());
    }
    if completed < attempted {
        problems.push(format!("{completed} of {attempted} rounds completed"));
    }
    if log.replicas_identical == Some(false) {
        problems.push("party replicas diverged".to_string());
    }
    if !log.transport_clean {
        problems.push("socket transport reported an error".to_string());
    }
    if final_accuracy < MIN_FINAL_ACCURACY {
        problems.push(format!(
            "final accuracy {final_accuracy} below {MIN_FINAL_ACCURACY}"
        ));
    }
    match &log.plain {
        Some(Ok(plain)) => {
            for (i, (p, r)) in plain.iter().zip(&log.rounds).enumerate() {
                let same =
                    within(
                        r.train_loss.into(),
                        p.train_loss.into(),
                        PLAIN_REFERENCE_BAND,
                    ) && within(r.test_loss.into(), p.test_loss.into(), PLAIN_REFERENCE_BAND);
                if !same {
                    problems.push(format!(
                        "round {}: losses (train {}, test {}) are not within \
                         {PLAIN_REFERENCE_BAND} of the plain reference ({}, {})",
                        i + 1,
                        r.train_loss,
                        r.test_loss,
                        p.train_loss,
                        p.test_loss
                    ));
                }
            }
        }
        Some(Err(e)) => problems.push(e.clone()),
        // No reference is computed for a run that already failed.
        None => {}
    }
    if seed == DEFAULT_SEED && !within(final_loss, w.reference_test_loss, REFERENCE_LOSS_BAND) {
        problems.push(format!(
            "final test loss {final_loss} is not within {REFERENCE_LOSS_BAND} of the \
             reference {}",
            w.reference_test_loss
        ));
    }
    if let Some(run_wall) = log.run_wall_s {
        let tiled: f64 = log.rounds.iter().map(|r| r.wall_s).sum();
        if log.error.is_none() && (tiled - run_wall).abs() > TILE_TOLERANCE * run_wall {
            problems.push(format!(
                "tapped round intervals sum to {tiled} s, the run took {run_wall} s"
            ));
        }
    }

    let value_of = |name: &str| -> f64 {
        match name {
            "setup_s" => median_or_zero(&log.setup_s),
            "round_s.p50" => median_or_zero(&walls),
            "params_per_s" => {
                if wall_sum > 0.0 {
                    params_per_round * walls.len() as f64 / wall_sum
                } else {
                    0.0
                }
            }
            "cpu_s_per_round" => cpu_sum / n_timed,
            "wire_bytes_per_round" => {
                timed.iter().map(|r| r.wire_bytes as f64).sum::<f64>() / n_timed
            }
            "peak_rss_mb" => peak_rss_mib(),
            "round_ok_ratio" => completed as f64 / attempted.max(1) as f64,
            "final_accuracy" => final_accuracy,
            other => unreachable!("no definition for end-to-end metric {other}"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|spec| Metric::new(spec.name, spec.unit, value_of(spec.name)))
        .collect();
    // Not gated: what the box's noise does not reach. Every round of a
    // workload does the same work, so the fastest one is the best view
    // a run has of the program alone.
    let fastest_s = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let least_cpu_s = timed.iter().map(|r| r.cpu_s).fold(f64::INFINITY, f64::min);
    let notes = vec![
        (
            "setup_s".to_string(),
            format!(
                "{}, {} set-ups each",
                spread_note(&log.setup_s),
                w.setup_batch
            ),
        ),
        (
            "round_s.p50".to_string(),
            format!(
                "{}, fastest {}",
                spread_note(&walls),
                format_value(fastest_s)
            ),
        ),
        (
            "params_per_s".to_string(),
            format!("{} rounds in {} s", walls.len(), format_value(wall_sum)),
        ),
        (
            "cpu_s_per_round".to_string(),
            format!(
                "{} CPU s in all, least round {}",
                format_value(cpu_sum),
                format_value(least_cpu_s)
            ),
        ),
        (
            "final_accuracy".to_string(),
            format!("final test loss {final_loss}"),
        ),
    ];
    Report {
        correct: problems.is_empty(),
        attempted,
        failed: attempted - completed,
        metrics,
        problems,
        notes,
    }
}

fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// The per-round record of a run as JSON — `[train_loss bits,
/// test_accuracy bits, wire bytes, wall seconds]` — for `repeat`'s check
/// that `fedavg_seq` and `fedavg_tcp` ran the same computation. Float
/// bits are written as integers so equality is exact.
pub fn rounds_json(log: &RunLog) -> Json {
    Json::Arr(
        log.rounds
            .iter()
            .map(|r| {
                Json::Arr(vec![
                    Json::Num(r.train_loss.to_bits().to_string()),
                    Json::Num(r.test_accuracy.to_bits().to_string()),
                    Json::Num(r.wire_bytes.to_string()),
                    num(r.wall_s),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::PlainRound;
    use crate::run::{drive_rounds, RoundRecord};
    use crate::workload::WARMUP_ROUNDS;
    use deta_core::RoundMetrics;

    fn workload() -> &'static Workload {
        Workload::find("median_32p").expect("workload exists")
    }

    fn metrics(round: usize) -> RoundMetrics {
        RoundMetrics {
            round: round as u64,
            train_loss: 0.5,
            test_loss: 0.25,
            test_accuracy: 1.0,
            latency: deta_core::latency::RoundLatency::default(),
            round_latency_s: 0.0,
            cumulative_latency_s: 0.0,
            upload_bytes: 1000,
            download_bytes: 500,
        }
    }

    #[test]
    fn injected_failure_at_round_r_of_n_yields_r_minus_1_over_n() {
        let (n, r) = (10usize, 4usize);
        let log = drive_rounds(n, WARMUP_ROUNDS, |i| {
            if i + 1 == r {
                Err("injected RuntimeError".to_string())
            } else {
                Ok(metrics(i + 1))
            }
        });
        let report = end_to_end(workload(), 1, &log);
        assert_eq!(report.attempted, n as u64);
        assert_eq!(report.failed, (n - r + 1) as u64);
        assert_eq!(
            report.metric("round_ok_ratio"),
            Some((r - 1) as f64 / n as f64)
        );
        assert!(!report.correct);
        assert!(report.problems[0].contains("round 4 failed: injected RuntimeError"));
    }

    #[test]
    fn a_panicking_round_is_a_failed_round_not_a_crash() {
        let log = drive_rounds(5, 1, |i| {
            assert!(i < 2, "aggregation deadlock at round {}", i + 1);
            Ok(metrics(i + 1))
        });
        let report = end_to_end(workload(), 1, &log);
        assert_eq!((report.attempted, report.failed), (5, 3));
        assert!(!report.correct);
        assert!(report.problems[0].contains("aggregation deadlock at round 3"));
    }

    #[test]
    fn a_clean_run_is_correct_and_counts_wire_bytes_over_timed_rounds() {
        let log = drive_rounds(6, 2, |i| Ok(metrics(i + 1)));
        let report = end_to_end(workload(), 1, &log);
        assert!(report.correct, "{:?}", report.problems);
        assert_eq!(report.failed, 0);
        assert_eq!(report.metric("wire_bytes_per_round"), Some(1500.0));
        assert_eq!(report.metric("round_ok_ratio"), Some(1.0));
        assert_eq!(report.metric("final_accuracy"), Some(1.0));
        assert!(report.metric("params_per_s").unwrap() > 0.0);
    }

    #[test]
    fn timings_are_taken_over_every_timed_round() {
        let mut log = drive_rounds(6, 2, |i| Ok(metrics(i + 1)));
        // Warm-up rounds never count, however slow.
        (log.rounds[0].wall_s, log.rounds[0].cpu_s) = (9.0, 9.0);
        for (r, (wall_s, cpu_s)) in
            log.rounds[2..]
                .iter_mut()
                .zip([(2.0, 2.0), (1.0, 1.5), (3.0, 0.9), (1.5, 2.0)])
        {
            (r.wall_s, r.cpu_s) = (wall_s, cpu_s);
        }
        let w = workload();
        let report = end_to_end(w, 1, &log);
        // The two slow rounds vote like the others: a change that slows
        // only some rounds moves all three figures.
        assert_eq!(report.metric("round_s.p50"), Some(1.75));
        assert_eq!(report.metric("cpu_s_per_round"), Some(6.4 / 4.0));
        assert_eq!(
            report.metric("params_per_s"),
            Some((w.parties * w.n_params()) as f64 * 4.0 / 7.5)
        );
    }

    #[test]
    fn a_run_that_never_reached_a_round_still_reports() {
        let mut log = drive_rounds(5, 2, |_| Err("unreachable".to_string()));
        log.rounds.clear();
        log.error = Some("set-up failed: Config(\"x\")".to_string());
        let report = end_to_end(workload(), 1, &log);
        assert_eq!((report.attempted, report.failed), (5, 5));
        assert!(!report.correct);
        assert_eq!(report.metric("round_ok_ratio"), Some(0.0));
        // Every value is still a finite number the line can carry.
        assert!(Json::parse(&report.to_json_line()).is_some());
    }

    #[test]
    fn low_accuracy_diverged_replicas_and_dirty_transport_are_incorrect() {
        let mut log = drive_rounds(4, 1, |i| {
            let mut m = metrics(i + 1);
            m.test_accuracy = 0.25;
            Ok(m)
        });
        log.replicas_identical = Some(false);
        log.transport_clean = false;
        let report = end_to_end(workload(), 1, &log);
        assert!(!report.correct);
        assert_eq!(report.problems.len(), 3);
    }

    #[test]
    fn stored_reference_loss_is_checked_at_the_default_seed() {
        let w = workload();
        let mut log = drive_rounds(4, 1, |i| Ok(metrics(i + 1)));
        for r in &mut log.rounds {
            r.test_loss = (w.reference_test_loss * 1.01) as f32;
        }
        assert!(end_to_end(w, DEFAULT_SEED, &log).correct);
        for r in &mut log.rounds {
            r.test_loss = (w.reference_test_loss * 1.05) as f32;
        }
        assert!(!end_to_end(w, DEFAULT_SEED, &log).correct);
        assert!(end_to_end(w, DEFAULT_SEED + 1, &log).correct);
    }

    #[test]
    fn plain_reference_is_checked_at_every_seed() {
        let mut log = drive_rounds(4, 2, |i| Ok(metrics(i + 1)));
        let plain = |train_loss, test_loss| PlainRound {
            train_loss,
            test_loss,
            test_accuracy: 1.0,
        };
        // Rounding apart: correct.
        log.plain = Some(Ok(vec![plain(0.5, 0.25), plain(0.500_000_1, 0.25)]));
        assert!(end_to_end(workload(), 7, &log).correct);
        // Half a percent apart in the second round: not.
        log.plain = Some(Ok(vec![plain(0.5, 0.25), plain(0.5, 0.251_25)]));
        let report = end_to_end(workload(), 7, &log);
        assert!(!report.correct);
        assert!(
            report.problems[0].starts_with("round 2:"),
            "{:?}",
            report.problems
        );
        // A reference that could not be computed is a problem too.
        log.plain = Some(Err("reference set-up: Config".to_string()));
        assert!(!end_to_end(workload(), 7, &log).correct);
    }

    #[test]
    fn untiled_socket_intervals_are_incorrect() {
        let mut log = drive_rounds(4, 1, |i| Ok(metrics(i + 1)));
        for r in &mut log.rounds {
            *r = RoundRecord { wall_s: 1.0, ..*r };
        }
        log.run_wall_s = Some(4.05);
        assert!(end_to_end(workload(), 1, &log).correct);
        log.run_wall_s = Some(4.5);
        assert!(!end_to_end(workload(), 1, &log).correct);
    }

    #[test]
    fn json_line_has_exactly_the_contract_shape() {
        let log = drive_rounds(4, 1, |i| Ok(metrics(i + 1)));
        let report = end_to_end(workload(), 1, &log);
        let line = report.to_json_line();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).expect("valid JSON");
        let Json::Obj(fields) = &parsed else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(4));
        assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
            panic!("metrics is not an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|s| s.name).collect();
        assert_eq!(names, expected);
        for (spec, (_, entry)) in END_TO_END.iter().zip(metrics) {
            let Json::Obj(pair) = entry else {
                panic!("metric entry is not an object");
            };
            let keys: Vec<&str> = pair.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(spec.unit));
            assert!(entry.get("value").and_then(Json::as_f64).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "not a finite number")]
    fn a_nan_metric_is_refused_rather_than_emitted() {
        let _ = num(f64::NAN);
    }
}
