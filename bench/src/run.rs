//! End-to-end runners: set a session up several times, run the fixed
//! number of rounds closed-loop, and log what the eight end-to-end
//! metrics are computed from.

use crate::procfs::cpu_seconds;
use crate::reference::{plain_rounds, PlainRound};
use crate::tap::{round_spans, RoundTap};
use crate::workload::{Deployment, Workload, WARMUP_ROUNDS};
use deta_core::{DetaSession, RoundMetrics};
use deta_runtime::{FailoverPolicy, RuntimeConfig, RuntimeError, ThreadedSession};
use deta_socket::hub::seats_for;
use deta_socket::{SocketError, SocketHub};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One completed round: its wall time and the deterministic slice of
/// its `RoundMetrics`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundRecord {
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads) the round used.
    pub cpu_s: f64,
    pub train_loss: f32,
    pub test_loss: f32,
    pub test_accuracy: f32,
    pub wire_bytes: u64,
}

impl RoundRecord {
    fn new(wall_s: f64, cpu_s: f64, m: &RoundMetrics) -> RoundRecord {
        RoundRecord {
            wall_s,
            cpu_s,
            train_loss: m.train_loss,
            test_loss: m.test_loss,
            test_accuracy: m.test_accuracy,
            wire_bytes: m.upload_bytes + m.download_bytes,
        }
    }
}

/// Everything one run measured, before it is reduced to metrics.
#[derive(Clone, Debug, Default)]
pub struct RunLog {
    /// Seconds per set-up, one entry per sample (each a batch average),
    /// those taken before the rounds first.
    pub setup_s: Vec<f64>,
    /// Rounds the run set out to do, warm-up included.
    pub planned_rounds: usize,
    /// Completed rounds in order, warm-up first.
    pub rounds: Vec<RoundRecord>,
    /// How many of the leading `rounds` are warm-up.
    pub warmup: usize,
    /// The failure that ended the run early, if any.
    pub error: Option<String>,
    /// Every party replica the session exposes holds bit-identical
    /// parameters after the last round (`None`: none are reachable).
    pub replicas_identical: Option<bool>,
    /// Socket deployment only: the hub saw no `SocketError` and every
    /// child thread joined cleanly.
    pub transport_clean: bool,
    /// Socket deployment only: wall time of `ThreadedSession::run`, which
    /// the tapped round intervals must tile.
    pub run_wall_s: Option<f64>,
    /// The warm-up rounds as the plain reference computes them at this
    /// seed, or why it could not.
    pub plain: Option<Result<Vec<PlainRound>, String>>,
}

impl RunLog {
    /// The completed timed rounds.
    pub fn timed(&self) -> &[RoundRecord] {
        &self.rounds[self.warmup.min(self.rounds.len())..]
    }

    /// A run that ended before its first round: every planned round
    /// counts as failed.
    fn failed(planned: usize, error: String) -> RunLog {
        RunLog {
            planned_rounds: planned,
            warmup: WARMUP_ROUNDS,
            error: Some(error),
            transport_clean: true,
            ..RunLog::default()
        }
    }
}

/// Runs `workload` once and returns its log. A set-up that fails or a
/// panic anywhere in the run yields a log with the failure in it, not a
/// crash: the caller still prints a result line.
pub fn run_workload(w: &'static Workload, seed: u64) -> RunLog {
    let run = || {
        let mut log = match w.deployment {
            Deployment::Sequential => run_sequential(w, seed),
            Deployment::Tcp => run_tcp(w, seed),
        };
        if log.error.is_none() {
            let (shards, test) = (w.shards(seed), w.test_set(seed));
            log.plain = Some(plain_rounds(w, seed, WARMUP_ROUNDS, &shards, &test));
        }
        log
    };
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|panic| {
        RunLog::failed(
            w.planned_rounds(),
            format!("run panicked: {}", panic_message(panic.as_ref())),
        )
    })
}

/// Times `samples` batches of `batch` fresh set-ups each; `setup` builds
/// one deployment from freshly synthesised shards and `discard` tears a
/// deployment down outside the timed region. Returns the per-set-up
/// seconds of every sample and the last deployment built.
///
/// # Errors
///
/// The first failure `setup` reports.
fn sample_setups<D>(
    w: &Workload,
    samples: usize,
    setup: &mut impl FnMut() -> Result<D, String>,
    discard: &mut impl FnMut(D),
) -> Result<(Vec<f64>, D), String> {
    let mut seconds = Vec::with_capacity(samples);
    let mut last: Option<D> = None;
    for _ in 0..samples {
        let mut elapsed = Duration::ZERO;
        for _ in 0..w.setup_batch {
            // One deployment alive at a time, so peak memory is the
            // running session's and not an artefact of the sampling.
            if let Some(old) = last.take() {
                discard(old);
            }
            let t0 = Instant::now();
            last = Some(setup()?);
            elapsed += t0.elapsed();
        }
        seconds.push(elapsed.as_secs_f64() / w.setup_batch as f64);
    }
    let last = last.ok_or("no set-up sample was asked for")?;
    Ok((seconds, last))
}

/// Drives `planned` rounds one `step` at a time, timing each. A step
/// that fails (or panics) ends the run: that round and every round not
/// reached count as failed.
pub fn drive_rounds(
    planned: usize,
    warmup: usize,
    mut step: impl FnMut(usize) -> Result<RoundMetrics, String>,
) -> RunLog {
    let mut log = RunLog {
        planned_rounds: planned,
        warmup,
        transport_clean: true,
        ..RunLog::default()
    };
    for i in 0..planned {
        let (t0, cpu0) = (Instant::now(), cpu_seconds());
        let outcome = catch_unwind(AssertUnwindSafe(|| step(i)))
            .unwrap_or_else(|panic| Err(panic_message(panic.as_ref())));
        let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
        match outcome {
            Ok(m) => log.rounds.push(RoundRecord::new(wall_s, cpu_s, &m)),
            Err(e) => {
                log.error = Some(format!("round {} failed: {e}", i + 1));
                break;
            }
        }
    }
    log
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

fn run_sequential(w: &'static Workload, seed: u64) -> RunLog {
    let planned = w.planned_rounds();
    let test = w.test_set(seed);
    let mut setup = || {
        DetaSession::setup(
            w.config(seed, planned),
            &|rng| w.build_model(rng),
            w.shards(seed),
        )
        .map_err(|e| format!("set-up failed: {e:?}"))
    };
    let before = sample_setups(w, w.setup_samples.div_ceil(2), &mut setup, &mut drop);
    let (mut setup_s, mut session) = match before {
        Ok(sampled) => sampled,
        Err(e) => return RunLog::failed(planned, e),
    };
    let mut log = drive_rounds(planned, WARMUP_ROUNDS, |_| Ok(session.step(&test)));
    let first = session.party_params(0);
    log.replicas_identical =
        Some((1..w.parties).all(|i| bits_equal(&first, &session.party_params(i))));
    drop((first, session));
    match sample_setups(w, w.setup_samples / 2, &mut setup, &mut drop) {
        Ok((after, _)) => setup_s.extend(after),
        Err(e) => log.error = log.error.take().or(Some(e)),
    }
    log.setup_s = setup_s;
    log
}

/// Bit-for-bit equality (`==` would call two NaNs different and +0/−0
/// equal; replicas must match exactly).
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runtime policy for the socket deployment: no failover (a remote
/// process cannot be respawned), and trigger retries pushed past any
/// deadline — TCP plus the socket layer's resync is lossless, and a
/// load-timed duplicate fan-out would leak into the per-round byte
/// attribution that `wire_bytes_per_round` must repeat exactly.
pub fn lossless_runtime() -> RuntimeConfig {
    RuntimeConfig {
        setup_deadline: Duration::from_secs(120),
        round_deadline: Duration::from_secs(120),
        retry_initial: Duration::from_secs(3600),
        retry_max: Duration::from_secs(3600),
        failover: FailoverPolicy::None,
        ..RuntimeConfig::default()
    }
}

/// A session whose nodes all live behind the TCP bridge, children
/// hosted on threads of this process.
pub struct TcpDeployment {
    pub session: ThreadedSession,
    hub: SocketHub,
    children: Vec<(String, JoinHandle<Result<(), SocketError>>)>,
}

impl TcpDeployment {
    /// Builds the deployment: shards, `setup_detached`, hub bind, one
    /// child per node, and the wait for every node's `Ready`.
    ///
    /// # Errors
    ///
    /// Whatever `ThreadedSession::setup_detached` reports.
    pub fn setup(
        w: &'static Workload,
        seed: u64,
        rounds: usize,
        tap: Arc<RoundTap>,
    ) -> Result<TcpDeployment, RuntimeError> {
        let cfg = w.config(seed, rounds);
        let shards = w.shards(seed);
        let mut hub_slot = None;
        let mut children = Vec::new();
        let session = ThreadedSession::setup_detached(
            cfg.clone(),
            &|rng| w.build_model(rng),
            shards.clone(),
            lossless_runtime(),
            |nodes, network| {
                network.set_tap(tap);
                let seats = seats_for(&nodes, seed);
                let names: Vec<String> = seats.iter().map(|s| s.name.clone()).collect();
                // Children rebuild their own replica from the seed.
                drop(nodes);
                let hub = SocketHub::bind(network.clone(), seats, seed)
                    .map_err(|_| RuntimeError::Protocol("socket hub failed to bind"))?;
                let addr = hub.addr();
                for name in names {
                    let (cfg, shards, node) = (cfg.clone(), shards.clone(), name.clone());
                    let child = std::thread::Builder::new()
                        .name(name.clone())
                        .spawn(move || {
                            deta_socket::run_node(
                                addr,
                                &node,
                                cfg,
                                &|rng| w.build_model(rng),
                                shards,
                                Duration::from_millis(10),
                            )
                        })
                        .map_err(RuntimeError::Spawn)?;
                    children.push((name, child));
                }
                hub_slot = Some(hub);
                Ok(())
            },
        )?;
        Ok(TcpDeployment {
            session,
            hub: hub_slot.expect("host ran, so the hub is bound"),
            children,
        })
    }

    /// Shuts the session down, joins every child and the hub. Returns
    /// the problems seen (empty: a clean tear-down).
    pub fn teardown(mut self) -> Vec<String> {
        let mut problems = Vec::new();
        if let Err(e) = self.session.shutdown() {
            problems.push(format!("shutdown: {e}"));
        }
        for (name, child) in self.children {
            match child.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => problems.push(format!("{name}: {e}")),
                Err(_) => problems.push(format!("{name}: child thread panicked")),
            }
        }
        if let Some(e) = self.hub.join() {
            problems.push(format!("hub: {e}"));
        }
        problems
    }
}

fn run_tcp(w: &'static Workload, seed: u64) -> RunLog {
    let planned = w.planned_rounds();
    let test = w.test_set(seed);
    let mut teardown_problems = Vec::new();
    // Each set-up gets its own tap; only one deployment runs rounds.
    let mut setup = || {
        let tap = Arc::new(RoundTap::new());
        TcpDeployment::setup(w, seed, planned, Arc::clone(&tap))
            .map(|deployment| (deployment, tap))
            .map_err(|e| format!("set-up failed: {e}"))
    };
    let mut discard =
        |(old, _): (TcpDeployment, Arc<RoundTap>)| teardown_problems.extend(old.teardown());
    let before = sample_setups(w, w.setup_samples.div_ceil(2), &mut setup, &mut discard);
    let (mut setup_s, (mut deployment, tap)) = match before {
        Ok(sampled) => sampled,
        Err(e) => return RunLog::failed(planned, e),
    };
    let (t0, started_s) = (Instant::now(), tap.now_s());
    let outcome = deployment.session.run(&test);
    let run_wall_s = t0.elapsed().as_secs_f64();
    let cpu_end_s = cpu_seconds();
    discard((deployment, Arc::clone(&tap)));
    let mut late_setup_error = None;
    match sample_setups(w, w.setup_samples / 2, &mut setup, &mut discard) {
        Ok((after, last)) => {
            setup_s.extend(after);
            discard(last);
        }
        Err(e) => late_setup_error = Some(e),
    }

    let spans = round_spans(&tap.events(), started_s + run_wall_s, outcome.is_err());
    // A round's CPU runs from its plan to the next round's plan; the
    // last round's to the end of `run`.
    let cpu_ends = spans
        .iter()
        .skip(1)
        .map(|next| next.cpu_at_start_s)
        .chain(std::iter::once(cpu_end_s));
    let cpu_s: Vec<f64> = spans
        .iter()
        .zip(cpu_ends)
        .map(|(s, end)| end - s.cpu_at_start_s)
        .collect();
    let mut log = RunLog {
        setup_s,
        planned_rounds: planned,
        warmup: WARMUP_ROUNDS,
        transport_clean: teardown_problems.is_empty(),
        run_wall_s: Some(run_wall_s),
        ..RunLog::default()
    };
    match outcome {
        Ok(metrics) => {
            if metrics.len() == spans.len() {
                log.rounds = spans
                    .iter()
                    .zip(&cpu_s)
                    .zip(&metrics)
                    .map(|((s, cpu_s), m)| RoundRecord::new(s.wall_s(), *cpu_s, m))
                    .collect();
            } else {
                log.error = Some(format!(
                    "tap saw {} rounds, the session reported {}",
                    spans.len(),
                    metrics.len()
                ));
            }
        }
        // The metrics of the rounds before the failure died with `run`;
        // the failed run is incorrect whatever they were, so only the
        // count of completed rounds (from the tap) survives.
        Err(e) => {
            log.error = Some(format!("round {} failed: {e}", spans.len() + 1));
            log.rounds = spans
                .iter()
                .zip(&cpu_s)
                .map(|(s, cpu_s)| RoundRecord {
                    wall_s: s.wall_s(),
                    cpu_s: *cpu_s,
                    train_loss: f32::NAN,
                    test_loss: f32::NAN,
                    test_accuracy: 0.0,
                    wire_bytes: 0,
                })
                .collect();
        }
    }
    if log.error.is_none() {
        log.error = late_setup_error
            .or_else(|| (!teardown_problems.is_empty()).then(|| teardown_problems.join("; ")));
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> &'static Workload {
        Workload::find("median_32p").expect("workload exists")
    }

    #[test]
    fn set_up_samples_are_batch_averages_and_the_last_deployment_survives() {
        let w = workload();
        let (mut built, mut discarded) = (0, Vec::new());
        let mut setup = || {
            built += 1;
            Ok(built)
        };
        let (seconds, last) =
            sample_setups(w, 3, &mut setup, &mut |d| discarded.push(d)).expect("no set-up fails");
        assert_eq!(seconds.len(), 3);
        assert_eq!(last, 3 * w.setup_batch);
        // One deployment alive at a time: all but the last were discarded.
        assert_eq!(discarded, (1..last).collect::<Vec<_>>());
    }

    #[test]
    fn a_failing_set_up_is_an_error_not_a_panic() {
        let mut built = 0;
        let mut setup = || {
            built += 1;
            if built == 3 {
                Err("attestation refused".to_string())
            } else {
                Ok(built)
            }
        };
        let outcome = sample_setups(workload(), 3, &mut setup, &mut drop);
        assert_eq!(
            outcome.expect_err("third set-up fails"),
            "attestation refused"
        );
        let log = RunLog::failed(7, "set-up failed: x".to_string());
        assert_eq!((log.planned_rounds, log.rounds.len()), (7, 0));
    }
}
