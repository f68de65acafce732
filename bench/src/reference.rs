//! A plain reference of what every workload computes, so that each run
//! is checked at its own seed and not only at the one the stored
//! reference losses were recorded at.
//!
//! Federated learning without DeTA: every party trains its replica on
//! its shard from the shared parameters, the updates are combined
//! coordinate by coordinate (weighted mean or median), every replica
//! takes the result. No partition, no shuffle, no channel, no wire
//! format, and its own few lines of aggregation arithmetic instead of
//! `deta_core::agg`. DeTA is transparent to the training algorithm, so
//! the session must reproduce this trajectory up to the rounding of a
//! different summation order; a change that breaks the data path or an
//! aggregation kernel, even symmetrically on all replicas, does not.

use crate::workload::Workload;
use deta_core::{AggKind, SessionParts};
use deta_nn::train::{evaluate, train_local, LabeledData};

/// Losses and accuracy after one plain round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlainRound {
    pub train_loss: f32,
    pub test_loss: f32,
    pub test_accuracy: f32,
}

/// Weighted mean per coordinate, accumulated in `f64`.
fn weighted_mean(updates: &[Vec<f32>], weights: &[f64]) -> Vec<f32> {
    let total: f64 = weights.iter().sum();
    (0..updates[0].len())
        .map(|c| {
            let sum: f64 = updates
                .iter()
                .zip(weights)
                .map(|(u, w)| f64::from(u[c]) * w)
                .sum();
            (sum / total) as f32
        })
        .collect()
}

/// Median per coordinate; the mean of the middle pair for even counts.
fn coordinate_median(updates: &[Vec<f32>]) -> Vec<f32> {
    let n = updates.len();
    let mut column = vec![0.0f32; n];
    (0..updates[0].len())
        .map(|c| {
            for (slot, u) in column.iter_mut().zip(updates) {
                *slot = u[c];
            }
            column.sort_by(f32::total_cmp);
            if n % 2 == 1 {
                column[n / 2]
            } else {
                (column[n / 2 - 1] + column[n / 2]) / 2.0
            }
        })
        .collect()
}

/// The first `rounds` rounds of `w` at `seed`, computed plainly.
///
/// The starting parameters come from `SessionParts::build`, the
/// program's own initialisation, so that a change to how it seeds the
/// model moves the reference with it.
///
/// # Errors
///
/// `SessionParts::build` failed, or the workload's algorithm has no
/// plain twin here.
pub fn plain_rounds(
    w: &Workload,
    seed: u64,
    rounds: usize,
    shards: &[LabeledData],
    test: &LabeledData,
) -> Result<Vec<PlainRound>, String> {
    let cfg = w.config(seed, rounds);
    let parts = SessionParts::build(cfg.clone(), &|rng| w.build_model(rng), shards.to_vec())
        .map_err(|e| format!("reference set-up: {e:?}"))?;
    let mut global = parts.eval_model.flat_params();
    // One replica per party, as in the session: state a model keeps
    // outside its flat parameters stays with its party.
    let mut replicas: Vec<_> = parts.parties.into_iter().map(|p| p.model).collect();
    let mut evaluator = parts.eval_model;
    let weights: Vec<f64> = shards.iter().map(|s| s.len() as f64).collect();
    let mut out = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut loss_sum = 0.0f32;
        let updates: Vec<Vec<f32>> = replicas
            .iter_mut()
            .zip(shards)
            .map(|(model, shard)| {
                model.set_flat_params(&global);
                loss_sum +=
                    train_local(model, shard, cfg.local_epochs, cfg.batch_size, cfg.lr).loss;
                model.flat_params()
            })
            .collect();
        global = match w.algorithm {
            AggKind::IterativeAveraging => weighted_mean(&updates, &weights),
            AggKind::CoordinateMedian => coordinate_median(&updates),
            other => return Err(format!("no plain reference for {}", other.name())),
        };
        evaluator.set_flat_params(&global);
        let (test_loss, test_accuracy) = evaluate(&mut evaluator, test, 128);
        out.push(PlainRound {
            train_loss: loss_sum / replicas.len() as f32,
            test_loss,
            test_accuracy,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_agree_with_hand_computed_values() {
        let updates = vec![vec![1.0, 10.0], vec![3.0, 20.0], vec![8.0, 60.0]];
        assert_eq!(weighted_mean(&updates, &[1.0, 1.0, 2.0]), vec![5.0, 37.5]);
        assert_eq!(coordinate_median(&updates), vec![3.0, 20.0]);
        assert_eq!(coordinate_median(&updates[..2]), vec![2.0, 15.0]);
    }

    #[test]
    fn the_session_reproduces_the_plain_trajectory() {
        for name in ["median_32p", "train_conv"] {
            let w = Workload::find(name).expect("workload");
            let (shards, test) = (w.shards(5), w.test_set(5));
            let plain = plain_rounds(w, 5, 2, &shards, &test).expect("reference");
            let mut session =
                deta_core::DetaSession::setup(w.config(5, 2), &|rng| w.build_model(rng), shards)
                    .expect("set-up");
            for p in plain {
                let m = session.step(&test);
                let off = |a: f32, b: f32| ((a - b) / b).abs();
                assert!(
                    off(m.train_loss, p.train_loss) < 1e-4,
                    "{name}: {m:?} {p:?}"
                );
                assert!(off(m.test_loss, p.test_loss) < 1e-4, "{name}: {m:?} {p:?}");
                assert_eq!(m.test_accuracy, p.test_accuracy, "{name}");
            }
        }
    }
}
