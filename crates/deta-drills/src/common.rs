//! Shared fixtures for the drills and the simulator, which drive full FL
//! sessions: a small deterministic MNIST-like deployment matching the
//! repo's integration tests, the parameter-distance metric the poisoning
//! gates use, and the exact comparison of parameter vectors.

use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::train::LabeledData;
use std::sync::{Mutex, MutexGuard};

/// A small MNIST-like workload of `train` examples split across
/// `parties` shards, plus a held-out test set of `test` examples and the
/// model dimensions.
pub fn fl_data(
    parties: usize,
    train: usize,
    test: usize,
) -> (Vec<LabeledData>, LabeledData, usize, usize) {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let train = spec.generate(train, 1);
    let test = spec.generate(test, 2);
    (
        iid_partition(&train, parties, 3),
        test,
        spec.dim(),
        spec.classes,
    )
}

/// Relative L2 distance `‖a − b‖ / ‖b‖` between two parameter vectors
/// (`b` is the reference). Infinite when the vectors disagree in length.
pub fn rel_l2(a: &[f32], b: &[f32]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let mut diff = 0.0f64;
    let mut norm = 0.0f64;
    for (x, y) in a.iter().zip(b.iter()) {
        diff += (f64::from(*x) - f64::from(*y)).powi(2);
        norm += f64::from(*y).powi(2);
    }
    if norm == 0.0 {
        return if diff == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (diff / norm).sqrt()
}

/// f32 slices compared exactly, NaN-safe.
pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Locks `m`, recovering the guard if a panicking holder poisoned it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_l2_basics() {
        assert_eq!(rel_l2(&[1.0, 0.0], &[1.0, 0.0]), 0.0);
        assert!((rel_l2(&[2.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-9);
        assert_eq!(rel_l2(&[1.0], &[1.0, 2.0]), f64::INFINITY);
    }
}
