//! Mini-batch gradient inversion.
//!
//! Parties rarely share single-example gradients: FedSGD uploads the
//! *mean* gradient of a batch, and the paper notes that attacks must
//! "scale to gradients computed on mini-batched training data" (its
//! active-attack citations do exactly that). This module extends DLG to
//! jointly reconstruct all `B` examples of a batch from the mean
//! gradient, which quantifies the classic observation that inversion
//! quality degrades as `B` grows — one more reason FedAvg-style batching
//! already raises the attack bar before DeTA's transforms apply.

use crate::dlg::l2_match;
use crate::harness::{BreachedView, GraphModel};
use crate::metrics::mse;
use deta_crypto::DetRng;

/// Batched attack configuration.
#[derive(Clone, Copy, Debug)]
pub struct BatchDlgConfig {
    /// L-BFGS iteration budget.
    pub iterations: usize,
    /// RNG seed for the dummy initialization.
    pub seed: u64,
    /// Random restarts (best final objective wins).
    pub restarts: usize,
}

/// Batched attack outcome.
#[derive(Clone, Debug)]
pub struct BatchDlgOutcome {
    /// One reconstruction per batch slot.
    pub reconstructions: Vec<Vec<f32>>,
    /// Final gradient-matching objective.
    pub final_objective: f64,
}

/// Runs batched DLG: jointly optimizes `b` dummy inputs and soft labels,
/// the `b` rows of one attack tape, to match the visible (possibly
/// DeTA-transformed) mean gradient.
pub fn run_batch_dlg(
    model: &dyn GraphModel,
    params: &[f32],
    view: &BreachedView,
    b: usize,
    cfg: &BatchDlgConfig,
) -> BatchDlgOutcome {
    let mut minimize = l2_match(model, params, view, b, None);
    let (d, c) = (model.input_dim(), model.classes());
    let mut best: Option<(f64, Vec<f64>)> = None;
    for r in 0..cfg.restarts.max(1) {
        let mut rng = DetRng::from_u64(cfg.seed).fork_indexed(b"batch-dlg", r as u64);
        let mut vars0: Vec<f64> = (0..b * d).map(|_| rng.next_f64()).collect();
        vars0.extend((0..b * c).map(|_| rng.next_gaussian() * 0.1));
        let (vars, fx) = minimize(vars0, cfg.iterations);
        if best.as_ref().is_none_or(|(bfx, _)| fx < *bfx) {
            best = Some((fx, vars));
        }
    }
    let (final_objective, vars) = best.unwrap();
    let reconstructions = (0..b)
        .map(|i| vars[i * d..(i + 1) * d].iter().map(|&v| v as f32).collect())
        .collect();
    BatchDlgOutcome {
        reconstructions,
        final_objective,
    }
}

/// Scores a batched reconstruction against the true batch with the best
/// greedy assignment (batch order is not identifiable), returning the
/// mean per-image MSE.
pub fn best_assignment_mse(recons: &[Vec<f32>], truths: &[Vec<f32>]) -> f64 {
    assert_eq!(recons.len(), truths.len());
    let b = recons.len();
    // Greedy matching: repeatedly take the globally smallest remaining
    // pair. Exact for b = 1-2 and a close approximation for small b.
    let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
    for (i, r) in recons.iter().enumerate() {
        for (j, t) in truths.iter().enumerate() {
            pairs.push((mse(r, t), i, j));
        }
    }
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let (mut r_used, mut t_used) = (vec![false; b], vec![false; b]);
    let mut total = 0.0f64;
    for (m, i, j) in pairs {
        if !r_used[i] && !t_used[j] {
            (r_used[i], t_used[j]) = (true, true);
            total += m;
        }
    }
    total / b as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphnet::MlpSpec;
    use crate::harness::{breach_view, victim_gradient, AttackView};

    /// The mean gradient of a batch, as its victim shares it.
    fn batch_mean_gradient(
        spec: &MlpSpec,
        params: &[f32],
        images: &[Vec<f32>],
        labels: &[usize],
    ) -> Vec<f32> {
        victim_gradient(spec, params, &images.concat(), labels)
    }

    fn setup(b: usize) -> (MlpSpec, Vec<f32>, Vec<Vec<f32>>, Vec<usize>) {
        let spec = MlpSpec::new(&[12, 10, 4]);
        let mut rng = DetRng::from_u64(51);
        let mut params = vec![0.0f32; spec.param_count()];
        rng.fill_gaussian(&mut params);
        params.iter_mut().for_each(|v| *v *= 0.3);
        let images: Vec<Vec<f32>> = (0..b)
            .map(|_| (0..12).map(|_| rng.next_f32()).collect())
            .collect();
        let labels: Vec<usize> = (0..b).map(|i| i % 4).collect();
        (spec, params, images, labels)
    }

    #[test]
    fn batch_of_one_matches_single_gradient() {
        let (spec, params, images, labels) = setup(1);
        let batch_g = batch_mean_gradient(&spec, &params, &images, &labels);
        // The single-example gradient, one row on the tape.
        let single = victim_gradient(&spec, &params, &images[0], &labels[..1]);
        for (a, b) in batch_g.iter().zip(single.iter()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn mean_gradient_is_mean_of_singles() {
        let (spec, params, images, labels) = setup(3);
        let batch_g = batch_mean_gradient(&spec, &params, &images, &labels);
        let mut acc = vec![0.0f32; spec.param_count()];
        for (img, &l) in images.iter().zip(labels.iter()) {
            let g = batch_mean_gradient(&spec, &params, std::slice::from_ref(img), &[l]);
            for (a, v) in acc.iter_mut().zip(g.iter()) {
                *a += v / 3.0;
            }
        }
        for (a, b) in batch_g.iter().zip(acc.iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn batch_dlg_reconstructs_pairs() {
        let (spec, params, images, labels) = setup(2);
        let g = batch_mean_gradient(&spec, &params, &images, &labels);
        let view = breach_view(&g, AttackView::Full, 1, &[0u8; 16]);
        let out = run_batch_dlg(
            &spec,
            &params,
            &view,
            2,
            &BatchDlgConfig {
                iterations: 800,
                seed: 3,
                restarts: 2,
            },
        );
        let err = best_assignment_mse(&out.reconstructions, &images);
        assert!(err < 0.05, "B=2 full-view batch DLG should work, mse={err}");
    }

    #[test]
    fn batch_dlg_fails_under_deta() {
        let (spec, params, images, labels) = setup(2);
        let g = batch_mean_gradient(&spec, &params, &images, &labels);
        let view = breach_view(
            &g,
            AttackView::PartitionShuffle { factor: 0.6 },
            1,
            &[4u8; 16],
        );
        let out = run_batch_dlg(
            &spec,
            &params,
            &view,
            2,
            &BatchDlgConfig {
                iterations: 300,
                seed: 3,
                restarts: 1,
            },
        );
        let err = best_assignment_mse(&out.reconstructions, &images);
        assert!(err > 0.02, "DeTA must defeat batched DLG too, mse={err}");
    }

    #[test]
    fn assignment_is_permutation_invariant() {
        let a = vec![vec![0.0f32; 4], vec![1.0f32; 4]];
        let b = vec![vec![1.0f32; 4], vec![0.0f32; 4]];
        assert_eq!(best_assignment_mse(&a, &b), 0.0);
        assert_eq!(best_assignment_mse(&a, &a), 0.0);
    }
}
