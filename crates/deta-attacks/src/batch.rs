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

use crate::autograd::{Tape, Var};
use crate::harness::{BreachedView, GraphModel};
use crate::metrics::mse;
use crate::optim::Lbfgs;
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

/// Builds a tape computing the *mean* per-example gradient of a batch of
/// `b` examples w.r.t. the leading `k` parameters.
struct BatchTape {
    tape: Tape,
    xs: Vec<Vec<Var>>,
    label_logits: Vec<Vec<Var>>,
    gstar: Vec<Var>,
    mean_grads: Vec<Var>,
}

impl BatchTape {
    fn build(model: &dyn GraphModel, b: usize, k: usize) -> BatchTape {
        assert!(b > 0 && k > 0 && k <= model.param_count());
        let mut tape = Tape::new();
        let xs: Vec<Vec<Var>> = (0..b).map(|_| tape.inputs(model.input_dim())).collect();
        let label_logits: Vec<Vec<Var>> = (0..b).map(|_| tape.inputs(model.classes())).collect();
        let params = tape.inputs(model.param_count());
        let gstar = tape.inputs(k);
        // Mean loss over the batch, differentiated once w.r.t. params.
        let losses: Vec<Var> = xs
            .iter()
            .zip(label_logits.iter())
            .map(|(x, ll)| {
                let logits = model.forward(&mut tape, x, &params);
                crate::graphnet::soft_cross_entropy(&mut tape, &logits, ll)
            })
            .collect();
        let total = tape.sum(&losses);
        let mean_loss = tape.scale(total, 1.0 / b as f64);
        let mean_grads = tape.grad(mean_loss, &params[..k]);
        BatchTape {
            tape,
            xs,
            label_logits,
            gstar,
            mean_grads,
        }
    }
}

/// Computes the mean gradient of a batch (the victim-side computation).
pub fn batch_mean_gradient(
    model: &dyn GraphModel,
    params: &[f32],
    images: &[Vec<f32>],
    labels: &[usize],
) -> Vec<f32> {
    assert_eq!(images.len(), labels.len());
    let b = images.len();
    let bt = BatchTape::build(model, b, model.param_count());
    let mut ev = bt.tape.evaluator();
    let mut inputs = Vec::new();
    for img in images {
        inputs.extend(img.iter().map(|&v| v as f64));
    }
    for &l in labels {
        for c in 0..model.classes() {
            inputs.push(if c == l { 30.0 } else { -30.0 });
        }
    }
    inputs.extend(params.iter().map(|&v| v as f64));
    inputs.extend(std::iter::repeat_n(0.0, model.param_count()));
    ev.eval(&bt.tape, &inputs);
    bt.mean_grads.iter().map(|&g| ev.value(g) as f32).collect()
}

/// Runs batched DLG: jointly optimizes `b` dummy inputs and soft labels
/// to match the visible (possibly DeTA-transformed) mean gradient.
pub fn run_batch_dlg(
    model: &dyn GraphModel,
    params: &[f32],
    view: &BreachedView,
    b: usize,
    cfg: &BatchDlgConfig,
) -> BatchDlgOutcome {
    let k = view.visible.len();
    let mut bt = BatchTape::build(model, b, k);
    let objective = {
        let grads = bt.mean_grads.clone();
        let gstar = bt.gstar.clone();
        bt.tape.sq_dist(&grads, &gstar)
    };
    let d = model.input_dim();
    let c = model.classes();
    let opt_vars: Vec<Var> = bt
        .xs
        .iter()
        .flatten()
        .chain(bt.label_logits.iter().flatten())
        .copied()
        .collect();
    let opt_grads = bt.tape.grad(objective, &opt_vars);
    let mut ev = bt.tape.evaluator();
    let n_opt = opt_vars.len();
    let pack = |vars: &[f64], params: &[f32], gstar: &[f32]| -> Vec<f64> {
        let mut inputs = Vec::with_capacity(n_opt + params.len() + gstar.len());
        inputs.extend_from_slice(&vars[..b * d]); // xs
        inputs.extend_from_slice(&vars[b * d..]); // label logits
        inputs.extend(params.iter().map(|&v| v as f64));
        inputs.extend(gstar.iter().map(|&v| v as f64));
        inputs
    };
    let mut best: Option<(f64, Vec<f64>)> = None;
    for r in 0..cfg.restarts.max(1) {
        let mut rng = DetRng::from_u64(cfg.seed).fork_indexed(b"batch-dlg", r as u64);
        let mut vars0: Vec<f64> = (0..b * d).map(|_| rng.next_f64()).collect();
        vars0.extend((0..b * c).map(|_| rng.next_gaussian() * 0.1));
        let lbfgs = Lbfgs {
            max_iter: cfg.iterations,
            ..Default::default()
        };
        let (vars, fx) = lbfgs.minimize(vars0, |vars| {
            let inputs = pack(vars, params, &view.visible);
            ev.eval(&bt.tape, &inputs);
            let value = ev.value(objective);
            let grad: Vec<f64> = opt_grads.iter().map(|&g| ev.value(g)).collect();
            (value, grad)
        });
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
    let mut used = vec![false; b];
    let mut total = 0.0f64;
    // Greedy matching: repeatedly take the globally smallest remaining
    // pair. Exact for b = 1-2 and a close approximation for small b.
    let mut pairs: Vec<(f64, usize, usize)> = Vec::new();
    for (i, r) in recons.iter().enumerate() {
        for (j, t) in truths.iter().enumerate() {
            pairs.push((mse(r, t), i, j));
        }
    }
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let mut r_used = vec![false; b];
    let mut count = 0;
    for (m, i, j) in pairs {
        if !r_used[i] && !used[j] {
            r_used[i] = true;
            used[j] = true;
            total += m;
            count += 1;
            if count == b {
                break;
            }
        }
    }
    total / b as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphnet::MlpSpec;
    use crate::harness::{breach_view, AttackView};

    fn setup(b: usize) -> (MlpSpec, Vec<f32>, Vec<Vec<f32>>, Vec<usize>) {
        let spec = MlpSpec::new(&[12, 10, 4]);
        let mut rng = DetRng::from_u64(51);
        let params: Vec<f32> = (0..spec.param_count())
            .map(|_| rng.next_gaussian() as f32 * 0.3)
            .collect();
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
        // Single-example gradient via the standard tape.
        let at = crate::harness::AttackTape::build(&spec, spec.param_count());
        let mut ev = at.tape.evaluator();
        let xin: Vec<f64> = images[0].iter().map(|&v| v as f64).collect();
        let inputs = at.pack_inputs(
            &xin,
            &at.hard_label_logits(labels[0]),
            &params,
            &vec![0.0; spec.param_count()],
        );
        ev.eval(&at.tape, &inputs);
        let single: Vec<f32> = at.grads.iter().map(|&g| ev.value(g) as f32).collect();
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
