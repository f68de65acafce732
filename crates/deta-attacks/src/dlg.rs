//! Deep Leakage from Gradients (Zhu et al., NeurIPS 2019).
//!
//! DLG reconstructs a training example from its shared gradient by
//! minimizing `|| grad_theta L(x', y') - g* ||^2` over a randomly
//! initialized dummy input `x'` and soft label `y'`. Gradient steps on
//! this objective require second derivatives of the loss, supplied by the
//! tensor [`crate::tape`], which differentiates its own backward pass.
//!
//! As in the original implementation, the objective is minimized with
//! L-BFGS (see [`crate::optim::Lbfgs`]), which handles the
//! ill-conditioned gradient-matching landscape far better than
//! first-order methods.

use crate::harness::{hard_label_logits, AttackTape, BreachedView};
use crate::lower::{widths, LowerError};
use crate::optim::Lbfgs;
use deta_crypto::DetRng;
use deta_nn::Sequential;

/// DLG attack configuration.
#[derive(Clone, Copy, Debug)]
pub struct DlgConfig {
    /// L-BFGS iteration budget (the paper uses 300).
    pub iterations: usize,
    /// RNG seed for the dummy initialization.
    pub seed: u64,
    /// Random restarts; the result with the lowest final objective wins.
    pub restarts: usize,
}

/// Attack outcome.
#[derive(Clone, Debug)]
pub struct DlgOutcome {
    /// The reconstructed input.
    pub reconstruction: Vec<f32>,
    /// The recovered soft-label distribution.
    pub label_probs: Vec<f64>,
    /// Final value of the gradient-matching objective.
    pub final_objective: f64,
}

/// Runs DLG against a breached view of one example's gradient.
///
/// The attack runs under `model`'s own weights — the relaxed threat model
/// in the paper's Section 6 grants the attacker black-box access to the
/// unperturbed model, which for gradient matching is equivalent to
/// knowing the weights; only the *target* gradient is transformed.
pub fn run_dlg(
    model: &Sequential,
    view: &BreachedView,
    cfg: &DlgConfig,
) -> Result<DlgOutcome, LowerError> {
    run_dlg_inner(model, view, cfg, None)
}

/// DLG with a pinned label (used by iDLG after label inference).
pub fn run_dlg_fixed_label(
    model: &Sequential,
    view: &BreachedView,
    cfg: &DlgConfig,
    label: usize,
) -> Result<DlgOutcome, LowerError> {
    run_dlg_inner(model, view, cfg, Some(label))
}

/// Appends to `at` the squared L2 distance between the gradient of its
/// dummy inputs (under the attacker's alignment) and the visible
/// fragment, and returns its L-BFGS minimizer under `model`'s weights:
/// from a start (the dummy inputs, then the label logits unless `pinned`
/// holds them) and an iteration budget, to the final variables and
/// objective.
pub(crate) fn l2_match<'a>(
    mut at: AttackTape,
    model: &Sequential,
    view: &'a BreachedView,
    pinned: Option<Vec<f32>>,
) -> impl FnMut(Vec<f64>, usize) -> (Vec<f64>, f64) + 'a {
    let objective = at.tape.sq_dist(at.grads, at.gstar);
    let wrt = match pinned {
        Some(_) => vec![at.x],
        None => vec![at.x, at.label_logits],
    };
    let wrt = at.tape.grad(objective, &wrt);
    let mut ev = at.tape.evaluator();
    let params = model.flat_params();
    let len = |v| at.tape.shape(v).iter().product();
    let mut x = vec![0.0f32; len(at.x)];
    let mut labels = pinned.unwrap_or_else(|| vec![0.0; len(at.label_logits)]);
    move |vars0, iterations| {
        let lbfgs = Lbfgs {
            max_iter: iterations,
            ..Default::default()
        };
        lbfgs.minimize(vars0, |vars| {
            // Pinned labels are not among the variables, so stay as they are.
            for (d, &s) in x.iter_mut().chain(labels.iter_mut()).zip(vars) {
                *d = s as f32;
            }
            at.eval(&mut ev, &x, &labels, &params, &view.visible);
            let value = f64::from(ev.value(objective)[0]);
            let grad = wrt.iter().flat_map(|&g| ev.value(g));
            (value, grad.map(|&v| f64::from(v)).collect())
        })
    }
}

fn run_dlg_inner(
    model: &Sequential,
    view: &BreachedView,
    cfg: &DlgConfig,
    fixed_label: Option<usize>,
) -> Result<DlgOutcome, LowerError> {
    let (d, c) = widths(model);
    let pinned = fixed_label.map(|l| hard_label_logits(c, &[l]));
    let at = AttackTape::build(model, 1, &view.positions())?;
    let mut minimize = l2_match(at, model, view, pinned.clone());
    let mut best: Option<DlgOutcome> = None;
    for r in 0..cfg.restarts.max(1) {
        // Dummy initialization.
        let seed = cfg.seed.wrapping_add(1_000_003 * r as u64);
        let mut rng = DetRng::from_u64(seed).fork(b"dlg-init");
        let mut vars0: Vec<f64> = (0..d).map(|_| rng.next_f64()).collect();
        if pinned.is_none() {
            vars0.extend((0..c).map(|_| rng.next_gaussian() * 0.1));
        }
        let (vars, final_objective) = minimize(vars0, cfg.iterations);
        let label_logits: Vec<f64> = match &pinned {
            Some(p) => p.iter().map(|&v| f64::from(v)).collect(),
            None => vars[d..].to_vec(),
        };
        let max = label_logits
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = label_logits.iter().map(|&l| (l - max).exp()).collect();
        let denom: f64 = exps.iter().sum();
        if best
            .as_ref()
            .is_none_or(|b| final_objective < b.final_objective)
        {
            best = Some(DlgOutcome {
                reconstruction: vars[..d].iter().map(|&v| v as f32).collect(),
                label_probs: exps.iter().map(|&e| e / denom).collect(),
                final_objective,
            });
        }
    }
    Ok(best.unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{breach_view, random_victim, victim_gradient, AttackView};
    use crate::metrics::mse;
    use deta_crypto::DetRng;
    use deta_nn::models::mlp;

    fn true_gradient(model: &Sequential, x: &[f32], label: usize) -> Vec<f32> {
        victim_gradient(model, x, &[label]).unwrap()
    }

    fn setup() -> (Sequential, Vec<f32>, usize) {
        let mut rng = DetRng::from_u64(11);
        let model = random_victim(|r| mlp(&[16, 12, 4], r), &mut rng);
        let x: Vec<f32> = (0..16).map(|_| rng.next_f32()).collect();
        (model, x, 2)
    }

    #[test]
    fn dlg_reconstructs_with_full_view() {
        let (model, x, label) = setup();
        let g = true_gradient(&model, &x, label);
        let view = breach_view(&g, AttackView::Full, 1, &[0u8; 16]);
        let out = run_dlg(
            &model,
            &view,
            &DlgConfig {
                iterations: 600,
                seed: 3,
                restarts: 1,
            },
        )
        .unwrap();
        let err = mse(&out.reconstruction, &x);
        assert!(err < 1e-2, "full-view DLG should reconstruct, mse={err}");
        // The recovered label should be correct.
        let inferred = out
            .label_probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(inferred, label);
    }

    #[test]
    fn dlg_fails_with_shuffled_view() {
        let (model, x, label) = setup();
        let g = true_gradient(&model, &x, label);
        let view = breach_view(
            &g,
            AttackView::PartitionShuffle { factor: 1.0 },
            1,
            &[5u8; 16],
        );
        let out = run_dlg(
            &model,
            &view,
            &DlgConfig {
                iterations: 300,
                seed: 3,
                restarts: 1,
            },
        )
        .unwrap();
        let err = mse(&out.reconstruction, &x);
        assert!(
            err > 0.02,
            "shuffled view must not be reconstructable, mse={err}"
        );
    }

    #[test]
    fn objective_decreases_with_full_view() {
        let (model, x, label) = setup();
        let g = true_gradient(&model, &x, label);
        let view = breach_view(&g, AttackView::Full, 1, &[0u8; 16]);
        let short = run_dlg(
            &model,
            &view,
            &DlgConfig {
                iterations: 5,
                seed: 3,
                restarts: 1,
            },
        )
        .unwrap();
        let long = run_dlg(
            &model,
            &view,
            &DlgConfig {
                iterations: 400,
                seed: 3,
                restarts: 1,
            },
        )
        .unwrap();
        assert!(long.final_objective < short.final_objective);
    }

    #[test]
    fn oracle_attacker_defeats_partition_alone() {
        // Defense-in-depth: an attacker who learned the model mapper can
        // align a partition-only fragment and reconstruct...
        use crate::harness::oracle_breach_view;
        let (model, x, label) = setup();
        let g = true_gradient(&model, &x, label);
        let view = oracle_breach_view(&g, 0.6, false, 3, &[2u8; 16]);
        let out = run_dlg(
            &model,
            &view,
            &DlgConfig {
                iterations: 600,
                seed: 1,
                restarts: 2,
            },
        )
        .unwrap();
        let err = mse(&out.reconstruction, &x);
        assert!(
            err < 0.02,
            "oracle + partition-only should reconstruct, mse={err}"
        );
    }

    #[test]
    fn oracle_attacker_still_fails_against_shuffle() {
        // ...but the keyed shuffle holds even against the oracle.
        use crate::harness::oracle_breach_view;
        let (model, x, label) = setup();
        let g = true_gradient(&model, &x, label);
        let view = oracle_breach_view(&g, 0.6, true, 3, &[2u8; 16]);
        let out = run_dlg(
            &model,
            &view,
            &DlgConfig {
                iterations: 300,
                seed: 1,
                restarts: 1,
            },
        )
        .unwrap();
        let err = mse(&out.reconstruction, &x);
        assert!(
            err > 0.02,
            "shuffle must hold against the oracle, mse={err}"
        );
    }

    #[test]
    fn tape_reuse_is_consistent() {
        // Building the tape twice for the same model yields the same size
        // (determinism of the graph construction).
        let model = mlp(&[6, 5, 3], &mut DetRng::from_u64(1));
        let positions: Vec<u32> = (0..10).collect();
        let a = AttackTape::build(&model, 1, &positions).unwrap();
        let b = AttackTape::build(&model, 1, &positions).unwrap();
        assert_eq!(a.tape.len(), b.tape.len());
    }
}
