//! Deep Leakage from Gradients (Zhu et al., NeurIPS 2019).
//!
//! DLG reconstructs a training example from its shared gradient by
//! minimizing `|| grad_theta L(x', y') - g* ||^2` over a randomly
//! initialized dummy input `x'` and soft label `y'`. Gradient steps on
//! this objective require second derivatives of the loss, supplied by the
//! graph-mode tape.
//!
//! As in the original implementation, the objective is minimized with
//! L-BFGS (see [`crate::optim::Lbfgs`]), which handles the
//! ill-conditioned gradient-matching landscape far better than
//! first-order methods.

use crate::harness::{AttackTape, BreachedView, GraphModel};
use crate::optim::Lbfgs;
use deta_crypto::DetRng;

/// DLG attack configuration.
#[derive(Clone, Copy, Debug)]
pub struct DlgConfig {
    /// L-BFGS iteration budget (the paper uses 300).
    pub iterations: usize,
    /// Unused by L-BFGS (kept for harness compatibility; line search
    /// chooses step sizes).
    pub lr: f64,
    /// RNG seed for the dummy initialization.
    pub seed: u64,
    /// Random restarts; the result with the lowest final objective wins.
    pub restarts: usize,
}

impl Default for DlgConfig {
    fn default() -> Self {
        DlgConfig {
            iterations: 300,
            lr: 0.1,
            seed: 0,
            restarts: 1,
        }
    }
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
/// `params` are the victim model's weights — the relaxed threat model in
/// the paper's Section 6 grants the attacker black-box access to the
/// unperturbed model, which for gradient matching is equivalent to
/// knowing the weights; only the *target* gradient is transformed.
pub fn run_dlg(
    model: &dyn GraphModel,
    params: &[f32],
    view: &BreachedView,
    cfg: &DlgConfig,
) -> DlgOutcome {
    run_dlg_inner(model, params, view, cfg, None)
}

/// DLG with a pinned label (used by iDLG after label inference).
pub fn run_dlg_fixed_label(
    model: &dyn GraphModel,
    params: &[f32],
    view: &BreachedView,
    cfg: &DlgConfig,
    label: usize,
) -> DlgOutcome {
    run_dlg_inner(model, params, view, cfg, Some(label))
}

fn run_dlg_inner(
    model: &dyn GraphModel,
    params: &[f32],
    view: &BreachedView,
    cfg: &DlgConfig,
    fixed_label: Option<usize>,
) -> DlgOutcome {
    let mut best: Option<DlgOutcome> = None;
    for r in 0..cfg.restarts.max(1) {
        let sub = DlgConfig {
            seed: cfg.seed.wrapping_add(1_000_003 * r as u64),
            restarts: 1,
            ..*cfg
        };
        let out = run_dlg_once(model, params, view, &sub, fixed_label);
        if best
            .as_ref()
            .is_none_or(|b| out.final_objective < b.final_objective)
        {
            best = Some(out);
        }
    }
    best.unwrap()
}

fn run_dlg_once(
    model: &dyn GraphModel,
    params: &[f32],
    view: &BreachedView,
    cfg: &DlgConfig,
    fixed_label: Option<usize>,
) -> DlgOutcome {
    let mut at = match &view.known_positions {
        Some(pos) => AttackTape::build_with_positions(model, pos),
        None => AttackTape::build(model, view.visible.len()),
    };
    // Objective: squared L2 distance between the dummy gradient (under
    // the attacker's alignment) and the visible fragment.
    let objective = {
        let grads = at.grads.clone();
        let gstar = at.gstar.clone();
        at.tape.sq_dist(&grads, &gstar)
    };
    let d = model.input_dim();
    let c = model.classes();
    let optimize_label = fixed_label.is_none();
    // Differentiate the objective w.r.t. the dummy input (and soft label).
    let opt_vars: Vec<_> = if optimize_label {
        at.x.iter().chain(at.label_logits.iter()).copied().collect()
    } else {
        at.x.clone()
    };
    let opt_grads = at.tape.grad(objective, &opt_vars);
    let mut ev = at.tape.evaluator();

    // Dummy initialization.
    let mut rng = DetRng::from_u64(cfg.seed).fork(b"dlg-init");
    let mut x: Vec<f64> = (0..d).map(|_| rng.next_f64()).collect();
    let mut label_logits: Vec<f64> = match fixed_label {
        Some(l) => at.hard_label_logits(l),
        None => (0..c).map(|_| rng.next_gaussian() * 0.1).collect(),
    };

    let vars0: Vec<f64> = if optimize_label {
        x.iter().chain(label_logits.iter()).copied().collect()
    } else {
        x.clone()
    };
    let lbfgs = Lbfgs {
        max_iter: cfg.iterations,
        ..Default::default()
    };
    let fixed_logits = label_logits.clone();
    let (vars, final_objective) = lbfgs.minimize(vars0, |vars| {
        let xv = &vars[..d];
        let lv: &[f64] = if optimize_label {
            &vars[d..]
        } else {
            &fixed_logits
        };
        let inputs = at.pack_inputs(xv, lv, params, &view.visible);
        ev.eval(&at.tape, &inputs);
        let value = ev.value(objective);
        let grad: Vec<f64> = opt_grads.iter().map(|&g| ev.value(g)).collect();
        (value, grad)
    });
    x.copy_from_slice(&vars[..d]);
    if optimize_label {
        label_logits.copy_from_slice(&vars[d..]);
    }

    let max = label_logits
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = label_logits.iter().map(|&l| (l - max).exp()).collect();
    let denom: f64 = exps.iter().sum();
    DlgOutcome {
        reconstruction: x.iter().map(|&v| v as f32).collect(),
        label_probs: exps.iter().map(|&e| e / denom).collect(),
        final_objective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autograd::Tape;
    use crate::graphnet::MlpSpec;
    use crate::harness::{breach_view, AttackView};
    use crate::metrics::mse;
    use deta_crypto::DetRng;

    /// Computes the true single-example gradient via the graph (hard label).
    fn true_gradient(spec: &MlpSpec, params: &[f32], x: &[f32], label: usize) -> Vec<f32> {
        let at = AttackTape::build(spec, spec.param_count());
        let mut ev = at.tape.evaluator();
        let xin: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let inputs = at.pack_inputs(
            &xin,
            &at.hard_label_logits(label),
            params,
            &vec![0.0; spec.param_count()],
        );
        ev.eval(&at.tape, &inputs);
        at.grads.iter().map(|&g| ev.value(g) as f32).collect()
    }

    fn setup() -> (MlpSpec, Vec<f32>, Vec<f32>, usize) {
        let spec = MlpSpec::new(&[16, 12, 4]);
        let mut rng = DetRng::from_u64(11);
        let params: Vec<f32> = (0..spec.param_count())
            .map(|_| rng.next_gaussian() as f32 * 0.3)
            .collect();
        let x: Vec<f32> = (0..16).map(|_| rng.next_f32()).collect();
        (spec, params, x, 2)
    }

    #[test]
    fn dlg_reconstructs_with_full_view() {
        let (spec, params, x, label) = setup();
        let g = true_gradient(&spec, &params, &x, label);
        let view = breach_view(&g, AttackView::Full, 1, &[0u8; 16]);
        let out = run_dlg(
            &spec,
            &params,
            &view,
            &DlgConfig {
                iterations: 600,
                lr: 0.05,
                seed: 3,
                restarts: 1,
            },
        );
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
        let (spec, params, x, label) = setup();
        let g = true_gradient(&spec, &params, &x, label);
        let view = breach_view(
            &g,
            AttackView::PartitionShuffle { factor: 1.0 },
            1,
            &[5u8; 16],
        );
        let out = run_dlg(
            &spec,
            &params,
            &view,
            &DlgConfig {
                iterations: 300,
                lr: 0.05,
                seed: 3,
                restarts: 1,
            },
        );
        let err = mse(&out.reconstruction, &x);
        assert!(
            err > 0.02,
            "shuffled view must not be reconstructable, mse={err}"
        );
    }

    #[test]
    fn objective_decreases_with_full_view() {
        let (spec, params, x, label) = setup();
        let g = true_gradient(&spec, &params, &x, label);
        let view = breach_view(&g, AttackView::Full, 1, &[0u8; 16]);
        let short = run_dlg(
            &spec,
            &params,
            &view,
            &DlgConfig {
                iterations: 5,
                lr: 0.05,
                seed: 3,
                restarts: 1,
            },
        );
        let long = run_dlg(
            &spec,
            &params,
            &view,
            &DlgConfig {
                iterations: 400,
                lr: 0.05,
                seed: 3,
                restarts: 1,
            },
        );
        assert!(long.final_objective < short.final_objective);
    }

    #[test]
    fn oracle_attacker_defeats_partition_alone() {
        // Defense-in-depth: an attacker who learned the model mapper can
        // align a partition-only fragment and reconstruct...
        use crate::harness::oracle_breach_view;
        let (spec, params, x, label) = setup();
        let g = true_gradient(&spec, &params, &x, label);
        let view = oracle_breach_view(&g, 0.6, false, 3, &[2u8; 16]);
        let out = run_dlg(
            &spec,
            &params,
            &view,
            &DlgConfig {
                iterations: 600,
                lr: 0.05,
                seed: 1,
                restarts: 2,
            },
        );
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
        let (spec, params, x, label) = setup();
        let g = true_gradient(&spec, &params, &x, label);
        let view = oracle_breach_view(&g, 0.6, true, 3, &[2u8; 16]);
        let out = run_dlg(
            &spec,
            &params,
            &view,
            &DlgConfig {
                iterations: 300,
                lr: 0.05,
                seed: 1,
                restarts: 1,
            },
        );
        let err = mse(&out.reconstruction, &x);
        assert!(
            err > 0.02,
            "shuffle must hold against the oracle, mse={err}"
        );
    }

    #[test]
    fn tape_reuse_is_consistent() {
        // Building the tape twice for the same spec yields the same size
        // (determinism of the graph construction).
        let spec = MlpSpec::new(&[6, 5, 3]);
        let a = AttackTape::build(&spec, 10);
        let b = AttackTape::build(&spec, 10);
        assert_eq!(a.tape.len(), b.tape.len());
        let _ = Tape::new();
    }
}
