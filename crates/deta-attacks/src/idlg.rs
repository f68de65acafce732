//! Improved Deep Leakage from Gradients (Zhao et al., 2020).
//!
//! iDLG's contribution over DLG is *analytic label inference*: for
//! softmax cross-entropy on a single example, the gradient of the final
//! layer's bias is `p - onehot(y)`, so exactly the true class's entry is
//! negative. Having pinned the label, the input-only gradient matching is
//! easier and reconstructions are more faithful.
//!
//! Against DeTA the inference rule itself degrades: the attacker can no
//! longer locate the bias-gradient block inside a fragmented (and
//! possibly shuffled) vector, so it applies the sign rule to where the
//! block *would* be under its assumed alignment — correct on a full
//! in-order view, garbage otherwise. The reconstruction step then fails
//! just as DLG's does.

use crate::dlg::{run_dlg_fixed_label, DlgConfig, DlgOutcome};
use crate::harness::{BreachedView, GraphModel};

/// Infers the ground-truth label from the visible gradient fragment.
///
/// The last-layer bias gradient occupies the final `classes` entries of a
/// full flat gradient. The attacker applies the rule to the trailing
/// `classes` entries of whatever it sees; when the view is partitioned or
/// shuffled those entries are not the bias block and the inference is
/// unreliable — which is the point.
///
/// Returns `None` if the fragment is shorter than the class count.
pub fn infer_label(view: &BreachedView, classes: usize) -> Option<usize> {
    if view.visible.len() < classes {
        return None;
    }
    let tail = &view.visible[view.visible.len() - classes..];
    let mut best = 0usize;
    for (i, &v) in tail.iter().enumerate() {
        if v < tail[best] {
            best = i;
        }
    }
    Some(best)
}

/// iDLG outcome: the DLG-style reconstruction plus the inferred label.
#[derive(Clone, Debug)]
pub struct IdlgOutcome {
    /// Reconstruction result.
    pub dlg: DlgOutcome,
    /// The label the attacker inferred (fallback 0 if unavailable).
    pub inferred_label: usize,
}

/// Runs iDLG: label inference followed by fixed-label gradient matching.
pub fn run_idlg(
    model: &dyn GraphModel,
    params: &[f32],
    view: &BreachedView,
    cfg: &DlgConfig,
) -> IdlgOutcome {
    let inferred_label = infer_label(view, model.classes()).unwrap_or(0);
    let dlg = run_dlg_fixed_label(model, params, view, cfg, inferred_label);
    IdlgOutcome {
        dlg,
        inferred_label,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphnet::MlpSpec;
    use crate::harness::{breach_view, victim_gradient, AttackView};
    use crate::metrics::mse;
    use deta_crypto::DetRng;

    fn true_gradient(spec: &MlpSpec, params: &[f32], x: &[f32], label: usize) -> Vec<f32> {
        victim_gradient(spec, params, x, &[label])
    }

    fn setup() -> (MlpSpec, Vec<f32>, Vec<f32>) {
        let spec = MlpSpec::new(&[16, 12, 5]);
        let mut rng = DetRng::from_u64(21);
        let mut params = vec![0.0f32; spec.param_count()];
        rng.fill_gaussian(&mut params);
        params.iter_mut().for_each(|v| *v *= 0.3);
        let x: Vec<f32> = (0..16).map(|_| rng.next_f32()).collect();
        (spec, params, x)
    }

    #[test]
    fn label_inference_correct_on_full_view() {
        let (spec, params, x) = setup();
        for label in 0..5 {
            let g = true_gradient(&spec, &params, &x, label);
            let view = breach_view(&g, AttackView::Full, 1, &[0u8; 16]);
            assert_eq!(infer_label(&view, 5), Some(label), "label {label}");
        }
    }

    #[test]
    fn label_inference_unreliable_when_shuffled() {
        // Over all 5 labels, shuffled views should misinfer at least once
        // (the bias block is dispersed).
        let (spec, params, x) = setup();
        let mut wrong = 0;
        for label in 0..5 {
            let g = true_gradient(&spec, &params, &x, label);
            let view = breach_view(
                &g,
                AttackView::PartitionShuffle { factor: 1.0 },
                1,
                &[9u8; 16],
            );
            if infer_label(&view, 5) != Some(label) {
                wrong += 1;
            }
        }
        assert!(
            wrong >= 3,
            "shuffling should break label inference ({wrong}/5 wrong)"
        );
    }

    #[test]
    fn too_short_fragment_yields_none() {
        let view = BreachedView {
            visible: vec![0.1, 0.2],
            full_len: 100,
            view: AttackView::Partition { factor: 0.02 },
            known_positions: None,
        };
        assert_eq!(infer_label(&view, 5), None);
    }

    #[test]
    fn idlg_reconstructs_with_full_view() {
        let (spec, params, x) = setup();
        let label = 3usize;
        let g = true_gradient(&spec, &params, &x, label);
        let view = breach_view(&g, AttackView::Full, 1, &[0u8; 16]);
        let out = run_idlg(
            &spec,
            &params,
            &view,
            &DlgConfig {
                iterations: 600,
                seed: 4,
                restarts: 1,
            },
        );
        assert_eq!(out.inferred_label, label);
        let err = mse(&out.dlg.reconstruction, &x);
        assert!(err < 1e-2, "full-view iDLG should reconstruct, mse={err}");
    }

    #[test]
    fn idlg_fails_with_partitioned_view() {
        let (spec, params, x) = setup();
        let g = true_gradient(&spec, &params, &x, 3);
        let view = breach_view(&g, AttackView::Partition { factor: 0.2 }, 1, &[0u8; 16]);
        let out = run_idlg(
            &spec,
            &params,
            &view,
            &DlgConfig {
                iterations: 300,
                seed: 4,
                restarts: 1,
            },
        );
        let err = mse(&out.dlg.reconstruction, &x);
        assert!(err > 0.02, "partitioned view must fail, mse={err}");
    }
}
