//! The closed-form first-layer reconstruction attack.
//!
//! For any network whose first layer is fully connected with a bias, the
//! single-example gradient satisfies `dL/dW1[i][j] = delta_i * x[j]` and
//! `dL/db1[i] = delta_i`, so the input is recovered **exactly** — no
//! optimization at all — as `x = gradW1[i] / gradb1[i]` for any row with
//! a non-zero bias gradient. This is the mechanism behind the "curious
//! abandon honesty" class of attacks the paper cites (\[8\] Boenisch et
//! al.): a strong-but-simple adversary that makes leakage from a central
//! aggregator *trivial*.
//!
//! Against DeTA the attack dies at the addressing step: the attacker
//! must locate matching `(W1 row, b1 slot)` pairs inside the fragment,
//! but partitioning removes coordinates and scatters the rest into a
//! dense architecture-less vector, and shuffling randomizes what is
//! left. The implementation here lets the attacker apply its best
//! heuristic (assume leading-coordinate alignment) so the failure is
//! demonstrated mechanically rather than assumed.

use crate::harness::BreachedView;
use deta_nn::{LayerSpec, Sequential};

/// Attempts the closed-form reconstruction from the attacker's view of
/// a gradient of `model`, whose first layer is `Linear`: in `deta_nn`
/// order its `W1` (row-major `[rows, in_dim]`) then its `b1` (`[rows]`)
/// lead the flat gradient.
///
/// The attacker assumes the fragment's leading coordinates line up with
/// the flat gradient (its only option without the mapper), reads
/// `(W1, b1)` under that assumption, and divides the row with the
/// largest |bias gradient| (the numerically best-conditioned choice).
///
/// Returns `None` when the model does not start with a `Linear`, when the
/// visible fragment is too short to even cover the assumed `W1 || b1`
/// region, or when every bias gradient is ~0.
pub fn reconstruct_first_layer(view: &BreachedView, model: &Sequential) -> Option<Vec<f32>> {
    let LayerSpec::Linear { in_dim, out_dim } = model.layers().first()?.spec() else {
        return None;
    };
    let g = &view.visible;
    let w1 = out_dim * in_dim;
    let bias = g.get(w1..w1 + out_dim)?;
    let (best_row, best_delta) = bias
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())?;
    if best_delta.abs() < 1e-9 {
        return None;
    }
    let row = &g[best_row * in_dim..(best_row + 1) * in_dim];
    Some(row.iter().map(|&w| w / best_delta).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{breach_view, random_victim, victim_gradient, AttackView};
    use crate::metrics::mse;
    use deta_crypto::DetRng;
    use deta_nn::models::mlp;
    use deta_nn::{Linear, Tanh};

    /// The victim's input width and first-layer rows.
    const IN: usize = 20;
    const ROWS: usize = 14;

    fn setup() -> (Sequential, Vec<f32>) {
        let mut rng = DetRng::from_u64(81);
        let model = random_victim(|r| mlp(&[IN, ROWS, 6], r), &mut rng);
        let x: Vec<f32> = (0..IN).map(|_| rng.next_f32()).collect();
        (model, x)
    }

    fn gradient(model: &Sequential, x: &[f32], label: usize) -> Vec<f32> {
        victim_gradient(model, x, &[label]).unwrap()
    }

    #[test]
    fn exact_reconstruction_on_full_view() {
        let (model, x) = setup();
        let g = gradient(&model, &x, 2);
        let view = breach_view(&g, AttackView::Full, 1, &[0u8; 16]);
        let recon = reconstruct_first_layer(&view, &model).expect("reconstruction");
        let err = mse(&recon, &x);
        assert!(err < 1e-8, "closed form must be exact, mse={err}");
    }

    #[test]
    fn fails_under_partitioning() {
        let (model, x) = setup();
        let g = gradient(&model, &x, 2);
        let view = breach_view(&g, AttackView::Partition { factor: 0.6 }, 1, &[0u8; 16]);
        // Either the assumed region is out of reach or the division
        // produces garbage.
        match reconstruct_first_layer(&view, &model) {
            None => {}
            Some(recon) => {
                let err = mse(&recon, &x);
                assert!(err > 1e-2, "partitioned view leaked the input, mse={err}");
            }
        }
    }

    #[test]
    fn fails_under_shuffling() {
        let (model, x) = setup();
        let g = gradient(&model, &x, 2);
        let view = breach_view(
            &g,
            AttackView::PartitionShuffle { factor: 1.0 },
            1,
            &[3u8; 16],
        );
        let recon = reconstruct_first_layer(&view, &model).expect("length suffices");
        let err = mse(&recon, &x);
        assert!(err > 1e-2, "shuffled view leaked the input, mse={err}");
    }

    #[test]
    fn short_fragment_yields_none() {
        let (model, x) = setup();
        let g = gradient(&model, &x, 2);
        let view = breach_view(&g, AttackView::Partition { factor: 0.2 }, 1, &[0u8; 16]);
        // 20% of ~400 params cannot cover W1 (280) + b1 (14).
        assert!(view.visible.len() < ROWS * IN + ROWS);
        assert!(reconstruct_first_layer(&view, &model).is_none());
    }

    #[test]
    fn a_first_layer_that_is_not_linear_yields_none() {
        let (model, x) = setup();
        let view = breach_view(&gradient(&model, &x, 2), AttackView::Full, 1, &[0u8; 16]);
        let tanh_first = Sequential::new().push(Tanh::new()).push(Linear::new(
            IN,
            ROWS,
            &mut DetRng::from_u64(1),
        ));
        assert!(reconstruct_first_layer(&view, &tanh_first).is_none());
    }

    #[test]
    fn every_row_reconstructs_identically() {
        // Sanity on the math: all rows with non-negligible delta agree.
        let (model, x) = setup();
        let g = gradient(&model, &x, 2);
        let bias = &g[ROWS * IN..ROWS * IN + ROWS];
        for (i, &d) in bias.iter().enumerate() {
            if d.abs() < 1e-4 {
                continue;
            }
            let row = &g[i * IN..(i + 1) * IN];
            let recon: Vec<f32> = row.iter().map(|&w| w / d).collect();
            assert!(mse(&recon, &x) < 1e-6, "row {i} disagrees");
        }
    }
}
