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

/// Layout of the victim's first fully connected layer inside the flat
/// gradient, in `deta_nn` order: `W1` (row-major `[rows, in_dim]`)
/// followed by `b1` (`[rows]`).
#[derive(Clone, Copy, Debug)]
pub struct FirstLayerLayout {
    /// Input dimension (pixels).
    pub in_dim: usize,
    /// First-layer output rows.
    pub rows: usize,
}

impl FirstLayerLayout {
    /// Offset of `b1` within the flat gradient.
    fn bias_offset(&self) -> usize {
        self.rows * self.in_dim
    }
}

/// Attempts the closed-form reconstruction from the attacker's view.
///
/// The attacker assumes the fragment's leading coordinates line up with
/// the flat gradient (its only option without the mapper), reads
/// `(W1, b1)` under that assumption, and divides the row with the
/// largest |bias gradient| (the numerically best-conditioned choice).
///
/// Returns `None` when the visible fragment is too short to even cover
/// the assumed `W1 || b1` region, or when every bias gradient is ~0.
pub fn reconstruct_first_layer(view: &BreachedView, layout: &FirstLayerLayout) -> Option<Vec<f32>> {
    let needed = layout.bias_offset() + layout.rows;
    if view.visible.len() < needed {
        return None;
    }
    let g = &view.visible;
    let bias = &g[layout.bias_offset()..layout.bias_offset() + layout.rows];
    let (best_row, best_delta) = bias
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())?;
    if best_delta.abs() < 1e-9 {
        return None;
    }
    let row = &g[best_row * layout.in_dim..(best_row + 1) * layout.in_dim];
    Some(row.iter().map(|&w| w / best_delta).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphnet::MlpSpec;
    use crate::harness::{breach_view, victim_gradient, AttackView, GraphModel};
    use crate::metrics::mse;
    use deta_crypto::DetRng;

    fn setup() -> (MlpSpec, Vec<f32>, Vec<f32>, FirstLayerLayout) {
        let spec = MlpSpec::new(&[20, 14, 6]);
        let mut rng = DetRng::from_u64(81);
        let mut params = vec![0.0f32; spec.param_count()];
        rng.fill_gaussian(&mut params);
        params.iter_mut().for_each(|v| *v *= 0.3);
        let x: Vec<f32> = (0..20).map(|_| rng.next_f32()).collect();
        let layout = FirstLayerLayout {
            in_dim: 20,
            rows: 14,
        };
        (spec, params, x, layout)
    }

    fn gradient(spec: &MlpSpec, params: &[f32], x: &[f32], label: usize) -> Vec<f32> {
        victim_gradient(spec, params, x, &[label])
    }

    #[test]
    fn exact_reconstruction_on_full_view() {
        let (spec, params, x, layout) = setup();
        let g = gradient(&spec, &params, &x, 2);
        let view = breach_view(&g, AttackView::Full, 1, &[0u8; 16]);
        let recon = reconstruct_first_layer(&view, &layout).expect("reconstruction");
        let err = mse(&recon, &x);
        assert!(err < 1e-8, "closed form must be exact, mse={err}");
    }

    #[test]
    fn fails_under_partitioning() {
        let (spec, params, x, layout) = setup();
        let g = gradient(&spec, &params, &x, 2);
        let view = breach_view(&g, AttackView::Partition { factor: 0.6 }, 1, &[0u8; 16]);
        // Either the assumed region is out of reach or the division
        // produces garbage.
        match reconstruct_first_layer(&view, &layout) {
            None => {}
            Some(recon) => {
                let err = mse(&recon, &x);
                assert!(err > 1e-2, "partitioned view leaked the input, mse={err}");
            }
        }
    }

    #[test]
    fn fails_under_shuffling() {
        let (spec, params, x, layout) = setup();
        let g = gradient(&spec, &params, &x, 2);
        let view = breach_view(
            &g,
            AttackView::PartitionShuffle { factor: 1.0 },
            1,
            &[3u8; 16],
        );
        let recon = reconstruct_first_layer(&view, &layout).expect("length suffices");
        let err = mse(&recon, &x);
        assert!(err > 1e-2, "shuffled view leaked the input, mse={err}");
    }

    #[test]
    fn short_fragment_yields_none() {
        let (spec, params, x, layout) = setup();
        let g = gradient(&spec, &params, &x, 2);
        let view = breach_view(&g, AttackView::Partition { factor: 0.2 }, 1, &[0u8; 16]);
        // 20% of ~400 params cannot cover W1 (280) + b1 (14).
        assert!(view.visible.len() < layout.bias_offset() + layout.rows);
        assert!(reconstruct_first_layer(&view, &layout).is_none());
    }

    #[test]
    fn every_row_reconstructs_identically() {
        // Sanity on the math: all rows with non-negligible delta agree.
        let (spec, params, x, layout) = setup();
        let g = gradient(&spec, &params, &x, 2);
        let bias = &g[layout.bias_offset()..layout.bias_offset() + layout.rows];
        for (i, &d) in bias.iter().enumerate() {
            if d.abs() < 1e-4 {
                continue;
            }
            let row = &g[i * layout.in_dim..(i + 1) * layout.in_dim];
            let recon: Vec<f32> = row.iter().map(|&w| w / d).collect();
            assert!(mse(&recon, &x) < 1e-6, "row {i} disagrees");
        }
    }
}
