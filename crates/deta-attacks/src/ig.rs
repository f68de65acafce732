//! Inverting Gradients (Geiping et al., NeurIPS 2020).
//!
//! IG observes that gradient *direction* carries the signal and matches
//! with a cosine-distance objective, adds a total-variation image prior,
//! constrains the search to `[0, 1]`, and optimizes with Adam on signed
//! gradients — the recipe that scales inversion to deeper networks.
//!
//! As in the paper's Table 3, the reported metric is the final cosine
//! distance of the matching objective: below 0.01 the optimization
//! converged (reconstruction succeeds); against DeTA's partitioned and
//! shuffled views it stalls far above that.

use crate::harness::{hard_label_logits, AttackTape, BreachedView, GraphModel};
use crate::metrics::cosine_distance;
use crate::optim::Adam;
use crate::tape::{Tape, Var};
use deta_crypto::DetRng;

/// IG attack configuration.
#[derive(Clone, Copy, Debug)]
pub struct IgConfig {
    /// Optimization iterations per restart.
    pub iterations: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Total-variation prior weight.
    pub tv_weight: f64,
    /// Random restarts (the paper uses 2).
    pub restarts: usize,
    /// RNG seed.
    pub seed: u64,
    /// Image shape `(channels, height, width)` for the TV prior.
    pub image_shape: (usize, usize, usize),
    /// The (known or separately inferred) ground-truth label.
    pub label: usize,
}

/// Attack outcome.
#[derive(Clone, Debug)]
pub struct IgOutcome {
    /// Best reconstruction across restarts.
    pub reconstruction: Vec<f32>,
    /// Final cosine distance of the best restart (Table 3's metric).
    pub final_cosine: f64,
}

/// Emits the total-variation prior `Σ sqrt(d² + 1e-8)` over the
/// horizontal and vertical neighbour differences `d` of one CHW image
/// `x` (`[1, c·h·w]`).
fn tv_prior(tape: &mut Tape, x: Var, shape: (usize, usize, usize)) -> Var {
    let (c, h, w) = shape;
    assert_eq!(tape.shape(x), [1, c * h * w], "image shape mismatch");
    let (mut here, mut next) = (Vec::new(), Vec::new());
    for i in 0..(c * h * w) as u32 {
        let (y, xx) = ((i as usize / w) % h, i as usize % w);
        if xx + 1 < w {
            here.push(i);
            next.push(i + 1);
        }
        if y + 1 < h {
            here.push(i);
            next.push(i + w as u32);
        }
    }
    let shape = [1, here.len()];
    let a = tape.gather(x, next, shape);
    let b = tape.gather(x, here, shape);
    let d = tape.sub(a, b);
    let d2 = tape.mul(d, d);
    let eps = tape.constant(1, shape[1], 1e-8);
    let s = tape.add(d2, eps);
    let r = tape.sqrt(s);
    tape.sum(r)
}

/// Runs the IG attack against a breached view.
pub fn run_ig(
    model: &dyn GraphModel,
    params: &[f32],
    view: &BreachedView,
    cfg: &IgConfig,
) -> IgOutcome {
    let mut at = AttackTape::build(model, 1, &view.positions());
    // Cosine objective: 1 - <g, g*> / (|g| |g*|), plus the TV prior.
    let objective = {
        let t = &mut at.tape;
        let dot = t.dot(at.grads, at.gstar);
        let gg = t.dot(at.grads, at.grads);
        let ss = t.dot(at.gstar, at.gstar);
        let eps = t.constant(1, 1, 1e-12);
        let gg_e = t.add(gg, eps);
        let ss_e = t.add(ss, eps);
        let norms2 = t.mul(gg_e, ss_e);
        let norms = t.sqrt(norms2);
        let inv = t.recip(norms);
        let cos_sim = t.mul(dot, inv);
        let one = t.constant(1, 1, 1.0);
        let cos_dist = t.sub(one, cos_sim);
        let tv = tv_prior(t, at.x, cfg.image_shape);
        let tv_scaled = t.scale(tv, cfg.tv_weight as f32);
        t.add(cos_dist, tv_scaled)
    };
    let opt_grad = at.tape.grad(objective, &[at.x])[0];
    let mut ev = at.tape.evaluator();

    let label_logits = hard_label_logits(model.classes(), &[cfg.label]);
    let d = model.input_dim();
    let mut xf = vec![0.0f32; d];
    let mut best: Option<(f64, Vec<f32>)> = None;
    for restart in 0..cfg.restarts.max(1) {
        let mut rng = DetRng::from_u64(cfg.seed).fork_indexed(b"ig-restart", restart as u64);
        let mut x: Vec<f64> = (0..d).map(|_| rng.next_f64()).collect();
        let mut adam = Adam::new(d, cfg.lr).with_signed().with_bounds(0.0, 1.0);
        let mut grad = vec![0.0f64; d];
        for _ in 0..cfg.iterations {
            for (f, &v) in xf.iter_mut().zip(&x) {
                *f = v as f32;
            }
            at.eval(&mut ev, &xf, &label_logits, params, &view.visible);
            for (g, &v) in grad.iter_mut().zip(ev.value(opt_grad)) {
                *g = f64::from(v);
            }
            if grad.iter().any(|v| !v.is_finite()) {
                break;
            }
            adam.step(&mut x, &grad);
        }
        // Score with the pure cosine distance (no TV) on the final iterate.
        for (f, &v) in xf.iter_mut().zip(&x) {
            *f = v as f32;
        }
        at.eval(&mut ev, &xf, &label_logits, params, &view.visible);
        let cos = cosine_distance(ev.value(at.grads), &view.visible);
        if best.as_ref().is_none_or(|(b, _)| cos < *b) {
            best = Some((cos, xf.clone()));
        }
    }
    let (final_cosine, reconstruction) = best.unwrap();
    IgOutcome {
        reconstruction,
        final_cosine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphnet::ConvSpec;
    use crate::harness::{breach_view, victim_gradient, AttackView};
    use crate::metrics::mse;

    fn true_gradient(spec: &ConvSpec, params: &[f32], x: &[f32], label: usize) -> Vec<f32> {
        victim_gradient(spec, params, x, &[label])
    }

    fn setup() -> (ConvSpec, Vec<f32>, Vec<f32>, usize) {
        let spec = ConvSpec {
            in_c: 1,
            hw: 8,
            out_c: 2,
            k: 3,
            classes: 4,
        };
        let mut rng = DetRng::from_u64(31);
        let mut params = vec![0.0f32; spec.param_count()];
        rng.fill_gaussian(&mut params);
        params.iter_mut().for_each(|v| *v *= 0.3);
        // A smooth image in [0,1].
        let x: Vec<f32> = (0..64)
            .map(|i| {
                let (y, xx) = (i / 8, i % 8);
                0.5 + 0.4 * ((y as f32 * 0.7).sin() * (xx as f32 * 0.5).cos())
            })
            .collect();
        (spec, params, x, 1)
    }

    fn cfg(label: usize) -> IgConfig {
        IgConfig {
            iterations: 400,
            lr: 0.05,
            tv_weight: 1e-4,
            restarts: 1,
            seed: 5,
            image_shape: (1, 8, 8),
            label,
        }
    }

    #[test]
    fn ig_converges_with_full_view() {
        let (spec, params, x, label) = setup();
        let g = true_gradient(&spec, &params, &x, label);
        let view = breach_view(&g, AttackView::Full, 1, &[0u8; 16]);
        let out = run_ig(&spec, &params, &view, &cfg(label));
        assert!(
            out.final_cosine < 0.05,
            "full-view IG should converge, cos={}",
            out.final_cosine
        );
        // Reconstruction should be visibly close.
        assert!(mse(&out.reconstruction, &x) < 0.05);
    }

    #[test]
    fn ig_stalls_with_shuffled_view() {
        let (spec, params, x, label) = setup();
        let g = true_gradient(&spec, &params, &x, label);
        let view = breach_view(
            &g,
            AttackView::PartitionShuffle { factor: 0.6 },
            1,
            &[3u8; 16],
        );
        let out = run_ig(&spec, &params, &view, &cfg(label));
        assert!(
            out.final_cosine > 0.3,
            "shuffled view must stall IG, cos={}",
            out.final_cosine
        );
    }

    #[test]
    fn reconstruction_respects_box_constraint() {
        let (spec, params, x, label) = setup();
        let g = true_gradient(&spec, &params, &x, label);
        let view = breach_view(&g, AttackView::Full, 1, &[0u8; 16]);
        let out = run_ig(&spec, &params, &view, &cfg(label));
        assert!(out.reconstruction.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn tv_prior_penalizes_noise() {
        // TV of a constant image is ~0; of a checkerboard it is large.
        let mut tape = Tape::new();
        let x = tape.input(1, 16);
        let tv = tv_prior(&mut tape, x, (1, 4, 4));
        let mut ev = tape.evaluator();
        ev.eval(&tape, &[&[0.5; 16]]);
        let flat = ev.value(tv)[0];
        let checker: Vec<f32> = (0..16)
            .map(|i| if (i / 4 + i % 4) % 2 == 0 { 1.0 } else { 0.0 })
            .collect();
        ev.eval(&tape, &[&checker]);
        let noisy = ev.value(tv)[0];
        assert!(noisy > flat + 10.0, "{noisy} vs {flat}");
    }
}
