//! Local differential privacy for party-side updates.
//!
//! The paper positions DeTA as *composable* with local DP (Section 8.1):
//! "DETA can be seamlessly integrated with LDP as the LDP's perturbations
//! only apply to model updates on the parties' devices." This module
//! provides that integration: a clip-and-noise mechanism applied to the
//! flat update *before* `Trans`, so the perturbed update flows through
//! partitioning and shuffling unchanged.
//!
//! The mechanism is the standard Gaussian one: clip the update to an L2
//! ball of radius `clip_norm`, then add `N(0, sigma^2)` per coordinate
//! with `sigma = clip_norm * sqrt(2 ln(1.25/delta)) / epsilon`, giving
//! each round `(epsilon, delta)`-DP for the party's contribution. The
//! simple (conservative) linear composition accountant tracks the budget
//! across rounds.

use deta_crypto::DetRng;

/// Local DP configuration for one party.
#[derive(Clone, Copy, Debug)]
pub struct LdpConfig {
    /// Per-round epsilon.
    pub epsilon: f64,
    /// Per-round delta.
    pub delta: f64,
    /// L2 clipping norm applied before noising.
    pub clip_norm: f64,
}

impl LdpConfig {
    /// Gaussian-mechanism noise scale for this configuration.
    pub fn sigma(&self) -> f64 {
        self.clip_norm * (2.0 * (1.25 / self.delta).ln()).sqrt() / self.epsilon
    }
}

/// Tracks cumulative privacy spend with linear composition.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrivacyAccountant {
    /// Total epsilon spent.
    pub epsilon: f64,
    /// Total delta spent.
    pub delta: f64,
    /// Mechanism invocations.
    pub rounds: u64,
}

impl PrivacyAccountant {
    /// Records one mechanism invocation.
    pub fn spend(&mut self, cfg: &LdpConfig) {
        self.epsilon += cfg.epsilon;
        self.delta += cfg.delta;
        self.rounds += 1;
    }
}

/// Clips `update` to the L2 ball of radius `clip_norm` in place, returning
/// the pre-clip norm.
pub fn clip_l2(update: &mut [f32], clip_norm: f64) -> f64 {
    let norm: f64 = update
        .iter()
        .map(|&v| v as f64 * v as f64)
        .sum::<f64>()
        .sqrt();
    if norm > clip_norm && norm > 0.0 {
        let scale = (clip_norm / norm) as f32;
        for v in update.iter_mut() {
            *v *= scale;
        }
    }
    norm
}

/// Applies the Gaussian mechanism: clip then add noise, recording the
/// spend in `accountant`.
///
/// The noise is drawn one `next_gaussian` at a time, not through
/// `DetRng::fill_gaussian`: it is scaled by σ in `f64` before the cast
/// to `f32`, and the batched draw's rounding guard vouches only for the
/// unscaled draw cast to `f32`.
pub fn gaussian_mechanism(
    update: &mut [f32],
    cfg: &LdpConfig,
    accountant: &mut PrivacyAccountant,
    rng: &mut DetRng,
) {
    clip_l2(update, cfg.clip_norm);
    let sigma = cfg.sigma();
    for v in update.iter_mut() {
        *v += (rng.next_gaussian() * sigma) as f32;
    }
    accountant.spend(cfg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigma_scales_inversely_with_epsilon() {
        let tight = LdpConfig {
            epsilon: 0.5,
            delta: 1e-5,
            clip_norm: 1.0,
        };
        let loose = LdpConfig {
            epsilon: 8.0,
            ..tight
        };
        assert!(tight.sigma() > loose.sigma());
        // Reference value: sqrt(2 ln(1.25/1e-5)) / 0.5.
        let want = (2.0 * (1.25e5f64).ln()).sqrt() / 0.5;
        assert!((tight.sigma() - want).abs() < 1e-12);
    }

    #[test]
    fn clip_preserves_small_updates() {
        let mut u = vec![0.1f32, 0.2, -0.1];
        let before = u.clone();
        let norm = clip_l2(&mut u, 10.0);
        assert_eq!(u, before);
        assert!((norm - (0.06f64).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn clip_scales_large_updates_to_ball() {
        let mut u = vec![3.0f32, 4.0]; // norm 5.
        clip_l2(&mut u, 1.0);
        let norm: f64 = u.iter().map(|&v| v as f64 * v as f64).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6);
        // Direction preserved.
        assert!((u[0] / u[1] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn mechanism_perturbs_and_accounts() {
        let cfg = LdpConfig {
            epsilon: 1.0,
            delta: 1e-5,
            clip_norm: 1.0,
        };
        let mut acc = PrivacyAccountant::default();
        let mut rng = DetRng::from_u64(1);
        let mut u = vec![0.0f32; 100];
        gaussian_mechanism(&mut u, &cfg, &mut acc, &mut rng);
        assert!(u.iter().any(|&v| v != 0.0));
        assert_eq!(acc.rounds, 1);
        assert!((acc.epsilon - 1.0).abs() < 1e-12);
        gaussian_mechanism(&mut u, &cfg, &mut acc, &mut rng);
        assert!((acc.epsilon - 2.0).abs() < 1e-12);
    }

    #[test]
    fn noise_matches_configured_sigma() {
        let cfg = LdpConfig {
            epsilon: 2.0,
            delta: 1e-5,
            clip_norm: 1.0,
        };
        let mut acc = PrivacyAccountant::default();
        let mut rng = DetRng::from_u64(2);
        let mut u = vec![0.0f32; 50_000];
        gaussian_mechanism(&mut u, &cfg, &mut acc, &mut rng);
        let var: f64 = u.iter().map(|&v| v as f64 * v as f64).sum::<f64>() / u.len() as f64;
        let want = cfg.sigma() * cfg.sigma();
        assert!(
            (var / want - 1.0).abs() < 0.05,
            "empirical var {var} vs sigma^2 {want}"
        );
    }

    #[test]
    fn ldp_commutes_with_transform() {
        // The composability claim: noising before Trans and inverting
        // after aggregation equals noising a centrally aggregated update.
        use crate::mapper::ModelMapper;
        use crate::transform::{TransformConfig, Transformer};
        let cfg = LdpConfig {
            epsilon: 1.0,
            delta: 1e-5,
            clip_norm: 1.0,
        };
        let mut acc = PrivacyAccountant::default();
        let mut rng = DetRng::from_u64(3);
        let mut update: Vec<f32> = (0..60).map(|i| (i as f32 * 0.1).sin() * 0.01).collect();
        gaussian_mechanism(&mut update, &cfg, &mut acc, &mut rng);
        let mapper = ModelMapper::generate(60, 3, None, &mut DetRng::from_u64(4));
        let t = Transformer::new(mapper, [5u8; 32], TransformConfig::full());
        let tid = [1u8; 16];
        let roundtrip = t.inverse(&t.transform(&update, &tid), &tid);
        assert_eq!(roundtrip, update);
    }
}
