//! Active model-poisoning generators (paper Section 7.1's Byzantine
//! setting), extending the passive gradient-inversion attacks with the
//! *untargeted poisoning* adversaries the robust aggregation rules
//! (Krum, FLAME-lite, coordinate median, trimmed mean) are designed to
//! reject.
//!
//! Each generator rewrites a party's post-LDP update before it enters
//! the transform pipeline — the adversary follows the wire protocol
//! perfectly and only lies about values, which is exactly what
//! partitioning + shuffling cannot (and does not claim to) prevent.
//! The drills in `deta-drills` mount these through
//! `Party::set_update_tamper` and assert FedAvg is measurably corrupted
//! while Krum/FLAME-lite hold the aggregate near the honest run.

/// An untargeted model-poisoning strategy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PoisonKind {
    /// Sign-flipping (Damaskinos et al.): upload `-scale * u` instead
    /// of the honest update `u`, steering the average away from the
    /// descent direction.
    SignFlip {
        /// Magnitude multiplier applied after flipping.
        scale: f32,
    },
    /// Model-replacement boosting (Bagdasaryan et al.): upload
    /// `factor * u`, letting one party dominate a mean-based aggregate.
    ScaledUpdate {
        /// The boost factor.
        factor: f32,
    },
    /// Collusion: every colluder discards its honest update and uploads
    /// the *same* crafted point (an alternating ±`magnitude` pattern),
    /// concentrating mass so distance-based rules see a tight hostile
    /// cluster instead of independent outliers.
    Collusion {
        /// Absolute coordinate magnitude of the crafted point.
        magnitude: f32,
    },
}

impl PoisonKind {
    /// Short name for drill reports.
    pub fn name(&self) -> &'static str {
        match self {
            PoisonKind::SignFlip { .. } => "sign-flip",
            PoisonKind::ScaledUpdate { .. } => "scaled-update",
            PoisonKind::Collusion { .. } => "colluding-pair",
        }
    }

    /// Rewrites one update in place.
    pub fn apply(&self, update: &mut [f32]) {
        match *self {
            PoisonKind::SignFlip { scale } => {
                for v in update.iter_mut() {
                    *v *= -scale;
                }
            }
            PoisonKind::ScaledUpdate { factor } => {
                for v in update.iter_mut() {
                    *v *= factor;
                }
            }
            PoisonKind::Collusion { magnitude } => {
                for (i, v) in update.iter_mut().enumerate() {
                    *v = if i % 2 == 0 { magnitude } else { -magnitude };
                }
            }
        }
    }

    /// The generator as a `Party::set_update_tamper` closure.
    pub fn tamper(self) -> deta_core::party::UpdateTamper {
        Box::new(move |_round, update| self.apply(update))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deta_core::agg::AggKind;

    #[test]
    fn sign_flip_reverses_and_scales() {
        let mut u = vec![1.0f32, -2.0, 0.5];
        PoisonKind::SignFlip { scale: 10.0 }.apply(&mut u);
        assert_eq!(u, vec![-10.0, 20.0, -5.0]);
    }

    #[test]
    fn scaled_update_multiplies() {
        let mut u = vec![1.0f32, -2.0];
        PoisonKind::ScaledUpdate { factor: 100.0 }.apply(&mut u);
        assert_eq!(u, vec![100.0, -200.0]);
    }

    #[test]
    fn colluders_produce_identical_points() {
        let kind = PoisonKind::Collusion { magnitude: 7.0 };
        let mut a = vec![1.0f32, 2.0, 3.0, 4.0];
        let mut b = vec![-9.0f32, 0.0, 5.0, 1.0];
        kind.apply(&mut a);
        kind.apply(&mut b);
        assert_eq!(a, b, "collusion must erase per-party differences");
        assert_eq!(a, vec![7.0, -7.0, 7.0, -7.0]);
    }

    #[test]
    fn krum_rejects_a_generated_poison() {
        // Four near-identical honest updates plus one sign-flipped
        // boosted one: Krum must select an honest input.
        let honest: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..6).map(|c| 1.0 + 0.01 * (i * 6 + c) as f32).collect())
            .collect();
        let mut poisoned = honest[0].clone();
        PoisonKind::SignFlip { scale: 50.0 }.apply(&mut poisoned);
        let mut inputs = honest.clone();
        inputs.push(poisoned);
        let out = AggKind::Krum { f: 1 }
            .build()
            .aggregate(&inputs, &[1.0; 5])
            .unwrap();
        assert!(
            honest.contains(&out),
            "krum picked the poisoned update: {out:?}"
        );
    }

    #[test]
    fn mean_is_dragged_by_the_same_poison() {
        let honest: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..6).map(|c| 1.0 + 0.01 * (i * 6 + c) as f32).collect())
            .collect();
        let mut poisoned = honest[0].clone();
        PoisonKind::SignFlip { scale: 50.0 }.apply(&mut poisoned);
        let mut inputs = honest;
        inputs.push(poisoned);
        let out = AggKind::IterativeAveraging
            .build()
            .aggregate(&inputs, &[1.0; 5])
            .unwrap();
        assert!(
            out.iter().all(|&v| v < 0.0),
            "a 5x-weighted sign flip must drag the mean negative: {out:?}"
        );
    }
}
