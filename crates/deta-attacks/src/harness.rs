//! The breach-view harness: what an attacker actually obtains from a
//! compromised DeTA aggregator, and shared attack-tape construction.
//!
//! The paper's security analysis (Section 6) assumes the worst case: the
//! attacker has breached the CC protection and holds everything the
//! aggregator holds. Under DeTA that is a *fragment* of each model update
//! — parameters from random positions, squeezed into a dense vector in
//! position order, and (with shuffling on) permuted by the round's keyed
//! permutation. The attacker does not hold the model mapper or the
//! permutation key (both stay in participant-controlled domains), so its
//! best strategy is to align the fragment against the leading coordinates
//! of its dummy gradient — exactly the relaxed-but-strong attacker the
//! paper evaluates (it may even query the unperturbed model as a black
//! box; only the *target* gradients are transformed).

use crate::graphnet::soft_cross_entropy;
pub use crate::graphnet::GraphModel;
use crate::tape::{Evaluator, Tape, Var};
use deta_core::mapper::ModelMapper;
use deta_core::shuffle::RoundPermutation;
use deta_crypto::DetRng;

/// Which defense layers stand between the gradient and the attacker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttackView {
    /// No DeTA: the attacker sees the full, in-order update.
    Full,
    /// Partitioning only; the breached aggregator holds `factor` of the
    /// parameters (the paper's 1.0 / 0.6 / 0.2 columns).
    Partition {
        /// Fraction of parameters on the breached aggregator.
        factor: f32,
    },
    /// Partitioning plus the keyed per-round shuffle.
    PartitionShuffle {
        /// Fraction of parameters on the breached aggregator.
        factor: f32,
    },
}

impl AttackView {
    /// Short label used in report tables.
    pub fn label(&self) -> String {
        match self {
            AttackView::Full => "full".to_string(),
            AttackView::Partition { factor } => format!("part-{factor:.1}"),
            AttackView::PartitionShuffle { factor } => format!("part-{factor:.1}+shuf"),
        }
    }
}

/// The attacker's obtained view of one model update.
#[derive(Clone, Debug)]
pub struct BreachedView {
    /// The dense fragment the breached aggregator held.
    pub visible: Vec<f32>,
    /// Length of the original (hidden) update.
    pub full_len: usize,
    /// The view configuration that produced this.
    pub view: AttackView,
    /// Oracle knowledge: the true model positions of `visible`'s slots
    /// (pre-shuffle order). `None` for the standard attacker; `Some` for
    /// the strengthened adversary of the oracle ablation, e.g. an insider
    /// who learned the model mapper.
    pub known_positions: Option<Vec<u32>>,
}

impl BreachedView {
    /// The model positions the attacker matches `visible` against: the
    /// known ones, else the leading coordinates.
    pub fn positions(&self) -> Vec<u32> {
        match &self.known_positions {
            Some(pos) => pos.clone(),
            None => (0..self.visible.len() as u32).collect(),
        }
    }
}

/// The first aggregator's fragment under a `factor` partition, and the
/// model positions of its slots.
fn fragment(gradient: &[f32], factor: f32, seed: u64) -> (Vec<f32>, Vec<u32>) {
    assert!(factor > 0.0 && factor <= 1.0, "bad partition factor");
    if factor >= 0.999 {
        return (gradient.to_vec(), (0..gradient.len() as u32).collect());
    }
    let mapper = ModelMapper::generate(
        gradient.len(),
        2,
        Some(&[factor, 1.0 - factor]),
        &mut DetRng::from_u64(seed).fork(b"mapper"),
    );
    let frag = mapper.partition(gradient).swap_remove(0);
    (frag, mapper.fragment_positions(0).to_vec())
}

/// A fragment under the round's keyed permutation.
fn shuffle(fragment: &[f32], seed: u64, training_id: &[u8; 16]) -> Vec<f32> {
    let perm_key: [u8; 32] = DetRng::from_u64(seed)
        .fork(b"perm-key")
        .derive_bytes(b"k", 32)
        .try_into()
        .unwrap();
    RoundPermutation::derive(&perm_key, training_id, 0, fragment.len()).apply(fragment)
}

/// Applies DeTA's transformations to a gradient and returns what a breach
/// of the first aggregator reveals.
///
/// `seed` derives the model mapper (fixed per session); `training_id`
/// drives the per-round permutation.
///
/// # Panics
///
/// Panics if a partition factor is outside `(0, 1]`.
pub fn breach_view(
    gradient: &[f32],
    view: AttackView,
    seed: u64,
    training_id: &[u8; 16],
) -> BreachedView {
    let visible = match view {
        AttackView::Full => gradient.to_vec(),
        AttackView::Partition { factor } => fragment(gradient, factor, seed).0,
        AttackView::PartitionShuffle { factor } => {
            shuffle(&fragment(gradient, factor, seed).0, seed, training_id)
        }
    };
    BreachedView {
        visible,
        full_len: gradient.len(),
        view,
        known_positions: None,
    }
}

/// The **oracle-attacker** ablation: like [`breach_view`], but the
/// adversary additionally knows the model mapper (e.g. a compromised
/// participant leaked it), so it can place each fragment slot at its true
/// model position — *unless* shuffling hid the order.
///
/// This goes beyond the paper's threat model and demonstrates
/// defense-in-depth: partitioning alone falls to this adversary, the
/// keyed shuffle does not.
pub fn oracle_breach_view(
    gradient: &[f32],
    factor: f32,
    shuffled: bool,
    seed: u64,
    training_id: &[u8; 16],
) -> BreachedView {
    let (fragment, positions) = fragment(gradient, factor, seed);
    let (visible, view) = if shuffled {
        // The oracle knows pre-shuffle positions but NOT the permutation
        // key, so its position map no longer matches the data it holds.
        (
            shuffle(&fragment, seed, training_id),
            AttackView::PartitionShuffle { factor },
        )
    } else {
        (fragment, AttackView::Partition { factor })
    };
    BreachedView {
        visible,
        full_len: gradient.len(),
        view,
        known_positions: Some(positions),
    }
}

/// The attack tape: the mean training loss of a batch of dummy inputs and
/// its parameter gradient at the positions the attacker aligns the
/// fragment with. Attacks append their objective to it.
pub struct AttackTape {
    /// The tape.
    pub tape: Tape,
    /// Dummy inputs, `[b, input_dim]` (input slot 0).
    pub x: Var,
    /// Soft-label logits, `[b, classes]` (slot 1).
    pub label_logits: Var,
    /// The flat model parameters, `[1, param_count]` (slot 2).
    pub params: Var,
    /// The target fragment, `[1, positions]` (slot 3).
    pub gstar: Var,
    /// `dL/dparams` at the aligned positions, `[1, positions]`.
    pub grads: Var,
    /// The training loss, the mean over the `b` rows.
    pub loss: Var,
}

impl AttackTape {
    /// Builds the tape for `rows` dummy inputs, matching a fragment whose
    /// slots are the model parameters at `positions`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero, or positions are empty or out of range.
    pub fn build(model: &dyn GraphModel, rows: usize, positions: &[u32]) -> AttackTape {
        assert!(rows > 0, "no rows to attack");
        assert!(!positions.is_empty(), "no positions to match");
        let p = model.param_count();
        assert!(
            positions.iter().all(|&i| (i as usize) < p),
            "position out of range"
        );
        let mut tape = Tape::new();
        let x = tape.input(rows, model.input_dim());
        let label_logits = tape.input(rows, model.classes());
        let params = tape.input(1, p);
        let gstar = tape.input(1, positions.len());
        let logits = model.forward(&mut tape, x, params);
        let loss = soft_cross_entropy(&mut tape, logits, label_logits);
        let dparams = tape.grad(loss, &[params])[0];
        let grads = tape.gather(dparams, positions, [1, positions.len()]);
        AttackTape {
            tape,
            x,
            label_logits,
            params,
            gstar,
            grads,
            loss,
        }
    }

    /// Evaluates every node at the given inputs.
    pub fn eval(
        &self,
        ev: &mut Evaluator,
        x: &[f32],
        label_logits: &[f32],
        params: &[f32],
        gstar: &[f32],
    ) {
        ev.eval(&self.tape, &[x, label_logits, params, gstar]);
    }
}

/// One-hot label logits with a large margin, one row of `classes` per
/// label (pins the soft label).
pub fn hard_label_logits(classes: usize, labels: &[usize]) -> Vec<f32> {
    labels
        .iter()
        .flat_map(|&l| (0..classes).map(move |c| if c == l { 30.0 } else { -30.0 }))
        .collect()
}

/// The gradient a victim shares: the mean training-loss gradient over
/// `images` (row-major, one row per label) under hard labels.
pub fn victim_gradient(
    model: &dyn GraphModel,
    params: &[f32],
    images: &[f32],
    labels: &[usize],
) -> Vec<f32> {
    let p = model.param_count();
    let all: Vec<u32> = (0..p as u32).collect();
    let at = AttackTape::build(model, labels.len(), &all);
    let mut ev = at.tape.evaluator();
    let hard = hard_label_logits(model.classes(), labels);
    at.eval(&mut ev, images, &hard, params, &vec![0.0; p]);
    ev.value(at.grads).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphnet::MlpSpec;

    fn grad() -> Vec<f32> {
        (0..100).map(|i| (i as f32 * 0.1).sin()).collect()
    }

    #[test]
    fn full_view_is_identity() {
        let g = grad();
        let v = breach_view(&g, AttackView::Full, 1, &[0u8; 16]);
        assert_eq!(v.visible, g);
        assert_eq!(v.full_len, 100);
    }

    #[test]
    fn partition_view_has_expected_size() {
        let g = grad();
        let v = breach_view(&g, AttackView::Partition { factor: 0.6 }, 1, &[0u8; 16]);
        assert_eq!(v.visible.len(), 60);
        let v2 = breach_view(&g, AttackView::Partition { factor: 0.2 }, 1, &[0u8; 16]);
        assert_eq!(v2.visible.len(), 20);
    }

    #[test]
    fn partition_full_factor_keeps_everything() {
        let g = grad();
        let v = breach_view(&g, AttackView::Partition { factor: 1.0 }, 1, &[0u8; 16]);
        assert_eq!(v.visible, g);
    }

    #[test]
    fn shuffle_permutes_but_preserves_multiset() {
        let g = grad();
        let p = breach_view(&g, AttackView::Partition { factor: 0.6 }, 1, &[7u8; 16]);
        let s = breach_view(
            &g,
            AttackView::PartitionShuffle { factor: 0.6 },
            1,
            &[7u8; 16],
        );
        assert_ne!(p.visible, s.visible);
        let mut a = p.visible.clone();
        let mut b = s.visible.clone();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn shuffle_changes_per_round() {
        let g = grad();
        let r1 = breach_view(
            &g,
            AttackView::PartitionShuffle { factor: 1.0 },
            1,
            &[1u8; 16],
        );
        let r2 = breach_view(
            &g,
            AttackView::PartitionShuffle { factor: 1.0 },
            1,
            &[2u8; 16],
        );
        assert_ne!(r1.visible, r2.visible);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = grad();
        let a = breach_view(
            &g,
            AttackView::PartitionShuffle { factor: 0.6 },
            5,
            &[1u8; 16],
        );
        let b = breach_view(
            &g,
            AttackView::PartitionShuffle { factor: 0.6 },
            5,
            &[1u8; 16],
        );
        assert_eq!(a.visible, b.visible);
    }

    #[test]
    fn attack_tape_layout() {
        let spec = MlpSpec::new(&[4, 5, 3]);
        let positions: Vec<u32> = (0..10).collect();
        let at = AttackTape::build(&spec, 2, &positions);
        assert_eq!(at.tape.shape(at.x), [2, 4]);
        assert_eq!(at.tape.shape(at.label_logits), [2, 3]);
        assert_eq!(at.tape.shape(at.params), [1, spec.param_count()]);
        assert_eq!(at.tape.shape(at.gstar), [1, 10]);
        assert_eq!(at.tape.shape(at.grads), [1, 10]);
        assert_eq!(at.tape.shape(at.loss), [1, 1]);
        let mut ev = at.tape.evaluator();
        at.eval(
            &mut ev,
            &[0.0; 8],
            &hard_label_logits(3, &[1, 2]),
            &vec![0.1; spec.param_count()],
            &[0.0; 10],
        );
        assert!(ev.value(at.grads).iter().all(|g| g.is_finite()));
    }

    #[test]
    fn labels_pin_correctly() {
        let l = hard_label_logits(3, &[2]);
        assert_eq!(l.len(), 3);
        assert!(l[2] > l[0] && l[2] > l[1]);
    }
}
