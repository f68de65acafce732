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

use crate::autograd::{Tape, Var};
use crate::graphnet::{loss_and_param_grad, ConvSpec, MlpSpec};
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
    let full_len = gradient.len();
    let perm_key = DetRng::from_u64(seed)
        .fork(b"perm-key")
        .derive_bytes(b"k", 32);
    let perm_key: [u8; 32] = perm_key.try_into().unwrap();
    let fragment = |factor: f32| -> Vec<f32> {
        assert!(factor > 0.0 && factor <= 1.0, "bad partition factor");
        if factor >= 0.999 {
            gradient.to_vec()
        } else {
            let mapper = ModelMapper::generate(
                full_len,
                2,
                Some(&[factor, 1.0 - factor]),
                &mut DetRng::from_u64(seed).fork(b"mapper"),
            );
            mapper.partition(gradient).swap_remove(0)
        }
    };
    let visible = match view {
        AttackView::Full => gradient.to_vec(),
        AttackView::Partition { factor } => fragment(factor),
        AttackView::PartitionShuffle { factor } => {
            let frag = fragment(factor);
            RoundPermutation::derive(&perm_key, training_id, 0, frag.len()).apply(&frag)
        }
    };
    BreachedView {
        visible,
        full_len,
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
    assert!(factor > 0.0 && factor <= 1.0, "bad partition factor");
    let full_len = gradient.len();
    let (fragment, positions): (Vec<f32>, Vec<u32>) = if factor >= 0.999 {
        (gradient.to_vec(), (0..full_len as u32).collect())
    } else {
        let mapper = ModelMapper::generate(
            full_len,
            2,
            Some(&[factor, 1.0 - factor]),
            &mut DetRng::from_u64(seed).fork(b"mapper"),
        );
        let frag = mapper.partition(gradient).swap_remove(0);
        (frag, mapper.fragment_positions(0).to_vec())
    };
    let visible = if shuffled {
        let perm_key: [u8; 32] = DetRng::from_u64(seed)
            .fork(b"perm-key")
            .derive_bytes(b"k", 32)
            .try_into()
            .unwrap();
        // The oracle knows pre-shuffle positions but NOT the permutation
        // key, so its position map no longer matches the data it holds.
        RoundPermutation::derive(&perm_key, training_id, 0, fragment.len()).apply(&fragment)
    } else {
        fragment
    };
    BreachedView {
        visible,
        full_len,
        view: if shuffled {
            AttackView::PartitionShuffle { factor }
        } else {
            AttackView::Partition { factor }
        },
        known_positions: Some(positions),
    }
}

/// A differentiable single-example classifier usable on the attack tape.
pub trait GraphModel {
    /// Input dimension.
    fn input_dim(&self) -> usize;
    /// Number of classes.
    fn classes(&self) -> usize;
    /// Flat parameter count.
    fn param_count(&self) -> usize;
    /// Emits logits for one example.
    fn forward(&self, tape: &mut Tape, x: &[Var], params: &[Var]) -> Vec<Var>;
}

impl GraphModel for MlpSpec {
    fn input_dim(&self) -> usize {
        MlpSpec::input_dim(self)
    }
    fn classes(&self) -> usize {
        MlpSpec::classes(self)
    }
    fn param_count(&self) -> usize {
        MlpSpec::param_count(self)
    }
    fn forward(&self, tape: &mut Tape, x: &[Var], params: &[Var]) -> Vec<Var> {
        MlpSpec::forward(self, tape, x, params)
    }
}

impl GraphModel for ConvSpec {
    fn input_dim(&self) -> usize {
        ConvSpec::input_dim(self)
    }
    fn classes(&self) -> usize {
        self.classes
    }
    fn param_count(&self) -> usize {
        ConvSpec::param_count(self)
    }
    fn forward(&self, tape: &mut Tape, x: &[Var], params: &[Var]) -> Vec<Var> {
        ConvSpec::forward(self, tape, x, params)
    }
}

/// The pre-built attack tape: dummy input, soft label, parameters, and
/// the visible-prefix gradient nodes.
pub struct AttackTape {
    /// The tape (attacks append their objective to it).
    pub tape: Tape,
    /// Dummy-input variables.
    pub x: Vec<Var>,
    /// Soft-label logit variables.
    pub label_logits: Vec<Var>,
    /// Model parameter variables.
    pub params: Vec<Var>,
    /// Target-gradient variables (length = visible fragment length).
    pub gstar: Vec<Var>,
    /// Gradient nodes `dL/dparams[i]` for `i < gstar.len()` — the
    /// attacker's assumed alignment of the fragment.
    pub grads: Vec<Var>,
    /// The training loss node.
    pub loss: Var,
}

impl AttackTape {
    /// Builds the tape for matching a visible fragment of length `k`
    /// under the attacker's leading-coordinate alignment.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the model's parameter count.
    pub fn build(model: &dyn GraphModel, k: usize) -> AttackTape {
        assert!(k > 0 && k <= model.param_count(), "bad fragment length");
        let positions: Vec<u32> = (0..k as u32).collect();
        Self::build_with_positions(model, &positions)
    }

    /// Builds the tape for matching a fragment whose slots correspond to
    /// the given model positions (the oracle attacker's alignment).
    ///
    /// # Panics
    ///
    /// Panics if positions are empty or out of range.
    pub fn build_with_positions(model: &dyn GraphModel, positions: &[u32]) -> AttackTape {
        assert!(!positions.is_empty(), "no positions to match");
        let p = model.param_count();
        assert!(
            positions.iter().all(|&i| (i as usize) < p),
            "position out of range"
        );
        let mut tape = Tape::new();
        let x = tape.inputs(model.input_dim());
        let label_logits = tape.inputs(model.classes());
        let params = tape.inputs(p);
        let gstar = tape.inputs(positions.len());
        let logits = model.forward(&mut tape, &x, &params);
        let selected: Vec<Var> = positions.iter().map(|&i| params[i as usize]).collect();
        let (loss, grads) = loss_and_param_grad(&mut tape, logits, &label_logits, &selected);
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

    /// Assembles the flat input vector for evaluation.
    pub fn pack_inputs(
        &self,
        x: &[f64],
        label_logits: &[f64],
        params: &[f32],
        gstar: &[f32],
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(
            self.x.len() + self.label_logits.len() + self.params.len() + self.gstar.len(),
        );
        assert_eq!(x.len(), self.x.len());
        assert_eq!(label_logits.len(), self.label_logits.len());
        assert_eq!(params.len(), self.params.len());
        assert_eq!(gstar.len(), self.gstar.len());
        out.extend_from_slice(x);
        out.extend_from_slice(label_logits);
        out.extend(params.iter().map(|&v| v as f64));
        out.extend(gstar.iter().map(|&v| v as f64));
        out
    }

    /// One-hot label logits with a large margin (pins the soft label).
    pub fn hard_label_logits(&self, label: usize) -> Vec<f64> {
        (0..self.label_logits.len())
            .map(|c| if c == label { 30.0 } else { -30.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let at = AttackTape::build(&spec, 10);
        assert_eq!(at.x.len(), 4);
        assert_eq!(at.label_logits.len(), 3);
        assert_eq!(at.params.len(), spec.param_count());
        assert_eq!(at.gstar.len(), 10);
        assert_eq!(at.grads.len(), 10);
        let inputs = at.pack_inputs(
            &[0.0; 4],
            &at.hard_label_logits(1),
            &vec![0.1; spec.param_count()],
            &[0.0; 10],
        );
        assert_eq!(inputs.len(), at.tape.input_count());
    }

    #[test]
    fn labels_pin_correctly() {
        let spec = MlpSpec::new(&[4, 5, 3]);
        let at = AttackTape::build(&spec, 5);
        let l = at.hard_label_logits(2);
        assert_eq!(l.len(), 3);
        assert!(l[2] > l[0] && l[2] > l[1]);
    }
}
