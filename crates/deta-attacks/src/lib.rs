//! Gradient-inversion attacks and the DeTA security-evaluation harness.
//!
//! Reproduces the paper's Section 6: three published attacks that
//! reconstruct training inputs from shared model updates —
//!
//! * [`dlg`] — Deep Leakage from Gradients (Zhu et al., NeurIPS '19):
//!   L2 gradient matching, jointly optimizing a dummy input and label.
//! * [`idlg`] — Improved DLG (Zhao et al., 2020): analytic ground-truth
//!   label inference from the last-layer bias gradient signs, then
//!   gradient matching on the input alone.
//! * [`ig`] — Inverting Gradients (Geiping et al., NeurIPS '20): cosine
//!   distance objective with a total-variation prior, signed-gradient
//!   Adam, box constraint.
//!
//! All three differentiate *through* the network's gradient computation,
//! which is why they run on the [`tape`]: `f32` tensor operations on
//! `deta-tensor`'s kernels whose gradient is more tape, so it can be
//! differentiated again. [`graphnet`] writes the victim networks in its
//! operations.
//!
//! [`harness`] wires the attacks to DeTA's defenses: it produces exactly
//! the view an adversary obtains by breaching one CC-protected aggregator
//! (a fragmented, possibly shuffled gradient vector), runs an attack
//! against that view, and scores reconstruction fidelity with
//! [`metrics`]. DLG/iDLG minimize with L-BFGS as in the original code;
//! IG uses signed-gradient Adam as its paper specifies. Image
//! resolutions and iteration counts are scaled to CPU budgets (see
//! `DESIGN.md`); neither changes who wins — only how long runs take.
//! [`batch`] extends DLG to mini-batch mean gradients, as `b` rows of the
//! same tape.
//!
//! [`poison`] adds the *active* adversary: untargeted model-poisoning
//! generators (sign-flip, scaled update, collusion) that the
//! adversarial drill suite mounts against live sessions to check the
//! robust aggregation rules reject them (DESIGN.md §14).

pub mod analytic;
pub mod batch;
pub mod dlg;
pub mod graphnet;
pub mod harness;
pub mod idlg;
pub mod ig;
pub mod metrics;
pub mod optim;
pub mod poison;
pub mod tape;

pub use harness::{AttackView, BreachedView};
pub use metrics::{cosine_distance, mse};
pub use poison::PoisonKind;

// Mounted at the crate root, where the tape's tests keep the names they
// are known by (`tests::…`) from when the tape was a crate of its own.
#[cfg(test)]
#[path = "tape_tests.rs"]
mod tests;
