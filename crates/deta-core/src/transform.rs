//! The composed `Trans` / `Trans^-1` pipeline (paper Figure 2).
//!
//! On upload, a party partitions its flat model update along the shared
//! [`ModelMapper`] and shuffles each partition with the per-round keyed
//! permutation. On download it reverses both: un-shuffle each aggregated
//! fragment, then merge fragments back to original positions.

#![deny(clippy::iter_over_hash_type)]
#![expect(
    clippy::disallowed_methods,
    reason = "derives permutations from the permutation key"
)]

use crate::mapper::ModelMapper;
use crate::shuffle::{RoundPermutation, Shuffled};
use deta_crypto::Secret;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// The last round's permutations, by training id, as long as anybody
/// still holds them.
type Memo = Option<([u8; 16], Weak<[RoundPermutation]>)>;

/// Which defense layers are enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransformConfig {
    /// Enable randomized model partitioning.
    pub partition: bool,
    /// Enable parameter-level shuffling.
    pub shuffle: bool,
}

impl TransformConfig {
    /// Full DeTA defense: partition + shuffle.
    pub fn full() -> TransformConfig {
        TransformConfig {
            partition: true,
            shuffle: true,
        }
    }

    /// Partitioning only (the paper's first security-evaluation config).
    pub fn partition_only() -> TransformConfig {
        TransformConfig {
            partition: true,
            shuffle: false,
        }
    }

    /// No transformation (the FFL baseline / single-CVM fallback mode).
    pub fn none() -> TransformConfig {
        TransformConfig {
            partition: false,
            shuffle: false,
        }
    }
}

/// A party-side transformer bound to a mapper and permutation key.
///
/// # Examples
///
/// ```
/// use deta_core::mapper::ModelMapper;
/// use deta_core::transform::{TransformConfig, Transformer};
/// use deta_crypto::DetRng;
///
/// let mapper = ModelMapper::generate(60, 3, None, &mut DetRng::from_u64(1));
/// let t = Transformer::new(mapper, [9u8; 32], TransformConfig::full());
/// let update: Vec<f32> = (0..60).map(|i| i as f32).collect();
/// let round_id = [5u8; 16];
/// let fragments = t.transform(&update, &round_id);
/// assert_eq!(t.inverse(&fragments, &round_id), update);
/// ```
#[derive(Clone)]
pub struct Transformer {
    /// Shared: the position tables are a `u32` per parameter, and every
    /// party of a process holds a clone of the transformer. It is fixed
    /// for the session.
    mapper: Arc<ModelMapper>,
    perm_key: Secret<[u8; 32]>,
    config: TransformConfig,
    /// Shared the same way: every party of a process permutes
    /// identically, so the first to ask for a round's set derives it and
    /// the rest borrow it. Held weakly, so the set lives exactly as long
    /// as some party holds it (see [`Transformer::permutations`]).
    memo: Arc<Mutex<Memo>>,
}

impl Transformer {
    /// Creates a transformer.
    ///
    /// When `config.partition` is false the mapper must describe a single
    /// aggregator (fragment 0 carries the whole update).
    ///
    /// `perm_key` is the broker's [`Secret`], or a bare array where a test
    /// or benchmark makes up a key: the array's moved-from copy is then
    /// out of the wrapper's reach.
    ///
    /// # Panics
    ///
    /// Panics if partitioning is disabled but the mapper has more than one
    /// aggregator.
    pub fn new(
        mapper: ModelMapper,
        perm_key: impl Into<Secret<[u8; 32]>>,
        config: TransformConfig,
    ) -> Transformer {
        if !config.partition {
            assert_eq!(
                mapper.n_aggregators(),
                1,
                "partitioning disabled requires a single-aggregator mapper"
            );
        }
        Transformer {
            mapper: Arc::new(mapper),
            perm_key: perm_key.into(),
            config,
            memo: Arc::default(),
        }
    }

    /// The underlying mapper.
    pub fn mapper(&self) -> &ModelMapper {
        &self.mapper
    }

    /// The active configuration.
    pub fn config(&self) -> TransformConfig {
        self.config
    }

    /// Number of fragments produced per update.
    pub fn n_fragments(&self) -> usize {
        self.mapper.n_aggregators()
    }

    /// Derives the `k` permutations of the round `training_id`, one per
    /// fragment of the current mapper. Deriving is the expensive part of
    /// both directions (a keyed Fisher-Yates draw per parameter), so a
    /// party does it once per round and lends the result to
    /// [`Transformer::transform_with`] and [`Transformer::inverse_with`].
    ///
    /// Every clone of this transformer shares one memo, so the parties of
    /// a process derive a round's set once between them: while any of
    /// them still holds the set for `training_id`, the others get that
    /// set. The memo holds it only weakly, so once the last holder drops
    /// it the memory goes and the next call derives again. The derivation
    /// runs under the memo's lock; concurrent callers wait for it rather
    /// than repeat it.
    pub fn permutations(&self, training_id: &[u8; 16]) -> RoundPermutations {
        // Every write is one assignment of a pure function's result, so a
        // panic elsewhere under the lock leaves the memo valid: a poisoned
        // lock is used as it is.
        let mut memo = self.memo.lock().unwrap_or_else(PoisonError::into_inner);
        let held = memo.as_ref().filter(|(tid, _)| tid == training_id);
        if let Some(perms) = held.and_then(|(_, set)| set.upgrade()) {
            return RoundPermutations {
                training_id: *training_id,
                perms,
            };
        }
        let perms: Arc<[RoundPermutation]> = (0..self.n_fragments())
            .map(|j| {
                let len = self.mapper.fragment_len(j);
                if self.config.shuffle {
                    RoundPermutation::derive(self.perm_key.expose(), training_id, j as u32, len)
                } else {
                    RoundPermutation::identity(len)
                }
            })
            .collect();
        *memo = Some((*training_id, Arc::downgrade(&perms)));
        RoundPermutations {
            training_id: *training_id,
            perms,
        }
    }

    /// `Trans(LU)`: partitions and shuffles a local update for upload.
    ///
    /// # Panics
    ///
    /// Panics if `update.len()` mismatches the mapper.
    pub fn transform(&self, update: &[f32], training_id: &[u8; 16]) -> Vec<Vec<f32>> {
        self.transform_with(update, &self.permutations(training_id))
    }

    /// [`Transformer::transform`] under permutations derived earlier by
    /// [`Transformer::permutations`] on this transformer.
    ///
    /// # Panics
    ///
    /// Panics if `update.len()` or `perms` mismatch the mapper.
    pub fn transform_with(&self, update: &[f32], perms: &RoundPermutations) -> Vec<Vec<f32>> {
        self.transform_parts(&[update], perms)
    }

    /// [`Transformer::transform_with`] of the update whose consecutive
    /// pieces are `parts`, such as a model's parameter tensors.
    ///
    /// # Panics
    ///
    /// Panics if the parts' lengths do not add up to the mapper's, or
    /// `perms` mismatch it.
    pub(crate) fn transform_parts(
        &self,
        parts: &[&[f32]],
        perms: &RoundPermutations,
    ) -> Vec<Vec<f32>> {
        let mut scratch = Vec::new();
        (0..self.n_fragments())
            .map(|j| {
                self.fragment_values(parts, perms, j, &mut scratch)
                    .collect()
            })
            .collect()
    }

    /// Fragment `j` of `Trans(update)`, value by value in upload order,
    /// for a caller that writes the values where they are going
    /// ([`crate::wire::RecordFrame::upload`]);
    /// [`Transformer::transform_with`] collects exactly this. The update
    /// is given in `parts`, consecutive pieces of it: a model's parameter
    /// tensors in flat-parameter order ([`deta_nn::Sequential::params`]),
    /// so a party uploads without a model-sized copy, or one flat vector.
    /// The partition is gathered into `scratch`, which callers reuse from
    /// one fragment to the next: permuting out of a fragment-sized buffer
    /// stays in cache, which gathering through both index tables at once
    /// (half the speed, measured at 10⁶ parameters) does not.
    ///
    /// # Panics
    ///
    /// Panics if the parts' lengths do not add up to the mapper's, or
    /// `perms` or `j` mismatch it.
    pub fn fragment_values<'a>(
        &'a self,
        parts: &[&[f32]],
        perms: &'a RoundPermutations,
        j: usize,
        scratch: &'a mut Vec<f32>,
    ) -> impl ExactSizeIterator<Item = f32> + 'a {
        assert_eq!(perms.perms.len(), self.n_fragments(), "permutation count");
        self.mapper.gather_fragment(j, parts, scratch);
        perms.perms[j].permuted(scratch)
    }

    /// `Trans^-1(AU)`: un-shuffles and merges aggregated fragments.
    ///
    /// # Panics
    ///
    /// Panics if fragment counts/lengths mismatch the mapper.
    pub fn inverse(&self, fragments: &[Vec<f32>], training_id: &[u8; 16]) -> Vec<f32> {
        self.inverse_with(fragments, &self.permutations(training_id))
    }

    /// [`Transformer::inverse`] under permutations derived earlier by
    /// [`Transformer::permutations`] on this transformer.
    ///
    /// # Panics
    ///
    /// Panics if fragment counts/lengths or `perms` mismatch the mapper.
    pub fn inverse_with(&self, fragments: &[Vec<f32>], perms: &RoundPermutations) -> Vec<f32> {
        let mut out = vec![0.0f32; self.mapper.n_params()];
        let fragments: Vec<Shuffled<'_>> = fragments.iter().map(|f| Shuffled::Values(f)).collect();
        self.inverse_into(&fragments, perms, &mut [&mut out]);
        out
    }

    /// [`Transformer::inverse_with`] written where the merged update
    /// goes: `parts` are consecutive pieces of it, such as a model's
    /// parameter tensors in flat-parameter order, so a party merges into
    /// its model without a model-sized buffer. Every element of `parts`
    /// is overwritten. A fragment may be given as the bytes it arrived
    /// in ([`Shuffled::Le`]), so a party decodes no download either.
    ///
    /// # Panics
    ///
    /// Panics if fragment counts/lengths or `perms` mismatch the mapper,
    /// or the parts' lengths do not add up to its parameter count.
    pub(crate) fn inverse_into(
        &self,
        fragments: &[Shuffled<'_>],
        perms: &RoundPermutations,
        parts: &mut [&mut [f32]],
    ) {
        assert_eq!(
            fragments.len(),
            perms.perms.len(),
            "fragment count mismatch"
        );
        assert_eq!(
            fragments.len(),
            self.n_fragments(),
            "fragment count mismatch"
        );
        // One scratch for every fragment, as in `fragment_values`: each is
        // un-shuffled into it and scattered straight to model positions.
        let mut scratch = Vec::new();
        for (j, (&frag, perm)) in fragments.iter().zip(perms.perms.iter()).enumerate() {
            perm.invert_into(frag, &mut scratch);
            self.mapper.scatter_fragment(j, &scratch, parts);
        }
    }
}

/// One round's permutations, fragment by fragment, as derived by
/// [`Transformer::permutations`].
///
/// The slot order is exactly what the permutation key protects, so the
/// type is opaque: it has no accessor for the indices and its `Debug`
/// prints only how many fragments it covers. A clone shares the set.
#[derive(Clone)]
pub struct RoundPermutations {
    training_id: [u8; 16],
    perms: Arc<[RoundPermutation]>,
}

impl RoundPermutations {
    /// The round these permutations were derived for.
    pub fn training_id(&self) -> &[u8; 16] {
        &self.training_id
    }

    /// Whether `self` and `other` are one derivation, not two equal ones.
    #[cfg(test)]
    pub(crate) fn shares_set_with(&self, other: &RoundPermutations) -> bool {
        Arc::ptr_eq(&self.perms, &other.perms)
    }
}

impl std::fmt::Debug for RoundPermutations {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundPermutations")
            .field("fragments", &self.perms.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deta_crypto::DetRng;

    fn transformer(n: usize, k: usize, config: TransformConfig) -> Transformer {
        let mapper = ModelMapper::generate(n, k, None, &mut DetRng::from_u64(1));
        Transformer::new(mapper, [9u8; 32], config)
    }

    fn update(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32).sin()).collect()
    }

    #[test]
    fn roundtrip_full_config() {
        let t = transformer(100, 3, TransformConfig::full());
        let u = update(100);
        let tid = [5u8; 16];
        let frags = t.transform(&u, &tid);
        assert_eq!(frags.len(), 3);
        assert_eq!(t.inverse(&frags, &tid), u);
    }

    #[test]
    fn inverse_into_pieces_is_inverse_with() {
        // Split points at the ends, empty pieces, pieces narrower than
        // the gap between two positions of one fragment.
        let t = transformer(100, 3, TransformConfig::full());
        let tid = [6u8; 16];
        let perms = t.permutations(&tid);
        let frags = t.transform_with(&update(100), &perms);
        let want = t.inverse_with(&frags, &perms);
        for cuts in [
            vec![],
            vec![0, 0, 100],
            vec![1, 2, 3, 50, 99],
            vec![37, 37, 64],
        ] {
            let mut got = vec![f32::NAN; 100];
            let mut rest = got.as_mut_slice();
            let mut parts = Vec::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([100]) {
                let (part, tail) = std::mem::take(&mut rest).split_at_mut(cut - at);
                parts.push(part);
                (rest, at) = (tail, cut);
            }
            let shuffled: Vec<Shuffled<'_>> = frags.iter().map(|f| Shuffled::Values(f)).collect();
            t.inverse_into(&shuffled, &perms, &mut parts);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn roundtrip_partition_only() {
        let t = transformer(100, 4, TransformConfig::partition_only());
        let u = update(100);
        let tid = [5u8; 16];
        assert_eq!(t.inverse(&t.transform(&u, &tid), &tid), u);
    }

    #[test]
    fn roundtrip_none() {
        let t = transformer(64, 1, TransformConfig::none());
        let u = update(64);
        let tid = [0u8; 16];
        let frags = t.transform(&u, &tid);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], u, "no-op transform must be the identity");
        assert_eq!(t.inverse(&frags, &tid), u);
    }

    #[test]
    #[should_panic]
    fn no_partition_with_multi_aggregator_mapper_panics() {
        transformer(64, 2, TransformConfig::none());
    }

    #[test]
    fn shuffle_changes_fragment_order() {
        let t_full = transformer(100, 2, TransformConfig::full());
        let t_part = transformer(100, 2, TransformConfig::partition_only());
        let u = update(100);
        let tid = [5u8; 16];
        let f_full = t_full.transform(&u, &tid);
        let f_part = t_part.transform(&u, &tid);
        // Same multiset per fragment, different order.
        for (a, b) in f_full.iter().zip(f_part.iter()) {
            assert_ne!(a, b);
            let mut sa = a.clone();
            let mut sb = b.clone();
            sa.sort_by(|x, y| x.partial_cmp(y).unwrap());
            sb.sort_by(|x, y| x.partial_cmp(y).unwrap());
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn different_round_different_view() {
        // The dynamic shuffling changes each round even for the same
        // update, so a breached aggregator cannot correlate across rounds.
        let t = transformer(80, 2, TransformConfig::full());
        let u = update(80);
        let f1 = t.transform(&u, &[1u8; 16]);
        let f2 = t.transform(&u, &[2u8; 16]);
        assert_ne!(f1[0], f2[0]);
        assert_eq!(t.inverse(&f1, &[1u8; 16]), t.inverse(&f2, &[2u8; 16]));
    }

    #[test]
    fn aggregate_then_inverse_equals_plain_aggregate() {
        // End-to-end coordinate-wise invariance with two parties.
        let t = transformer(60, 3, TransformConfig::full());
        let tid = [7u8; 16];
        let u1 = update(60);
        let u2: Vec<f32> = (0..60).map(|i| (i as f32).cos()).collect();
        let f1 = t.transform(&u1, &tid);
        let f2 = t.transform(&u2, &tid);
        // Aggregator-side: coordinate-wise mean per fragment.
        let agg: Vec<Vec<f32>> = f1
            .iter()
            .zip(f2.iter())
            .map(|(a, b)| a.iter().zip(b.iter()).map(|(x, y)| (x + y) / 2.0).collect())
            .collect();
        let merged = t.inverse(&agg, &tid);
        let expected: Vec<f32> = u1
            .iter()
            .zip(u2.iter())
            .map(|(a, b)| (a + b) / 2.0)
            .collect();
        for (m, e) in merged.iter().zip(expected.iter()) {
            assert!((m - e).abs() < 1e-6);
        }
    }

    fn memo_of(t: &Transformer) -> Memo {
        t.memo.lock().unwrap().clone()
    }

    #[test]
    fn clones_share_one_derivation_equal_to_a_fresh_one() {
        let t = transformer(90, 3, TransformConfig::full());
        let peer = t.clone();
        let tid = [4u8; 16];
        let before = crate::shuffle::derivations();
        let a = t.permutations(&tid);
        let b = peer.permutations(&tid);
        assert_eq!(crate::shuffle::derivations() - before, 3);
        assert!(a.shares_set_with(&b));
        // A transformer built on its own, with its own memo, derives the
        // same slots.
        let fresh = transformer(90, 3, TransformConfig::full()).permutations(&tid);
        assert!(!fresh.shares_set_with(&a));
        assert_eq!(fresh.perms.len(), 3);
        for (j, (x, y)) in a.perms.iter().zip(fresh.perms.iter()).enumerate() {
            assert_eq!(x, y, "fragment {j}");
        }
    }

    #[test]
    fn another_round_gets_another_set() {
        let t = transformer(90, 3, TransformConfig::full());
        let a = t.permutations(&[1u8; 16]);
        let b = t.clone().permutations(&[2u8; 16]);
        assert!(!a.shares_set_with(&b));
        assert_eq!(b.training_id(), &[2u8; 16]);
        assert_ne!(a.perms[0], b.perms[0]);
    }

    #[test]
    fn the_memo_keeps_nothing_alive_once_every_holder_drops() {
        let t = transformer(90, 3, TransformConfig::full());
        let tid = [6u8; 16];
        let a = t.permutations(&tid);
        let b = t.clone().permutations(&tid);
        drop(a);
        let (_, weak) = memo_of(&t).expect("memo set");
        assert_eq!(weak.strong_count(), 1, "b still holds the set");
        drop(b);
        let (memo_tid, weak) = memo_of(&t).expect("memo set");
        assert_eq!(memo_tid, tid);
        assert_eq!(weak.strong_count(), 0, "the memo holds nothing alive");
        let before = crate::shuffle::derivations();
        let again = t.permutations(&tid);
        assert_eq!(crate::shuffle::derivations() - before, 3, "derived again");
        assert_eq!(again.perms.len(), 3);
    }

    #[test]
    fn eight_threads_share_one_set() {
        let t = transformer(5000, 3, TransformConfig::full());
        let tid = [3u8; 16];
        let start = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (t, start) = (t.clone(), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    let before = crate::shuffle::derivations();
                    let perms = t.permutations(&tid);
                    (perms, crate::shuffle::derivations() - before)
                })
            })
            .collect();
        let results: Vec<_> = threads.into_iter().map(|h| h.join().unwrap()).collect();
        // Every result is still held here, so none of them can have gone
        // before the last thread asked.
        assert!(results
            .iter()
            .all(|(p, _)| p.shares_set_with(&results[0].0)));
        let derived: usize = results.iter().map(|(_, n)| n).sum();
        assert_eq!(derived, 3, "one thread derived, seven waited for it");
    }
}
