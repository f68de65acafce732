//! The composed `Trans` / `Trans^-1` pipeline (paper Figure 2).
//!
//! On upload, a party partitions its flat model update along the shared
//! [`ModelMapper`] and shuffles each partition with the per-round keyed
//! permutation. On download it reverses both: un-shuffle each aggregated
//! fragment, then merge fragments back to original positions.

use crate::mapper::ModelMapper;
use crate::shuffle::RoundPermutation;
use deta_crypto::Secret;
use std::sync::Arc;

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
    /// Shared: the table is two index vectors the size of the model, and
    /// every party of a process holds a clone of the transformer. A
    /// re-partition swaps the whole `Arc`.
    mapper: Arc<ModelMapper>,
    perm_key: Secret<[u8; 32]>,
    config: TransformConfig,
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
        }
    }

    /// The underlying mapper.
    pub fn mapper(&self) -> &ModelMapper {
        &self.mapper
    }

    /// A transformer with the same permutation key and configuration but
    /// a different mapper — the re-partition step of aggregator failover,
    /// where survivors absorb a dead aggregator's parameters under a
    /// freshly generated partition while the keyed shuffle stays bound to
    /// the original session key.
    ///
    /// # Panics
    ///
    /// Panics under the same single-aggregator constraint as
    /// [`Transformer::new`].
    pub fn with_mapper(&self, mapper: ModelMapper) -> Transformer {
        Transformer::new(mapper, self.perm_key.clone(), self.config)
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
    pub fn permutations(&self, training_id: &[u8; 16]) -> RoundPermutations {
        let perms = (0..self.n_fragments())
            .map(|j| {
                let len = self.mapper.fragment_len(j);
                if self.config.shuffle {
                    RoundPermutation::derive(self.perm_key.expose(), training_id, j as u32, len)
                } else {
                    RoundPermutation::identity(len)
                }
            })
            .collect();
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
        let mut scratch = Vec::new();
        (0..self.n_fragments())
            .map(|j| {
                self.fragment_values(update, perms, j, &mut scratch)
                    .collect()
            })
            .collect()
    }

    /// Fragment `j` of `Trans(update)`, value by value in upload order,
    /// for a caller that writes the values where they are going
    /// ([`crate::wire::RecordFrame::upload`]);
    /// [`Transformer::transform_with`] collects exactly this. The
    /// partition goes through `scratch`, which callers reuse from one
    /// fragment to the next: permuting out of a fragment-sized buffer
    /// stays in cache, which gathering through both index tables at once
    /// (half the speed, measured at 10⁶ parameters) does not.
    ///
    /// # Panics
    ///
    /// Panics if `update.len()`, `perms` or `j` mismatch the mapper.
    pub fn fragment_values<'a>(
        &'a self,
        update: &[f32],
        perms: &'a RoundPermutations,
        j: usize,
        scratch: &'a mut Vec<f32>,
    ) -> impl ExactSizeIterator<Item = f32> + 'a {
        assert_eq!(perms.perms.len(), self.n_fragments(), "permutation count");
        scratch.clear();
        scratch.extend(self.mapper.fragment_values(update, j));
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
        assert_eq!(
            fragments.len(),
            perms.perms.len(),
            "fragment count mismatch"
        );
        let unshuffled: Vec<Vec<f32>> = fragments
            .iter()
            .zip(&perms.perms)
            .map(|(frag, perm)| perm.invert(frag))
            .collect();
        self.mapper.merge(&unshuffled)
    }
}

/// One round's permutations, fragment by fragment, as derived by
/// [`Transformer::permutations`].
///
/// The slot order is exactly what the permutation key protects, so the
/// type is opaque: it has no accessor for the indices and its `Debug`
/// prints only how many fragments it covers.
pub struct RoundPermutations {
    training_id: [u8; 16],
    perms: Vec<RoundPermutation>,
}

impl RoundPermutations {
    /// The round these permutations were derived for.
    pub fn training_id(&self) -> &[u8; 16] {
        &self.training_id
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
}
