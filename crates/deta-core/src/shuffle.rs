//! Parameter-level data shuffling (paper Section 4.2).
//!
//! Each partitioned model update is permuted before upload. The
//! permutation is seeded by the combination of a **permutation key**
//! (dispatched by the participant-controlled key broker, never visible to
//! aggregators) and the **per-round training identifier**, so it changes
//! every round yet is identical across parties — a requirement for the
//! aggregation arithmetic to stay aligned. Parties reverse the permutation
//! after downloading aggregated fragments.
//!
//! An adversary holding a breached aggregator's fragments but not the
//! permutation key faces an `O(2^|key| * T)` exhaustive order-recovery
//! search (paper Section 4.2), independent of the parameter values.

use deta_crypto::sha256::hkdf;
use deta_crypto::DetRng;

/// A per-round, per-fragment keyed permutation.
///
/// # Examples
///
/// ```
/// use deta_core::shuffle::RoundPermutation;
///
/// let key = [7u8; 32];
/// let round_id = [1u8; 16];
/// let perm = RoundPermutation::derive(&key, &round_id, 0, 5);
/// let data = [1.0f32, 2.0, 3.0, 4.0, 5.0];
/// let shuffled = perm.apply(&data);
/// assert_eq!(perm.invert(&shuffled), data);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundPermutation {
    /// `perm[t]` = source slot for output slot `t`.
    perm: Vec<u32>,
}

impl RoundPermutation {
    /// Derives the permutation for (`perm_key`, `training_id`,
    /// `fragment_idx`, `len`).
    ///
    /// Deterministic in all arguments: every party derives the identical
    /// permutation, and distinct rounds/fragments get independent ones.
    pub fn derive(
        perm_key: &[u8; 32],
        training_id: &[u8; 16],
        fragment_idx: u32,
        len: usize,
    ) -> RoundPermutation {
        let mut info = Vec::with_capacity(16 + 4 + 8);
        info.extend_from_slice(training_id);
        info.extend_from_slice(&fragment_idx.to_le_bytes());
        info.extend_from_slice(&(len as u64).to_le_bytes());
        let okm = hkdf(b"deta-shuffle-v1", perm_key, &info, 32);
        let mut seed = [0u8; 32];
        seed.copy_from_slice(&okm);
        let mut rng = DetRng::from_seed(seed);
        RoundPermutation {
            perm: rng.permutation(len),
        }
    }

    /// The identity permutation (shuffling disabled).
    pub fn identity(len: usize) -> RoundPermutation {
        RoundPermutation {
            perm: (0..len as u32).collect(),
        }
    }

    /// Permutation length.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Applies the permutation: `out[t] = data[perm[t]]`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn apply(&self, data: &[f32]) -> Vec<f32> {
        self.permuted(data).collect()
    }

    /// [`RoundPermutation::apply`] value by value, in output order, for a
    /// caller that writes the values where they are going instead of
    /// into a vector of their own. Crate-private like the indices.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub(crate) fn permuted<'a>(
        &'a self,
        data: &'a [f32],
    ) -> impl ExactSizeIterator<Item = f32> + 'a {
        assert_eq!(data.len(), self.perm.len(), "length mismatch");
        self.perm.iter().map(move |&s| data[s as usize])
    }

    /// Inverts the permutation: recovers `data` from `self.apply(data)`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn invert(&self, shuffled: &[f32]) -> Vec<f32> {
        assert_eq!(shuffled.len(), self.perm.len(), "length mismatch");
        let mut out = vec![0.0f32; shuffled.len()];
        for (t, &s) in self.perm.iter().enumerate() {
            out[s as usize] = shuffled[t];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: [u8; 32] = [7u8; 32];
    const TID: [u8; 16] = [3u8; 16];

    #[test]
    fn apply_invert_roundtrip() {
        let p = RoundPermutation::derive(&KEY, &TID, 0, 50);
        let data: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let shuffled = p.apply(&data);
        assert_ne!(
            shuffled, data,
            "a 50-element permutation should move things"
        );
        assert_eq!(p.invert(&shuffled), data);
    }

    #[test]
    fn deterministic_across_parties() {
        let a = RoundPermutation::derive(&KEY, &TID, 1, 40);
        let b = RoundPermutation::derive(&KEY, &TID, 1, 40);
        assert_eq!(a, b);
    }

    #[test]
    fn changes_with_round_id() {
        let a = RoundPermutation::derive(&KEY, &TID, 0, 40);
        let b = RoundPermutation::derive(&KEY, &[4u8; 16], 0, 40);
        assert_ne!(a, b, "permutation must change across training rounds");
    }

    #[test]
    fn changes_with_fragment_index() {
        let a = RoundPermutation::derive(&KEY, &TID, 0, 40);
        let b = RoundPermutation::derive(&KEY, &TID, 1, 40);
        assert_ne!(a, b);
    }

    #[test]
    fn changes_with_key() {
        let a = RoundPermutation::derive(&KEY, &TID, 0, 40);
        let b = RoundPermutation::derive(&[8u8; 32], &TID, 0, 40);
        assert_ne!(a, b, "without the key the order is unrecoverable");
    }

    #[test]
    fn identity_is_noop() {
        let p = RoundPermutation::identity(10);
        let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
        assert_eq!(p.apply(&data), data);
        assert_eq!(p.invert(&data), data);
    }

    #[test]
    fn preserves_multiset() {
        let p = RoundPermutation::derive(&KEY, &TID, 2, 100);
        let data: Vec<f32> = (0..100).map(|i| (i * 13 % 7) as f32).collect();
        let mut shuffled = p.apply(&data);
        let mut orig = data.clone();
        shuffled.sort_by(|a, b| a.partial_cmp(b).unwrap());
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(shuffled, orig);
    }

    #[test]
    fn empty_and_singleton() {
        let p0 = RoundPermutation::derive(&KEY, &TID, 0, 0);
        assert!(p0.is_empty());
        assert_eq!(p0.apply(&[]), Vec::<f32>::new());
        let p1 = RoundPermutation::derive(&KEY, &TID, 0, 1);
        assert_eq!(p1.apply(&[5.0]), vec![5.0]);
    }

    #[test]
    fn shuffling_commutes_with_coordinate_wise_mean() {
        // The core invariant: mean(shuffle(u_i)) == shuffle(mean(u_i)).
        let p = RoundPermutation::derive(&KEY, &TID, 0, 30);
        let u1: Vec<f32> = (0..30).map(|i| i as f32).collect();
        let u2: Vec<f32> = (0..30).map(|i| (i * i) as f32).collect();
        let mean_then_shuffle: Vec<f32> = p.apply(
            &u1.iter()
                .zip(u2.iter())
                .map(|(a, b)| (a + b) / 2.0)
                .collect::<Vec<_>>(),
        );
        let shuffle_then_mean: Vec<f32> = p
            .apply(&u1)
            .iter()
            .zip(p.apply(&u2).iter())
            .map(|(a, b)| (a + b) / 2.0)
            .collect();
        assert_eq!(mean_then_shuffle, shuffle_then_mean);
    }
}
