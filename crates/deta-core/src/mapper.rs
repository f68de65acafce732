//! Randomized model partitioning (the "model mapper").
//!
//! Before training starts, the parties jointly generate one random model
//! mapper per model architecture (paper Section 4.1). The mapper assigns
//! every parameter index to exactly one aggregator; parties disassemble
//! each flat model update along this assignment and re-stitch aggregated
//! fragments back to their original positions. Because all aggregation
//! algorithms in scope are coordinate-wise, aggregating fragments and then
//! merging is exactly equivalent to aggregating whole updates.

use deta_crypto::DetRng;

/// A shared random assignment of parameter indices to aggregators.
///
/// # Examples
///
/// ```
/// use deta_core::mapper::ModelMapper;
/// use deta_crypto::DetRng;
///
/// let mapper = ModelMapper::generate(100, 3, None, &mut DetRng::from_u64(1));
/// let update: Vec<f32> = (0..100).map(|i| i as f32).collect();
/// let fragments = mapper.partition(&update);
/// assert_eq!(fragments.len(), 3);
/// assert_eq!(mapper.merge(&fragments), update);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelMapper {
    /// `assignment[i]` = aggregator owning parameter `i`.
    assignment: Vec<u16>,
    /// `positions[j][t]` = model index of slot `t` of aggregator `j`'s
    /// fragment (fragment order is ascending model index).
    positions: Vec<Vec<u32>>,
}

impl ModelMapper {
    /// Generates a mapper for `n_params` parameters over `n_aggregators`
    /// fragments with the given proportions.
    ///
    /// `proportions` need not be normalized; `None` means equal shares.
    /// Fragment sizes are exact (largest-remainder rounding), and the
    /// assignment is a uniformly random interleaving drawn from `rng` —
    /// this is the "agreed upon and shared by all the parties" randomness,
    /// so all parties must construct it from the same seed.
    ///
    /// # Panics
    ///
    /// Panics if `n_aggregators == 0`, exceeds `u16::MAX`, if proportions
    /// are not positive, or if their count mismatches `n_aggregators`.
    pub fn generate(
        n_params: usize,
        n_aggregators: usize,
        proportions: Option<&[f32]>,
        rng: &mut DetRng,
    ) -> ModelMapper {
        assert!(n_aggregators > 0, "need at least one aggregator");
        assert!(n_aggregators <= u16::MAX as usize, "too many aggregators");
        let props: Vec<f64> = match proportions {
            None => vec![1.0 / n_aggregators as f64; n_aggregators],
            Some(p) => {
                assert_eq!(p.len(), n_aggregators, "proportion count mismatch");
                assert!(p.iter().all(|&x| x > 0.0), "proportions must be positive");
                let total: f64 = p.iter().map(|&x| x as f64).sum();
                p.iter().map(|&x| x as f64 / total).collect()
            }
        };
        // Largest-remainder apportionment of exact fragment sizes.
        let mut sizes: Vec<usize> = props
            .iter()
            .map(|&p| (p * n_params as f64).floor() as usize)
            .collect();
        let mut assigned: usize = sizes.iter().sum();
        let mut remainders: Vec<(f64, usize)> = props
            .iter()
            .enumerate()
            .map(|(j, &p)| (p * n_params as f64 - sizes[j] as f64, j))
            .collect();
        remainders.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut ri = 0;
        while assigned < n_params {
            sizes[remainders[ri % remainders.len()].1] += 1;
            assigned += 1;
            ri += 1;
        }
        // Random interleaving with exact counts.
        let mut assignment: Vec<u16> = Vec::with_capacity(n_params);
        for (j, &s) in sizes.iter().enumerate() {
            assignment.extend(std::iter::repeat_n(j as u16, s));
        }
        rng.shuffle(&mut assignment);
        Self::from_assignment(assignment)
    }

    /// Builds a mapper from an explicit assignment vector.
    ///
    /// # Panics
    ///
    /// Panics if any aggregator in `0..=max` has an empty fragment would
    /// not be an error, but an assignment referencing aggregator `j` must
    /// be dense in the sense that fragments are indexed `0..=max(j)`.
    pub fn from_assignment(assignment: Vec<u16>) -> ModelMapper {
        let k = assignment
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as usize + 1);
        // Sized by a count first: grown by `push`, each table would end up
        // with up to twice the capacity it needs, at model size.
        let mut sizes = vec![0usize; k];
        for &j in &assignment {
            sizes[j as usize] += 1;
        }
        let mut positions: Vec<Vec<u32>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (i, &j) in assignment.iter().enumerate() {
            positions[j as usize].push(i as u32);
        }
        ModelMapper {
            assignment,
            positions,
        }
    }

    /// Number of parameters covered.
    pub fn n_params(&self) -> usize {
        self.assignment.len()
    }

    /// Number of aggregators (fragments).
    pub fn n_aggregators(&self) -> usize {
        self.positions.len()
    }

    /// Fragment length for aggregator `j`.
    pub fn fragment_len(&self, j: usize) -> usize {
        self.positions[j].len()
    }

    /// The aggregator owning parameter `i`, if `i` is in range — the
    /// partition-ownership fact deta-simnet's privacy checker audits
    /// against what each aggregator actually received.
    pub fn owner_of(&self, i: usize) -> Option<u16> {
        self.assignment.get(i).copied()
    }

    /// The model indices backing fragment `j`, in fragment order.
    pub fn fragment_positions(&self, j: usize) -> &[u32] {
        &self.positions[j]
    }

    /// Disassembles a flat update into per-aggregator fragments.
    ///
    /// # Panics
    ///
    /// Panics if `update.len()` differs from [`ModelMapper::n_params`].
    pub fn partition(&self, update: &[f32]) -> Vec<Vec<f32>> {
        (0..self.n_aggregators())
            .map(|j| self.fragment_values(update, j).collect())
            .collect()
    }

    /// Fragment `j` of [`ModelMapper::partition`], value by value.
    ///
    /// # Panics
    ///
    /// Panics if `update.len()` differs from [`ModelMapper::n_params`].
    pub fn fragment_values<'a>(
        &'a self,
        update: &'a [f32],
        j: usize,
    ) -> impl ExactSizeIterator<Item = f32> + 'a {
        assert_eq!(update.len(), self.n_params(), "update length mismatch");
        self.positions[j].iter().map(move |&i| update[i as usize])
    }

    /// Re-stitches fragments back into a flat update.
    ///
    /// # Panics
    ///
    /// Panics if fragment counts or lengths do not match the mapper.
    pub fn merge(&self, fragments: &[Vec<f32>]) -> Vec<f32> {
        assert_eq!(
            fragments.len(),
            self.n_aggregators(),
            "fragment count mismatch"
        );
        let mut out = vec![0.0f32; self.n_params()];
        for (j, frag) in fragments.iter().enumerate() {
            let pos = &self.positions[j];
            assert_eq!(frag.len(), pos.len(), "fragment {j} length mismatch");
            for (t, &i) in pos.iter().enumerate() {
                out[i as usize] = frag[t];
            }
        }
        out
    }

    /// Serializes the assignment (2 bytes per parameter, little-endian).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.assignment.len() * 2);
        for &a in &self.assignment {
            out.extend_from_slice(&a.to_le_bytes());
        }
        out
    }

    /// Deserializes an assignment produced by [`ModelMapper::to_bytes`].
    ///
    /// Returns `None` for odd-length input.
    pub fn from_bytes(bytes: &[u8]) -> Option<ModelMapper> {
        if !bytes.len().is_multiple_of(2) {
            return None;
        }
        let assignment: Vec<u16> = bytes
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();
        Some(Self::from_assignment(assignment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::from_u64(42)
    }

    #[test]
    fn equal_proportions_sizes() {
        let m = ModelMapper::generate(100, 4, None, &mut rng());
        for j in 0..4 {
            assert_eq!(m.fragment_len(j), 25);
        }
        assert_eq!(m.n_params(), 100);
        assert_eq!(m.n_aggregators(), 4);
    }

    #[test]
    fn custom_proportions_sizes() {
        let m = ModelMapper::generate(100, 3, Some(&[0.5, 0.3, 0.2]), &mut rng());
        assert_eq!(m.fragment_len(0), 50);
        assert_eq!(m.fragment_len(1), 30);
        assert_eq!(m.fragment_len(2), 20);
    }

    #[test]
    fn uneven_division_is_exact() {
        let m = ModelMapper::generate(101, 3, None, &mut rng());
        let total: usize = (0..3).map(|j| m.fragment_len(j)).sum();
        assert_eq!(total, 101);
        // Sizes differ by at most 1.
        let sizes: Vec<usize> = (0..3).map(|j| m.fragment_len(j)).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn partition_merge_roundtrip() {
        let m = ModelMapper::generate(57, 3, Some(&[0.6, 0.2, 0.2]), &mut rng());
        let update: Vec<f32> = (0..57).map(|i| i as f32 * 0.5).collect();
        let frags = m.partition(&update);
        assert_eq!(m.merge(&frags), update);
    }

    #[test]
    fn fragments_preserve_relative_order() {
        // Fragment order is ascending model index ("remaining parameters
        // squeezed to occupy all empty slots in sequence").
        let m = ModelMapper::generate(40, 2, None, &mut rng());
        let update: Vec<f32> = (0..40).map(|i| i as f32).collect();
        let frags = m.partition(&update);
        for frag in &frags {
            let mut sorted = frag.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(&sorted, frag, "fragment must be in ascending index order");
        }
    }

    #[test]
    fn same_seed_same_mapper() {
        let a = ModelMapper::generate(64, 4, None, &mut DetRng::from_u64(1));
        let b = ModelMapper::generate(64, 4, None, &mut DetRng::from_u64(1));
        assert_eq!(a, b);
        let c = ModelMapper::generate(64, 4, None, &mut DetRng::from_u64(2));
        assert_ne!(a, c);
    }

    #[test]
    fn assignment_is_actually_random() {
        // A contiguous (non-random) split would put indices 0..25 all in
        // fragment 0; a shuffled one almost surely does not.
        let m = ModelMapper::generate(100, 4, None, &mut rng());
        let first_frag = m.fragment_positions(0);
        let contiguous = first_frag.windows(2).all(|w| w[1] == w[0] + 1);
        assert!(!contiguous, "assignment looks contiguous, not random");
    }

    #[test]
    fn serialization_roundtrip() {
        let m = ModelMapper::generate(33, 5, None, &mut rng());
        let bytes = m.to_bytes();
        assert_eq!(ModelMapper::from_bytes(&bytes), Some(m));
        assert!(ModelMapper::from_bytes(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn single_aggregator_is_identity() {
        let m = ModelMapper::generate(10, 1, None, &mut rng());
        let update: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let frags = m.partition(&update);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], update);
    }

    #[test]
    #[should_panic]
    fn wrong_update_length_panics() {
        let m = ModelMapper::generate(10, 2, None, &mut rng());
        m.partition(&[0.0; 9]);
    }

    #[test]
    #[should_panic]
    fn zero_aggregators_panics() {
        ModelMapper::generate(10, 0, None, &mut rng());
    }
}
