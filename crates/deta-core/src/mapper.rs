//! Randomized model partitioning (the "model mapper").
//!
//! Before training starts, the parties jointly generate one random model
//! mapper per model architecture (paper Section 4.1). The mapper assigns
//! every parameter index to exactly one aggregator; parties disassemble
//! each flat model update along this assignment and re-stitch aggregated
//! fragments back to their original positions. Because all aggregation
//! algorithms in scope are coordinate-wise, aggregating fragments and then
//! merging is exactly equivalent to aggregating whole updates.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::iter_over_hash_type)]

use crate::shuffle::assert_u32_slots;
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
    /// `positions[j][t]` = model index of slot `t` of aggregator `j`'s
    /// fragment (fragment order is ascending model index). Every index
    /// below the parameter count is in exactly one table; the assignment
    /// they were built from is not kept.
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
    /// are not positive, if their count mismatches `n_aggregators`, or if
    /// `n_params` exceeds 2³² ([`assert_u32_slots`]).
    pub fn generate(
        n_params: usize,
        n_aggregators: usize,
        proportions: Option<&[f32]>,
        rng: &mut DetRng,
    ) -> ModelMapper {
        assert_u32_slots(n_params, "a mapper");
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
        // Random interleaving with exact counts. The position tables are
        // allocated before the labels, so the labels are freed from the
        // top of the heap where nothing was allocated after them.
        let mut positions = tables(&sizes);
        let mut labels: Vec<u16> = Vec::with_capacity(n_params);
        for (j, &s) in sizes.iter().enumerate() {
            labels.extend(std::iter::repeat_n(j as u16, s));
        }
        rng.shuffle(&mut labels);
        fill(&mut positions, labels);
        ModelMapper { positions }
    }

    /// Builds a mapper from an explicit assignment: the `i`-th label is
    /// the aggregator owning parameter `i`. Fragments are indexed
    /// `0..=max(assignment)`; one that owns no parameter is empty. Only
    /// the position tables are kept.
    ///
    /// # Panics
    ///
    /// Panics if the assignment has more than 2³² labels
    /// ([`assert_u32_slots`]).
    pub fn from_assignment<I>(assignment: I) -> ModelMapper
    where
        I: IntoIterator<Item = u16>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let assignment = assignment.into_iter();
        assert_u32_slots(assignment.len(), "a mapper");
        let k = assignment.clone().max().map_or(0, |m| m as usize + 1);
        let mut sizes = vec![0usize; k];
        for j in assignment.clone() {
            sizes[j as usize] += 1;
        }
        let mut positions = tables(&sizes);
        fill(&mut positions, assignment);
        ModelMapper { positions }
    }

    /// Number of parameters covered.
    pub fn n_params(&self) -> usize {
        self.positions.iter().map(Vec::len).sum()
    }

    /// Number of aggregators (fragments).
    pub fn n_aggregators(&self) -> usize {
        self.positions.len()
    }

    /// Fragment length for aggregator `j`.
    pub fn fragment_len(&self, j: usize) -> usize {
        self.positions[j].len()
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
            .map(|j| {
                let mut fragment = Vec::new();
                self.gather_fragment(j, &[update], &mut fragment);
                fragment
            })
            .collect()
    }

    /// Gathers fragment `j`'s values, in fragment order, into `out`
    /// (cleared, and reserved exactly: grown by `extend`'s doubling, a
    /// buffer sized for one fragment would take twice the next, one
    /// value longer). The mirror of [`ModelMapper::scatter_fragment`]:
    /// the flat update is given in `parts`, consecutive pieces of it (a
    /// model's parameter tensors, or one flat vector), and each part's
    /// share of the fragment's ascending positions is one run, split off
    /// where the part ends by a binary search.
    ///
    /// # Panics
    ///
    /// Panics if the parts do not add up to the model's length.
    pub(crate) fn gather_fragment(&self, j: usize, parts: &[&[f32]], out: &mut Vec<f32>) {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, self.n_params(), "update length mismatch");
        let pos = &self.positions[j];
        out.clear();
        out.reserve_exact(pos.len());
        let (mut pos, mut offset) = (&pos[..], 0);
        for part in parts {
            let end = offset + part.len();
            let run = pos.partition_point(|&i| (i as usize) < end);
            let (here, rest) = pos.split_at(run);
            out.extend(here.iter().map(|&i| part[i as usize - offset]));
            (pos, offset) = (rest, end);
        }
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
            self.scatter_fragment(j, frag, &mut [&mut out]);
        }
        out
    }

    /// Writes fragment `j`'s values back to their model positions: the
    /// inverse of [`ModelMapper::gather_fragment`]. The flat update is
    /// given in `parts`, consecutive pieces of it (a model's parameter
    /// tensors, or one flat vector). A fragment's positions ascend, so
    /// each part's share of them is one run, split off where the part
    /// ends by a binary search.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not fragment `j`'s length or the parts do
    /// not add up to the model's.
    pub(crate) fn scatter_fragment(&self, j: usize, values: &[f32], parts: &mut [&mut [f32]]) {
        let pos = &self.positions[j];
        assert_eq!(values.len(), pos.len(), "fragment {j} length mismatch");
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, self.n_params(), "update length mismatch");
        let (mut pos, mut values, mut offset) = (&pos[..], values, 0);
        for part in parts.iter_mut() {
            let end = offset + part.len();
            let run = pos.partition_point(|&i| (i as usize) < end);
            let (here, rest) = pos.split_at(run);
            for (&i, &v) in here.iter().zip(values) {
                part[i as usize - offset] = v;
            }
            (pos, values, offset) = (rest, &values[run..], end);
        }
    }
}

/// Empty position tables, one per fragment, sized exactly: grown by
/// `push`, each would end up with up to twice the capacity it needs, at
/// model size.
fn tables(sizes: &[usize]) -> Vec<Vec<u32>> {
    sizes.iter().map(|&s| Vec::with_capacity(s)).collect()
}

/// Appends every index `i` to the table of the `i`-th label, so each
/// table ascends.
fn fill(positions: &mut [Vec<u32>], labels: impl IntoIterator<Item = u16>) {
    for (i, j) in labels.into_iter().enumerate() {
        positions[j as usize].push(i as u32);
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
    fn a_generated_mapper_is_the_one_built_from_its_assignment() {
        let sizes = [40, 25, 35];
        let generated = ModelMapper::generate(100, 3, Some(&[0.4, 0.25, 0.35]), &mut rng());
        let mut labels = vec![0u16; 100];
        for (j, table) in generated.positions.iter().enumerate() {
            assert_eq!(table.len(), sizes[j]);
            for &i in table {
                labels[i as usize] = j as u16;
            }
        }
        assert_eq!(ModelMapper::from_assignment(labels), generated);
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
    fn single_aggregator_is_identity() {
        let m = ModelMapper::generate(10, 1, None, &mut rng());
        let update: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let frags = m.partition(&update);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], update);
    }

    /// Fragment `j` gathered from `parts`.
    fn gathered(m: &ModelMapper, j: usize, parts: &[&[f32]]) -> Vec<u32> {
        let mut out = Vec::new();
        m.gather_fragment(j, parts, &mut out);
        assert_eq!(out.capacity(), m.fragment_len(j), "reserved exactly");
        out.iter().map(|x| x.to_bits()).collect()
    }

    /// Checks that gathering from `parts` is gathering from their
    /// concatenation, bit for bit, for every fragment of a 3-way mapper.
    fn gathers_like_one_vector(parts: &[&[f32]]) {
        let flat = parts.concat();
        let m = ModelMapper::generate(flat.len(), 3, None, &mut rng());
        assert_eq!(m.n_aggregators(), 3);
        for j in 0..3 {
            assert_eq!(gathered(&m, j, parts), gathered(&m, j, &[&flat]), "{j}");
        }
        let bits = |f: &Vec<f32>| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let partition: Vec<Vec<u32>> = m.partition(&flat).iter().map(bits).collect();
        assert_eq!(
            partition,
            (0..3).map(|j| gathered(&m, j, parts)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gathering_from_pieces_cut_anywhere_is_gathering_from_the_whole() {
        // NaN payloads and signed zeros travel as bits.
        let update: Vec<f32> = (0..100)
            .map(|i| match i % 5 {
                0 => f32::from_bits(0x7fc0_0000 | i),
                1 => -0.0,
                2 => f32::NEG_INFINITY,
                _ => i as f32 * 0.25,
            })
            .collect();
        for cuts in [
            vec![],
            vec![0, 0, 100],
            vec![1, 2, 3, 50, 99],
            vec![37, 37, 64],
        ] {
            let mut parts = Vec::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([100]) {
                parts.push(&update[at..cut]);
                at = cut;
            }
            gathers_like_one_vector(&parts);
        }
    }

    /// A model's trainable tensors, as `Sequential::params` yields them.
    fn tensors(m: &deta_nn::Sequential) -> Vec<&[f32]> {
        m.params().into_iter().map(|p| p.data()).collect()
    }

    #[test]
    fn gathering_from_a_models_tensors_is_gathering_from_flat_params() {
        use deta_nn::{Linear, Relu, Sequential};
        let mut r = rng();
        // Cuts at every tensor edge, a frozen layer `flat_params` skips,
        // and one-value tensors narrower than the gap between two
        // positions of one fragment.
        let model = Sequential::new()
            .push(Linear::new(6, 5, &mut r).freeze())
            .push(Linear::new(5, 7, &mut r))
            .push(Relu::new())
            .push(Linear::new(7, 1, &mut r))
            .push(Linear::new(1, 1, &mut r))
            .push(Linear::new(1, 4, &mut r));
        let flat = model.flat_params();
        let parts = tensors(&model);
        assert_eq!(parts.len(), 8);
        assert_eq!(parts.concat(), flat);
        let m = ModelMapper::generate(flat.len(), 3, None, &mut rng());
        for j in 0..3 {
            assert_eq!(gathered(&m, j, &parts), gathered(&m, j, &[&flat]), "{j}");
        }
        gathers_like_one_vector(&parts);
    }

    #[test]
    fn an_empty_model_gathers_empty_fragments() {
        let model = deta_nn::Sequential::new();
        let m = ModelMapper::generate(0, 3, None, &mut rng());
        assert_eq!((m.n_params(), m.n_aggregators()), (0, 3));
        for j in 0..3 {
            assert!(gathered(&m, j, &tensors(&model)).is_empty());
            assert!(gathered(&m, j, &[&model.flat_params()]).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "update length mismatch")]
    fn gathering_from_parts_of_the_wrong_length_panics() {
        let m = ModelMapper::generate(10, 2, None, &mut rng());
        m.gather_fragment(0, &[&[0.0; 4], &[0.0; 5]], &mut Vec::new());
    }

    #[test]
    #[should_panic]
    fn wrong_update_length_panics() {
        let m = ModelMapper::generate(10, 2, None, &mut rng());
        m.partition(&[0.0; 9]);
    }

    #[test]
    #[should_panic(expected = "a mapper of 4294967297 slots")]
    fn a_generated_mapper_past_u32_indices_is_refused() {
        ModelMapper::generate(u32::MAX as usize + 2, 3, None, &mut rng());
    }

    #[test]
    #[should_panic(expected = "a mapper of 4294967297 slots")]
    fn an_assignment_past_u32_indices_is_refused() {
        ModelMapper::from_assignment(std::iter::repeat_n(0, u32::MAX as usize + 2));
    }

    #[test]
    #[should_panic]
    fn zero_aggregators_panics() {
        ModelMapper::generate(10, 0, None, &mut rng());
    }
}
