//! Model aggregation algorithms (paper Section 3.1 and 7.1).
//!
//! All algorithms here read per-party update rows of equal length where
//! they lie ([`Rows`]: owned vectors, or an aggregator's uploads in the
//! records they were opened in) and emit one aggregated row of that
//! length, a tile at a time. Because
//! each is coordinate-wise (or, for Krum/FLAME, distance-based in a way
//! that partitioning and permutation preserve — permutations are
//! isometries of the L2 norm), they compute identical results on whole
//! updates and on partitioned/shuffled fragments. That invariance is what
//! makes DeTA transparent to the training algorithm, and it is asserted by
//! property tests in `tests/invariance.rs`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

/// Why an aggregation call was refused. Every input of an aggregation
/// is shaped by remote parties, so a malformed one is an answer, never a
/// panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggregateError {
    /// There are no inputs.
    Empty,
    /// Input `index` differs in length from input 0.
    Ragged {
        /// The first input of a different length.
        index: usize,
    },
    /// The number of weights is not the number of inputs.
    WeightCount,
    /// The weights do not sum to a positive value (NaN included).
    NonPositiveWeight,
    /// Trimming `trim` values from each end leaves nothing of `n`.
    OverTrim {
        /// Values trimmed from each end.
        trim: usize,
        /// Number of inputs.
        n: usize,
    },
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateError::Empty => write!(f, "no inputs to aggregate"),
            AggregateError::Ragged { index } => write!(f, "input {index} length mismatch"),
            AggregateError::WeightCount => write!(f, "weight count mismatch"),
            AggregateError::NonPositiveWeight => {
                write!(f, "weights must sum to a positive value")
            }
            AggregateError::OverTrim { trim, n } => {
                write!(f, "trim {trim} too large for {n} parties")
            }
        }
    }
}

impl std::error::Error for AggregateError {}

/// The inputs of an aggregation, read where they lie: `count()` rows
/// (one per party) of values, loaded a tile at a time. Owned vectors are
/// one source (`&[Vec<f32>]`); an aggregator's uploads, still in the
/// records they were opened in, are another.
pub trait Rows {
    /// Number of rows.
    fn count(&self) -> usize;

    /// Number of values in row `i`.
    fn row_len(&self, i: usize) -> usize;

    /// Copies values `start..start + out.len()` of row `i` into `out`.
    fn load(&self, i: usize, start: usize, out: &mut [f32]);
}

impl Rows for &[Vec<f32>] {
    fn count(&self) -> usize {
        self.len()
    }

    fn row_len(&self, i: usize) -> usize {
        self[i].len()
    }

    fn load(&self, i: usize, start: usize, out: &mut [f32]) {
        out.copy_from_slice(&self[i][start..start + out.len()]);
    }
}

/// A model aggregation algorithm.
///
/// # Examples
///
/// ```
/// use deta_core::agg::AggKind;
///
/// let alg = AggKind::IterativeAveraging.build();
/// let inputs = vec![vec![1.0f32, 2.0], vec![3.0, 4.0]];
/// assert_eq!(alg.aggregate(&inputs, &[1.0, 1.0]), Ok(vec![2.0, 3.0]));
/// ```
pub trait Aggregation: Send + Sync {
    /// Algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Aggregates `rows` with per-row weights and hands the result to
    /// `emit`, in coordinate order, a few values at a time. Nothing is
    /// emitted when the call is refused.
    ///
    /// # Errors
    ///
    /// [`AggregateError`] if there are no rows, lengths differ,
    /// `weights.len() != rows.count()`, or the algorithm cannot run on
    /// this many rows or these weights.
    fn aggregate_into(
        &self,
        rows: &dyn Rows,
        weights: &[f32],
        emit: &mut dyn FnMut(&[f32]),
    ) -> Result<(), AggregateError>;

    /// Aggregates `inputs[party][coord]` with per-party weights, into a
    /// vector of its own ([`Aggregation::aggregate_into`] over owned
    /// rows).
    ///
    /// # Errors
    ///
    /// As [`Aggregation::aggregate_into`].
    fn aggregate(&self, inputs: &[Vec<f32>], weights: &[f32]) -> Result<Vec<f32>, AggregateError> {
        let mut out = Vec::with_capacity(inputs.first().map_or(0, Vec::len));
        self.aggregate_into(&inputs, weights, &mut |values| {
            out.extend_from_slice(values)
        })?;
        Ok(out)
    }
}

/// Selects an aggregation algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggKind {
    /// Weighted iterative averaging (the FedAvg/FedSGD core).
    IterativeAveraging,
    /// Unweighted gradient sum (FedSGD variant).
    GradientSum,
    /// Coordinate-wise median (Byzantine-robust).
    CoordinateMedian,
    /// Krum selection with `f` assumed Byzantine parties.
    Krum {
        /// Assumed number of Byzantine parties.
        f: usize,
    },
    /// FLAME-lite: cosine-distance outlier filtering + clipped averaging.
    FlameLite,
    /// Coordinate-wise trimmed mean discarding the `trim` largest and
    /// smallest values per coordinate (Yin et al., 2018).
    TrimmedMean {
        /// Values trimmed from each end per coordinate.
        trim: usize,
    },
}

impl AggKind {
    /// Instantiates the algorithm.
    pub fn build(&self) -> Box<dyn Aggregation> {
        match *self {
            AggKind::IterativeAveraging => Box::new(IterativeAveraging),
            AggKind::GradientSum => Box::new(GradientSum),
            AggKind::CoordinateMedian => Box::new(CoordinateMedian),
            AggKind::Krum { f } => Box::new(Krum { f }),
            AggKind::FlameLite => Box::new(FlameLite),
            AggKind::TrimmedMean { trim } => Box::new(TrimmedMean { trim }),
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AggKind::IterativeAveraging => "iterative-averaging",
            AggKind::GradientSum => "gradient-sum",
            AggKind::CoordinateMedian => "coordinate-median",
            AggKind::Krum { .. } => "krum",
            AggKind::FlameLite => "flame-lite",
            AggKind::TrimmedMean { .. } => "trimmed-mean",
        }
    }

    /// The minimum surviving-party count the rule needs to keep its
    /// guarantees once partial participation shrinks the session: Krum
    /// scores each update against its `n - f - 2` nearest neighbours (so
    /// `n >= 2f + 2` must hold for selection to be meaningful), the
    /// trimmed mean must retain at least one value per coordinate after
    /// discarding `trim` from each end, FLAME-lite's median-based
    /// clipping needs three updates for a non-degenerate median, and the
    /// plain averaging rules work with any non-empty set.
    pub fn participation_floor(&self) -> usize {
        match *self {
            AggKind::Krum { f } => 2 * f + 2,
            AggKind::TrimmedMean { trim } => 2 * trim + 1,
            AggKind::FlameLite => 3,
            AggKind::IterativeAveraging | AggKind::GradientSum | AggKind::CoordinateMedian => 1,
        }
    }
}

/// The common length of `rows`, one weight per row.
fn validate(rows: &dyn Rows, weights: &[f32]) -> Result<usize, AggregateError> {
    let n = rows.count();
    if n == 0 {
        return Err(AggregateError::Empty);
    }
    let len = rows.row_len(0);
    if weights.len() != n {
        return Err(AggregateError::WeightCount);
    }
    match (0..n).find(|&i| rows.row_len(i) != len) {
        Some(index) => Err(AggregateError::Ragged { index }),
        None => Ok(len),
    }
}

/// Coordinates read together: a tile is `n` rows of this many values.
const LANES: usize = 64;

/// What `Iterator::sum` starts an `f64` sum from: `-0.0 + x` is `x` for
/// every `x`, signed zeros included, so an accumulator seeded with it
/// holds exactly the bits `iter.sum()` would.
const SUM_IDENTITY: f64 = -0.0;

/// One party's slice of a sorted tile.
type Row = [i32; LANES];

/// The tiles of `len` coordinates, as `(start, width)`.
fn tiles(len: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..len)
        .step_by(LANES)
        .map(move |start| (start, LANES.min(len - start)))
}

/// Emits row `i` of `rows`, `len` values, as it lies.
fn emit_row(rows: &dyn Rows, i: usize, len: usize, emit: &mut dyn FnMut(&[f32])) {
    let mut values = [0.0f32; LANES];
    for (start, width) in tiles(len) {
        rows.load(i, start, &mut values[..width]);
        emit(&values[..width]);
    }
}

/// Per coordinate, `0.0` plus `term(factor, v)` for each `(row, factor)`
/// of `picked` in that order, `v` being the row's value; then `finish`
/// of the sum. The sums live on the stack, one tile at a time, and each
/// tile's results go to `emit`.
fn sum_rows(
    rows: &dyn Rows,
    len: usize,
    picked: &[(usize, f64)],
    term: impl Fn(f64, f32) -> f64,
    finish: impl Fn(f64) -> f32,
    emit: &mut dyn FnMut(&[f32]),
) {
    let (mut values, mut out) = ([0.0f32; LANES], [0.0f32; LANES]);
    for (start, width) in tiles(len) {
        let mut sums = [0.0f64; LANES];
        for &(i, factor) in picked {
            rows.load(i, start, &mut values[..width]);
            for (sum, &v) in sums.iter_mut().zip(&values[..width]) {
                *sum += term(factor, v);
            }
        }
        for (o, &sum) in out.iter_mut().zip(&sums[..width]) {
            *o = finish(sum);
        }
        emit(&out[..width]);
    }
}

/// The integer whose order is `f32::total_cmp`'s: the magnitude bits of
/// a negative value are flipped, so that more negative sorts lower, and
/// the sign bit already orders negatives below positives as an `i32`.
/// The sign bit is untouched, which makes [`unkey`] the same flip.
#[inline]
fn key(x: f32) -> i32 {
    let bits = x.to_bits() as i32;
    bits ^ (((bits >> 31) as u32) >> 1) as i32
}

/// The value `k` is the key of, bit for bit.
#[inline]
fn unkey(k: i32) -> f32 {
    f32::from_bits((k ^ (((k >> 31) as u32) >> 1) as i32) as u32)
}

/// Batcher's odd-even merge sort over `n` wires, as `(low, high)`
/// compare-exchanges in execution order; valid for every `n`, not only
/// powers of two (191 exchanges at 32).
fn sorting_network(n: usize) -> Vec<(usize, usize)> {
    // Room for `n·b(b+1)/4` exchanges, `b = ⌈log₂ n⌉`: no fewer than the
    // network has for every power of two and every `n` up to 4096, so
    // the table is allocated once.
    let b = n.next_power_of_two().trailing_zeros() as usize;
    let mut net = Vec::with_capacity(n * b * (b + 1) / 4);
    let mut p = 1;
    while p < n {
        let mut k = p;
        while k >= 1 {
            let mut j = k % p;
            while j + k < n {
                for i in 0..k.min(n - j - k) {
                    if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                        net.push((i + j, i + j + k));
                    }
                }
                j += 2 * k;
            }
            k /= 2;
        }
        p *= 2;
    }
    net
}

/// Sorts every column of `rows` ascending in `f32::total_cmp` order and
/// hands the result to `emit` a tile at a time: `sorted[r][l]` is the key
/// of the `r`-th smallest value of the tile's coordinate `l`, for the
/// first `width` lanes (the rest of a last, partial tile is stale).
///
/// The sort is a fixed sequence of lane-wise `min`/`max` pairs, so what
/// the kernel executes and touches depends on `(n, len)` and never on a
/// value a party sent.
fn for_each_sorted_tile(rows: &dyn Rows, len: usize, mut emit: impl FnMut(&[Row], usize)) {
    let n = rows.count();
    let net = sorting_network(n);
    let mut tile = vec![[0i32; LANES]; n];
    let mut values = [0.0f32; LANES];
    for (start, width) in tiles(len) {
        for (i, row) in tile.iter_mut().enumerate() {
            rows.load(i, start, &mut values[..width]);
            for (k, &v) in row.iter_mut().zip(&values[..width]) {
                *k = key(v);
            }
        }
        for &(low, high) in &net {
            let (head, tail) = tile.split_at_mut(high);
            for (a, b) in head[low].iter_mut().zip(tail[0].iter_mut()) {
                (*a, *b) = ((*a).min(*b), (*a).max(*b));
            }
        }
        emit(&tile, width);
    }
}

/// Weighted mean across parties — the core of FedAvg and FedSGD.
pub struct IterativeAveraging;

impl Aggregation for IterativeAveraging {
    fn name(&self) -> &'static str {
        "iterative-averaging"
    }

    fn aggregate_into(
        &self,
        rows: &dyn Rows,
        weights: &[f32],
        emit: &mut dyn FnMut(&[f32]),
    ) -> Result<(), AggregateError> {
        let len = validate(rows, weights)?;
        let total: f64 = weights.iter().map(|&w| w as f64).sum();
        if total.is_nan() || total <= 0.0 {
            return Err(AggregateError::NonPositiveWeight);
        }
        let picked: Vec<(usize, f64)> = (weights.iter().enumerate())
            .map(|(i, &w)| (i, w as f64 / total))
            .collect();
        sum_rows(
            rows,
            len,
            &picked,
            |w, v| w * v as f64,
            |sum| sum as f32,
            emit,
        );
        Ok(())
    }
}

/// Plain sum (FedSGD gradient accumulation); weights are ignored.
pub struct GradientSum;

impl Aggregation for GradientSum {
    fn name(&self) -> &'static str {
        "gradient-sum"
    }

    fn aggregate_into(
        &self,
        rows: &dyn Rows,
        weights: &[f32],
        emit: &mut dyn FnMut(&[f32]),
    ) -> Result<(), AggregateError> {
        let len = validate(rows, weights)?;
        let picked: Vec<(usize, f64)> = (0..rows.count()).map(|i| (i, 1.0)).collect();
        sum_rows(rows, len, &picked, |_, v| v as f64, |sum| sum as f32, emit);
        Ok(())
    }
}

/// Coordinate-wise median (Yin et al., 2018); weights are ignored.
pub struct CoordinateMedian;

/// The median of every coordinate of `len`-long `rows` (at least one):
/// the middle row of the sorted tile, or the `f32` mean of the middle two.
fn coordinate_median(rows: &dyn Rows, len: usize, emit: &mut dyn FnMut(&[f32])) {
    let n = rows.count();
    let mut out = [0.0f32; LANES];
    for_each_sorted_tile(rows, len, |sorted, width| {
        let upper = sorted[n / 2].iter().map(|&k| unkey(k));
        if n % 2 == 1 {
            for (o, v) in out.iter_mut().zip(upper) {
                *o = v;
            }
        } else {
            let lower = sorted[n / 2 - 1].iter().map(|&k| unkey(k));
            for (o, (a, b)) in out.iter_mut().zip(lower.zip(upper)) {
                *o = (a + b) / 2.0;
            }
        }
        emit(&out[..width]);
    });
}

impl Aggregation for CoordinateMedian {
    fn name(&self) -> &'static str {
        "coordinate-median"
    }

    fn aggregate_into(
        &self,
        rows: &dyn Rows,
        weights: &[f32],
        emit: &mut dyn FnMut(&[f32]),
    ) -> Result<(), AggregateError> {
        let len = validate(rows, weights)?;
        coordinate_median(rows, len, emit);
        Ok(())
    }
}

/// Krum (Blanchard et al., 2017): selects the single update closest to its
/// `n - f - 2` nearest neighbours; weights are ignored.
///
/// With DeTA partitioning enabled, selection runs independently per
/// fragment — the paper notes this preserves outlier elimination because
/// permutation preserves pairwise distances.
pub struct Krum {
    /// Assumed number of Byzantine parties.
    pub f: usize,
}

/// Candidates whose distances to one update advance together: as many
/// independent `f64` addition chains, each in coordinate order.
const KRUM_GROUP: usize = 4;

/// `dist[i * n + j]`, the squared L2 distance between rows `i` and `j`,
/// each pair computed once: `(x - y)²` and `(y - x)²` are the same bits,
/// and every pair's sum runs over the coordinates in order, a tile of
/// every row at a time.
fn pairwise_sq_dists(rows: &dyn Rows, len: usize) -> Vec<f64> {
    let n = rows.count();
    let mut dist = vec![SUM_IDENTITY; n * n];
    let mut tile = vec![[0.0f32; LANES]; n];
    for (start, width) in tiles(len) {
        for (i, row) in tile.iter_mut().enumerate() {
            rows.load(i, start, &mut row[..width]);
        }
        for (i, x) in tile.iter().enumerate() {
            let row = &mut dist[i * n + i + 1..(i + 1) * n];
            for (dists, group) in row
                .chunks_mut(KRUM_GROUP)
                .zip(tile[i + 1..].chunks(KRUM_GROUP))
            {
                // A short last group repeats its last row, so that its
                // sums are not one latency-bound chain each.
                let ys: [&[f32; LANES]; KRUM_GROUP] =
                    std::array::from_fn(|g| &group[g.min(group.len() - 1)]);
                let mut sums = [SUM_IDENTITY; KRUM_GROUP];
                sums[..dists.len()].copy_from_slice(dists);
                for (c, &a) in x[..width].iter().enumerate() {
                    for (sum, y) in sums.iter_mut().zip(ys) {
                        let d = a as f64 - y[c] as f64;
                        *sum += d * d;
                    }
                }
                dists.copy_from_slice(&sums[..dists.len()]);
            }
        }
    }
    for i in 0..n {
        for j in 0..i {
            dist[i * n + j] = dist[j * n + i];
        }
    }
    dist
}

/// Krum's score of every row: the sum of its `k` smallest squared
/// distances to the others.
fn krum_scores(rows: &dyn Rows, len: usize, k: usize) -> Vec<f64> {
    let n = rows.count();
    let dist = pairwise_sq_dists(rows, len);
    (0..n)
        .map(|i| {
            let mut dists: Vec<f64> = (0..n)
                .filter(|&j| j != i)
                .map(|j| dist[i * n + j])
                .collect();
            dists.sort_by(f64::total_cmp);
            dists.iter().take(k).sum()
        })
        .collect()
}

impl Aggregation for Krum {
    fn name(&self) -> &'static str {
        "krum"
    }

    fn aggregate_into(
        &self,
        rows: &dyn Rows,
        weights: &[f32],
        emit: &mut dyn FnMut(&[f32]),
    ) -> Result<(), AggregateError> {
        let len = validate(rows, weights)?;
        // Krum's neighbourhood size: n - f - 2 (at least 1).
        let k = rows.count().saturating_sub(self.f + 2).max(1);
        let mut best_score = f64::INFINITY;
        let mut best_idx = 0usize;
        for (i, &score) in krum_scores(rows, len, k).iter().enumerate() {
            if score < best_score {
                best_score = score;
                best_idx = i;
            }
        }
        emit_row(rows, best_idx, len, emit);
        Ok(())
    }
}

/// FLAME-lite: filters parties whose update direction deviates (cosine
/// distance to the coordinate-wise median direction), clips the survivors
/// to the median norm, and averages. Weights are ignored.
///
/// This captures the clustering + clipping structure of FLAME (Nguyen et
/// al., 2022) in a deterministic, dependency-free form.
pub struct FlameLite;

impl Aggregation for FlameLite {
    fn name(&self) -> &'static str {
        "flame-lite"
    }

    fn aggregate_into(
        &self,
        rows: &dyn Rows,
        weights: &[f32],
        emit: &mut dyn FnMut(&[f32]),
    ) -> Result<(), AggregateError> {
        let len = validate(rows, weights)?;
        let n = rows.count();
        if n <= 2 {
            // Too few parties to filter; fall back to the mean.
            return IterativeAveraging.aggregate_into(rows, &vec![1.0; n], emit);
        }
        // Reference direction: the coordinate-wise median update.
        let mut median = Vec::with_capacity(len);
        coordinate_median(rows, len, &mut |values| median.extend_from_slice(values));
        // Cosine distance of each update to the reference.
        let (dots, squares) = dots_and_squares(rows, len, &median);
        let reference_norm = l2(&median);
        let dists: Vec<f64> = (dots.iter().zip(&squares))
            .map(|(&dot, &square)| cosine_distance(dot, square.sqrt(), reference_norm))
            .collect();
        let mut sorted = dists.clone();
        sorted.sort_by(f64::total_cmp);
        let med_dist = sorted[n / 2];
        // Accept updates within twice the median distance (plus epsilon
        // for the all-identical case).
        let threshold = med_dist * 2.0 + 1e-9;
        let accepted: Vec<usize> = (0..n).filter(|&i| dists[i] <= threshold).collect();
        if accepted.is_empty() {
            // Half the distances or more are NaN (non-finite updates, or a
            // reference that overflowed): no update can be told from an
            // outlier, and the reference is the one robust answer left.
            emit(&median);
            return Ok(());
        }
        // Clip accepted updates to the median L2 norm.
        let norms: Vec<f64> = accepted.iter().map(|&i| squares[i].sqrt()).collect();
        let mut sorted_norms = norms.clone();
        sorted_norms.sort_by(f64::total_cmp);
        let clip = sorted_norms[sorted_norms.len() / 2].max(1e-12);
        let picked: Vec<(usize, f64)> = (accepted.iter().zip(&norms))
            .map(|(&i, &norm)| (i, if norm > clip { clip / norm } else { 1.0 }))
            .collect();
        let inv = 1.0 / accepted.len() as f64;
        sum_rows(
            rows,
            len,
            &picked,
            |scale, v| v as f64 * scale,
            |sum| (sum * inv) as f32,
            emit,
        );
        Ok(())
    }
}

/// Coordinate-wise trimmed mean: per coordinate, drop the `trim` smallest
/// and largest party values and average the rest. Robust to up to `trim`
/// Byzantine parties per coordinate; weights are ignored.
pub struct TrimmedMean {
    /// Values trimmed from each end.
    pub trim: usize,
}

impl Aggregation for TrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed-mean"
    }

    fn aggregate_into(
        &self,
        rows: &dyn Rows,
        weights: &[f32],
        emit: &mut dyn FnMut(&[f32]),
    ) -> Result<(), AggregateError> {
        let len = validate(rows, weights)?;
        let (n, trim) = (rows.count(), self.trim);
        if trim.saturating_mul(2) >= n {
            return Err(AggregateError::OverTrim { trim, n });
        }
        let keep = (n - 2 * trim) as f64;
        let mut out = [0.0f32; LANES];
        for_each_sorted_tile(rows, len, |sorted, width| {
            // The kept values are added in ascending order.
            let mut sums = [SUM_IDENTITY; LANES];
            for row in &sorted[trim..n - trim] {
                for (sum, &k) in sums.iter_mut().zip(row) {
                    *sum += unkey(k) as f64;
                }
            }
            for (o, &sum) in out.iter_mut().zip(&sums) {
                *o = (sum / keep) as f32;
            }
            emit(&out[..width]);
        });
        Ok(())
    }
}

/// Per row of `rows`, its dot product with `reference` and its squared
/// L2 norm, each summed over the coordinates in order as `Iterator::sum`
/// would.
fn dots_and_squares(rows: &dyn Rows, len: usize, reference: &[f32]) -> (Vec<f64>, Vec<f64>) {
    let n = rows.count();
    let (mut dots, mut squares) = (vec![SUM_IDENTITY; n], vec![SUM_IDENTITY; n]);
    let mut values = [0.0f32; LANES];
    for (start, width) in tiles(len) {
        let reference = &reference[start..start + width];
        for (i, (dot, square)) in dots.iter_mut().zip(&mut squares).enumerate() {
            rows.load(i, start, &mut values[..width]);
            for (&x, &y) in values[..width].iter().zip(reference) {
                *dot += x as f64 * y as f64;
                *square += x as f64 * x as f64;
            }
        }
    }
    (dots, squares)
}

fn l2(a: &[f32]) -> f64 {
    a.iter().map(|&x| x as f64 * x as f64).sum::<f64>().sqrt()
}

/// `1 - dot / (na · nb)`, or 1 when either norm is zero.
fn cosine_distance(dot: f64, na: f64, nb: f64) -> f64 {
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deta_proptest::cases;

    const ALL_KINDS: [AggKind; 6] = [
        AggKind::IterativeAveraging,
        AggKind::GradientSum,
        AggKind::CoordinateMedian,
        AggKind::Krum { f: 0 },
        AggKind::FlameLite,
        AggKind::TrimmedMean { trim: 1 },
    ];

    fn inputs() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![2.0, 3.0, 4.0, 5.0],
            vec![3.0, 4.0, 5.0, 6.0],
        ]
    }

    /// Every input of the kernels — values, lengths, counts, weights — is
    /// shaped by remote parties, so an `assert!` here could state no
    /// internal invariant, only crash the aggregator from afar. Clippy
    /// has no lint for it; this scan of the file is the check.
    #[test]
    fn the_kernels_assert_nothing() {
        let src = include_str!("agg.rs");
        let kernels = &src[..src.find("\n#[cfg(test)]\nmod tests").unwrap_or(src.len())];
        for (n, line) in kernels.lines().enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            for mac in ["assert!", "assert_eq!", "assert_ne!"] {
                let called = code
                    .match_indices(mac)
                    .any(|(i, _)| !code[..i].ends_with(|c: char| c.is_alphanumeric() || c == '_'));
                assert!(
                    !called,
                    "agg.rs:{}: `{mac}` in an aggregation kernel",
                    n + 1
                );
            }
        }
    }

    #[test]
    fn averaging_unweighted() {
        let out = IterativeAveraging
            .aggregate(&inputs(), &[1.0, 1.0, 1.0])
            .unwrap();
        assert_eq!(out, vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn averaging_weighted() {
        // Paper: theta <- sum_i (n_i / n) theta_i with n_i = party data sizes.
        let out = IterativeAveraging
            .aggregate(&inputs(), &[2.0, 1.0, 1.0])
            .unwrap();
        assert_eq!(out[0], (2.0 * 1.0 + 2.0 + 3.0) / 4.0);
    }

    #[test]
    fn gradient_sum() {
        let out = GradientSum.aggregate(&inputs(), &[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(out, vec![6.0, 9.0, 12.0, 15.0]);
    }

    #[test]
    fn coordinate_median_odd() {
        let out = CoordinateMedian
            .aggregate(&inputs(), &[1.0, 1.0, 1.0])
            .unwrap();
        assert_eq!(out, vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn coordinate_median_even() {
        let ins = vec![vec![1.0, 10.0], vec![3.0, 20.0]];
        let out = CoordinateMedian.aggregate(&ins, &[1.0, 1.0]).unwrap();
        assert_eq!(out, vec![2.0, 15.0]);
    }

    #[test]
    fn median_resists_outlier() {
        let mut ins = inputs();
        ins.push(vec![1e9, 1e9, 1e9, 1e9]);
        let out = CoordinateMedian.aggregate(&ins, &[1.0; 4]).unwrap();
        assert!(out.iter().all(|&v| v < 10.0));
    }

    #[test]
    fn krum_selects_an_input() {
        let out = Krum { f: 1 }.aggregate(&inputs(), &[1.0; 3]).unwrap();
        assert!(inputs().contains(&out));
    }

    #[test]
    fn krum_rejects_outlier() {
        let mut ins = inputs();
        ins.push(vec![1e6, -1e6, 1e6, -1e6]);
        let out = Krum { f: 1 }.aggregate(&ins, &[1.0; 4]).unwrap();
        assert!(out.iter().all(|&v| v.abs() < 10.0), "picked the outlier");
    }

    #[test]
    fn flame_filters_poisoned_update() {
        // Honest updates point one way; the poisoned one is opposite and
        // huge. FLAME-lite must keep the aggregate near the honest mean.
        let honest: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..8).map(|c| 1.0 + 0.01 * (i * 8 + c) as f32).collect())
            .collect();
        let mut ins = honest.clone();
        ins.push(vec![-50.0; 8]);
        let out = FlameLite.aggregate(&ins, &[1.0; 6]).unwrap();
        for &v in &out {
            assert!((0.5..=1.5).contains(&v), "aggregate {v} polluted by poison");
        }
    }

    #[test]
    fn flame_small_n_falls_back_to_mean() {
        let ins = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let out = FlameLite.aggregate(&ins, &[1.0, 1.0]).unwrap();
        assert_eq!(out, vec![2.0, 3.0]);
    }

    #[test]
    fn trimmed_mean_basics() {
        let out = TrimmedMean { trim: 1 }
            .aggregate(&inputs(), &[1.0; 3])
            .unwrap();
        // Trimming 1 from each end of 3 values leaves the median.
        assert_eq!(out, vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn trimmed_mean_resists_outlier() {
        let mut ins = inputs();
        ins.push(vec![1e9; 4]);
        ins.push(vec![-1e9; 4]);
        let out = TrimmedMean { trim: 1 }.aggregate(&ins, &[1.0; 5]).unwrap();
        assert!(out.iter().all(|&v| v.abs() < 10.0));
    }

    #[test]
    fn trimmed_mean_overtrim_is_an_error() {
        assert_eq!(
            TrimmedMean { trim: 2 }.aggregate(&inputs(), &[1.0; 3]),
            Err(AggregateError::OverTrim { trim: 2, n: 3 })
        );
        assert_eq!(
            TrimmedMean { trim: usize::MAX }.aggregate(&inputs(), &[1.0; 3]),
            Err(AggregateError::OverTrim {
                trim: usize::MAX,
                n: 3
            })
        );
    }

    #[test]
    fn kind_builds_correct_algorithm() {
        for kind in ALL_KINDS {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn malformed_inputs_are_errors_for_every_algorithm() {
        let ragged = [vec![1.0], vec![1.0], vec![1.0, 2.0]];
        for kind in ALL_KINDS {
            let alg = kind.build();
            assert_eq!(alg.aggregate(&[], &[]), Err(AggregateError::Empty));
            assert_eq!(
                alg.aggregate(&ragged, &[1.0; 3]),
                Err(AggregateError::Ragged { index: 2 })
            );
            assert_eq!(
                alg.aggregate(&inputs(), &[1.0; 2]),
                Err(AggregateError::WeightCount)
            );
        }
    }

    #[test]
    fn weights_a_party_can_poison_are_errors() {
        for weights in [
            [f32::NAN, 1.0, 1.0],
            [1.0, -1.0, 0.0],
            [0.0, 0.0, 0.0],
            [f32::INFINITY, f32::NEG_INFINITY, 1.0],
            [-3.0, 1.0, 1.0],
        ] {
            assert_eq!(
                IterativeAveraging.aggregate(&inputs(), &weights),
                Err(AggregateError::NonPositiveWeight),
                "{weights:?}"
            );
        }
    }

    #[test]
    fn flame_with_no_comparable_update_returns_its_reference() {
        // Every update holds a NaN, so every cosine distance is NaN and
        // the filter accepts nobody.
        let ins: Vec<Vec<f32>> = (0..4).map(|p| vec![f32::NAN, p as f32, 1.0]).collect();
        let out = FlameLite.aggregate(&ins, &[1.0; 4]).unwrap();
        let median = CoordinateMedian.aggregate(&ins, &[1.0; 4]).unwrap();
        assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            median.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_algorithms_preserve_length() {
        let ins = inputs();
        for kind in ALL_KINDS {
            let out = kind.build().aggregate(&ins, &[1.0; 3]).unwrap();
            assert_eq!(out.len(), 4, "{}", kind.name());
        }
    }

    #[test]
    fn key_orders_as_total_cmp_and_unkey_inverts_it() {
        let edges = [
            0x0000_0000u32,
            0x8000_0000,
            0x0000_0001,
            0x8000_0001,
            0x007f_ffff,
            0x0080_0000,
            0x7f7f_ffff,
            0x7f80_0000,
            0xff80_0000,
            0x7f80_0001,
            0x7fc0_0000,
            0xffc0_0000,
            0x7fff_ffff,
            0xffff_ffff,
        ];
        for a in edges {
            for b in edges {
                let (a, b) = (f32::from_bits(a), f32::from_bits(b));
                assert_eq!(key(a).cmp(&key(b)), a.total_cmp(&b), "{a:?} {b:?}");
            }
        }
        cases("key_orders_as_total_cmp", 4096, |g| {
            let (a, b) = (f32::from_bits(g.u32()), f32::from_bits(g.u32()));
            assert_eq!(key(a).cmp(&key(b)), a.total_cmp(&b));
            assert_eq!(unkey(key(a)).to_bits(), a.to_bits());
        });
    }

    fn run_network(n: usize, wires: &mut [i32]) {
        for (low, high) in sorting_network(n) {
            assert!(low < high && high < n);
            if wires[low] > wires[high] {
                wires.swap(low, high);
            }
        }
    }

    #[test]
    fn network_sorts_every_zero_one_input() {
        // The zero-one principle: a comparator network that sorts every
        // sequence of zeros and ones sorts every sequence.
        for n in 0..=12usize {
            for pattern in 0..1u32 << n {
                let mut wires: Vec<i32> = (0..n).map(|w| (pattern >> w & 1) as i32).collect();
                run_network(n, &mut wires);
                assert!(wires.is_sorted(), "n {n} pattern {pattern:#b}");
            }
        }
    }

    #[test]
    fn network_sorts_random_keys() {
        for n in 0..=130usize {
            cases("network_sorts_random_keys", 8, |g| {
                // A narrow range now and then, for ties.
                let mask = if g.bool() { u32::MAX } else { 7 };
                let mut wires: Vec<i32> = (0..n).map(|_| (g.u32() & mask) as i32).collect();
                let mut sorted = wires.clone();
                sorted.sort_unstable();
                run_network(n, &mut wires);
                assert_eq!(wires, sorted, "n {n}");
            });
            // The table never outgrew what was reserved for it.
            let b = n.next_power_of_two().trailing_zeros() as usize;
            assert_eq!(sorting_network(n).capacity(), n * b * (b + 1) / 4, "n {n}");
        }
        assert_eq!(sorting_network(32).len(), 191);
    }

    /// Krum's scores as they were computed before the distance table:
    /// every candidate measures its own distance to every other update.
    fn per_candidate_scores(inputs: &[Vec<f32>], k: usize) -> Vec<f64> {
        let sq_dist = |a: &[f32], b: &[f32]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(&x, &y)| {
                    let d = x as f64 - y as f64;
                    d * d
                })
                .sum()
        };
        (0..inputs.len())
            .map(|i| {
                let mut dists: Vec<f64> = (0..inputs.len())
                    .filter(|&j| j != i)
                    .map(|j| sq_dist(&inputs[i], &inputs[j]))
                    .collect();
                dists.sort_by(f64::total_cmp);
                dists.iter().take(k).sum()
            })
            .collect()
    }

    #[test]
    fn krum_score_table_equals_per_candidate_scores() {
        cases("krum_score_table", 128, |g| {
            let n = g.usize_in(1, 20);
            let len = g.usize_in(0, 70);
            let k = g.usize_in(1, n + 1);
            // Finite values, infinities and signed zeros: a NaN score's
            // bits are the compiler's choice of operand order.
            let inputs: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    (0..len)
                        .map(|_| match g.u8() % 16 {
                            0 => f32::INFINITY,
                            1 => -0.0,
                            2 => f32::MAX,
                            _ => g.f32_in(-1e3, 1e3),
                        })
                        .collect()
                })
                .collect();
            let table = krum_scores(&inputs.as_slice(), len, k);
            let reference = per_candidate_scores(&inputs, k);
            for (a, b) in table.iter().zip(&reference) {
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{a} vs {b}"
                );
            }
        });
    }
}
