//! A deterministic ChaCha20-based CSPRNG with labeled forking.
//!
//! Every stochastic component in this repository (data synthesis, weight
//! initialization, the model mapper, per-round permutations, attack
//! restarts) draws from a [`DetRng`] so that experiments are exactly
//! reproducible from a single seed.

use crate::chacha;
use crate::sha256::{hkdf, hmac_sha256, sha256};

mod gaussian;

/// A deterministic random number generator.
///
/// The keystream is ChaCha20 under a 256-bit seed key with an all-zero
/// nonce and an incrementing block counter, drawn sixteen blocks at a
/// time through [`chacha::xor_keystream16`]; the stream is
/// counter-addressed, so the refill size shows in no draw.
/// [`DetRng::fork`] derives an independent generator for a labeled
/// sub-task, which keeps parallel components decoupled: adding draws to
/// one component does not shift the stream seen by another.
#[derive(Clone)]
pub struct DetRng {
    key: [u8; 32],
    /// Next block to generate; blocks below it are in `buf` or consumed.
    counter: u64,
    buf: [u8; chacha::WIDE16_LEN],
    buf_pos: usize,
}

impl std::fmt::Debug for DetRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key is intentionally not printed. `counter` is the number
        // of keystream blocks drawn from so far, not the refill position.
        let unread = ((chacha::WIDE16_LEN - self.buf_pos) / chacha::BLOCK_LEN) as u64;
        f.debug_struct("DetRng")
            .field("counter", &self.counter.wrapping_sub(unread))
            .finish()
    }
}

impl DetRng {
    /// Creates a generator from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        DetRng {
            key: seed,
            counter: 0,
            buf: [0u8; chacha::WIDE16_LEN],
            buf_pos: chacha::WIDE16_LEN,
        }
    }

    /// Creates a generator by hashing an arbitrary byte string.
    pub fn from_entropy(entropy: &[u8]) -> Self {
        Self::from_seed(sha256(entropy))
    }

    /// Creates a generator from a `u64` convenience seed.
    pub fn from_u64(seed: u64) -> Self {
        Self::from_entropy(&seed.to_le_bytes())
    }

    /// Derives an independent generator for the given label.
    ///
    /// Forks with distinct labels produce decoupled streams; forking twice
    /// with the same label from the same state produces identical streams.
    pub fn fork(&self, label: &[u8]) -> DetRng {
        let derived = hmac_sha256(&self.key, label);
        DetRng::from_seed(derived)
    }

    /// Derives an independent generator keyed by a label and an index.
    pub fn fork_indexed(&self, label: &[u8], index: u64) -> DetRng {
        let mut l = label.to_vec();
        l.extend_from_slice(&index.to_le_bytes());
        self.fork(&l)
    }

    fn refill(&mut self) {
        let nonce = [0u8; chacha::NONCE_LEN];
        // Use the low 32 bits as the ChaCha counter and fold the high bits
        // into the key stream position by allowing wrap-around; a single
        // generator never draws anywhere near 2^32 blocks in this codebase.
        // The keystream XORed into zeros is the keystream.
        self.buf = [0u8; chacha::WIDE16_LEN];
        chacha::xor_keystream16(&self.key, self.counter as u32, &nonce, &mut self.buf);
        self.counter = self.counter.wrapping_add(chacha::WIDE16_BLOCKS as u64);
        self.buf_pos = 0;
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut pos = 0;
        while pos < dest.len() {
            if self.buf_pos == chacha::WIDE16_LEN {
                self.refill();
            }
            let take = (chacha::WIDE16_LEN - self.buf_pos).min(dest.len() - pos);
            dest[pos..pos + take].copy_from_slice(&self.buf[self.buf_pos..self.buf_pos + take]);
            self.buf_pos += take;
            pos += take;
        }
    }

    /// The next `N` stream bytes, read straight out of the buffer unless
    /// they straddle a refill.
    #[inline]
    fn next_array<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        match self.buf.get(self.buf_pos..self.buf_pos + N) {
            Some(src) => {
                out.copy_from_slice(src);
                self.buf_pos += N;
            }
            None => self.fill_bytes(&mut out),
        }
        out
    }

    /// Returns the next random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.next_array())
    }

    /// Returns the next random `u32`.
    pub fn next_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.next_array())
    }

    /// Returns a uniformly random value in `[0, bound)` without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range with zero bound");
        loop {
            if let Some(v) = lemire(self.next_u64(), bound) {
                return v;
            }
        }
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        gaussian::unit_f64(self.next_u64())
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 / (1u32 << 24) as f32
    }

    /// Returns a standard normal sample (Box-Muller).
    pub fn next_gaussian(&mut self) -> f64 {
        let w1 = self.next_u64();
        let w2 = self.next_u64();
        gaussian::box_muller(w1, w2)
    }

    /// Fills `out` with standard normal samples: each element is
    /// `self.next_gaussian() as f32` bit for bit, and the generator ends
    /// where that many `next_gaussian` calls leave it, from any position
    /// in the stream.
    ///
    /// Eight draws at a time go through polynomial `ln` and `cos` kernels
    /// under a rounding guard (DESIGN.md §5, "Gaussian draws"). There are
    /// two bodies, and nothing but the running CPU picks one:
    /// [`DetRng::fill_gaussian_avx512`] when it reports AVX-512F, else
    /// [`DetRng::fill_gaussian_portable`].
    pub fn fill_gaussian(&mut self, out: &mut [f32]) {
        if !self.fill_gaussian_avx512(out) {
            self.fill_gaussian_portable(out);
        }
    }

    /// [`DetRng::fill_gaussian`]'s body for the build's baseline target,
    /// callable directly so tests can hold the bodies against each other.
    pub fn fill_gaussian_portable(&mut self, out: &mut [f32]) {
        gaussian::fill(self, out);
    }

    /// [`DetRng::fill_gaussian`]'s body compiled for AVX-512F. Returns
    /// `false`, leaving `out` and the generator untouched, when the CPU
    /// has no AVX-512F (always, off x86-64).
    pub fn fill_gaussian_avx512(&mut self, out: &mut [f32]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `fill_avx512` requires AVX-512F, which the line
            // above just observed on the CPU this thread is running on.
            unsafe { fill_avx512(self, out) };
            return true;
        }
        let _ = out;
        false
    }

    /// Returns `true` with probability `p`.
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Shuffles a slice in place (Fisher-Yates): for `i` from the last
    /// index down to 1, swaps `slice[i]` with `slice[gen_range(i + 1)]`.
    ///
    /// The words come `SHUFFLE_BATCH` at a time straight out of the
    /// refill buffer, each through `lemire` in stream order; a rejected
    /// word is skipped, as `gen_range` skips it. Every step reads at
    /// least one word, so a batch is only taken while at least that many
    /// steps are left: it never reads past where `gen_range` stops, and
    /// the last steps go through `gen_range` itself. The swaps and the
    /// generator's position afterwards are those of the loop above.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        // Elements not yet placed: the next step swaps into `unplaced - 1`.
        let mut unplaced = slice.len();
        while unplaced > SHUFFLE_BATCH {
            let bytes = self.next_array::<{ SHUFFLE_BATCH * 8 }>();
            for word in bytes.as_chunks::<8>().0 {
                if let Some(j) = lemire(u64::from_le_bytes(*word), unplaced as u64) {
                    unplaced -= 1;
                    slice.swap(unplaced, j as usize);
                }
            }
        }
        while unplaced > 1 {
            let j = self.gen_range(unplaced as u64);
            unplaced -= 1;
            slice.swap(unplaced, j as usize);
        }
    }

    /// Returns a random permutation of `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds 2³², past which a `u32` repeats.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        assert!(
            n.checked_sub(1)
                .is_none_or(|last| u32::try_from(last).is_ok()),
            "a permutation of {n} slots: u32 indices reach 2^32 slots"
        );
        let mut p: Vec<u32> = (0..n).map(|i| i as u32).collect();
        self.shuffle(&mut p);
        p
    }

    /// Expands this generator's key into `out_len` bytes bound to `info`
    /// without consuming generator state.
    pub fn derive_bytes(&self, info: &[u8], out_len: usize) -> Vec<u8> {
        hkdf(b"deta-rng-derive", &self.key, info, out_len)
    }
}

/// Stream words one batch of [`DetRng::shuffle`] reads.
const SHUFFLE_BATCH: usize = 16;

/// Lemire's rule on one stream word: the word's widening product with
/// `bound` yields `⌊word · bound / 2⁶⁴⌋`, uniform in `[0, bound)`, unless
/// its low half is below `2⁶⁴ mod bound`, where the word is rejected
/// (`None`) and the next one drawn. That threshold is itself below
/// `bound`, so the divide is only needed for a low half that small.
#[inline(always)]
fn lemire(word: u64, bound: u64) -> Option<u64> {
    let m = u128::from(word) * u128::from(bound);
    let low = m as u64;
    (low >= bound || low >= bound.wrapping_neg() % bound).then_some((m >> 64) as u64)
}

/// [`gaussian::fill`] compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fill_avx512(rng: &mut DetRng, out: &mut [f32]) {
    gaussian::fill(rng, out);
}

impl deta_bignum::prime::RandomSource for DetRng {
    fn next_u64(&mut self) -> u64 {
        DetRng::next_u64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = DetRng::from_u64(7);
        let mut b = DetRng::from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::from_u64(7);
        let mut b = DetRng::from_u64(8);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_is_decoupled() {
        let root = DetRng::from_u64(1);
        let mut f1 = root.fork(b"a");
        let mut f2 = root.fork(b"b");
        assert_ne!(f1.next_u64(), f2.next_u64());
        // Forking again with the same label reproduces the stream.
        let mut f1b = root.fork(b"a");
        let mut f1c = root.fork(b"a");
        assert_eq!(f1b.next_u64(), f1c.next_u64());
    }

    #[test]
    fn fork_indexed_distinct() {
        let root = DetRng::from_u64(1);
        let a = root.fork_indexed(b"party", 0).next_u64();
        let b = root.fork_indexed(b"party", 1).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn gen_range_bounds() {
        let mut rng = DetRng::from_u64(3);
        for bound in [1u64, 2, 7, 100, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_covers_small_domain() {
        let mut rng = DetRng::from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.gen_range(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::from_u64(3);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = DetRng::from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }

    #[test]
    fn permutation_is_valid() {
        let mut rng = DetRng::from_u64(5);
        let p = rng.permutation(100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100u32).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rng = DetRng::from_u64(5);
        let mut v: Vec<u32> = (0..50).map(|i| i % 7).collect();
        let mut expected = v.clone();
        rng.shuffle(&mut v);
        expected.sort_unstable();
        let mut got = v.clone();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn fill_bytes_chunking_consistent() {
        // 1500 bytes span two 1 024-byte refills; 13 divides neither the
        // block nor the buffer length, so chunks straddle both.
        let mut a = DetRng::from_u64(9);
        let mut b = DetRng::from_u64(9);
        let mut buf_a = vec![0u8; 1500];
        a.fill_bytes(&mut buf_a);
        let mut buf_b = vec![0u8; 1500];
        for chunk in buf_b.chunks_mut(13) {
            b.fill_bytes(chunk);
        }
        assert_eq!(buf_a, buf_b);
        // The same stream through the word readers, which take the
        // straight-from-buffer path except across a refill.
        let mut c = DetRng::from_u64(9);
        let mut buf_c = Vec::with_capacity(1500);
        buf_c.extend_from_slice(&c.next_u32().to_le_bytes());
        while buf_c.len() + 8 <= 1500 {
            buf_c.extend_from_slice(&c.next_u64().to_le_bytes());
        }
        assert_eq!(buf_c[..], buf_a[..buf_c.len()]);
    }

    #[test]
    fn clone_mid_buffer_continues_the_same_stream() {
        let mut a = DetRng::from_u64(9);
        let mut skip = [0u8; 300];
        a.fill_bytes(&mut skip);
        // The clone carries the half-read buffer with it, and both copies
        // cross the next refill independently.
        let mut b = a.clone();
        let from_a: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let from_b: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(from_a, from_b);
        let mut whole = DetRng::from_u64(9);
        let mut all = vec![0u8; 300 + 800];
        whole.fill_bytes(&mut all);
        let tail: Vec<u8> = from_a.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(tail[..], all[300..]);
    }

    #[test]
    fn debug_counts_blocks_drawn_from_not_blocks_buffered() {
        let mut rng = DetRng::from_u64(9);
        assert_eq!(format!("{rng:?}"), "DetRng { counter: 0 }");
        rng.next_u64();
        assert_eq!(format!("{rng:?}"), "DetRng { counter: 1 }");
        rng.fill_bytes(&mut [0u8; 57]);
        assert_eq!(format!("{rng:?}"), "DetRng { counter: 2 }");
    }

    #[test]
    fn gen_range_matches_the_always_divide_form() {
        // The reference computes the rejection threshold on every draw;
        // `gen_range` only when the low product word is below `bound`.
        // Bounds just above 2^63 reject almost half of all draws.
        for bound in [
            1u64,
            2,
            3,
            7,
            1 << 32,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut fast = DetRng::from_u64(bound);
            let mut reference = DetRng::from_u64(bound);
            for _ in 0..500 {
                let threshold = bound.wrapping_neg() % bound;
                let want = loop {
                    let m = (reference.next_u64() as u128) * (bound as u128);
                    if (m as u64) >= threshold {
                        break (m >> 64) as u64;
                    }
                };
                assert_eq!(fast.gen_range(bound), want, "bound={bound}");
            }
            assert_eq!(fast.next_u64(), reference.next_u64(), "same draw count");
        }
    }

    #[test]
    fn lemire_rejects_the_words_below_the_threshold() {
        // 2^64 mod 3 = 1: of the words whose product with 3 has a low half
        // below 3, only word 0 (low half 0) falls under it.
        assert_eq!(lemire(0, 3), None);
        assert_eq!(lemire(1, 3), Some(0));
        assert_eq!(lemire(u64::MAX, 3), Some(2));
        // 2^64 mod (2^63 + 1) = 2^63 - 1: word 2 leaves a low half of 2.
        let bound = (1 << 63) + 1;
        assert_eq!(lemire(2, bound), None);
        assert_eq!(lemire(1, bound), Some(0));
        assert_eq!(lemire(u64::MAX, bound), Some(bound - 1));
        // A bound of 1 or 2^k rejects nothing.
        for word in [0, 1, u64::MAX] {
            assert_eq!(lemire(word, 1), Some(0));
            assert_eq!(lemire(word, 1 << 32), Some(word >> 32));
        }
    }

    #[test]
    #[should_panic(expected = "a permutation of 4294967297 slots")]
    fn a_permutation_past_u32_indices_is_refused() {
        DetRng::from_u64(5).permutation(u32::MAX as usize + 2);
    }

    #[test]
    fn derive_bytes_stateless() {
        let rng = DetRng::from_u64(2);
        let a = rng.derive_bytes(b"x", 16);
        let b = rng.derive_bytes(b"x", 16);
        let c = rng.derive_bytes(b"y", 16);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn works_as_bignum_random_source() {
        let mut rng = DetRng::from_u64(4);
        let p = deta_bignum::gen_prime(64, &mut rng);
        assert_eq!(p.bit_len(), 64);
    }
}
