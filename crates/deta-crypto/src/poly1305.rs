//! The Poly1305 one-time authenticator (RFC 8439).
//!
//! The 130-bit accumulator and the clamped `r` are held in three limbs of
//! 44, 44 and 42 bits, so one multiplication modulo `2^130 - 5` is nine
//! 64x64 -> 128-bit products. Whole blocks are absorbed two at a time as
//! `(h + m1) * r^2 + m2 * r`: the same polynomial, but the two
//! multiplications do not wait for each other and share one carry pass.
//!
//! That scalar code is the reference, and it absorbs short input, partial
//! blocks and tails. On a CPU with AVX-512F, [`Poly1305::update`] hands
//! every whole 256-byte run to the eight-lane body in `avx512` (the same
//! polynomial again, sixteen blocks per step); the tag is identical
//! whichever body absorbed which bytes.

/// Tag length in bytes.
pub const TAG_LEN: usize = 16;
/// Key length in bytes.
pub const KEY_LEN: usize = 32;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// A value modulo `2^130 - 5` in 44/44/42-bit limbs. Limbs may carry a
/// few excess bits between operations; [`normalize`] removes them.
type Limbs = [u64; 3];

/// Incremental Poly1305 MAC state.
pub struct Poly1305 {
    /// Clamped `r`.
    r: Limbs,
    /// `r^2`, for absorbing two blocks per step.
    r2: Limbs,
    /// Accumulator `h`.
    h: Limbs,
    /// Encrypted nonce `s` (added at finalization).
    s: u128,
    /// Buffered partial block.
    buf: [u8; 16],
    buf_len: usize,
    /// `r^1 … r^16` for the AVX-512F body, computed on its first use.
    #[cfg(target_arch = "x86_64")]
    powers: Option<avx512::Powers>,
}

/// A 16-byte little-endian string as limbs, with `hibit` (1 for a full
/// message block, 0 for the padded last one and for `r`) placed at bit
/// 128.
#[inline]
fn block_limbs(block: &[u8], hibit: u64) -> Limbs {
    let v = u128::from_le_bytes(block.try_into().expect("a 16-byte block"));
    let (t0, t1) = (v as u64, (v >> 64) as u64);
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        (t1 >> 24) | (hibit << 40),
    ]
}

/// The unreduced limb products of `a * b`. A product that lands at or
/// above limb 3 wraps with a factor 5; the extra 4 realigns 2^132 (three
/// 44-bit limbs) with 2^130. Limbs below 2^46 keep each sum of three
/// products below 2^98, so two results can be added before [`carry`].
#[inline]
fn mul(a: Limbs, b: Limbs) -> [u128; 3] {
    let [a0, a1, a2] = a.map(u128::from);
    let [b0, b1, b2] = b.map(u128::from);
    let s1 = b1 * 20;
    let s2 = b2 * 20;
    [
        a0 * b0 + a1 * s2 + a2 * s1,
        a0 * b1 + a1 * b0 + a2 * s2,
        a0 * b2 + a1 * b1 + a2 * b0,
    ]
}

/// Partial carry propagation back to limbs: limb 1 may keep a few excess
/// bits.
#[inline]
fn carry(d: [u128; 3]) -> Limbs {
    let d1 = d[1] + (d[0] >> 44);
    let d2 = d[2] + (d1 >> 44);
    let h0 = (d[0] as u64 & MASK44) + (d2 >> 42) as u64 * 5;
    let h1 = (d1 as u64 & MASK44) + (h0 >> 44);
    [h0 & MASK44, h1, d2 as u64 & MASK42]
}

#[inline]
fn add(a: Limbs, b: Limbs) -> Limbs {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

/// Fully carries limbs below 2^46 to `h0, h1 < 2^44` and `h2 <= 2^42`
/// (the same value modulo `2^130 - 5`, now below `2^130 + 2^88`); two
/// passes absorb the `5 * carry` fed back into `h0`.
fn normalize([mut h0, mut h1, mut h2]: Limbs) -> Limbs {
    for _ in 0..2 {
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;
    }
    h2 += h1 >> 44;
    h1 &= MASK44;
    [h0, h1, h2]
}

impl Poly1305 {
    /// Creates a MAC state from a 32-byte one-time key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        // Clamp r per the specification, limb by limb.
        let [t0, t1, t2] = block_limbs(&key[..16], 0);
        let r = [
            t0 & 0xffc_0fff_ffff,
            t1 & 0xfff_ffc0_ffff,
            t2 & 0x00f_ffff_fc0f,
        ];
        Poly1305 {
            r,
            r2: carry(mul(r, r)),
            h: [0; 3],
            s: u128::from_le_bytes(key[16..].try_into().expect("32 - 16 bytes")),
            buf: [0; 16],
            buf_len: 0,
            #[cfg(target_arch = "x86_64")]
            powers: None,
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        if !self.update_avx512(data) {
            self.absorb(data, false);
        }
        self
    }

    /// [`Poly1305::update`] with every whole 256-byte run that follows the
    /// partial block absorbed by the eight-lane AVX-512F body, callable
    /// directly so tests can hold it against the scalar body. Returns
    /// `false`, leaving the state untouched, when the CPU has no AVX-512F
    /// (always, off x86-64).
    pub fn update_avx512(&mut self, data: &[u8]) -> bool {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            self.absorb(data, true);
            return true;
        }
        let _ = data;
        false
    }

    /// Drains the partial block, hands whole 256-byte runs to the AVX-512F
    /// body when `wide`, and absorbs the rest with the scalar code.
    fn absorb(&mut self, mut data: &[u8], wide: bool) {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 16 {
                return;
            }
            self.h = carry(mul(add(self.h, block_limbs(&self.buf, 1)), self.r));
            self.buf_len = 0;
        }
        #[cfg(target_arch = "x86_64")]
        if wide && data.len() >= avx512::STEP {
            let (run, rest) = data.split_at(data.len() - data.len() % avx512::STEP);
            let powers = self.powers.get_or_insert_with(|| avx512::powers(self.r));
            self.h = avx512::absorb(self.h, powers, run);
            data = rest;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = wide;
        let mut h = self.h;
        let mut pairs = data.chunks_exact(32);
        for pair in pairs.by_ref() {
            let (m1, m2) = pair.split_at(16);
            let first = mul(add(h, block_limbs(m1, 1)), self.r2);
            let second = mul(block_limbs(m2, 1), self.r);
            h = carry([
                first[0] + second[0],
                first[1] + second[1],
                first[2] + second[2],
            ]);
        }
        let mut rest = pairs.remainder();
        if rest.len() >= 16 {
            h = carry(mul(add(h, block_limbs(&rest[..16], 1)), self.r));
            rest = &rest[16..];
        }
        self.h = h;
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Finalizes the MAC and returns the 16-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            // Pad the final partial block: append 0x01 then zeros, hibit 0.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.h = carry(mul(add(self.h, block_limbs(&block, 0)), self.r));
        }
        let [mut h0, mut h1, mut h2] = normalize(self.h);

        // g = h + 5 - 2^130, i.e. h - p. If that did not borrow (bit 42 of
        // the top limb is set before the subtraction), h >= p and g is the
        // reduced value; otherwise keep h.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = h2 + (g1 >> 44);
        if g2 >> 42 != 0 {
            h0 = g0 & MASK44;
            h1 = g1 & MASK44;
            h2 = g2 & MASK42;
        }

        // Serialize modulo 2^128 and add s modulo 2^128.
        let h = u128::from(h0) | (u128::from(h1) << 44) | (u128::from(h2) << 88);
        h.wrapping_add(self.s).to_le_bytes()
    }
}

/// The eight-lane AVX-512F body.
///
/// It holds values modulo `2^130 - 5` in five 26-bit limbs, one 64-bit
/// lane per value, so a multiplication is 25 `_mm512_mul_epu32` (32x32 ->
/// 64-bit) products per lane. Two independent accumulators `a` and `b` of
/// eight lanes each take the sixteen blocks of a 256-byte step (blocks
/// 0..8 and 8..16), and every step is `acc = acc * r^16 + m`: lane `L`
/// of the sixteen then holds the Horner sum of blocks `L`, `L + 16`, …,
/// which the end weights by `r^(16 - L)` before the lanes are summed.
/// The incoming `h` joins lane 0 with the first block.
///
/// Limb bounds, which keep every lane product and sum inside 64 bits:
///
/// * message limbs are below 2^26 (limb 4 holds 24 bits plus the 2^24
///   hibit);
/// * the powers of `r` leave [`normalize`] at or below 2^26, so their
///   `5 * r` multiples, which fold limbs past 2^130 back in, are below
///   2^28.4 (under 2^29.4);
/// * the accumulator limbs are below 2^28: the first `h + m` is below
///   2^27, and after a step's one carry pass limbs 0, 2 and 3 are below
///   2^26, limb 1 below 2^26 + 2^11 and limb 4 below 2^26 + 2^9;
/// * so a product is below 2^28 * 2^28.4 = 2^56.4, each five-product sum
///   of a step below 2^58.8 < 2^60, and the end's weighted `a + b` (two
///   such sums, plus a message limb in a step) below 2^60 as well;
/// * the carry pass takes limbs below 2^60 back to the bounds above, and
///   the eight lanes' sums of those stay below 2^30.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{carry, mul, normalize, Limbs, MASK44};
    use core::arch::x86_64::*;

    /// Bytes absorbed per step: sixteen blocks, eight lanes of two
    /// accumulators.
    pub(super) const STEP: usize = 256;

    const MASK26: u64 = (1 << 26) - 1;

    /// `r^1 … r^16` in 26-bit limbs: `powers[i]` is `r^(i + 1)`.
    pub(super) type Powers = [[u64; 5]; 16];

    /// A multiplier in every lane's limbs, with its `5 * r` multiples.
    struct Operand {
        r: [__m512i; 5],
        r5: [__m512i; 5],
    }

    pub(super) fn powers(r: Limbs) -> Powers {
        let mut out = [[0; 5]; 16];
        let mut p = r;
        for (i, slot) in out.iter_mut().enumerate() {
            if i > 0 {
                p = carry(mul(p, r));
            }
            *slot = to26(p);
        }
        out
    }

    /// 44/44/42-bit limbs to five 26-bit limbs, each at most 2^26.
    fn to26(h: Limbs) -> [u64; 5] {
        let [h0, h1, h2] = normalize(h);
        [
            h0 & MASK26,
            ((h0 >> 26) | (h1 << 18)) & MASK26,
            (h1 >> 8) & MASK26,
            ((h1 >> 34) | (h2 << 10)) & MASK26,
            h2 >> 16,
        ]
    }

    /// Five 26-bit limbs below 2^30 back to 44/44/42-bit limbs, with
    /// limbs 0 and 1 below 2^44 and limb 2 below 2^42 + 2^17: inside what
    /// the scalar [`mul`] and [`normalize`] take.
    fn from26([mut l0, mut l1, mut l2, mut l3, mut l4]: [u64; 5]) -> Limbs {
        l1 += l0 >> 26;
        l0 &= MASK26;
        l2 += l1 >> 26;
        l1 &= MASK26;
        l3 += l2 >> 26;
        l2 &= MASK26;
        l4 += l3 >> 26;
        l3 &= MASK26;
        l0 += (l4 >> 26) * 5;
        l4 &= MASK26;
        let t0 = l0 + (l1 << 26);
        let t1 = (t0 >> 44) + (l2 << 8) + (l3 << 34);
        [t0 & MASK44, t1 & MASK44, (t1 >> 44) + (l4 << 16)]
    }

    /// Absorbs `run`, a whole number of steps, into `h`.
    ///
    /// # Panics
    ///
    /// Panics if the CPU has no AVX-512F or `run` is not a positive
    /// multiple of [`STEP`] bytes.
    pub(super) fn absorb(h: Limbs, powers: &Powers, run: &[u8]) -> Limbs {
        assert!(std::arch::is_x86_feature_detected!("avx512f"));
        assert!(
            !run.is_empty() && run.len().is_multiple_of(STEP),
            "whole steps"
        );
        // SAFETY: `kernel` requires AVX-512F, which the first assertion
        // just observed on the CPU this thread is running on.
        from26(unsafe { kernel(to26(h), powers, run) })
    }

    /// The limbs of `pick(lane)` in each lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn operand(pick: impl Fn(usize) -> [u64; 5]) -> Operand {
        let r: [__m512i; 5] = core::array::from_fn(|k| {
            let [l0, l1, l2, l3, l4, l5, l6, l7] =
                core::array::from_fn(|lane| pick(lane)[k] as i64);
            _mm512_setr_epi64(l0, l1, l2, l3, l4, l5, l6, l7)
        });
        let r5 = r.map(|v| _mm512_add_epi64(_mm512_slli_epi64::<2>(v), v));
        Operand { r, r5 }
    }

    /// `Σ a[i] * b[i]` over the low 32 bits of every 64-bit lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn dot(a: &[__m512i; 5], b: [__m512i; 5]) -> __m512i {
        let mut sum = _mm512_mul_epu32(a[0], b[0]);
        for i in 1..5 {
            sum = _mm512_add_epi64(sum, _mm512_mul_epu32(a[i], b[i]));
        }
        sum
    }

    /// The unreduced limb products of `h * w`; limb `i + j >= 5` wraps
    /// with a factor 5 (2^130 = 5 modulo `2^130 - 5`).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn mul5(h: &[__m512i; 5], w: &Operand) -> [__m512i; 5] {
        let ([r0, r1, r2, r3, r4], [_, s1, s2, s3, s4]) = (w.r, w.r5);
        [
            dot(h, [r0, s4, s3, s2, s1]),
            dot(h, [r1, r0, s4, s3, s2]),
            dot(h, [r2, r1, r0, s4, s3]),
            dot(h, [r3, r2, r1, r0, s4]),
            dot(h, [r4, r3, r2, r1, r0]),
        ]
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn add5(a: [__m512i; 5], b: [__m512i; 5]) -> [__m512i; 5] {
        core::array::from_fn(|k| _mm512_add_epi64(a[k], b[k]))
    }

    /// One carry pass, as two interleaved chains (0→1→2→3 and 3→4→0→1).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn carry5([mut d0, mut d1, mut d2, mut d3, mut d4]: [__m512i; 5]) -> [__m512i; 5] {
        let mask = _mm512_set1_epi64(MASK26 as i64);
        let c0 = _mm512_srli_epi64::<26>(d0);
        let c3 = _mm512_srli_epi64::<26>(d3);
        d0 = _mm512_and_si512(d0, mask);
        d3 = _mm512_and_si512(d3, mask);
        d1 = _mm512_add_epi64(d1, c0);
        d4 = _mm512_add_epi64(d4, c3);
        let c1 = _mm512_srli_epi64::<26>(d1);
        let c4 = _mm512_srli_epi64::<26>(d4);
        d1 = _mm512_and_si512(d1, mask);
        d4 = _mm512_and_si512(d4, mask);
        d2 = _mm512_add_epi64(d2, c1);
        d0 = _mm512_add_epi64(d0, _mm512_add_epi64(_mm512_slli_epi64::<2>(c4), c4));
        let c2 = _mm512_srli_epi64::<26>(d2);
        let c0 = _mm512_srli_epi64::<26>(d0);
        d2 = _mm512_and_si512(d2, mask);
        d0 = _mm512_and_si512(d0, mask);
        d3 = _mm512_add_epi64(d3, c2);
        d1 = _mm512_add_epi64(d1, c0);
        let c3 = _mm512_srli_epi64::<26>(d3);
        d3 = _mm512_and_si512(d3, mask);
        d4 = _mm512_add_epi64(d4, c3);
        [d0, d1, d2, d3, d4]
    }

    /// The limbs of eight message blocks, block `j` in lane `j`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn message(blocks: &[u8; 128]) -> [__m512i; 5] {
        // SAFETY: `blocks` is 128 readable bytes, two `__m512i`, and
        // `loadu` has no alignment requirement.
        let (x, y) = unsafe {
            (
                _mm512_loadu_si512(blocks.as_ptr().cast()),
                _mm512_loadu_si512(blocks[64..].as_ptr().cast()),
            )
        };
        // The low and the high eight bytes of every block.
        let lo = _mm512_permutex2var_epi64(x, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), y);
        let hi = _mm512_permutex2var_epi64(x, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), y);
        let mask = _mm512_set1_epi64(MASK26 as i64);
        [
            _mm512_and_si512(lo, mask),
            _mm512_and_si512(_mm512_srli_epi64::<26>(lo), mask),
            _mm512_and_si512(
                _mm512_or_si512(_mm512_srli_epi64::<52>(lo), _mm512_slli_epi64::<12>(hi)),
                mask,
            ),
            _mm512_and_si512(_mm512_srli_epi64::<14>(hi), mask),
            _mm512_or_si512(_mm512_srli_epi64::<40>(hi), _mm512_set1_epi64(1 << 24)),
        ]
    }

    /// The two halves of one step.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn step_messages(step: &[u8]) -> ([__m512i; 5], [__m512i; 5]) {
        let (first, second) = step.split_at(STEP / 2);
        (
            message(first.try_into().expect("half a step")),
            message(second.try_into().expect("half a step")),
        )
    }

    #[target_feature(enable = "avx512f")]
    fn kernel(h: [u64; 5], powers: &Powers, run: &[u8]) -> [u64; 5] {
        let r16 = operand(|_| powers[15]);
        let mut steps = run.chunks_exact(STEP);
        let (mut a, mut b) = step_messages(steps.next().expect("whole steps"));
        let h_in_lane0 = h.map(|l| _mm512_setr_epi64(l as i64, 0, 0, 0, 0, 0, 0, 0));
        a = add5(a, h_in_lane0);
        // The carry pass opens the step rather than closing it: in the
        // same basic block as the products, code generation can see that
        // its limbs fit 32 bits, and emits one `vpmuludq` per product
        // instead of a 64x32-bit multiply (three instructions more).
        for step in steps {
            let (ma, mb) = step_messages(step);
            a = add5(mul5(&carry5(a), &r16), ma);
            b = add5(mul5(&carry5(b), &r16), mb);
        }
        // Lane `j` of `a` holds blocks `j (mod 16)`, of `b` blocks
        // `8 + j (mod 16)`: weights `r^(16 - j)` and `r^(8 - j)`.
        let wa = operand(|j| powers[15 - j]);
        let wb = operand(|j| powers[7 - j]);
        let weighted = add5(mul5(&carry5(a), &wa), mul5(&carry5(b), &wb));
        carry5(weighted).map(|v| _mm512_reduce_add_epi64(v) as u64)
    }
}

/// One-shot Poly1305 tag of `msg` under `key`.
pub fn poly1305(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
    let mut p = Poly1305::new(key);
    p.update(msg);
    p.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc8439_vector() {
        // RFC 8439 section 2.5.2.
        let key: [u8; 32] =
            unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let msg = b"Cryptographic Forum Research Group";
        assert_eq!(
            hex(&poly1305(&key, msg)),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
    }

    /// RFC 8439 Appendix A.3: `(key, message, tag)`, all hex. Vectors 5
    /// to 11 are built to hit the reduction corners: an accumulator left
    /// at or just past `2^130 - 5`, carries that ripple through every
    /// limb, and a final add of `s` that overflows 128 bits.
    const A3: &[(&str, &str, &str)] = &[
        (
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000\
             0000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000",
        ),
        // #4, the Jabberwocky stanza (127 bytes).
        (
            "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0",
            "2754776173206272696c6c69672c20616e642074686520736c6974687920746f\
             7665730a446964206779726520616e642067696d626c6520696e207468652077\
             6162653a0a416c6c206d696d737920776572652074686520626f726f676f7665\
             732c0a416e6420746865206d6f6d65207261746873206f757467726162652e",
            "4541669a7eaaee61e708dc7cbcc5eb62",
        ),
        // #5: h ends at 2^130 - 5 + 3 and must still be reduced.
        (
            "0200000000000000000000000000000000000000000000000000000000000000",
            "ffffffffffffffffffffffffffffffff",
            "03000000000000000000000000000000",
        ),
        // #6: h + s overflows 2^128.
        (
            "02000000000000000000000000000000ffffffffffffffffffffffffffffffff",
            "02000000000000000000000000000000",
            "03000000000000000000000000000000",
        ),
        // #7: carry out of the low limbs across three blocks.
        (
            "0100000000000000000000000000000000000000000000000000000000000000",
            "fffffffffffffffffffffffffffffffff0ffffffffffffffffffffffffffffff\
             11000000000000000000000000000000",
            "05000000000000000000000000000000",
        ),
        // #8: the accumulator lands exactly on 2^130 - 5, i.e. zero.
        (
            "0100000000000000000000000000000000000000000000000000000000000000",
            "fffffffffffffffffffffffffffffffffbfefefefefefefefefefefefefefefe\
             01010101010101010101010101010101",
            "00000000000000000000000000000000",
        ),
        // #9: 2^130 - 5 - 3 must not be reduced.
        (
            "0200000000000000000000000000000000000000000000000000000000000000",
            "fdffffffffffffffffffffffffffffff",
            "faffffffffffffffffffffffffffffff",
        ),
        // #10 and #11: a carry into (and out of) bit 128 mid-message.
        (
            "0100000000000000040000000000000000000000000000000000000000000000",
            "e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000\
             0000000000000000000000000000000001000000000000000000000000000000",
            "14000000000000005500000000000000",
        ),
        (
            "0100000000000000040000000000000000000000000000000000000000000000",
            "e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000\
             00000000000000000000000000000000",
            "13000000000000000000000000000000",
        ),
    ];

    #[test]
    fn rfc8439_appendix_a3_vectors() {
        for (i, (key, msg, tag)) in A3.iter().enumerate() {
            let key: [u8; 32] = unhex(key).try_into().unwrap();
            assert_eq!(hex(&poly1305(&key, &unhex(msg))), *tag, "vector {i}");
        }
    }

    #[test]
    fn empty_message() {
        // With r = 0 the accumulator stays 0 and the tag equals s.
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&[0xabu8; 16]);
        assert_eq!(poly1305(&key, b""), [0xabu8; 16]);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 7 + 1) as u8);
        let msg: Vec<u8> = (0..123u8).collect();
        let oneshot = poly1305(&key, &msg);
        for chunk in [1usize, 5, 15, 16, 17, 40] {
            let mut p = Poly1305::new(&key);
            for c in msg.chunks(chunk) {
                p.update(c);
            }
            assert_eq!(p.finalize(), oneshot, "chunk={chunk}");
        }
    }

    #[test]
    fn tag_depends_on_message() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8 + 1);
        assert_ne!(poly1305(&key, b"hello"), poly1305(&key, b"hellp"));
        assert_ne!(poly1305(&key, b"hello"), poly1305(&key, b"hello\0"));
    }

    #[test]
    fn tag_depends_on_key() {
        let k1: [u8; 32] = core::array::from_fn(|i| i as u8 + 1);
        let k2: [u8; 32] = core::array::from_fn(|i| i as u8 + 2);
        assert_ne!(poly1305(&k1, b"hello"), poly1305(&k2, b"hello"));
    }
}
