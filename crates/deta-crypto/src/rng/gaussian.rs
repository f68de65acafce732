//! Box–Muller draws eight at a time, bit for bit the scalar ones.
//!
//! [`DetRng::next_gaussian`] is `sqrt(-2 ln u1) · cos(2π u2)` in `f64`
//! with libm's `ln` and `cos`; a model or a synthetic image keeps that
//! value cast to `f32`. [`draw8`] computes eight such draws side by side
//! with fdlibm's polynomial `ln` and `cos` written out in plain Rust (no
//! table, no branch, no libm call), so that the compiler can vectorise
//! the eight lanes, and keeps a lane only when its `f32` is provably the
//! one the scalar formula gives:
//!
//! * the kernels stay within 2 ulps of `f64::ln` and `f64::cos` (the
//!   tests hold them to it over 10⁶ draws and edge sweeps; both measure
//!   1), so the lane's `f64` is within `2⁻⁴⁹` of the scalar one,
//!   relatively — `2⁹` times inside [`SLACK`], `2⁻⁴⁰`;
//! * the lane is kept only if every value within [`SLACK`] of it,
//!   relatively, rounds to the same `f32`, so the scalar value does too.
//!
//! Two kinds of lane fall outside that argument and are rejected before
//! it: `u1 = 1` (`ln` is exactly zero and the draw is a signed zero) and
//! a `cos` argument within `2⁻³⁰` of a zero of `cos`, where the
//! two-constant reduction by `π/2` loses the relative accuracy the bound
//! needs. A rejected lane is recomputed by [`box_muller`], the scalar
//! formula itself: 685 lanes of 3·10⁷ drawn (2.3·10⁻⁵).

use super::DetRng;

/// Draws computed side by side.
const LANES: usize = 8;
/// Stream bytes one draw consumes: the `u64` for `u1`, then the one for
/// `u2`.
const DRAW_BYTES: usize = 16;
/// Stream bytes [`draw8`] consumes.
const GROUP_BYTES: usize = LANES * DRAW_BYTES;

/// A lane is kept only if its value times `1 ± SLACK` rounds to the same
/// `f32`: `2⁻⁴⁰`.
const SLACK: f64 = 1.0 / (1u64 << 40) as f64;
/// A `cos` argument whose distance to `π/2` or `3π/2`, after reduction,
/// is below this is rejected: `2⁻³⁰`.
const NEAR_ZERO: f64 = 1.0 / (1u64 << 30) as f64;

/// `(w >> 11) · 2⁻⁵³`: the uniform `f64` in `[0, 1)` a stream word gives.
#[inline(always)]
pub(super) fn unit_f64(w: u64) -> f64 {
    (w >> 11) as f64 / (1u64 << 53) as f64
}

/// The scalar Box–Muller formula on the two stream words of one draw:
/// what [`DetRng::next_gaussian`] returns.
pub(super) fn box_muller(w1: u64, w2: u64) -> f64 {
    // u1 in (0, 1] to avoid ln(0).
    let u1 = 1.0 - unit_f64(w1);
    let u2 = unit_f64(w2);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Fills `out` with `next_gaussian() as f32` draws, eight at a time,
/// consuming the stream exactly as the scalar draws would. Inlined into
/// every body so each compiles the lanes for its own instruction set.
#[inline(always)]
pub(super) fn fill(rng: &mut DetRng, out: &mut [f32]) {
    let (groups, tail) = out.as_chunks_mut::<LANES>();
    for group in groups {
        *group = draw8(&rng.next_array::<GROUP_BYTES>());
    }
    for v in tail {
        *v = rng.next_gaussian() as f32;
    }
}

/// Eight draws from [`GROUP_BYTES`] stream bytes, each `box_muller(..) as
/// f32` bit for bit.
#[inline(always)]
fn draw8(bytes: &[u8; GROUP_BYTES]) -> [f32; LANES] {
    let words: [[u64; 2]; LANES] = std::array::from_fn(|i| {
        let at = i * DRAW_BYTES;
        [word(bytes, at), word(bytes, at + 8)]
    });
    let mut out = [0.0f32; LANES];
    let mut rejected = 0u32;
    for (i, (o, &[w1, w2])) in out.iter_mut().zip(&words).enumerate() {
        let (value, keep) = lane(w1, w2);
        *o = value;
        rejected |= u32::from(!keep) << i;
    }
    if rejected != 0 {
        recompute(&mut out, &words, rejected);
    }
    out
}

/// The scalar formula for every lane whose bit is set in `rejected`.
#[cold]
#[inline(never)]
fn recompute(out: &mut [f32; LANES], words: &[[u64; 2]; LANES], rejected: u32) {
    for (i, (o, &[w1, w2])) in out.iter_mut().zip(words).enumerate() {
        if (rejected >> i) & 1 == 1 {
            *o = box_muller(w1, w2) as f32;
        }
    }
}

#[inline(always)]
fn word(bytes: &[u8; GROUP_BYTES], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// One draw with the polynomial kernels: its `f32`, and whether the
/// guard keeps it.
#[inline(always)]
fn lane(w1: u64, w2: u64) -> (f32, bool) {
    let u1 = 1.0 - unit(w1);
    let x = 2.0 * std::f64::consts::PI * unit(w2);
    let (c, y, odd) = cos(x);
    let r = (-2.0 * ln(u1)).sqrt() * c;
    let (lo, hi) = ((r * (1.0 - SLACK)) as f32, (r * (1.0 + SLACK)) as f32);
    let keep = (w1 >> 11 != 0) & !(odd & (y.abs() < NEAR_ZERO)) & (lo.to_bits() == hi.to_bits());
    (r as f32, keep)
}

const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;
/// `2⁻⁵³`, the weight of a stream word's bit 11 in [`unit_f64`].
const LAST_BIT: f64 = 1.0 / (1u64 << 53) as f64;
/// `2⁵²`, the `f64` whose last mantissa bit is worth 1: a small integer
/// or'd into its mantissa, or a value added to `1.5 · 2⁵²`, is held as an
/// integer in the low mantissa bits.
const TWO_52: f64 = (1u64 << 52) as f64;

/// [`unit_f64`] without a 64-bit integer conversion, which AVX-512F does
/// not have (through the conversion, the AVX-512F body took 12.5 ns a
/// draw instead of 10.5): the top 52 of the 53 bits through the mantissa
/// of a number in `[1, 2)`, then the 53rd. Both steps are exact, since the sum is a
/// 53-bit integer times `2⁻⁵³`.
#[inline(always)]
fn unit(w: u64) -> f64 {
    let top = f64::from_bits(ONE_BITS | (w >> 12)) - 1.0;
    let last = f64::from_bits(((w >> 11) & 1).wrapping_neg() & LAST_BIT.to_bits());
    top + last
}

/// `ln x` for a normal `x > 0`: fdlibm's `__ieee754_log` in its
/// `hfsq` form for every `f`. (fdlibm takes a shorter form outside a
/// middle band of `f`; against glibc's `log` either form alone, or the
/// two picked per lane as fdlibm's branch would, measures within 1 ulp
/// on the tests' inputs, and this one is off by one on the fewest.)
#[inline(always)]
fn ln(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
    const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
    const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
    const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
    const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);
    // x = 2^k · (1 + f) with 1 + f in (√2/2, √2).
    let bits = x.to_bits();
    let hx = (bits >> 32) & 0x000f_ffff;
    let i = (hx + 0x95f64) & 0x10_0000;
    let m = f64::from_bits(((hx | (i ^ 0x3ff0_0000)) << 32) | (bits & 0xffff_ffff));
    let f = m - 1.0;
    // k + 1023 lies in [970, 1024]; placed in the mantissa of 2⁵² it
    // converts exactly, as does the subtraction.
    let biased = (bits >> 52) + (i >> 20);
    let dk = f64::from_bits(TWO_52.to_bits() | biased) - (TWO_52 + 1023.0);
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    // With k = 0 the `dk` terms are zeros and this is fdlibm's k = 0
    // form exactly: `0 - (a - f)` rounds as `f - a`.
    dk * LN2_HI - ((hfsq - (s * (hfsq + r) + dk * LN2_LO)) - f)
}

/// `cos x` for `x` in `[0, 2π)`: fdlibm's medium-range reduction by `π/2`
/// (two constants) and its `__kernel_cos` / `__kernel_sin` with no tail.
/// Also returns the reduced argument `y` and whether `x` was reduced by
/// an odd multiple of `π/2`, where `cos x` is `∓sin y`.
#[inline(always)]
fn cos(x: f64) -> (f64, f64, bool) {
    const INV_PIO2: f64 = f64::from_bits(0x3fe4_5f30_6dc9_c883);
    const PIO2_1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000);
    const PIO2_1T: f64 = f64::from_bits(0x3dd0_b461_1a62_6331);
    const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
    const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
    const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
    const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
    const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
    const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);
    const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
    const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
    const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
    const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
    const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
    const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);
    // n = round(x · 2/π), in 0..=4, lands in the low bits of `shifted`.
    let shifted = x * INV_PIO2 + 1.5 * TWO_52;
    let n = shifted.to_bits() & 3;
    let fnum = shifted - 1.5 * TWO_52;
    let y = (x - fnum * PIO2_1) - fnum * PIO2_1T;
    let z = y * y;
    let w = z * z;
    let rc = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let one_minus = 1.0 - hz;
    let cos_y = one_minus + (((1.0 - one_minus) - hz) + z * rc);
    let rs = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin_y = y + z * y * (S1 + z * rs);
    let odd = n & 1 == 1;
    let magnitude = if odd { sin_y } else { cos_y };
    // cos x is cos y, -sin y, -cos y, sin y for n mod 4 = 0, 1, 2, 3.
    let negate = n == 1 || n == 2;
    (if negate { -magnitude } else { magnitude }, y, odd)
}

#[cfg(test)]
mod tests;
