//! Montgomery-form modular arithmetic (CIOS multiplication).
//!
//! Modular exponentiation dominates the cost of Paillier encryption and
//! Schnorr signatures. For an odd modulus `n`, Montgomery representation
//! replaces every expensive division-based reduction with shifts and
//! word-level multiplications: the CIOS (coarsely integrated operand
//! scanning) method interleaves the multiply and reduce passes.
//!
//! [`MontgomeryCtx::modpow`] runs a fixed 4-bit window over the exponent.
//! Every window squares four times and multiplies once, by a table entry
//! picked with a masked scan of all 16 entries, and every product ends in
//! a masked, branch-free subtraction. The sequence of products and table
//! reads therefore depends on the exponent's bit length alone, not on its
//! bits. All products land in buffers the exponentiation allocates once.
//!
//! [`BigUint::modpow`] automatically routes through [`MontgomeryCtx`]
//! when the modulus is odd; the binary square-and-multiply fallback
//! remains for even moduli.

use crate::BigUint;

/// Exponent bits per window.
const WINDOW: usize = 4;
/// Entries of the window table: `base^0 ..= base^15`.
const TABLE: usize = 1 << WINDOW;

#[cfg(test)]
thread_local! {
    /// Test-only tallies of Montgomery products and table reads.
    static SHAPE: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// Precomputed state for arithmetic modulo a fixed odd `n`.
pub struct MontgomeryCtx {
    /// The modulus (odd, > 1).
    n: BigUint,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod n` where `R = 2^(64 * limbs)`, used to enter the domain.
    r2: Vec<u64>,
}

impl MontgomeryCtx {
    /// Builds a context for `n`.
    ///
    /// Returns `None` if `n` is even or `< 3`.
    pub fn new(n: &BigUint) -> Option<MontgomeryCtx> {
        if n.is_even() || n.bit_len() < 2 {
            return None;
        }
        let s = n.limbs.len();
        let n0_inv = neg_inv_u64(n.limbs[0]);
        // R^2 mod n = 2^(128 * limbs) mod n: one division per modulus.
        let mut r2 = BigUint::one().shl_bits(128 * s).rem_ref(n).limbs;
        r2.resize(s, 0);
        Some(MontgomeryCtx {
            n: n.clone(),
            n0_inv,
            r2,
        })
    }

    /// CIOS Montgomery product: `out = a * b * R^{-1} mod n`.
    ///
    /// `a` and `b` are `s`-limb values below `n`; `out` (`s` limbs) is
    /// the accumulator, so it must be neither of them. The final
    /// subtraction of `n` is masked, not branched on.
    fn mont_mul(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        #[cfg(test)]
        SHAPE.with(|c| c.set((c.get().0 + 1, c.get().1)));
        let n = &self.n.limbs[..];
        let s = n.len();
        let (a, b, t) = (&a[..s], &b[..s], &mut out[..s]);
        t.fill(0);
        // The accumulator's limb above `t`; it stays 0 or 1.
        let mut top = 0u64;
        for &ai in a {
            // t += ai * b and t += m * n, where m makes the lowest limb
            // zero, then t >>= 64: one pass over the limbs for both.
            let p = t[0] as u128 + ai as u128 * b[0] as u128;
            let m = (p as u64).wrapping_mul(self.n0_inv);
            let q = (p as u64) as u128 + m as u128 * n[0] as u128;
            let (mut c1, mut c2) = ((p >> 64) as u64, (q >> 64) as u64);
            for j in 1..s {
                let p = t[j] as u128 + ai as u128 * b[j] as u128 + c1 as u128;
                let q = (p as u64) as u128 + m as u128 * n[j] as u128 + c2 as u128;
                t[j - 1] = q as u64;
                (c1, c2) = ((p >> 64) as u64, (q >> 64) as u64);
            }
            let p = top as u128 + c1 as u128 + c2 as u128;
            t[s - 1] = p as u64;
            top = (p >> 64) as u64;
        }
        // t + top * R lies in [0, 2n): subtract n exactly when that does
        // not borrow out of `top`. One pass finds the borrow, a second
        // subtracts `n` masked by it.
        let mut borrow = 0u64;
        for (&ti, &ni) in t.iter().zip(n) {
            let (d, b1) = ti.overflowing_sub(ni);
            let (_, b2) = d.overflowing_sub(borrow);
            borrow = (b1 | b2) as u64;
        }
        let keep = top.wrapping_sub(borrow) >> 63;
        // Opaque to the optimiser, which would otherwise split the loop
        // below into a subtracting and a non-subtracting branch.
        let mask = std::hint::black_box(keep.wrapping_sub(1));
        let mut borrow = 0u64;
        for (ti, &ni) in t.iter_mut().zip(n) {
            let (d, b1) = ti.overflowing_sub(ni & mask);
            let (d, b2) = d.overflowing_sub(borrow);
            *ti = d;
            borrow = (b1 | b2) as u64;
        }
    }

    /// Copies `table[digit]` into `out` by reading every entry and keeping
    /// the one whose index matches under a mask.
    fn select(table: &[u64], digit: u64, out: &mut [u64]) {
        #[cfg(test)]
        SHAPE.with(|c| c.set((c.get().0, c.get().1 + 1)));
        out.fill(0);
        for (i, entry) in table.chunks_exact(out.len()).enumerate() {
            let diff = i as u64 ^ digit;
            // All ones when `diff` is zero, else zero.
            let mask = std::hint::black_box(((diff | diff.wrapping_neg()) >> 63).wrapping_sub(1));
            for (o, &e) in out.iter_mut().zip(entry) {
                *o |= e & mask;
            }
        }
    }

    /// Computes `base^exp mod n` with a fixed 4-bit window in the
    /// Montgomery domain.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one();
        }
        let s = self.n.limbs.len();
        // One allocation for everything: the table, the accumulator, the
        // product it is swapped with, and the selected entry.
        let mut scratch = vec![0u64; (TABLE + 3) * s];
        let (table, rest) = scratch.split_at_mut(TABLE * s);
        let (acc, rest) = rest.split_at_mut(s);
        let (tmp, sel) = rest.split_at_mut(s);
        let (mut acc, mut tmp) = (acc, tmp);

        // table[0] = R mod n (one, in Montgomery form); table[1] = base in
        // Montgomery form; table[i] = table[i - 1] * table[1].
        acc[0] = 1;
        self.mont_mul(acc, &self.r2, &mut table[..s]);
        let reduced = base.rem_ref(&self.n);
        acc.fill(0);
        acc[..reduced.limbs.len()].copy_from_slice(&reduced.limbs);
        self.mont_mul(acc, &self.r2, &mut table[s..2 * s]);
        for i in 2..TABLE {
            let (done, next) = table.split_at_mut(i * s);
            self.mont_mul(&done[(i - 1) * s..], &done[s..2 * s], &mut next[..s]);
        }

        let windows = exp.bit_len().div_ceil(WINDOW);
        Self::select(table, window(exp, windows - 1), acc);
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW {
                self.mont_mul(acc, acc, tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            Self::select(table, window(exp, w), sel);
            self.mont_mul(acc, sel, tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }

        // Out of the domain: a product with plain 1.
        sel.fill(0);
        sel[0] = 1;
        self.mont_mul(acc, sel, tmp);
        let mut out = BigUint {
            limbs: tmp.to_vec(),
        };
        out.normalize();
        out
    }
}

/// Window `w` of `exp`: bits `[4w, 4w + 4)`, which never straddle a limb.
fn window(exp: &BigUint, w: usize) -> u64 {
    let bit = w * WINDOW;
    (exp.limbs[bit / 64] >> (bit % 64)) & (TABLE as u64 - 1)
}

/// Computes `-n^{-1} mod 2^64` for odd `n` (Newton-Hensel iteration).
fn neg_inv_u64(n: u64) -> u64 {
    debug_assert!(n & 1 == 1);
    let mut x = n; // Correct to 3 bits already for odd n... iterate to 64.
    for _ in 0..6 {
        x = x.wrapping_mul(2u64.wrapping_sub(n.wrapping_mul(x)));
    }
    debug_assert_eq!(n.wrapping_mul(x), 1);
    x.wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_even_and_tiny_moduli() {
        assert!(MontgomeryCtx::new(&BigUint::from_u64(10)).is_none());
        assert!(MontgomeryCtx::new(&BigUint::from_u64(0)).is_none());
        assert!(MontgomeryCtx::new(&BigUint::from_u64(1)).is_none());
        assert!(MontgomeryCtx::new(&BigUint::from_u64(9)).is_some());
    }

    #[test]
    fn neg_inv_correct() {
        for n in [1u64, 3, 5, 0xffff_ffff_ffff_fff1, 0x1234_5678_9abc_def1] {
            let x = neg_inv_u64(n);
            assert_eq!(n.wrapping_mul(x.wrapping_neg()), 1, "n={n}");
        }
    }

    #[test]
    fn matches_naive_small() {
        // Against square-and-multiply in `u128`; multi-limb moduli meet
        // their oracle in `tests/proptests.rs`.
        let m = 1_000_000_007u128;
        let ctx = MontgomeryCtx::new(&BigUint::from_u64(m as u64)).unwrap();
        for (b, e) in [
            (2u64, 10u64),
            (3, 1000),
            (123456789, 987654321),
            (0, 5),
            (5, 0),
        ] {
            let got = ctx.modpow(&BigUint::from_u64(b), &BigUint::from_u64(e));
            let (mut want, mut sq, mut k) = (1u128, b as u128 % m, e);
            while k > 0 {
                if k & 1 == 1 {
                    want = want * sq % m;
                }
                sq = sq * sq % m;
                k >>= 1;
            }
            assert_eq!(got, BigUint::from_u128(want), "b={b} e={e}");
        }
    }

    #[test]
    fn fermat_on_mersenne_prime() {
        let p = {
            // 2^127 - 1.
            let one = BigUint::one();
            &one.shl_bits(127) - &one
        };
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let exp = &p - &BigUint::one();
        for b in [2u64, 3, 0xdeadbeef] {
            assert!(ctx.modpow(&BigUint::from_u64(b), &exp).is_one());
        }
    }

    /// `(products, table reads)` of one exponentiation.
    fn shape(ctx: &MontgomeryCtx, base: &BigUint, exp: &BigUint) -> (usize, usize) {
        SHAPE.with(|c| c.set((0, 0)));
        let _ = ctx.modpow(base, exp);
        SHAPE.with(|c| c.get())
    }

    #[test]
    fn the_shape_of_an_exponentiation_depends_on_the_bit_length_alone() {
        for bits in [256usize, 768] {
            // An odd modulus of `bits` bits, and a base below it.
            let n = &BigUint::one().shl_bits(bits) - &BigUint::from_u64(189);
            let base = BigUint::from_bytes_be(&[0x5a; 40]);
            let ctx = MontgomeryCtx::new(&n).unwrap();
            let one = BigUint::one();
            // 0b1000...0 and 0b1111...1, both `bits` bits long.
            let sparse = one.shl_bits(bits - 1);
            let dense = &one.shl_bits(bits) - &one;
            let windows = bits / WINDOW;
            // The table (two entries enter the domain, fourteen are
            // products), four squarings and a product per window after
            // the first, and the product that leaves the domain.
            let want = (2 + 14 + 5 * (windows - 1) + 1, windows);
            assert_eq!(shape(&ctx, &base, &sparse), want, "{bits} bits, 0b100..0");
            assert_eq!(shape(&ctx, &base, &dense), want, "{bits} bits, 0b111..1");
        }
    }
}
