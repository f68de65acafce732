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
//! bits, and [`MontgomeryCtx::modpow_width`] fixes that length too: it
//! runs as many windows as a stated width asks for, whatever the
//! exponent. All products land in buffers the exponentiation allocates
//! once.
//!
//! A base used again and again gets a fixed-base table instead
//! ([`MontgomeryCtx::fixed_base`]): `base^(d·16^w)` for every digit `d`
//! of every window `w`, built once into storage the caller owns.
//! [`MontgomeryCtx::pow_fixed`] then multiplies one masked pick per
//! window and squares nothing, at the table's full width for every
//! exponent.
//!
//! [`BigUint::modpow`] automatically routes through [`MontgomeryCtx`]
//! when the modulus is odd; the binary square-and-multiply fallback
//! remains for even moduli.

use crate::BigUint;

/// Exponent bits per window.
const WINDOW: usize = 4;
/// Entries of the window table: `base^0 ..= base^15`.
const TABLE: usize = 1 << WINDOW;

#[cfg(debug_assertions)]
thread_local! {
    /// Debug-build tallies of Montgomery products and table reads.
    static SHAPE: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// Runs `f` and returns the Montgomery products and table reads it made
/// on this thread: the shape tests' counter, here and in the crates that
/// exponentiate through this module. Debug builds only.
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn shape_of(f: impl FnOnce()) -> (usize, usize) {
    let before = SHAPE.with(|c| c.get());
    f();
    let after = SHAPE.with(|c| c.get());
    (after.0 - before.0, after.1 - before.1)
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
        #[cfg(debug_assertions)]
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
        #[cfg(debug_assertions)]
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

    /// Writes `x mod n` in Montgomery form into `out`, using `tmp` (both
    /// `s` limbs) for the plain value.
    fn enter(&self, x: &BigUint, tmp: &mut [u64], out: &mut [u64]) {
        let reduced = x.rem_ref(&self.n);
        tmp.fill(0);
        tmp[..reduced.limbs.len()].copy_from_slice(&reduced.limbs);
        self.mont_mul(tmp, &self.r2, out);
    }

    /// Leaves the Montgomery domain: `acc · R^{-1} mod n`, a product with
    /// plain 1 written through `one` and `out`.
    fn leave(&self, acc: &[u64], one: &mut [u64], out: &mut [u64]) -> BigUint {
        one.fill(0);
        one[0] = 1;
        self.mont_mul(acc, one, out);
        let mut result = BigUint {
            limbs: out.to_vec(),
        };
        result.normalize();
        result
    }

    /// Computes `base^exp mod n` with a fixed 4-bit window in the
    /// Montgomery domain, over as many windows as `exp` has bits.
    pub fn modpow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.modpow_width(base, exp, 0)
    }

    /// Computes `base^exp mod n` over the windows of
    /// `max(bits, exp.bit_len())` exponent bits: for an exponent of up to
    /// `bits` bits the products and table reads are the same whatever its
    /// value, `0` and `1` included.
    pub fn modpow_width(&self, base: &BigUint, exp: &BigUint, bits: usize) -> BigUint {
        let windows = bits.max(exp.bit_len()).div_ceil(WINDOW);
        if windows == 0 {
            return BigUint::one();
        }
        let s = self.n.limbs.len();
        // One allocation for everything: the table, the accumulator, the
        // product it is swapped with, the selected entry, and the
        // exponent zero-padded to the full width.
        let digits = windows.div_ceil(64 / WINDOW);
        let mut scratch = vec![0u64; (TABLE + 3) * s + digits];
        let (table, rest) = scratch.split_at_mut(TABLE * s);
        let (acc, rest) = rest.split_at_mut(s);
        let (tmp, rest) = rest.split_at_mut(s);
        let (sel, padded) = rest.split_at_mut(s);
        padded[..exp.limbs.len()].copy_from_slice(&exp.limbs);
        let (mut acc, mut tmp) = (acc, tmp);

        // table[0] = R mod n (one, in Montgomery form); table[1] = base in
        // Montgomery form; table[i] = table[i - 1] * table[1].
        self.enter(&BigUint::one(), acc, &mut table[..s]);
        self.enter(base, acc, &mut table[s..2 * s]);
        for i in 2..TABLE {
            let (done, next) = table.split_at_mut(i * s);
            self.mont_mul(&done[(i - 1) * s..], &done[s..2 * s], &mut next[..s]);
        }

        Self::select(table, window(padded, windows - 1), acc);
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW {
                self.mont_mul(acc, acc, tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            Self::select(table, window(padded, w), sel);
            self.mont_mul(acc, sel, tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        self.leave(acc, sel, tmp)
    }

    /// Limbs of a fixed-base table for exponents of up to `bits` bits:
    /// sixteen entries for each 4-bit window.
    pub fn fixed_base_len(&self, bits: usize) -> usize {
        bits.div_ceil(WINDOW) * TABLE * self.n.limbs.len()
    }

    /// Fills `table` with `base^(d·16^w)` in Montgomery form for every
    /// digit `d` of every window `w` it holds: one product an entry, and
    /// one more a window to reach the next window's base.
    ///
    /// # Panics
    ///
    /// Panics unless `table` holds a whole number of windows, at least
    /// one ([`MontgomeryCtx::fixed_base_len`]).
    pub fn fixed_base(&self, base: &BigUint, table: &mut [u64]) {
        let s = self.n.limbs.len();
        let block = TABLE * s;
        assert!(
            !table.is_empty() && table.len().is_multiple_of(block),
            "a fixed-base table holds whole windows"
        );
        let mut scratch = vec![0u64; 3 * s];
        let (one, rest) = scratch.split_at_mut(s);
        let (cur, tmp) = rest.split_at_mut(s);
        self.enter(&BigUint::one(), tmp, one);
        // `cur` is `base^(16^w)` in Montgomery form.
        self.enter(base, tmp, cur);
        for entries in table.chunks_exact_mut(block) {
            entries[..s].copy_from_slice(one);
            entries[s..2 * s].copy_from_slice(cur);
            for d in 2..TABLE {
                let (done, next) = entries.split_at_mut(d * s);
                self.mont_mul(&done[(d - 1) * s..], cur, &mut next[..s]);
            }
            // base^(16^(w+1)) = base^(15·16^w) · base^(16^w).
            self.mont_mul(&entries[(TABLE - 1) * s..], cur, tmp);
            cur.copy_from_slice(tmp);
        }
    }

    /// Computes `base^exp mod n` from `base`'s table
    /// ([`MontgomeryCtx::fixed_base`]): one masked pick per window,
    /// multiplied in, over every window of the table whatever `exp` is.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not hold whole windows, or `exp` is wider
    /// than it.
    pub fn pow_fixed(&self, table: &[u64], exp: &BigUint) -> BigUint {
        let s = self.n.limbs.len();
        let block = TABLE * s;
        let windows = table.len() / block;
        assert!(
            windows > 0 && table.len().is_multiple_of(block),
            "a fixed-base table holds whole windows"
        );
        assert!(
            exp.bit_len() <= windows * WINDOW,
            "exponent wider than its fixed-base table"
        );
        let digits = windows.div_ceil(64 / WINDOW);
        let mut scratch = vec![0u64; 3 * s + digits];
        let (acc, rest) = scratch.split_at_mut(s);
        let (tmp, rest) = rest.split_at_mut(s);
        let (sel, padded) = rest.split_at_mut(s);
        padded[..exp.limbs.len()].copy_from_slice(&exp.limbs);
        let (mut acc, mut tmp) = (acc, tmp);

        Self::select(&table[..block], window(padded, 0), acc);
        for (w, entries) in table.chunks_exact(block).enumerate().skip(1) {
            Self::select(entries, window(padded, w), sel);
            self.mont_mul(acc, sel, tmp);
            std::mem::swap(&mut acc, &mut tmp);
        }
        self.leave(acc, sel, tmp)
    }
}

/// Window `w` of an exponent's zero-padded limbs: bits `[4w, 4w + 4)`,
/// which never straddle a limb.
fn window(limbs: &[u64], w: usize) -> u64 {
    let bit = w * WINDOW;
    (limbs[bit / 64] >> (bit % 64)) & (TABLE as u64 - 1)
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
    #[cfg(debug_assertions)]
    fn shape(ctx: &MontgomeryCtx, base: &BigUint, exp: &BigUint) -> (usize, usize) {
        shape_of(|| drop(ctx.modpow(base, exp)))
    }

    #[cfg(debug_assertions)]
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
            // At a stated width, a one-bit exponent runs every window too.
            let at_width = shape_of(|| drop(ctx.modpow_width(&base, &one, bits)));
            assert_eq!(at_width, want, "{bits} bits, 1 at full width");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_fixed_base_power_reads_every_window_whatever_the_exponent() {
        let n = &BigUint::one().shl_bits(256) - &BigUint::from_u64(189);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let mut table = vec![0; ctx.fixed_base_len(256)];
        ctx.fixed_base(&BigUint::from_u64(4), &mut table);
        let one = BigUint::one();
        let dense = &one.shl_bits(256) - &one;
        // One product per window after the first, one to leave the
        // domain, and one masked pick per window.
        for exp in [BigUint::zero(), one, dense] {
            let got = shape_of(|| drop(ctx.pow_fixed(&table, &exp)));
            assert_eq!(got, (64, 64), "exponent {exp}");
        }
    }

    #[test]
    fn fixed_base_powers_match_the_windowed_ones() {
        let n = &BigUint::one().shl_bits(320) - &BigUint::from_u64(197);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let base = BigUint::from_bytes_be(&[0xa7; 48]);
        let mut table = vec![0; ctx.fixed_base_len(130)];
        ctx.fixed_base(&base, &mut table);
        let one = BigUint::one();
        let mut exps = vec![BigUint::zero(), one.clone(), &one.shl_bits(130) - &one];
        exps.extend((0..130).step_by(7).map(|bit| one.shl_bits(bit)));
        exps.push(BigUint::from_bytes_be(&[0x3c; 16]));
        for exp in &exps {
            assert_eq!(ctx.pow_fixed(&table, exp), ctx.modpow(&base, exp), "{exp}");
        }
    }

    #[test]
    #[should_panic(expected = "wider than its fixed-base table")]
    fn a_fixed_base_table_refuses_a_wider_exponent() {
        let ctx = MontgomeryCtx::new(&BigUint::from_u64(1_000_000_007)).unwrap();
        let mut table = vec![0; ctx.fixed_base_len(8)];
        ctx.fixed_base(&BigUint::from_u64(2), &mut table);
        let _ = ctx.pow_fixed(&table, &BigUint::from_u64(256));
    }
}
