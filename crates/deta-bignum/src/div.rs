//! Division and remainder for [`BigUint`].
//!
//! Knuth's Algorithm D (TAOCP vol. 2, 4.3.1) on 64-bit limbs, with short
//! division by a single limb as its one-limb case. It is the only
//! division in the crate: `/`, `%`, [`BigUint::rem_ref`],
//! [`BigUint::mul_mod`], [`BigUint::modinv`] and
//! [`crate::MontgomeryCtx::new`] all come here. It costs O(m x n) word
//! products for an (m + n)-limb dividend and an n-limb divisor.
//!
//! Timing: the quotient estimate's corrections and the add-back step are
//! branches on the operands' values. A division whose operands are
//! secret (`sign`'s `e * x mod q`, `modinv`) is not constant-time.

use crate::BigUint;
use std::ops::{Div, Rem};

#[cfg(test)]
thread_local! {
    /// Test-only tallies of how often each correction of the quotient
    /// estimate ran: `(decrements in step D3, add-backs in step D6)`.
    pub(crate) static CORRECTIONS: std::cell::Cell<(usize, usize)> =
        const { std::cell::Cell::new((0, 0)) };
}

impl BigUint {
    /// Divides by a single `u64`, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_rem_u64(&self, d: u64) -> (BigUint, u64) {
        assert!(d != 0, "division by zero");
        let mut rem = 0u128;
        let mut q = vec![0u64; self.limbs.len()];
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut quo = BigUint { limbs: q };
        quo.normalize();
        (quo, rem as u64)
    }

    /// Divides by `d`, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn div_rem(&self, d: &BigUint) -> (BigUint, BigUint) {
        assert!(!d.is_zero(), "division by zero");
        if self < d {
            return (BigUint::zero(), self.clone());
        }
        let n = d.limbs.len();
        if n == 1 {
            let (q, r) = self.div_rem_u64(d.limbs[0]);
            return (q, BigUint::from_u64(r));
        }
        // D1: normalise so that the divisor's top limb has its top bit
        // set; the dividend gains one limb for the bits shifted out.
        let shift = d.limbs[n - 1].leading_zeros() as usize;
        let v = d.shl_bits(shift).limbs;
        let mut u = self.shl_bits(shift).limbs;
        u.resize(self.limbs.len() + 1, 0);
        let m = self.limbs.len() - n;
        let (v1, v2) = (v[n - 1] as u128, v[n - 2] as u128);
        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // D3: estimate the quotient limb from the top two limbs of
            // the remainder and the divisor's top limb; two corrections
            // against the divisor's second limb leave it at most one
            // too large.
            let top = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let (mut qhat, mut rhat) = (top / v1, top % v1);
            while qhat >> 64 != 0 || qhat * v2 > ((rhat << 64) | u[j + n - 2] as u128) {
                #[cfg(test)]
                CORRECTIONS.with(|c| c.set((c.get().0 + 1, c.get().1)));
                qhat -= 1;
                rhat += v1;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // D4: subtract qhat times the divisor from the remainder.
            let window = &mut u[j..=j + n];
            let mut qhat = qhat as u64;
            if sub_mul(window, &v, qhat) {
                // D6: qhat was one too large; add the divisor back.
                #[cfg(test)]
                CORRECTIONS.with(|c| c.set((c.get().0, c.get().1 + 1)));
                qhat -= 1;
                add_back(window, &v);
            }
            q[j] = qhat;
        }
        // D8: the remainder is the low n limbs, shifted back.
        u.truncate(n);
        let mut rem = BigUint { limbs: u };
        rem.normalize();
        let mut quo = BigUint { limbs: q };
        quo.normalize();
        (quo, rem.shr_bits(shift))
    }

    /// Returns `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem_ref(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }
}

/// `u -= q * v` over `u`'s `v.len() + 1` limbs; `true` if it borrowed
/// out of the top limb (the result then wrapped around `2^(64 * len)`).
fn sub_mul(u: &mut [u64], v: &[u64], q: u64) -> bool {
    let (low, top) = u.split_at_mut(v.len());
    let (mut carry, mut borrow) = (0u64, false);
    for (ui, &vi) in low.iter_mut().zip(v) {
        let p = q as u128 * vi as u128 + carry as u128;
        carry = (p >> 64) as u64;
        let (d, b1) = ui.overflowing_sub(p as u64);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        *ui = d;
        borrow = b1 | b2;
    }
    let (d, b1) = top[0].overflowing_sub(carry);
    let (d, b2) = d.overflowing_sub(borrow as u64);
    top[0] = d;
    b1 | b2
}

/// `u += v` over `u`'s `v.len() + 1` limbs, dropping the carry out of
/// the top limb (it cancels the borrow [`sub_mul`] reported).
fn add_back(u: &mut [u64], v: &[u64]) {
    let (low, top) = u.split_at_mut(v.len());
    let mut carry = false;
    for (ui, &vi) in low.iter_mut().zip(v) {
        let (s, c1) = ui.overflowing_add(vi);
        let (s, c2) = s.overflowing_add(carry as u64);
        *ui = s;
        carry = c1 | c2;
    }
    top[0] = top[0].wrapping_add(carry as u64);
}

impl Div<&BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl Rem<&BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

#[cfg(test)]
mod tests {
    use super::CORRECTIONS;
    use crate::BigUint;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    fn limbs(l: &[u64]) -> BigUint {
        let mut n = BigUint { limbs: l.to_vec() };
        n.normalize();
        n
    }

    /// `(D3 decrements, D6 add-backs)` one division of `a` by `d` takes,
    /// after checking its quotient and remainder.
    fn corrections(a: &BigUint, d: &BigUint) -> (usize, usize) {
        CORRECTIONS.with(|c| c.set((0, 0)));
        let (q, r) = a.div_rem(d);
        assert!(&r < d);
        assert_eq!(&(&q * d) + &r, *a);
        CORRECTIONS.with(|c| c.get())
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = b(17).div_rem(&b(5));
        assert_eq!((q, r), (b(3), b(2)));
    }

    #[test]
    fn div_by_larger_is_zero() {
        let (q, r) = b(5).div_rem(&b(17));
        assert_eq!((q, r), (b(0), b(5)));
    }

    #[test]
    fn div_exact() {
        let (q, r) = b(1 << 80).div_rem(&b(1 << 40));
        assert_eq!((q, r), (b(1 << 40), b(0)));
    }

    #[test]
    fn div_rem_u64_path() {
        let a = b(0xffff_ffff_ffff_ffff_ffff_u128);
        let (q, r) = a.div_rem_u64(12345);
        let recomposed = &q.mul_u64(12345) + &b(r as u128);
        assert_eq!(recomposed, a);
    }

    #[test]
    fn div_rem_multi_limb_identity() {
        // (q * d + r) == a with r < d for values spanning several limbs.
        let a = BigUint::from_bytes_be(&[0xab; 40]);
        let d = BigUint::from_bytes_be(&[0x37; 17]);
        let (q, r) = a.div_rem(&d);
        assert!(r < d);
        assert_eq!(&(&q * &d) + &r, a);
    }

    #[test]
    fn both_corrections_are_reached() {
        // The first division of `tests/kat.rs`'s Algorithm D cases: the
        // top-limb estimate is two too large, and D3 takes both
        // decrements.
        let (a, d) = KAT_TWO_DECREMENTS;
        assert_eq!(corrections(&limbs(a), &limbs(d)), (2, 0));
        // Its second: D3's estimate passes its test yet is one too large,
        // so D4 borrows and D6 adds the divisor back.
        let (a, d) = KAT_ADD_BACK;
        assert_eq!(corrections(&limbs(a), &limbs(d)), (0, 1));
    }

    /// Little-endian limbs of the dividend and divisor of
    /// `tests/kat.rs`'s `two_decrements` case.
    const KAT_TWO_DECREMENTS: (&[u64], &[u64]) =
        (&[0, u64::MAX, 0, u64::MAX], &[1 << 63, 1, u64::MAX]);
    /// Likewise for its `add_back` case.
    const KAT_ADD_BACK: (&[u64], &[u64]) =
        (&[1 << 63, 1, 1 << 63, 2], &[(1 << 63) + 1, 0, 1 << 63]);

    #[test]
    #[should_panic]
    fn div_by_zero_panics() {
        let _ = b(5).div_rem(&BigUint::zero());
    }

    #[test]
    fn rem_ref_matches_operator() {
        let a = b(987654321987654321);
        let m = b(1000000007);
        assert_eq!(a.rem_ref(&m), &a % &m);
    }
}
