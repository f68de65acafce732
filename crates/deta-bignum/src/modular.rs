//! Modular arithmetic: multiplication, exponentiation, GCD, inverse.

use crate::BigUint;

impl BigUint {
    /// Returns `(self * other) mod m`.
    pub fn mul_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        let p = self * other;
        &p % m
    }

    /// Returns `(self - other) mod m`, where both inputs must already be
    /// reduced modulo `m`.
    pub fn sub_mod(&self, other: &BigUint, m: &BigUint) -> BigUint {
        debug_assert!(self < m && other < m);
        if self >= other {
            self - other
        } else {
            &(self + m) - other
        }
    }

    /// Computes `self^exp mod m` via left-to-right square-and-multiply.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow with zero modulus");
        if m.is_one() {
            return BigUint::zero();
        }
        // Odd multi-limb moduli route through Montgomery arithmetic; the
        // crossover check keeps tiny inputs on the simple path.
        if !m.is_even() && m.limbs.len() >= 2 && exp.bit_len() > 4 {
            if let Some(ctx) = crate::montgomery::MontgomeryCtx::new(m) {
                return ctx.modpow(self, exp);
            }
        }
        let base = self % m;
        if exp.is_zero() {
            return BigUint::one();
        }
        let mut acc = BigUint::one();
        for i in (0..exp.bit_len()).rev() {
            acc = acc.mul_mod(&acc, m);
            if exp.bit(i) {
                acc = acc.mul_mod(&base, m);
            }
        }
        acc
    }

    /// Computes the greatest common divisor via the binary GCD algorithm.
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let shift = a.trailing_zeros().min(b.trailing_zeros());
        a = a.shr_bits(a.trailing_zeros());
        loop {
            b = b.shr_bits(b.trailing_zeros());
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = &b - &a;
            if b.is_zero() {
                return a.shl_bits(shift);
            }
        }
    }

    /// Computes the Jacobi symbol `(self / n)` for odd `n`: `1`, `-1`, or
    /// `0` when the two share a factor. For a prime `n` it is the
    /// Legendre symbol, `self^((n - 1) / 2) mod n` read as `1`, `-1` or
    /// `0`, found without an exponentiation.
    ///
    /// Binary algorithm on two limb buffers of `n`'s width: strip the
    /// factors of two (each flips the sign when `n ≡ ±3 mod 8`), swap
    /// under quadratic reciprocity (a flip when both are `3 mod 4`), and
    /// subtract. It branches on both operands' values, so it is for
    /// public inputs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even.
    pub fn jacobi(&self, n: &BigUint) -> i8 {
        assert!(!n.is_even(), "Jacobi symbol modulo an even number");
        let mut a = self.rem_ref(n).limbs;
        a.resize(n.limbs.len(), 0);
        let mut n = n.limbs.clone();
        let mut sign = 1i8;
        loop {
            let Some(zeros) = limbs_trailing_zeros(&a) else {
                let one = n[0] == 1 && n[1..].iter().all(|&l| l == 0);
                return if one { sign } else { 0 };
            };
            limbs_shr(&mut a, zeros);
            if zeros % 2 == 1 && matches!(n[0] & 7, 3 | 5) {
                sign = -sign;
            }
            if a.iter().rev().cmp(n.iter().rev()) == std::cmp::Ordering::Less {
                std::mem::swap(&mut a, &mut n);
                if a[0] & 3 == 3 && n[0] & 3 == 3 {
                    sign = -sign;
                }
            }
            // a ≥ n, both odd: a - n is even, and (a - n / n) = (a / n).
            let mut borrow = false;
            for (x, &y) in a.iter_mut().zip(&n) {
                let (d, b1) = x.overflowing_sub(y);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                *x = d;
                borrow = b1 | b2;
            }
        }
    }

    /// Returns the least common multiple.
    pub fn lcm(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let g = self.gcd(other);
        &(self / &g) * other
    }

    /// Counts trailing zero bits (zero input yields 0).
    pub fn trailing_zeros(&self) -> usize {
        limbs_trailing_zeros(&self.limbs).unwrap_or(0)
    }

    /// Computes the modular inverse of `self` modulo `m`, if it exists.
    ///
    /// Uses the iterative extended Euclidean algorithm with sign tracking.
    /// Returns `None` when `gcd(self, m) != 1` or `m < 2`.
    pub fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        if m < &BigUint::from_u64(2) {
            return None;
        }
        // Invariants: r0 = s0_sign*s0*a (mod m), maintained over (r, s) rows.
        let mut r0 = self % m;
        let mut r1 = m.clone();
        // Coefficients of `self` with explicit signs.
        let mut s0 = (BigUint::one(), false); // (magnitude, negative?)
        let mut s1 = (BigUint::zero(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // s2 = s0 - q * s1.
            let qs1 = &q * &s1.0;
            let s2 = signed_sub(&s0, &(qs1, s1.1));
            r0 = std::mem::replace(&mut r1, r2);
            s0 = std::mem::replace(&mut s1, s2);
        }
        if !r0.is_one() {
            return None;
        }
        let (mag, neg) = s0;
        let mag = &mag % m;
        Some(if neg && !mag.is_zero() { m - &mag } else { mag })
    }
}

/// Trailing zero bits of little-endian limbs, `None` if all are zero.
fn limbs_trailing_zeros(limbs: &[u64]) -> Option<usize> {
    let i = limbs.iter().position(|&l| l != 0)?;
    Some(i * 64 + limbs[i].trailing_zeros() as usize)
}

/// Shifts little-endian limbs right by `bits` in place.
fn limbs_shr(limbs: &mut [u64], bits: usize) {
    let (words, bits) = (bits / 64, bits % 64);
    let len = limbs.len();
    for i in 0..len {
        let lo = limbs.get(i + words).copied().unwrap_or(0);
        let hi = limbs.get(i + words + 1).copied().unwrap_or(0);
        limbs[i] = if bits == 0 {
            lo
        } else {
            (lo >> bits) | (hi << (64 - bits))
        };
    }
}

/// Computes `a - b` for sign-magnitude pairs `(magnitude, negative?)`.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b where both positive.
        (false, false) => {
            if a.0 >= b.0 {
                (&a.0 - &b.0, false)
            } else {
                (&b.0 - &a.0, true)
            }
        }
        // a - (-b) = a + b.
        (false, true) => (&a.0 + &b.0, false),
        // (-a) - b = -(a + b).
        (true, false) => (&a.0 + &b.0, true),
        // (-a) - (-b) = b - a.
        (true, true) => {
            if b.0 >= a.0 {
                (&b.0 - &a.0, false)
            } else {
                (&a.0 - &b.0, true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::BigUint;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn modpow_small() {
        assert_eq!(b(2).modpow(&b(10), &b(1000)), b(24));
        assert_eq!(b(3).modpow(&b(0), &b(7)), b(1));
        assert_eq!(b(3).modpow(&b(5), &b(1)), b(0));
    }

    #[test]
    fn modpow_fermat() {
        // Fermat's little theorem: a^(p-1) = 1 (mod p) for prime p.
        let p = b(1_000_000_007);
        for a in [2u128, 3, 12345, 999_999_999] {
            assert_eq!(b(a).modpow(&(&p - &b(1)), &p), b(1));
        }
    }

    #[test]
    fn modpow_large_modulus() {
        // 2^128 mod (2^127 - 1, a Mersenne prime) == 2^1 == 2, since
        // 2^127 == 1 (mod 2^127 - 1).
        let m = &b(1u128 << 127) - &b(1);
        assert_eq!(b(2).modpow(&b(128), &m), b(2));
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(b(12).gcd(&b(18)), b(6));
        assert_eq!(b(17).gcd(&b(13)), b(1));
        assert_eq!(b(0).gcd(&b(5)), b(5));
        assert_eq!(b(5).gcd(&b(0)), b(5));
        assert_eq!(b(48).gcd(&b(48)), b(48));
    }

    #[test]
    fn gcd_large_power_of_two_factor() {
        let a = b(3 << 40);
        let c = b(5 << 40);
        assert_eq!(a.gcd(&c), b(1 << 40));
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(b(4).lcm(&b(6)), b(12));
        assert_eq!(b(0).lcm(&b(6)), b(0));
    }

    #[test]
    fn modinv_small() {
        let m = b(17);
        for a in 1u128..17 {
            let inv = b(a).modinv(&m).unwrap();
            assert_eq!(b(a).mul_mod(&inv, &m), b(1), "a={a}");
        }
    }

    #[test]
    fn modinv_nonexistent() {
        assert!(b(6).modinv(&b(9)).is_none());
        assert!(b(0).modinv(&b(7)).is_none());
        assert!(b(3).modinv(&b(1)).is_none());
    }

    #[test]
    fn modinv_large() {
        let m = &b(1u128 << 127) - &b(1); // Mersenne prime.
        let a = b(0xdead_beef_1234_5678);
        let inv = a.modinv(&m).unwrap();
        assert_eq!(a.mul_mod(&inv, &m), b(1));
    }

    #[test]
    fn jacobi_matches_euler_on_a_small_prime() {
        // Euler's criterion: (a / p) = a^((p - 1) / 2) mod p.
        let p = 1_000_003u128;
        for a in (0..200u128).chain([p - 1, p, p + 2, 3 * p + 7]) {
            let euler = match b(a).modpow(&b((p - 1) / 2), &b(p)).to_u128() {
                Some(1) => 1,
                Some(0) => 0,
                _ => -1,
            };
            assert_eq!(b(a).jacobi(&b(p)), euler, "a={a}");
        }
    }

    #[test]
    fn jacobi_of_composites() {
        // (2 / 15) = (2 / 3)(2 / 5) = 1; (7 / 15) = (7 / 3)(7 / 5) = -1;
        // a shared factor gives 0; (a / 1) = 1.
        assert_eq!(b(2).jacobi(&b(15)), 1);
        assert_eq!(b(7).jacobi(&b(15)), -1);
        assert_eq!(b(6).jacobi(&b(15)), 0);
        assert_eq!(b(0).jacobi(&b(1)), 1);
        assert_eq!(b(5).jacobi(&b(1)), 1);
        // Multi-limb: 2^127 - 1 is a prime = 7 mod 8, so 2 is a residue,
        // and = 3 mod 4, so -1 is not.
        let m = &b(1u128 << 127) - &b(1);
        assert_eq!(b(2).jacobi(&m), 1);
        assert_eq!((&m - &b(1)).jacobi(&m), -1);
        assert_eq!(b(1u128 << 100).jacobi(&m), 1);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn jacobi_refuses_an_even_modulus() {
        let _ = b(3).jacobi(&b(10));
    }

    #[test]
    fn sub_mod_wraps() {
        let m = b(100);
        assert_eq!(b(30).sub_mod(&b(70), &m), b(60));
        assert_eq!(b(70).sub_mod(&b(30), &m), b(40));
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(b(0).trailing_zeros(), 0);
        assert_eq!(b(1).trailing_zeros(), 0);
        assert_eq!(b(8).trailing_zeros(), 3);
        assert_eq!(b(1u128 << 100).trailing_zeros(), 100);
    }
}
