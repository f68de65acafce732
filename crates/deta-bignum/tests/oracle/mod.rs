//! Slow reference arithmetic the properties compare `deta-bignum`
//! against: binary long division (the crate's division before Algorithm
//! D) and bit-serial square-and-multiply reduced with it. Both use only
//! the public API, comparisons, shifts, schoolbook products and
//! subtraction, none of which goes through the division under test.
//!
//! `deta-paillier`'s properties include this file too.

use deta_bignum::BigUint;

/// `(a / d, a % d)` one dividend bit at a time.
pub fn long_div(a: &BigUint, d: &BigUint) -> (BigUint, BigUint) {
    assert!(!d.is_zero(), "division by zero");
    let (mut q, mut r) = (BigUint::zero(), BigUint::zero());
    let one = BigUint::one();
    for i in (0..a.bit_len()).rev() {
        r = r.shl_bits(1);
        if a.bit(i) {
            r = &r + &one;
        }
        if r >= *d {
            r = &r - d;
            q = &q + &one.shl_bits(i);
        }
    }
    (q, r)
}

/// `a * b mod m` through [`long_div`].
pub fn mul_mod(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    long_div(&(a * b), m).1
}

/// `base^exp mod m`, left to right, one exponent bit at a time.
pub fn modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    let base = long_div(base, m).1;
    let mut acc = long_div(&BigUint::one(), m).1;
    for i in (0..exp.bit_len()).rev() {
        acc = mul_mod(&acc, &acc, m);
        if exp.bit(i) {
            acc = mul_mod(&acc, &base, m);
        }
    }
    acc
}
