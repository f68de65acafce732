//! Property-based tests for `BigUint` arithmetic invariants.

mod oracle;

use deta_bignum::{BigUint, MontgomeryCtx};
use deta_proptest::{cases, Gen};

/// Draws a `BigUint` from up to 40 arbitrary big-endian bytes.
fn biguint(g: &mut Gen) -> BigUint {
    BigUint::from_bytes_be(&g.bytes(0, 40))
}

/// Draws a value of `lo..hi` limbs. A limb is mostly uniform, but
/// often 0, 1, all ones or a lone top bit: the values that put Algorithm
/// D's quotient estimate at its edges.
fn limbs(g: &mut Gen, lo: usize, hi: usize) -> BigUint {
    let limbs = g.usize_in(lo, hi);
    let limb = |g: &mut Gen| match g.u64_in(0, 8) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => 1 << 63,
        _ => g.u64(),
    };
    let mut words: Vec<u64> = (0..limbs).map(|_| limb(g)).collect();
    if let Some(top) = words.last_mut().filter(|top| **top == 0) {
        *top = 1;
    }
    let bytes: Vec<u8> = words.iter().rev().flat_map(|w| w.to_be_bytes()).collect();
    BigUint::from_bytes_be(&bytes)
}

/// Draws a non-zero `BigUint`.
fn biguint_nonzero(g: &mut Gen) -> BigUint {
    let n = biguint(g);
    if n.is_zero() {
        BigUint::one()
    } else {
        n
    }
}

#[test]
fn add_commutes() {
    cases("add_commutes", 256, |g| {
        let (a, b) = (biguint(g), biguint(g));
        assert_eq!(&a + &b, &b + &a);
    });
}

#[test]
fn add_associates() {
    cases("add_associates", 256, |g| {
        let (a, b, c) = (biguint(g), biguint(g), biguint(g));
        assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    });
}

#[test]
fn add_sub_roundtrip() {
    cases("add_sub_roundtrip", 256, |g| {
        let (a, b) = (biguint(g), biguint(g));
        let s = &a + &b;
        assert_eq!(&s - &b, a);
    });
}

#[test]
fn mul_commutes() {
    cases("mul_commutes", 256, |g| {
        let (a, b) = (biguint(g), biguint(g));
        assert_eq!(&a * &b, &b * &a);
    });
}

#[test]
fn mul_distributes() {
    cases("mul_distributes", 256, |g| {
        let (a, b, c) = (biguint(g), biguint(g), biguint(g));
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    });
}

#[test]
fn div_rem_identity() {
    cases("div_rem_identity", 256, |g| {
        let n = g.usize_in(1, 17);
        let d = limbs(g, n, n + 1);
        // From one limb short of the divisor to eight limbs past it.
        let a = limbs(g, n.saturating_sub(1).max(1), n + 9);
        let (q, r) = a.div_rem(&d);
        assert!(r < d);
        assert_eq!(&(&q * &d) + &r, a);
        assert_eq!((q, r), oracle::long_div(&a, &d));
    });
}

#[test]
fn mul_mod_matches_long_division() {
    cases("mul_mod_matches_long_division", 256, |g| {
        let n = g.usize_in(1, 13);
        let m = limbs(g, n, n + 1);
        let (a, b) = (limbs(g, 1, n + 1), limbs(g, 1, n + 1));
        assert_eq!(a.mul_mod(&b, &m), oracle::mul_mod(&a, &b, &m));
    });
}

#[test]
fn bytes_roundtrip() {
    cases("bytes_roundtrip", 256, |g| {
        let a = biguint(g);
        assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    });
}

#[test]
fn shift_roundtrip() {
    cases("shift_roundtrip", 256, |g| {
        let a = biguint(g);
        let s = g.usize_in(0, 200);
        assert_eq!(a.shl_bits(s).shr_bits(s), a);
    });
}

#[test]
fn gcd_divides_both() {
    cases("gcd_divides_both", 128, |g| {
        let (a, b) = (biguint_nonzero(g), biguint_nonzero(g));
        let gg = a.gcd(&b);
        assert!((&a % &gg).is_zero());
        assert!((&b % &gg).is_zero());
    });
}

#[test]
fn gcd_lcm_product() {
    cases("gcd_lcm_product", 128, |g| {
        let (a, b) = (biguint_nonzero(g), biguint_nonzero(g));
        let gg = a.gcd(&b);
        let l = a.lcm(&b);
        assert_eq!(&gg * &l, &a * &b);
    });
}

#[test]
fn modpow_matches_naive() {
    cases("modpow_matches_naive", 64, |g| {
        let n = g.usize_in(2, 13);
        let mut m = limbs(g, n, n + 1);
        // One modulus in eight stays even, on the fallback path; the rest
        // are odd, for Montgomery.
        let odd = g.u64_in(0, 8) != 0;
        if odd == m.is_even() {
            m = if odd {
                &m + &BigUint::one()
            } else {
                &m - &BigUint::one()
            };
        }
        let base = limbs(g, 1, n + 2);
        let exp = limbs(g, 1, 3);
        let want = oracle::modpow(&base, &exp, &m);
        assert_eq!(base.modpow(&exp, &m), want);
        if let Some(ctx) = MontgomeryCtx::new(&m) {
            assert_eq!(ctx.modpow(&base, &exp), want);
        }
    });
}

#[test]
fn jacobi_is_multiplicative_in_both_arguments() {
    // (ab / n) = (a / n)(b / n) and (a / mn) = (a / m)(a / n): the two
    // laws that make the symbol, at every limb count and for composite
    // moduli, whose factors the binary algorithm never sees.
    cases("jacobi_is_multiplicative_in_both_arguments", 128, |g| {
        let odd = |g: &mut Gen| {
            let n = limbs(g, 1, 5);
            if n.is_even() {
                &n + &BigUint::one()
            } else {
                n
            }
        };
        let (m, n) = (odd(g), odd(g));
        let (a, b) = (limbs(g, 1, 6), limbs(g, 1, 6));
        assert_eq!((&a * &b).jacobi(&n), a.jacobi(&n) * b.jacobi(&n));
        assert_eq!(a.jacobi(&(&m * &n)), a.jacobi(&m) * a.jacobi(&n));
    });
}

#[test]
fn modinv_is_inverse() {
    cases("modinv_is_inverse", 256, |g| {
        let (a, m) = (biguint_nonzero(g), biguint_nonzero(g));
        if let Some(inv) = a.modinv(&m) {
            assert_eq!(a.mul_mod(&inv, &m), BigUint::one());
        }
    });
}

#[test]
fn ordering_consistent_with_sub() {
    cases("ordering_consistent_with_sub", 256, |g| {
        let (a, b) = (biguint(g), biguint(g));
        match a.cmp(&b) {
            std::cmp::Ordering::Less => assert!(a.checked_sub(&b).is_none()),
            _ => assert!(a.checked_sub(&b).is_some()),
        }
    });
}
