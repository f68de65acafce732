//! A fixed Schnorr group: the prime-order subgroup of `Z_p*`.
//!
//! The parameters are a 256-bit safe prime `p = 2q + 1` (so `q` is a
//! 255-bit prime) with generator `g = 4`, which generates the order-`q`
//! subgroup of quadratic residues. They were produced deterministically by
//! `deta-bignum`'s `gen_safe_prime` example and verified with 32 rounds of
//! Miller-Rabin plus the subgroup check `g^q = 1 (mod p)`.
//!
//! This group backs the Schnorr signatures in [`crate::sign`] and the
//! Diffie-Hellman exchange in [`crate::dh`]. It plays the role that the
//! NIST P-256 curve (`prime256v1`) plays in the paper's prototype.
//!
//! The group is built once per process, with one Montgomery context for
//! `p` and a fixed-base table of `g` (32 KiB): [`Group::pow_g`] reads the
//! table, one product per 4-bit window of a 256-bit scalar, and
//! [`Group::pow`] runs every window of `q`'s width whatever its exponent.
//! Membership is the Legendre symbol, not `x^q`: since `p` is prime,
//! `(x / p) = x^q mod p`.

use crate::rng::DetRng;
use deta_bignum::{prime::random_below, BigUint, MontgomeryCtx};
use std::sync::OnceLock;

/// Hex encoding of the safe prime `p`.
pub const P_HEX: &str = "d949e7cd15a3a9d0196f7f64282d4a0f10b1847a253f2a9a2ca7d163419237bb";
/// Hex encoding of the subgroup order `q = (p - 1) / 2`.
pub const Q_HEX: &str = "6ca4f3e68ad1d4e80cb7bfb21416a5078858c23d129f954d1653e8b1a0c91bdd";

fn from_hex(s: &str) -> BigUint {
    let bytes: Vec<u8> = (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect();
    BigUint::from_bytes_be(&bytes)
}

/// Scalar width the fixed-base table of `g` covers: every scalar below
/// `q`, and any other below `2^256`.
const SCALAR_BITS: usize = 256;

/// Limbs of that table: 16 entries of `p`'s four limbs for each 4-bit
/// window.
const G_TABLE_LIMBS: usize = SCALAR_BITS / 4 * 16 * 4;

/// The shared group parameters.
pub struct Group {
    /// The field prime.
    pub p: BigUint,
    /// The subgroup order.
    pub q: BigUint,
    /// The subgroup generator.
    pub g: BigUint,
    /// Montgomery arithmetic modulo `p`.
    ctx: MontgomeryCtx,
    /// `g^(d·16^w)` for every window `w` of a [`SCALAR_BITS`]-bit scalar.
    /// It lives in the group's static, not on the heap: as a 32 KiB heap
    /// block allocated in the middle of the first set-up and never freed,
    /// it changed how the allocator reused the memory around it: a
    /// benchmark run of a 10⁶-parameter session took ~40 % more page
    /// faults, and its set-ups ~15 % longer.
    g_table: [u64; G_TABLE_LIMBS],
}

/// Returns the process-wide group parameters.
pub fn group() -> &'static Group {
    static GROUP: OnceLock<Group> = OnceLock::new();
    GROUP.get_or_init(|| {
        let p = from_hex(P_HEX);
        let g = BigUint::from_u64(4);
        let ctx = MontgomeryCtx::new(&p).expect("p is an odd prime");
        let mut g_table = [0; G_TABLE_LIMBS];
        debug_assert_eq!(ctx.fixed_base_len(SCALAR_BITS), G_TABLE_LIMBS);
        ctx.fixed_base(&g, &mut g_table);
        Group {
            q: from_hex(Q_HEX),
            p,
            g,
            ctx,
            g_table,
        }
    })
}

impl Group {
    /// Computes `g^e mod p` from the fixed-base table: the same products
    /// and table reads for every `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is `2^256` or more; every scalar is below `q`.
    pub fn pow_g(&self, e: &BigUint) -> BigUint {
        self.ctx.pow_fixed(&self.g_table, e)
    }

    /// Computes `b^e mod p` over every window of `q`'s width, so an
    /// exponent below `q` costs the same whatever its value.
    pub fn pow(&self, b: &BigUint, e: &BigUint) -> BigUint {
        self.ctx.modpow_width(b, e, self.q.bit_len())
    }

    /// Multiplies two group elements.
    pub fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.mul_mod(b, &self.p)
    }

    /// Reduces a hash output (or any integer) into a scalar mod `q`.
    pub fn scalar_from_bytes(&self, bytes: &[u8]) -> BigUint {
        &BigUint::from_bytes_be(bytes) % &self.q
    }

    /// Samples a uniformly random non-zero scalar in `[1, q)`.
    pub fn random_scalar(&self, rng: &mut DetRng) -> BigUint {
        loop {
            let s = random_below(rng, &self.q);
            if !s.is_zero() {
                return s;
            }
        }
    }

    /// Returns `true` if `x` is a valid element of the order-`q` subgroup
    /// (excluding the identity).
    ///
    /// The order-`q` subgroup is the quadratic residues, so for `x` in
    /// `[2, p)` this is the Legendre symbol `(x / p) = 1`, the verdict of
    /// `x^q mod p = 1` without the exponentiation. It branches on `x`,
    /// which is always a public key.
    pub fn is_valid_element(&self, x: &BigUint) -> bool {
        !x.is_zero() && !x.is_one() && x < &self.p && x.jacobi(&self.p) == 1
    }

    /// Byte length of a serialized group element.
    pub fn element_len(&self) -> usize {
        self.p.bit_len().div_ceil(8)
    }

    /// Serializes a group element to fixed-width big-endian bytes.
    pub fn element_to_bytes(&self, x: &BigUint) -> Vec<u8> {
        x.to_bytes_be_padded(self.element_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters_are_consistent() {
        let g = group();
        // p = 2q + 1.
        assert_eq!(g.p, &g.q.shl_bits(1) + &BigUint::one());
        // Generator has order q.
        assert!(g.g.modpow(&g.q, &g.p).is_one());
        assert!(!g.g.modpow(&BigUint::one(), &g.p).is_one());
        assert_eq!(g.p.bit_len(), 256);
        assert_eq!(g.q.bit_len(), 255);
    }

    #[test]
    fn primality() {
        let g = group();
        let mut rng = DetRng::from_u64(0);
        assert!(deta_bignum::is_probable_prime(&g.p, 16, &mut rng));
        assert!(deta_bignum::is_probable_prime(&g.q, 16, &mut rng));
    }

    #[test]
    fn element_validation() {
        let g = group();
        let mut rng = DetRng::from_u64(1);
        let x = g.random_scalar(&mut rng);
        let elem = g.pow_g(&x);
        assert!(g.is_valid_element(&elem));
        // The identity and values outside the subgroup are rejected.
        assert!(!g.is_valid_element(&BigUint::one()));
        assert!(!g.is_valid_element(&BigUint::zero()));
        assert!(!g.is_valid_element(&g.p));
        // A non-residue: g generates QRs, so a generator of the full group
        // (e.g. a non-square) must fail. 2 is a non-residue iff p % 8 in
        // {3, 5}; just test p - 1 which has order 2.
        let p_minus_1 = &g.p - &BigUint::one();
        assert!(!g.is_valid_element(&p_minus_1));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn the_shape_of_a_group_power_is_the_same_for_every_scalar() {
        use deta_bignum::montgomery::shape_of;
        let g = group();
        let one = BigUint::one();
        let top = &g.q - &one;
        let elem = g.pow_g(&BigUint::from_u64(12345));
        // `pow_g`: one product per window after the first and one to
        // leave the domain, one masked pick per window.
        let fixed = (SCALAR_BITS / 4, SCALAR_BITS / 4);
        // `pow`: the base's 16-entry table (two entries enter the
        // domain, fourteen are products), four squarings and a product
        // per window after the first, one product to leave.
        let windows = g.q.bit_len().div_ceil(4);
        let variable = (2 + 14 + 5 * (windows - 1) + 1, windows);
        for e in [&one, &top] {
            assert_eq!(shape_of(|| drop(g.pow_g(e))), fixed, "pow_g({e})");
            assert_eq!(shape_of(|| drop(g.pow(&elem, e))), variable, "pow(_, {e})");
        }
    }

    #[test]
    fn exponent_homomorphism() {
        let g = group();
        let mut rng = DetRng::from_u64(2);
        let a = g.random_scalar(&mut rng);
        let b = g.random_scalar(&mut rng);
        let lhs = g.mul(&g.pow_g(&a), &g.pow_g(&b));
        let sum = (&a + &b).rem_ref(&g.q);
        let rhs = g.pow_g(&sum);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn element_serialization_roundtrip() {
        let g = group();
        let mut rng = DetRng::from_u64(3);
        let elem = g.pow_g(&g.random_scalar(&mut rng));
        let bytes = g.element_to_bytes(&elem);
        assert_eq!(bytes.len(), 32);
        assert_eq!(BigUint::from_bytes_be(&bytes), elem);
    }

    #[test]
    fn scalar_from_bytes_reduces() {
        let g = group();
        let s = g.scalar_from_bytes(&[0xff; 64]);
        assert!(s < g.q);
    }
}
