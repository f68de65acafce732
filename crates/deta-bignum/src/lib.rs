//! Minimal arbitrary-precision unsigned integer arithmetic.
//!
//! This crate provides [`BigUint`], a little-endian limb vector of `u64`
//! words, with the arithmetic needed by the DeTA reproduction: schoolbook
//! multiplication, binary long division, modular exponentiation, extended
//! GCD / modular inverse, and Miller-Rabin probabilistic primality testing.
//!
//! The implementation favours clarity and testability over raw speed: the
//! Paillier cryptosystem built on top of it operates at simulation-grade key
//! sizes (hundreds of bits), where these algorithms are comfortably fast.
//!
//! # Examples
//!
//! ```
//! use deta_bignum::BigUint;
//!
//! let a = BigUint::from_u64(1_000_000_007);
//! let b = BigUint::from_u64(998_244_353);
//! let m = BigUint::from_u64(4_294_967_291);
//! let p = a.modpow(&b, &m);
//! assert!(p < m);
//! ```

mod arith;
mod div;
mod modular;
pub mod montgomery;
pub mod prime;

pub use montgomery::MontgomeryCtx;
pub use prime::{gen_prime, is_probable_prime, random_below, random_bits, RandomSource};

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Internally stored as little-endian `u64` limbs with no trailing zero
/// limbs (zero is represented by an empty limb vector). All public
/// constructors and operations maintain this normalization invariant.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// Returns zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// Returns one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Constructs a value from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut n = BigUint {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }

    /// Constructs a value from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to big-endian bytes with no leading zeros (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zero bytes of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to big-endian bytes, left-padded with zeros to `len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_bytes_be();
        assert!(raw.len() <= len, "value does not fit in {len} bytes");
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns `true` if the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns the number of significant bits (zero has zero bits).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Returns the low 64 bits of the value.
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Converts to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Converts to `u128` if the value fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// Best-effort secret erasure: overwrites every limb with volatile
    /// writes before clearing. `deta_crypto::Secret` calls it when a
    /// wrapped scalar drops.
    pub fn zeroize(&mut self) {
        for limb in &mut self.limbs {
            // SAFETY: `limb` is a valid, aligned, exclusive reference.
            unsafe { std::ptr::write_volatile(limb, 0) };
        }
        self.limbs.clear();
    }

    /// Removes trailing zero limbs to restore the normalization invariant.
    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => self.limbs.iter().rev().cmp(other.limbs.iter().rev()),
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{self})")
    }
}

impl fmt::Display for BigUint {
    /// Formats as lowercase hexadecimal without a `0x` prefix.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        Ok(())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        BigUint::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn from_u64_roundtrip() {
        for v in [0u64, 1, 2, 255, 256, u64::MAX] {
            assert_eq!(BigUint::from_u64(v).to_u64(), Some(v));
        }
    }

    #[test]
    fn from_u128_roundtrip() {
        for v in [0u128, 1, u64::MAX as u128, u64::MAX as u128 + 1, u128::MAX] {
            assert_eq!(BigUint::from_u128(v).to_u128(), Some(v));
        }
    }

    #[test]
    fn bytes_roundtrip() {
        let cases: &[&[u8]] = &[
            &[],
            &[0x01],
            &[0xff],
            &[0x01, 0x00],
            &[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05],
        ];
        for &bytes in cases {
            let n = BigUint::from_bytes_be(bytes);
            // Leading zeros are stripped in the canonical form.
            let canonical: Vec<u8> = bytes.iter().copied().skip_while(|&b| b == 0).collect();
            assert_eq!(n.to_bytes_be(), canonical);
        }
    }

    #[test]
    fn from_bytes_ignores_leading_zeros() {
        let a = BigUint::from_bytes_be(&[0, 0, 0x12, 0x34]);
        let b = BigUint::from_bytes_be(&[0x12, 0x34]);
        assert_eq!(a, b);
    }

    #[test]
    fn padded_bytes() {
        let n = BigUint::from_u64(0x1234);
        assert_eq!(n.to_bytes_be_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    #[should_panic]
    fn padded_bytes_too_small_panics() {
        BigUint::from_u64(0x123456).to_bytes_be_padded(2);
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u64(7);
        let c = BigUint::from_u128(1u128 << 100);
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn bit_access() {
        let n = BigUint::from_u128(0b1011u128 << 70);
        assert!(n.bit(70));
        assert!(n.bit(71));
        assert!(!n.bit(72));
        assert!(n.bit(73));
        assert!(!n.bit(500));
    }

    #[test]
    fn display_hex() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(BigUint::from_u64(0xdeadbeef).to_string(), "deadbeef");
        let n = BigUint::from_u128((1u128 << 64) + 5);
        assert_eq!(n.to_string(), "10000000000000005");
    }

    #[test]
    fn zeroize_clears_value() {
        let mut n = BigUint::from_u128(0xdead_beef_dead_beef_dead_beef);
        n.zeroize();
        assert!(n.is_zero());
        // Zeroizing zero is fine.
        n.zeroize();
        assert!(n.is_zero());
    }

    #[test]
    fn parity() {
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
        assert!(BigUint::from_u64(42).is_even());
    }
}
