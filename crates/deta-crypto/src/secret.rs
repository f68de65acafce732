//! [`Secret`]: the one holder of key material.
//!
//! Every key in the workspace — the permutation key, AEAD keys, the DH
//! exponent and what it agrees on, the signing scalar, Paillier's
//! `lambda`/`mu` — sits inside a `Secret<T>`. The wrapper is what makes
//! "a key never reaches a log, a metric or the wire" a property of the
//! types instead of a word list:
//!
//! * `Debug` prints `Secret<type>` and nothing else, so a holder may
//!   `#[derive(Debug)]` and cannot leak by doing so;
//! * there is no `Display`, no `PartialEq` (compare with
//!   [`Secret::ct_eq`]) and no `Copy`, so a key cannot be formatted,
//!   compared in variable time, or duplicated by assignment;
//! * the value is wiped when the wrapper drops, and every clone wipes
//!   itself;
//! * the only way to the bytes is [`Secret::expose`], a method the
//!   workspace's `clippy.toml` disallows everywhere but the few files
//!   that compute with a key and say so with an `expect`.
//!
//! What the wrapper cannot reach: a value moved *into* [`Secret::new`]
//! leaves its moved-from bytes wherever the caller built them, and moving
//! the wrapper itself is a plain copy whose source is not wiped. Build
//! byte keys with [`Secret::filled`] to avoid the first; the second is a
//! limit of the language, not something this type hides.

use deta_bignum::BigUint;

/// Erasure of a value's secret content, called once by [`Secret`]'s
/// `Drop`.
pub trait Wipe {
    /// Overwrites the secret content with zeros.
    fn wipe(&mut self);
}

/// Volatile zeroing: the stores survive even though nothing reads them.
fn wipe_bytes(bytes: &mut [u8]) {
    for b in bytes {
        // SAFETY: `b` is a valid, aligned, exclusive reference.
        unsafe { std::ptr::write_volatile(b, 0) };
    }
}

impl<const N: usize> Wipe for [u8; N] {
    fn wipe(&mut self) {
        wipe_bytes(self);
    }
}

/// For the transient buffers of a key derivation. Covers the bytes the
/// vector holds now, not what an earlier reallocation left behind: size
/// it once.
impl Wipe for Vec<u8> {
    fn wipe(&mut self) {
        wipe_bytes(self);
    }
}

impl Wipe for BigUint {
    fn wipe(&mut self) {
        self.zeroize();
    }
}

/// A value wiped on drop, redacted in `Debug`, and readable only through
/// [`Secret::expose`].
///
/// It cannot be printed:
///
/// ```compile_fail
/// let s = deta_crypto::Secret::new([7u8; 32]);
/// println!("{}", s);
/// ```
///
/// it moves rather than copies:
///
/// ```compile_fail
/// let s = deta_crypto::Secret::new([7u8; 32]);
/// let t = s;
/// let _ = s.expose();
/// ```
///
/// and `==` does not exist for it:
///
/// ```compile_fail
/// let a = deta_crypto::Secret::new([7u8; 32]);
/// let b = deta_crypto::Secret::new([7u8; 32]);
/// let _ = a == b;
/// ```
pub struct Secret<T: Wipe>(T);

impl<T: Wipe> Secret<T> {
    /// Wraps `value`. The caller's moved-from copy, if the compiler made
    /// one, is out of the wrapper's reach.
    pub fn new(value: T) -> Secret<T> {
        Secret(value)
    }

    /// The one way to the value.
    #[inline]
    pub fn expose(&self) -> &T {
        &self.0
    }
}

impl<const N: usize> Secret<[u8; N]> {
    /// Builds a byte secret inside the wrapper: `fill` writes into the
    /// zeroed array where it already is, so no filled array exists
    /// outside a `Secret`.
    pub fn filled(fill: impl FnOnce(&mut [u8; N])) -> Self {
        let mut secret = Secret([0u8; N]);
        fill(&mut secret.0);
        secret
    }

    /// Constant-time equality.
    pub fn ct_eq(&self, other: &Self) -> bool {
        crate::ct_eq(&self.0, &other.0)
    }
}

impl<T: Wipe> From<T> for Secret<T> {
    fn from(value: T) -> Secret<T> {
        Secret::new(value)
    }
}

impl<T: Wipe + Clone> Clone for Secret<T> {
    fn clone(&self) -> Secret<T> {
        Secret(self.0.clone())
    }
}

impl<T: Wipe> Drop for Secret<T> {
    fn drop(&mut self) {
        self.0.wipe();
    }
}

impl<T: Wipe> std::fmt::Debug for Secret<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Secret<{}>", std::any::type_name::<T>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::mem::ManuallyDrop;
    use std::rc::Rc;

    #[derive(Clone)]
    struct Probe(Rc<Cell<u32>>);

    impl Wipe for Probe {
        fn wipe(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn drop_wipes_exactly_once_and_each_clone_wipes_itself() {
        let wipes = Rc::new(Cell::new(0));
        let secret = Secret::new(Probe(wipes.clone()));
        assert_eq!(wipes.get(), 0);
        let twin = secret.clone();
        drop(secret);
        assert_eq!(wipes.get(), 1);
        drop(twin);
        assert_eq!(wipes.get(), 2);
    }

    #[test]
    fn byte_secret_is_zero_after_drop_in_place() {
        let mut slot = ManuallyDrop::new(Secret::filled(|k: &mut [u8; 32]| k.fill(0xA5)));
        assert_eq!(slot.0, [0xA5; 32]);
        // SAFETY: dropped once, here; `ManuallyDrop` never drops it again,
        // and the slot stays a valid `[u8; 32]` bit pattern to read.
        unsafe { ManuallyDrop::drop(&mut slot) };
        assert_eq!(slot.0, [0u8; 32]);
    }

    #[test]
    fn vec_and_biguint_wipe_to_zero() {
        let mut v = vec![9u8; 40];
        v.wipe();
        assert_eq!(v, [0u8; 40]);
        let mut n = BigUint::from_u64(0xdead_beef);
        n.wipe();
        assert!(n.is_zero());
    }

    #[test]
    fn debug_is_the_type_name() {
        let s = Secret::new([0xABu8; 4]);
        assert_eq!(format!("{s:?}"), "Secret<[u8; 4]>");
        assert_eq!(format!("{s:#?}"), "Secret<[u8; 4]>");
    }

    #[test]
    fn ct_eq_compares_contents() {
        let a = Secret::new([1u8; 32]);
        assert!(a.ct_eq(&a.clone()));
        assert!(!a.ct_eq(&Secret::new([2u8; 32])));
    }
}
