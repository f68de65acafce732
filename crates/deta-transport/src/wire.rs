//! The one place that decides how a length-prefixed field is written
//! and how untrusted bytes are read.
//!
//! Every message layer in the workspace — `deta_core::wire::Msg`,
//! `deta_runtime::CtlMsg`, `deta_socket::SocketFrame` and the simulated
//! breach-memory records — is a tag byte followed by little-endian
//! fixed-width fields and length-prefixed variable ones. The layers own
//! their tags and field orders; the primitives live here, so a bounds
//! check or an allocation guard is written (and fixed) once.
//!
//! Both directions are total. A [`Reader`] never panics and never
//! allocates for a count the buffer cannot back ([`Reader::count`]); the
//! `put_*` writers refuse a field too long for its prefix with
//! [`TooLong`] instead of truncating the prefix, and write nothing when
//! they refuse.

use std::fmt;

/// The bytes are not an encoding of the expected message: truncated,
/// over-long, an impossible count, a bad tag or flag, or invalid UTF-8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed;

impl fmt::Display for Malformed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire bytes")
    }
}

impl std::error::Error for Malformed {}

/// A variable-length field does not fit its length prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooLong;

impl fmt::Display for TooLong {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field exceeds its length prefix")
    }
}

impl std::error::Error for TooLong {}

/// Writes `len` as a `u32` little-endian prefix or element count.
#[inline]
pub fn put_len(out: &mut Vec<u8>, len: usize) -> Result<(), TooLong> {
    let len = u32::try_from(len).map_err(|_| TooLong)?;
    out.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Writes `b` behind a `u32` length prefix.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) -> Result<(), TooLong> {
    put_len(out, b.len())?;
    out.extend_from_slice(b);
    Ok(())
}

/// Writes `s` behind a `u16` length prefix (endpoint names).
#[inline]
pub fn put_str16(out: &mut Vec<u8>, s: &str) -> Result<(), TooLong> {
    let len = u16::try_from(s.len()).map_err(|_| TooLong)?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Writes `v` as a `u32` count and the values, little-endian, growing
/// `out` once.
pub fn put_f32s(out: &mut Vec<u8>, v: &[f32]) -> Result<(), TooLong> {
    put_f32s_from(out, v.iter().copied())
}

/// [`put_f32s`] for values that are computed as they are written (a
/// gather through a permutation), so they need no slice of their own.
pub fn put_f32s_from(
    out: &mut Vec<u8>,
    values: impl ExactSizeIterator<Item = f32>,
) -> Result<(), TooLong> {
    put_len(out, values.len())?;
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    for (slot, x) in out[start..].chunks_exact_mut(4).zip(values) {
        slot.copy_from_slice(&x.to_le_bytes());
    }
    Ok(())
}

/// Bounds-checked sequential reader over an untrusted buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far: the offset of the next field in the buffer.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The next `n` bytes, borrowed from the buffer.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Malformed> {
        let end = self.pos.checked_add(n).ok_or(Malformed)?;
        let s = self.buf.get(self.pos..end).ok_or(Malformed)?;
        self.pos = end;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Malformed> {
        self.take(N)?.try_into().map_err(|_| Malformed)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Malformed> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Malformed> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Malformed> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Malformed> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A little-endian `f32`.
    #[inline]
    pub fn f32(&mut self) -> Result<f32, Malformed> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// A little-endian `f64`.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Malformed> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A flag byte: `0` or `1`, nothing else.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, Malformed> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Malformed),
        }
    }

    /// A `u32` element count, rejected unless the rest of the buffer can
    /// hold that many entries of at least `min_entry_bytes` each — so a
    /// caller may allocate for the count it gets back. The allocation
    /// guard for every repeated field; `min_entry_bytes` is the entry's
    /// fixed part (its own prefixes and fixed-width fields).
    #[inline]
    pub fn count(&mut self, min_entry_bytes: usize) -> Result<usize, Malformed> {
        let n = usize::try_from(self.u32()?).map_err(|_| Malformed)?;
        let need = n.checked_mul(min_entry_bytes).ok_or(Malformed)?;
        if need > self.buf.len() - self.pos {
            return Err(Malformed);
        }
        Ok(n)
    }

    /// A `u32`-prefixed byte string, borrowed.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], Malformed> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// A `u32`-prefixed UTF-8 string, borrowed.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, Malformed> {
        std::str::from_utf8(self.bytes()?).map_err(|_| Malformed)
    }

    /// A `u16`-prefixed UTF-8 string, borrowed (see [`put_str16`]).
    #[inline]
    pub fn str16(&mut self) -> Result<&'a str, Malformed> {
        let n = usize::from(self.u16()?);
        std::str::from_utf8(self.take(n)?).map_err(|_| Malformed)
    }

    /// A `u32` count and that many little-endian `f32`s: one bounds
    /// check, then a bulk conversion.
    pub fn f32s(&mut self) -> Result<Vec<f32>, Malformed> {
        let n = self.count(4)?;
        let raw = self.take(4 * n)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Succeeds only when every byte has been consumed.
    #[inline]
    pub fn finish(self) -> Result<(), Malformed> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Malformed)
        }
    }
}

#[cfg(test)]
mod tests {
    // What only this module can reach. The laws every decoder built on
    // it obeys (round trip, truncation, trailing bytes, allocation) are
    // in `tests/wire_laws.rs` at the workspace root.
    use super::*;

    #[test]
    fn writers_refuse_oversize_fields_and_write_nothing() {
        let mut out = vec![0xAA];
        let long = "x".repeat(usize::from(u16::MAX) + 1);
        assert_eq!(put_str16(&mut out, &long), Err(TooLong));
        assert_eq!(out, [0xAA]);
        assert_eq!(put_str16(&mut out, &long[1..]), Ok(()));
        assert_eq!(out.len(), 1 + 2 + usize::from(u16::MAX));
        if usize::BITS > 32 {
            let mut out = Vec::new();
            assert_eq!(put_len(&mut out, 1 << 32), Err(TooLong));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn a_take_that_would_overflow_the_cursor_is_malformed() {
        // `pos + n` with n near usize::MAX wraps; an unchecked add would
        // panic in debug builds and pass the bounds test in release.
        let buf = [0u8; 8];
        let mut r = Reader::new(&buf);
        assert_eq!(r.take(3), Ok(&buf[..3]));
        assert_eq!(r.take(usize::MAX), Err(Malformed));
        assert_eq!(r.take(usize::MAX - 2), Err(Malformed));
        // A failed read consumes nothing.
        assert_eq!(r.take(5), Ok(&buf[3..]));
        assert_eq!(r.take(1), Err(Malformed));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn count_is_bounded_by_what_the_buffer_can_hold() {
        let mut buf = 3u32.to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::new(&buf).count(4), Ok(3));
        assert_eq!(Reader::new(&buf).count(5), Err(Malformed));
        // An entry of no fixed size bounds nothing, by the caller's choice.
        assert_eq!(Reader::new(&buf).count(0), Ok(3));
        let mut bomb = u32::MAX.to_le_bytes().to_vec();
        bomb.extend_from_slice(&[0; 64]);
        assert_eq!(Reader::new(&bomb).count(1), Err(Malformed));
        assert_eq!(Reader::new(&bomb).count(usize::MAX), Err(Malformed));
        assert_eq!(Reader::new(&bomb).bytes(), Err(Malformed));
        assert_eq!(Reader::new(&bomb).f32s(), Err(Malformed));
        assert_eq!(Reader::new(&bomb[..3]).count(1), Err(Malformed));
    }

    #[test]
    fn invalid_utf8_and_flags_are_malformed() {
        assert_eq!(Reader::new(&[2, 0, 0, 0, 0xff, 0xfe]).str(), Err(Malformed));
        assert_eq!(Reader::new(&[2, 0, 0xff, 0xfe]).str16(), Err(Malformed));
        assert_eq!(Reader::new(&[2]).bool(), Err(Malformed));
    }
}
