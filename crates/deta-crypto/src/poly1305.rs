//! The Poly1305 one-time authenticator (RFC 8439).
//!
//! The 130-bit accumulator and the clamped `r` are held in three limbs of
//! 44, 44 and 42 bits, so one multiplication modulo `2^130 - 5` is nine
//! 64x64 -> 128-bit products. Whole blocks are absorbed two at a time as
//! `(h + m1) * r^2 + m2 * r`: the same polynomial, but the two
//! multiplications do not wait for each other and share one carry pass.

/// Tag length in bytes.
pub const TAG_LEN: usize = 16;
/// Key length in bytes.
pub const KEY_LEN: usize = 32;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// A value modulo `2^130 - 5` in 44/44/42-bit limbs. Limbs may carry a
/// few excess bits between operations; [`Poly1305::finalize`] removes
/// them.
type Limbs = [u64; 3];

/// Incremental Poly1305 MAC state.
pub struct Poly1305 {
    /// Clamped `r`.
    r: Limbs,
    /// `r^2`, for absorbing two blocks per step.
    r2: Limbs,
    /// Accumulator `h`.
    h: Limbs,
    /// Encrypted nonce `s` (added at finalization).
    s: u128,
    /// Buffered partial block.
    buf: [u8; 16],
    buf_len: usize,
}

/// A 16-byte little-endian string as limbs, with `hibit` (1 for a full
/// message block, 0 for the padded last one and for `r`) placed at bit
/// 128.
#[inline]
fn block_limbs(block: &[u8], hibit: u64) -> Limbs {
    let v = u128::from_le_bytes(block.try_into().expect("a 16-byte block"));
    let (t0, t1) = (v as u64, (v >> 64) as u64);
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        (t1 >> 24) | (hibit << 40),
    ]
}

/// The unreduced limb products of `a * b`. A product that lands at or
/// above limb 3 wraps with a factor 5; the extra 4 realigns 2^132 (three
/// 44-bit limbs) with 2^130. Limbs below 2^46 keep each sum of three
/// products below 2^98, so two results can be added before [`carry`].
#[inline]
fn mul(a: Limbs, b: Limbs) -> [u128; 3] {
    let [a0, a1, a2] = a.map(u128::from);
    let [b0, b1, b2] = b.map(u128::from);
    let s1 = b1 * 20;
    let s2 = b2 * 20;
    [
        a0 * b0 + a1 * s2 + a2 * s1,
        a0 * b1 + a1 * b0 + a2 * s2,
        a0 * b2 + a1 * b1 + a2 * b0,
    ]
}

/// Partial carry propagation back to limbs: limb 1 may keep a few excess
/// bits.
#[inline]
fn carry(d: [u128; 3]) -> Limbs {
    let d1 = d[1] + (d[0] >> 44);
    let d2 = d[2] + (d1 >> 44);
    let h0 = (d[0] as u64 & MASK44) + (d2 >> 42) as u64 * 5;
    let h1 = (d1 as u64 & MASK44) + (h0 >> 44);
    [h0 & MASK44, h1, d2 as u64 & MASK42]
}

#[inline]
fn add(a: Limbs, b: Limbs) -> Limbs {
    [a[0] + b[0], a[1] + b[1], a[2] + b[2]]
}

impl Poly1305 {
    /// Creates a MAC state from a 32-byte one-time key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        // Clamp r per the specification, limb by limb.
        let [t0, t1, t2] = block_limbs(&key[..16], 0);
        let r = [
            t0 & 0xffc_0fff_ffff,
            t1 & 0xfff_ffc0_ffff,
            t2 & 0x00f_ffff_fc0f,
        ];
        Poly1305 {
            r,
            r2: carry(mul(r, r)),
            h: [0; 3],
            s: u128::from_le_bytes(key[16..].try_into().expect("32 - 16 bytes")),
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 16 {
                return self;
            }
            self.h = carry(mul(add(self.h, block_limbs(&self.buf, 1)), self.r));
            self.buf_len = 0;
        }
        let mut h = self.h;
        let mut pairs = data.chunks_exact(32);
        for pair in pairs.by_ref() {
            let (m1, m2) = pair.split_at(16);
            let first = mul(add(h, block_limbs(m1, 1)), self.r2);
            let second = mul(block_limbs(m2, 1), self.r);
            h = carry([
                first[0] + second[0],
                first[1] + second[1],
                first[2] + second[2],
            ]);
        }
        let mut rest = pairs.remainder();
        if rest.len() >= 16 {
            h = carry(mul(add(h, block_limbs(&rest[..16], 1)), self.r));
            rest = &rest[16..];
        }
        self.h = h;
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
        self
    }

    /// Finalizes the MAC and returns the 16-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            // Pad the final partial block: append 0x01 then zeros, hibit 0.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.h = carry(mul(add(self.h, block_limbs(&block, 0)), self.r));
        }
        // Fully carry h; two passes absorb the 5*carry fed back into h0.
        let [mut h0, mut h1, mut h2] = self.h;
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }
        h2 += h1 >> 44;
        h1 &= MASK44;

        // g = h + 5 - 2^130, i.e. h - p. If that did not borrow (bit 42 of
        // the top limb is set before the subtraction), h >= p and g is the
        // reduced value; otherwise keep h.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = h2 + (g1 >> 44);
        if g2 >> 42 != 0 {
            h0 = g0 & MASK44;
            h1 = g1 & MASK44;
            h2 = g2 & MASK42;
        }

        // Serialize modulo 2^128 and add s modulo 2^128.
        let h = u128::from(h0) | (u128::from(h1) << 44) | (u128::from(h2) << 88);
        h.wrapping_add(self.s).to_le_bytes()
    }
}

/// One-shot Poly1305 tag of `msg` under `key`.
pub fn poly1305(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
    let mut p = Poly1305::new(key);
    p.update(msg);
    p.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc8439_vector() {
        // RFC 8439 section 2.5.2.
        let key: [u8; 32] =
            unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let msg = b"Cryptographic Forum Research Group";
        assert_eq!(
            hex(&poly1305(&key, msg)),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
    }

    /// RFC 8439 Appendix A.3: `(key, message, tag)`, all hex. Vectors 5
    /// to 11 are built to hit the reduction corners: an accumulator left
    /// at or just past `2^130 - 5`, carries that ripple through every
    /// limb, and a final add of `s` that overflows 128 bits.
    const A3: &[(&str, &str, &str)] = &[
        (
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000\
             0000000000000000000000000000000000000000000000000000000000000000",
            "00000000000000000000000000000000",
        ),
        // #4, the Jabberwocky stanza (127 bytes).
        (
            "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0",
            "2754776173206272696c6c69672c20616e642074686520736c6974687920746f\
             7665730a446964206779726520616e642067696d626c6520696e207468652077\
             6162653a0a416c6c206d696d737920776572652074686520626f726f676f7665\
             732c0a416e6420746865206d6f6d65207261746873206f757467726162652e",
            "4541669a7eaaee61e708dc7cbcc5eb62",
        ),
        // #5: h ends at 2^130 - 5 + 3 and must still be reduced.
        (
            "0200000000000000000000000000000000000000000000000000000000000000",
            "ffffffffffffffffffffffffffffffff",
            "03000000000000000000000000000000",
        ),
        // #6: h + s overflows 2^128.
        (
            "02000000000000000000000000000000ffffffffffffffffffffffffffffffff",
            "02000000000000000000000000000000",
            "03000000000000000000000000000000",
        ),
        // #7: carry out of the low limbs across three blocks.
        (
            "0100000000000000000000000000000000000000000000000000000000000000",
            "fffffffffffffffffffffffffffffffff0ffffffffffffffffffffffffffffff\
             11000000000000000000000000000000",
            "05000000000000000000000000000000",
        ),
        // #8: the accumulator lands exactly on 2^130 - 5, i.e. zero.
        (
            "0100000000000000000000000000000000000000000000000000000000000000",
            "fffffffffffffffffffffffffffffffffbfefefefefefefefefefefefefefefe\
             01010101010101010101010101010101",
            "00000000000000000000000000000000",
        ),
        // #9: 2^130 - 5 - 3 must not be reduced.
        (
            "0200000000000000000000000000000000000000000000000000000000000000",
            "fdffffffffffffffffffffffffffffff",
            "faffffffffffffffffffffffffffffff",
        ),
        // #10 and #11: a carry into (and out of) bit 128 mid-message.
        (
            "0100000000000000040000000000000000000000000000000000000000000000",
            "e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000\
             0000000000000000000000000000000001000000000000000000000000000000",
            "14000000000000005500000000000000",
        ),
        (
            "0100000000000000040000000000000000000000000000000000000000000000",
            "e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000\
             00000000000000000000000000000000",
            "13000000000000000000000000000000",
        ),
    ];

    #[test]
    fn rfc8439_appendix_a3_vectors() {
        for (i, (key, msg, tag)) in A3.iter().enumerate() {
            let key: [u8; 32] = unhex(key).try_into().unwrap();
            assert_eq!(hex(&poly1305(&key, &unhex(msg))), *tag, "vector {i}");
        }
    }

    #[test]
    fn empty_message() {
        // With r = 0 the accumulator stays 0 and the tag equals s.
        let mut key = [0u8; 32];
        key[16..].copy_from_slice(&[0xabu8; 16]);
        assert_eq!(poly1305(&key, b""), [0xabu8; 16]);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 7 + 1) as u8);
        let msg: Vec<u8> = (0..123u8).collect();
        let oneshot = poly1305(&key, &msg);
        for chunk in [1usize, 5, 15, 16, 17, 40] {
            let mut p = Poly1305::new(&key);
            for c in msg.chunks(chunk) {
                p.update(c);
            }
            assert_eq!(p.finalize(), oneshot, "chunk={chunk}");
        }
    }

    #[test]
    fn tag_depends_on_message() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8 + 1);
        assert_ne!(poly1305(&key, b"hello"), poly1305(&key, b"hellp"));
        assert_ne!(poly1305(&key, b"hello"), poly1305(&key, b"hello\0"));
    }

    #[test]
    fn tag_depends_on_key() {
        let k1: [u8; 32] = core::array::from_fn(|i| i as u8 + 1);
        let k2: [u8; 32] = core::array::from_fn(|i| i as u8 + 2);
        assert_ne!(poly1305(&k1, b"hello"), poly1305(&k2, b"hello"));
    }
}
