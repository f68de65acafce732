//! The ChaCha20 stream cipher (RFC 8439).

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;
/// Keystream block length in bytes.
pub const BLOCK_LEN: usize = 64;

/// Applies the ChaCha quarter round to four state words.
#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The cipher's initial state: constants, key, block counter, nonce.
fn initial_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    // "expand 32-byte k" constants.
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap());
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().unwrap());
    }
    state
}

/// Computes one 64-byte ChaCha20 keystream block.
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    let state = initial_state(key, counter, nonce);
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Blocks produced by one [`keystream8`] call.
pub const WIDE_BLOCKS: usize = 8;
/// Bytes produced by one [`keystream8`] call.
pub const WIDE_LEN: usize = WIDE_BLOCKS * BLOCK_LEN;

/// Computes the eight keystream blocks `counter`, `counter + 1`, …,
/// `counter + 7` (block counters wrap modulo 2^32, as [`block`]'s do).
///
/// There are exactly two bodies: an AVX2 one that computes the eight
/// blocks in the lanes of 256-bit vectors, taken whenever the running
/// CPU reports AVX2, and [`block`] called eight times everywhere else.
/// [`block`] is also the reference the AVX2 body is tested against.
pub fn keystream8(
    key: &[u8; KEY_LEN],
    counter: u32,
    nonce: &[u8; NONCE_LEN],
    out: &mut [u8; WIDE_LEN],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2::keystream8(key, counter, nonce, out) {
        return;
    }
    for (i, chunk) in out.chunks_exact_mut(BLOCK_LEN).enumerate() {
        chunk.copy_from_slice(&block(key, counter.wrapping_add(i as u32), nonce));
    }
}

/// The eight-lane AVX2 keystream body; the crate's only cipher `unsafe`.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{BLOCK_LEN, KEY_LEN, NONCE_LEN, WIDE_LEN};
    use core::arch::x86_64::*;

    /// Fills `out` and returns `true` when the CPU has AVX2; otherwise
    /// leaves `out` untouched and returns `false`.
    pub(super) fn keystream8(
        key: &[u8; KEY_LEN],
        counter: u32,
        nonce: &[u8; NONCE_LEN],
        out: &mut [u8; WIDE_LEN],
    ) -> bool {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: `kernel` requires AVX2, which the line above just
        // observed on the CPU this thread is running on.
        unsafe { kernel(key, counter, nonce, out) };
        true
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl<const L: i32, const R: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<L>(x), _mm256_srli_epi32::<R>(x))
    }

    /// The quarter round on word `a`/`b`/`c`/`d` of all eight blocks.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn quarter_round(v: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        // Byte shuffles that rotate every 32-bit lane left by 16 and 8.
        let rot16 = _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11,
            8, 9, 14, 15, 12, 13,
        );
        let rot8 = _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, 3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9,
            10, 15, 12, 13, 14,
        );
        v[a] = _mm256_add_epi32(v[a], v[b]);
        v[d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[d], v[a]), rot16);
        v[c] = _mm256_add_epi32(v[c], v[d]);
        v[b] = rotl::<12, 20>(_mm256_xor_si256(v[b], v[c]));
        v[a] = _mm256_add_epi32(v[a], v[b]);
        v[d] = _mm256_shuffle_epi8(_mm256_xor_si256(v[d], v[a]), rot8);
        v[c] = _mm256_add_epi32(v[c], v[d]);
        v[b] = rotl::<7, 25>(_mm256_xor_si256(v[b], v[c]));
    }

    /// Transposes an 8x8 matrix of 32-bit words held as eight row vectors.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose8(r: &[__m256i]) -> [__m256i; 8] {
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }

    /// Vector `i` holds state word `i` of all eight blocks, one block per
    /// 32-bit lane; the blocks differ only in the counter word.
    #[target_feature(enable = "avx2")]
    fn kernel(
        key: &[u8; KEY_LEN],
        counter: u32,
        nonce: &[u8; NONCE_LEN],
        out: &mut [u8; WIDE_LEN],
    ) {
        let state = super::initial_state(key, counter, nonce);
        let mut init = state.map(|w| _mm256_set1_epi32(w as i32));
        // Lane-wise 32-bit adds wrap, exactly like the scalar counter.
        init[12] = _mm256_add_epi32(init[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        let mut v = init;
        for _ in 0..10 {
            quarter_round(&mut v, 0, 4, 8, 12);
            quarter_round(&mut v, 1, 5, 9, 13);
            quarter_round(&mut v, 2, 6, 10, 14);
            quarter_round(&mut v, 3, 7, 11, 15);
            quarter_round(&mut v, 0, 5, 10, 15);
            quarter_round(&mut v, 1, 6, 11, 12);
            quarter_round(&mut v, 2, 7, 8, 13);
            quarter_round(&mut v, 3, 4, 9, 14);
        }
        for (w, i) in v.iter_mut().zip(init.iter()) {
            *w = _mm256_add_epi32(*w, *i);
        }
        // After the transposes, `lo[b]` / `hi[b]` are words 0..8 / 8..16
        // of block `b`, i.e. the two halves of its 64 output bytes.
        let lo = transpose8(&v[..8]);
        let hi = transpose8(&v[8..]);
        for (b, block) in out.chunks_exact_mut(BLOCK_LEN).enumerate() {
            let (first, second) = block.split_at_mut(BLOCK_LEN / 2);
            // SAFETY: `first` and `second` are each exactly 32 writable
            // bytes (BLOCK_LEN / 2), and `storeu` has no alignment
            // requirement.
            unsafe {
                _mm256_storeu_si256(first.as_mut_ptr().cast(), lo[b]);
                _mm256_storeu_si256(second.as_mut_ptr().cast(), hi[b]);
            }
        }
    }
}

/// Encrypts or decrypts `data` in place (XOR with the keystream starting at
/// block `counter`).
pub fn xor_stream(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
    let mut ctr = counter;
    let mut ks = [0u8; WIDE_LEN];
    for chunk in data.chunks_mut(WIDE_LEN) {
        keystream8(key, ctr, nonce, &mut ks);
        // Whole 64-bit words first, then the at most seven odd bytes.
        let (words, tail) = chunk.split_at_mut(chunk.len() & !7);
        let (ks_words, ks_tail) = ks.split_at(words.len());
        for (d, k) in words.chunks_exact_mut(8).zip(ks_words.chunks_exact(8)) {
            let x = u64::from_ne_bytes((&*d).try_into().expect("chunks_exact(8)"))
                ^ u64::from_ne_bytes(k.try_into().expect("chunks_exact(8)"));
            d.copy_from_slice(&x.to_ne_bytes());
        }
        for (d, k) in tail.iter_mut().zip(ks_tail) {
            *d ^= k;
        }
        ctr = ctr.wrapping_add(WIDE_BLOCKS as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 section 2.3.2 block function test vector.
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let out = block(&key, 1, &nonce);
        assert_eq!(
            hex(&out),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 section 2.4.2 cipher test vector (first 16 bytes).
        let mut key = [0u8; KEY_LEN];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut msg = b"Ladies and Gentlemen of the class of '99: If I could offer you \
                        only one tip for the future, sunscreen would be it."
            .to_vec();
        xor_stream(&key, 1, &nonce, &mut msg);
        assert_eq!(hex(&msg[..16]), "6e2e359a2568f98041ba0728dd0d6981");
    }

    #[test]
    fn xor_roundtrip() {
        let key = [7u8; KEY_LEN];
        let nonce = [3u8; NONCE_LEN];
        let original: Vec<u8> = (0..200u8).collect();
        let mut data = original.clone();
        xor_stream(&key, 0, &nonce, &mut data);
        assert_ne!(data, original);
        xor_stream(&key, 0, &nonce, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_counters_differ() {
        let key = [1u8; KEY_LEN];
        let nonce = [2u8; NONCE_LEN];
        assert_ne!(block(&key, 0, &nonce), block(&key, 1, &nonce));
    }

    #[test]
    fn different_nonces_differ() {
        let key = [1u8; KEY_LEN];
        assert_ne!(
            block(&key, 0, &[0u8; NONCE_LEN]),
            block(&key, 0, &[1u8; NONCE_LEN])
        );
    }

    #[test]
    fn partial_block_xor() {
        // Streams crossing block boundaries must be consistent with a single
        // full-buffer XOR.
        let key = [9u8; KEY_LEN];
        let nonce = [4u8; NONCE_LEN];
        let mut whole = vec![0u8; 150];
        xor_stream(&key, 5, &nonce, &mut whole);
        let mut first = vec![0u8; 64];
        let mut second = vec![0u8; 86];
        xor_stream(&key, 5, &nonce, &mut first);
        xor_stream(&key, 6, &nonce, &mut second);
        assert_eq!(&whole[..64], &first[..]);
        assert_eq!(&whole[64..], &second[..]);
    }
}
