//! Property-based tests for the cryptographic primitives.

use deta_bignum::BigUint;
use deta_crypto::aead::{open_in_place, seal_in_place};
use deta_crypto::chacha;
use deta_crypto::dh::EphemeralSecret;
use deta_crypto::group::group;
use deta_crypto::poly1305::{poly1305, Poly1305};
use deta_crypto::sha256::{hkdf, hmac_sha256, sha256};
use deta_crypto::{open, seal, AeadError, AeadKey, DetRng, Nonce, Signature, SigningKey};
use deta_proptest::cases;

#[test]
fn sha256_is_deterministic_and_sensitive() {
    cases("sha256_is_deterministic_and_sensitive", 128, |g| {
        let data = g.bytes(0, 512);
        let a = sha256(&data);
        let b = sha256(&data);
        assert_eq!(a, b);
        if !data.is_empty() {
            let mut flipped = data.clone();
            flipped[0] ^= 1;
            assert_ne!(sha256(&flipped), a);
        }
    });
}

#[test]
fn hmac_keys_separate() {
    cases("hmac_keys_separate", 128, |g| {
        let msg = g.bytes(0, 128);
        let a = hmac_sha256(b"key-a", &msg);
        let b = hmac_sha256(b"key-b", &msg);
        assert_ne!(a, b);
    });
}

#[test]
fn hkdf_prefix_property() {
    cases("hkdf_prefix_property", 128, |g| {
        let salt = g.bytes(0, 32);
        let ikm = g.bytes(1, 64);
        let short = g.usize_in(1, 32);
        let extra = g.usize_in(1, 32);
        let long = hkdf(&salt, &ikm, b"ctx", short + extra);
        let shorter = hkdf(&salt, &ikm, b"ctx", short);
        assert_eq!(&long[..short], &shorter[..]);
    });
}

#[test]
fn wide_keystream_is_the_scalar_blocks_concatenated() {
    cases(
        "wide_keystream_is_the_scalar_blocks_concatenated",
        24,
        |g| {
            let key = g.array::<32>();
            let nonce = g.array::<12>();
            // Half the cases start within 16 of the top of the counter
            // space, so some lane (and some later call) must wrap to 0
            // exactly as the scalar `wrapping_add` does.
            let counter = if g.bool() {
                u32::MAX - g.u32() % 16
            } else {
                g.u32()
            };
            let scalar: Vec<u8> = (0..35u32)
                .flat_map(|i| chacha::block(&key, counter.wrapping_add(i), &nonce))
                .collect();

            // Every body this CPU has, called directly, and the dispatch.
            let mut wide = [0u8; chacha::WIDE_LEN];
            chacha::keystream8(&key, counter, &nonce, &mut wide);
            assert_eq!(wide[..], scalar[..chacha::WIDE_LEN]);
            let mut avx2 = [0u8; chacha::WIDE_LEN];
            if chacha::keystream8_avx2(&key, counter, &nonce, &mut avx2) {
                assert_eq!(avx2[..], scalar[..chacha::WIDE_LEN]);
            }
            let msg = g.bytes(2200, 2201);
            let want: Vec<u8> = msg.iter().zip(&scalar).map(|(m, k)| m ^ k).collect();
            let sixteen: [u8; chacha::WIDE16_LEN] = msg[..chacha::WIDE16_LEN].try_into().unwrap();
            let mut wide16 = sixteen;
            chacha::xor_keystream16(&key, counter, &nonce, &mut wide16);
            assert_eq!(wide16[..], want[..chacha::WIDE16_LEN]);
            let mut avx512 = sixteen;
            if chacha::xor_keystream16_avx512(&key, counter, &nonce, &mut avx512) {
                assert_eq!(avx512[..], want[..chacha::WIDE16_LEN]);
            }

            // Every length up to two sixteen-block chunks and a ragged
            // third.
            for len in 0..=2200 {
                let mut data = msg[..len].to_vec();
                chacha::xor_stream(&key, counter, &nonce, &mut data);
                assert_eq!(data, want[..len], "len={len} counter={counter:#x}");
            }
        },
    );
}

/// `r` clamped from all ones, and `s = 2^128 - 1`.
const ALL_ONES_KEY: [u8; 32] = [0xff; 32];

/// The tag of `msg` fed sixteen bytes at a time: no update is long enough
/// to reach the AVX-512F body, so this is the scalar body alone.
fn poly1305_scalar(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(key);
    for block in msg.chunks(16) {
        mac.update(block);
    }
    mac.finalize()
}

/// The tag of `msg` through the AVX-512F body, its first `head` bytes in
/// an update of their own so a partial block waits in front of the bulk
/// run; `None` on a CPU without AVX-512F.
fn poly1305_avx512(key: &[u8; 32], msg: &[u8], head: usize) -> Option<[u8; 16]> {
    let mut mac = Poly1305::new(key);
    let (first, rest) = msg.split_at(head.min(msg.len()));
    if !mac.update_avx512(first) {
        return None;
    }
    assert!(mac.update_avx512(rest));
    Some(mac.finalize())
}

#[test]
fn poly1305_wide_body_is_the_scalar_one() {
    cases("poly1305_wide_body_is_the_scalar_one", 64, |g| {
        let key = if g.bool() {
            ALL_ONES_KEY
        } else {
            g.array::<32>()
        };
        let len = g.usize_in(0, 4097);
        let msg = if g.bool() {
            vec![0xff; len]
        } else {
            g.bytes(len, len + 1)
        };
        let head = g.usize_in(1, 16);
        let want = poly1305_scalar(&key, &msg);
        assert_eq!(poly1305(&key, &msg), want, "dispatch, len={len}");
        if let Some(got) = poly1305_avx512(&key, &msg, head) {
            assert_eq!(got, want, "len={len} head={head}");
        }
    });
}

#[test]
fn poly1305_wide_body_at_every_length_to_4_kib_and_at_fragment_size() {
    // All-ones key and message: every limb of every step at its bound.
    let msg = vec![0xffu8; 1_356_856];
    for len in (0..=4096).chain([1_356_856]) {
        let head = 1 + len % 15;
        let want = poly1305_scalar(&ALL_ONES_KEY, &msg[..len]);
        match poly1305_avx512(&ALL_ONES_KEY, &msg[..len], head) {
            Some(got) => assert_eq!(got, want, "len={len} head={head}"),
            None => return, // this CPU has only the scalar body
        }
    }
}

#[test]
fn aead_roundtrip() {
    cases("aead_roundtrip", 128, |g| {
        let k = AeadKey::new(g.array::<32>());
        let n = Nonce::from_parts(g.u32(), g.u64());
        let aad = g.bytes(0, 64);
        let msg = g.bytes(0, 512);
        let sealed = seal(&k, &n, &aad, &msg);
        assert_eq!(open(&k, &n, &aad, &sealed).unwrap(), msg);
    });
}

#[test]
fn aead_tamper_detected() {
    cases("aead_tamper_detected", 128, |g| {
        let k = AeadKey::new(g.array::<32>());
        let msg = g.bytes(1, 128);
        let n = Nonce::from_parts(0, 0);
        let mut sealed = seal(&k, &n, b"", &msg);
        let idx = g.usize_in(0, sealed.len());
        sealed[idx] ^= 0x5a;
        assert!(open(&k, &n, b"", &sealed).is_err());
    });
}

#[test]
fn open_in_place_with_a_flipped_tag_leaves_the_record_alone() {
    cases(
        "open_in_place_with_a_flipped_tag_leaves_the_record_alone",
        16,
        |g| {
            // At least 4 KiB, so the MAC's bulk run is long: verification
            // still finishes before a byte is decrypted.
            let k = AeadKey::new(g.array::<32>());
            let n = Nonce::from_parts(g.u32(), g.u64());
            let mut record = g.bytes(4096, 20_000);
            let body = record.len();
            seal_in_place(&k, &n, b"deta-record", &mut record, 0);
            record[body + g.usize_in(0, 16)] ^= 1 << g.usize_in(0, 8);
            let arrived = record.clone();
            assert_eq!(
                open_in_place(&k, &n, b"deta-record", &mut record, 0),
                Err(AeadError::BadTag)
            );
            assert_eq!(record, arrived);
        },
    );
}

#[test]
fn signatures_verify_and_bind_message() {
    cases("signatures_verify_and_bind_message", 48, |g| {
        let sk = SigningKey::generate(&mut DetRng::from_u64(g.u64()));
        let vk = sk.verifying_key();
        let msg = g.bytes(0, 256);
        let sig = sk.sign(&msg);
        assert!(vk.verify(&msg, &sig));
        let mut other = msg.clone();
        other.push(0);
        assert!(!vk.verify(&other, &sig));
    });
}

#[test]
fn signature_serialization_total() {
    cases("signature_serialization_total", 48, |g| {
        let sk = SigningKey::generate(&mut DetRng::from_u64(g.u64()));
        let sig = sk.sign(&g.bytes(0, 64));
        let bytes = sig.to_bytes();
        let back = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
    });
}

#[test]
fn dh_agreement_symmetric() {
    cases("dh_agreement_symmetric", 48, |g| {
        let a_seed = g.u64();
        let b_seed = g.u64();
        let ctx = g.bytes(0, 32);
        let alice = EphemeralSecret::generate(&mut DetRng::from_u64(a_seed));
        let bob = EphemeralSecret::generate(&mut DetRng::from_u64(b_seed.wrapping_add(1) | 1));
        let pa = alice.public_key();
        let pb = bob.public_key();
        let ka = alice.agree(&pb, &ctx).unwrap();
        let kb = bob.agree(&pa, &ctx).unwrap();
        assert!(ka.ct_eq(&kb));
    });
}

/// A scalar of up to 256 bits from 32 drawn bytes.
fn scalar(g: &mut deta_proptest::Gen) -> BigUint {
    BigUint::from_bytes_be(&g.array::<32>())
}

#[test]
fn group_powers_match_modpow() {
    // `BigUint::modpow` (a Montgomery context built per call, windows of
    // the exponent's own width) is the oracle for the fixed-base table
    // and for the full-width variable-base power.
    let gr = group();
    let one = BigUint::one();
    let mut edges = vec![
        BigUint::zero(),
        one.clone(),
        &gr.q - &one,
        &one.shl_bits(256) - &one,
    ];
    // One set bit in every window, at each of the four offsets.
    for offset in 0..4 {
        let mut e = BigUint::zero();
        for w in 0..64 {
            e = &e + &one.shl_bits(4 * w + offset);
        }
        edges.push(e);
    }
    let base = gr.pow_g(&BigUint::from_u64(0xde7a));
    for e in &edges {
        assert_eq!(gr.pow_g(e), gr.g.modpow(e, &gr.p), "pow_g({e})");
        assert_eq!(gr.pow(&base, e), base.modpow(e, &gr.p), "pow(_, {e})");
    }
    cases("group_powers_match_modpow", 48, |g| {
        let e = scalar(g);
        // A scalar of any width up to 256 bits, not just the full one.
        let e = e.shr_bits(g.usize_in(0, 256));
        assert_eq!(gr.pow_g(&e), gr.g.modpow(&e, &gr.p), "pow_g({e})");
        let b = scalar(g);
        assert_eq!(gr.pow(&b, &e), b.modpow(&e, &gr.p), "pow({b}, {e})");
    });
}

#[test]
fn legendre_membership_matches_the_subgroup_power() {
    // The old check, kept as the oracle: `y` in `[2, p)` with `y^q = 1`.
    let gr = group();
    let oracle =
        |y: &BigUint| !y.is_zero() && !y.is_one() && y < &gr.p && y.modpow(&gr.q, &gr.p).is_one();
    let one = BigUint::one();
    // 11 is a non-residue mod p (so is 2, since p = 3 mod 8).
    let eleven = BigUint::from_u64(11);
    assert!(!eleven.modpow(&gr.q, &gr.p).is_one());
    for y in [
        BigUint::zero(),
        one.clone(),
        BigUint::from_u64(2),
        BigUint::from_u64(4),
        &gr.p - &one,
        gr.p.clone(),
        eleven,
    ] {
        assert_eq!(gr.is_valid_element(&y), oracle(&y), "y = {y}");
    }
    cases("legendre_membership_matches_the_subgroup_power", 128, |g| {
        // Half the draws are squares, so both verdicts are met often.
        let y = scalar(g);
        let y = if g.bool() { y.mul_mod(&y, &gr.p) } else { y };
        assert_eq!(gr.is_valid_element(&y), oracle(&y), "y = {y}");
    });
}

#[test]
fn rng_gen_range_uniformish() {
    cases("rng_gen_range_uniformish", 24, |g| {
        // Every residue must be reachable and none wildly overrepresented.
        let mut rng = DetRng::from_u64(g.u64());
        let bound = g.u64_in(1, 50);
        let n = 2000usize;
        let mut counts = vec![0usize; bound as usize];
        for _ in 0..n {
            counts[rng.gen_range(bound) as usize] += 1;
        }
        let expected = n as f64 / bound as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) < expected * 2.0 + 30.0,
                "residue {i} overrepresented: {c} vs {expected}"
            );
        }
    });
}

#[test]
fn rng_forks_are_independent() {
    cases("rng_forks_are_independent", 128, |g| {
        let seed = g.u64();
        let l1 = g.u8();
        let mut l2 = g.u8();
        if l1 == l2 {
            l2 = l2.wrapping_add(1);
        }
        let root = DetRng::from_u64(seed);
        let a = root.fork(&[l1]).next_u64();
        let b = root.fork(&[l2]).next_u64();
        assert_ne!(a, b);
    });
}

/// Every `fill_gaussian` body the host has, by name: the portable one
/// always, the AVX-512F one when the CPU reports AVX-512F.
fn gaussian_bodies(rng: &DetRng, len: usize) -> Vec<(&'static str, Vec<f32>, DetRng)> {
    let mut bodies = Vec::new();
    let (mut portable, mut out) = (rng.clone(), vec![f32::NAN; len]);
    portable.fill_gaussian_portable(&mut out);
    bodies.push(("portable", out, portable));
    let (mut avx512, mut out) = (rng.clone(), vec![f32::NAN; len]);
    if avx512.fill_gaussian_avx512(&mut out) {
        bodies.push(("avx512", out, avx512));
    }
    let (mut chosen, mut out) = (rng.clone(), vec![f32::NAN; len]);
    chosen.fill_gaussian(&mut out);
    bodies.push(("dispatched", out, chosen));
    bodies
}

#[test]
fn gaussian_fill_is_the_scalar_draws_from_any_stream_position() {
    const LENGTHS: [usize; 13] = [0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 3072, 100_000];
    cases(
        "gaussian_fill_is_the_scalar_draws_from_any_stream_position",
        64,
        |g| {
            let mut rng = DetRng::from_u64(g.u64());
            // Half the cases start a few words before a refill, so the
            // first group of eight straddles it; `next_u32` leaves the
            // stream 4 bytes off a draw's 16.
            if g.bool() {
                let mut skip = vec![0u8; g.usize_in(1024 - 160, 1023)];
                rng.fill_bytes(&mut skip);
            }
            for _ in 0..g.usize_in(0, 15) {
                if g.bool() {
                    rng.next_u64();
                } else {
                    rng.next_u32();
                }
            }
            for len in LENGTHS {
                let mut scalar = rng.clone();
                let want: Vec<u32> = (0..len)
                    .map(|_| (scalar.next_gaussian() as f32).to_bits())
                    .collect();
                let next = scalar.next_u64();
                for (body, out, mut after) in gaussian_bodies(&rng, len) {
                    let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                    assert!(got == want, "{body}: draws differ at length {len}");
                    assert_eq!(after.next_u64(), next, "{body}: stream position");
                }
            }
        },
    );
}

/// The Fisher–Yates loop `DetRng::shuffle` must reproduce: one
/// `gen_range` per step, from the last index down.
fn shuffle_oracle<T>(rng: &mut DetRng, slice: &mut [T]) {
    for i in (1..slice.len()).rev() {
        let j = rng.gen_range(i as u64 + 1) as usize;
        slice.swap(i, j);
    }
}

#[test]
fn shuffle_is_the_gen_range_loop_from_any_stream_position() {
    // Around the batch (16 words), a refill (128 words) and two.
    const LENGTHS: [usize; 14] = [0, 1, 2, 16, 17, 18, 33, 127, 128, 129, 255, 256, 257, 3000];
    cases(
        "shuffle_is_the_gen_range_loop_from_any_stream_position",
        32,
        |g| {
            let mut rng = DetRng::from_u64(g.u64());
            // Half the cases start a few words before a refill, so a batch
            // straddles it; draws of 4 bytes and of 1–7 leave the stream
            // off a word's 8.
            if g.bool() {
                let mut skip = vec![0u8; g.usize_in(1024 - 160, 1023)];
                rng.fill_bytes(&mut skip);
            }
            for _ in 0..g.usize_in(0, 15) {
                let mut bytes = [0u8; 8];
                let width = [8, 4, g.usize_in(1, 7)][g.usize_in(0, 2)];
                rng.fill_bytes(&mut bytes[..width]);
            }
            let any = g.usize_in(0, 100_000);
            for len in LENGTHS.into_iter().chain([any]) {
                let mut oracle = rng.clone();
                let mut want: Vec<u32> = (0..len as u32).collect();
                shuffle_oracle(&mut oracle, &mut want);
                let next = oracle.next_u64();

                let mut batched = rng.clone();
                assert!(batched.permutation(len) == want, "permutation of {len}");
                assert_eq!(batched.next_u64(), next, "stream position after {len}");

                // The mapper's case: labels with repeats, two bytes each.
                let labels: Vec<u16> = (0..len).map(|i| (i % 3) as u16).collect();
                let (mut oracle, mut batched) = (rng.clone(), rng.clone());
                let (mut want, mut got) = (labels.clone(), labels);
                shuffle_oracle(&mut oracle, &mut want);
                batched.shuffle(&mut got);
                assert!(got == want, "labels of {len}");
                assert_eq!(batched.next_u64(), oracle.next_u64(), "labels of {len}");
            }
        },
    );
}
