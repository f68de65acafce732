//! Property-based tests for the cryptographic primitives.

use deta_crypto::chacha;
use deta_crypto::dh::EphemeralSecret;
use deta_crypto::sha256::{hkdf, hmac_sha256, sha256};
use deta_crypto::{open, seal, AeadKey, DetRng, Nonce, Signature, SigningKey};
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
            // Half the cases start within 8 of the top of the counter space,
            // so some lane (and some later call) must wrap to 0 exactly as
            // the scalar `wrapping_add` does.
            let counter = if g.bool() {
                u32::MAX - g.u32() % 9
            } else {
                g.u32()
            };
            let scalar: Vec<u8> = (0..18u32)
                .flat_map(|i| chacha::block(&key, counter.wrapping_add(i), &nonce))
                .collect();

            let mut wide = [0u8; chacha::WIDE_LEN];
            chacha::keystream8(&key, counter, &nonce, &mut wide);
            assert_eq!(wide[..], scalar[..chacha::WIDE_LEN]);

            // Every length up to two wide calls and a ragged third.
            let msg = g.bytes(1100, 1101);
            for len in 0..=1100 {
                let mut data = msg[..len].to_vec();
                chacha::xor_stream(&key, counter, &nonce, &mut data);
                let want: Vec<u8> = msg[..len].iter().zip(&scalar).map(|(m, k)| m ^ k).collect();
                assert_eq!(data, want, "len={len} counter={counter:#x}");
            }
        },
    );
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
        let back = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(back, sig);
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
