//! Property tests for the Paillier homomorphisms.
//!
//! Key generation is expensive, so one simulation-grade key pair is
//! shared across all cases via a lazy static.

#[path = "../../deta-bignum/tests/oracle/mod.rs"]
mod oracle;

use deta_bignum::BigUint;
use deta_crypto::DetRng;
use deta_paillier::{KeyPair, VectorCodec};
use deta_proptest::cases;
use std::sync::OnceLock;

fn keypair() -> &'static KeyPair {
    static KP: OnceLock<KeyPair> = OnceLock::new();
    KP.get_or_init(|| KeyPair::generate(128, &mut DetRng::from_u64(1234)))
}

#[test]
fn roundtrip() {
    cases("paillier_roundtrip", 32, |g| {
        let kp = keypair();
        let m = BigUint::from_u64(g.u32() as u64);
        let c = kp.public.encrypt(&m, &mut DetRng::from_u64(g.u64()));
        assert_eq!(kp.private.decrypt(&c), m);
    });
}

#[test]
fn additive_homomorphism() {
    cases("additive_homomorphism", 32, |g| {
        let kp = keypair();
        let (a, b) = (g.u32(), g.u32());
        let mut rng = DetRng::from_u64(g.u64());
        let ca = kp.public.encrypt(&BigUint::from_u64(a as u64), &mut rng);
        let cb = kp.public.encrypt(&BigUint::from_u64(b as u64), &mut rng);
        let sum = ca.add(&cb, &kp.public);
        let want =
            (&BigUint::from_u64(a as u64) + &BigUint::from_u64(b as u64)).rem_ref(&kp.public.n);
        assert_eq!(kp.private.decrypt(&sum), want);
    });
}

#[test]
fn homomorphisms_match_the_bignum_oracles() {
    cases("homomorphisms_match_the_bignum_oracles", 32, |g| {
        let kp = keypair();
        let n2 = &kp.public.n2;
        let mut rng = DetRng::from_u64(g.u64());
        let ca = kp
            .public
            .encrypt(&BigUint::from_u64(g.u32() as u64), &mut rng);
        let cb = kp
            .public
            .encrypt(&BigUint::from_u64(g.u32() as u64), &mut rng);
        let sum = ca.add(&cb, &kp.public);
        assert_eq!(sum.0, oracle::mul_mod(&ca.0, &cb.0, n2));
        let k = BigUint::from_u64(g.u64_in(1, 1 << 16));
        assert_eq!(
            ca.mul_scalar(&k, &kp.public).0,
            oracle::modpow(&ca.0, &k, n2)
        );
    });
}

#[test]
fn scalar_homomorphism() {
    cases("scalar_homomorphism", 32, |g| {
        let kp = keypair();
        let m = g.u16();
        let k = g.u64_in(1, 500) as u16;
        let mut rng = DetRng::from_u64(g.u64());
        let c = kp.public.encrypt(&BigUint::from_u64(m as u64), &mut rng);
        let scaled = c.mul_scalar(&BigUint::from_u64(k as u64), &kp.public);
        let want = BigUint::from_u64(m as u64 * k as u64).rem_ref(&kp.public.n);
        assert_eq!(kp.private.decrypt(&scaled), want);
    });
}

#[test]
fn ciphertexts_never_repeat() {
    cases("ciphertexts_never_repeat", 32, |g| {
        let s1 = g.u64();
        let mut s2 = g.u64();
        if s1 == s2 {
            s2 = s2.wrapping_add(1);
        }
        let kp = keypair();
        let m = BigUint::from_u64(g.u16() as u64);
        let c1 = kp.public.encrypt(&m, &mut DetRng::from_u64(s1));
        let c2 = kp.public.encrypt(&m, &mut DetRng::from_u64(s2));
        assert_ne!(c1, c2);
    });
}

#[test]
fn codec_roundtrip() {
    cases("codec_roundtrip", 32, |g| {
        let values = g.vec_of(1, 40, |g| g.f32_in(-3.9, 3.9));
        let kp = keypair();
        let codec = VectorCodec::for_key(&kp.public, 4.0, 16, 4);
        let decoded = codec.decode_sum(&codec.encode(&values), values.len(), 1);
        for (v, d) in values.iter().zip(decoded.iter()) {
            assert!((v - d).abs() < 1e-3, "{v} vs {d}");
        }
    });
}

#[test]
fn codec_sum_linear() {
    cases("codec_sum_linear", 32, |g| {
        // Summing two encoded vectors decodes to the element-wise sum.
        let a = g.vec_of(1, 20, |g| g.f32_in(-1.9, 1.9));
        let offset = g.f32_in(-1.9, 1.9);
        let kp = keypair();
        let codec = VectorCodec::for_key(&kp.public, 4.0, 16, 4);
        let b: Vec<f32> = a.iter().map(|v| (v + offset).clamp(-3.9, 3.9)).collect();
        let ea = codec.encode(&a);
        let eb = codec.encode(&b);
        let sums: Vec<_> = ea.iter().zip(eb.iter()).map(|(x, y)| x + y).collect();
        let decoded = codec.decode_sum(&sums, a.len(), 2);
        for ((x, y), d) in a.iter().zip(b.iter()).zip(decoded.iter()) {
            assert!((x + y - d).abs() < 2e-3, "{} vs {d}", x + y);
        }
    });
}
