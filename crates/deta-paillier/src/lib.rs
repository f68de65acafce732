//! Textbook Paillier additively homomorphic encryption.
//!
//! DeTA's evaluation (Figure 5c/5f in the paper) includes a Paillier-based
//! fusion algorithm, where parties upload *encrypted* model updates and the
//! aggregator sums them homomorphically without seeing plaintexts. This
//! crate provides:
//!
//! * [`KeyPair`] / [`PublicKey`] / [`PrivateKey`] — Paillier key material.
//! * [`PublicKey::encrypt`] / [`PrivateKey::decrypt`] — core operations.
//! * [`Ciphertext::add`] / [`Ciphertext::mul_scalar`] — homomorphisms.
//! * [`VectorCodec`] — fixed-point packing of `f32` slices into plaintext
//!   slots so one ciphertext carries many parameters, the standard batching
//!   trick real deployments use to amortize the heavyweight modular
//!   exponentiation.
//!
//! Key sizes here are simulation-grade (hundreds of bits). The paper's
//! observation that Paillier aggregation is ~100x slower than plain
//! averaging is reproduced by the benchmark harness regardless of the
//! exact key size.

use deta_bignum::{gen_prime, prime::random_below, BigUint};
use deta_crypto::{DetRng, Secret};

/// A Paillier public key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublicKey {
    /// The modulus `n = p * q`.
    pub n: BigUint,
    /// Cached `n^2`.
    pub n2: BigUint,
}

/// A Paillier private key.
#[derive(Clone, Debug)]
pub struct PrivateKey {
    /// Carmichael function `lambda = lcm(p - 1, q - 1)`.
    lambda: Secret<BigUint>,
    /// Precomputed `mu = L(g^lambda mod n^2)^{-1} mod n`.
    mu: Secret<BigUint>,
    /// The public part.
    pub public: PublicKey,
}

/// A Paillier key pair.
#[derive(Clone, Debug)]
pub struct KeyPair {
    /// The public key, distributed to all parties and aggregators.
    pub public: PublicKey,
    /// The private key, held only by the parties.
    pub private: PrivateKey,
}

/// A Paillier ciphertext (an element of `Z_{n^2}*`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext(pub BigUint);

impl KeyPair {
    /// Generates a key pair with an `n` of approximately `n_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits < 16`.
    pub fn generate(n_bits: usize, rng: &mut DetRng) -> KeyPair {
        assert!(n_bits >= 16, "modulus too small");
        let half = n_bits / 2;
        let (p, q) = loop {
            let p = gen_prime(half, rng);
            let q = gen_prime(half, rng);
            if p != q {
                break (p, q);
            }
        };
        let n = &p * &q;
        let n2 = &n * &n;
        let one = BigUint::one();
        let lambda = Secret::new((&p - &one).lcm(&(&q - &one)));
        let public = PublicKey { n: n.clone(), n2 };
        // mu = L(g^lambda mod n^2)^{-1} mod n, with g = n + 1.
        let g_lambda = public.g_pow(lambda.expose());
        let l = public.l_function(&g_lambda);
        let mu = Secret::new(
            l.modinv(&n)
                .expect("L(g^lambda) must be invertible for valid primes"),
        );
        KeyPair {
            private: PrivateKey {
                lambda,
                mu,
                public: public.clone(),
            },
            public,
        }
    }
}

impl PublicKey {
    /// Computes `(1 + n)^m mod n^2 = 1 + n*m mod n^2` (the g = n+1 shortcut).
    fn g_pow(&self, m: &BigUint) -> BigUint {
        let nm = (&self.n * &(m % &self.n)).rem_ref(&self.n2);
        (&nm + &BigUint::one()).rem_ref(&self.n2)
    }

    /// The Paillier `L` function: `L(x) = (x - 1) / n`.
    fn l_function(&self, x: &BigUint) -> BigUint {
        &(x - &BigUint::one()) / &self.n
    }

    /// Encrypts a plaintext `m` (must satisfy `m < n`).
    ///
    /// # Panics
    ///
    /// Panics if `m >= n`.
    pub fn encrypt(&self, m: &BigUint, rng: &mut DetRng) -> Ciphertext {
        assert!(m < &self.n, "plaintext out of range");
        let r = loop {
            let r = random_below(rng, &self.n);
            if !r.is_zero() && r.gcd(&self.n).is_one() {
                break r;
            }
        };
        let rn = r.modpow(&self.n, &self.n2);
        Ciphertext(self.g_pow(m).mul_mod(&rn, &self.n2))
    }

    /// Whether `c` is something [`PrivateKey::decrypt`] can take: below
    /// `n^2`, and not a multiple of `n` — `c^lambda` would be zero there,
    /// where `L` is undefined. Every ciphertext [`PublicKey::encrypt`] or
    /// [`Ciphertext::add`] produces passes; one read off the wire is
    /// checked with this before it is kept.
    pub fn admits(&self, c: &Ciphertext) -> bool {
        c.0 < self.n2 && !c.0.rem_ref(&self.n).is_zero()
    }

    /// Returns the additive identity ciphertext Enc(0) with fixed
    /// randomness 1 (useful as a fold seed; not semantically hiding).
    pub fn zero_ciphertext(&self) -> Ciphertext {
        Ciphertext(BigUint::one())
    }
}

impl PrivateKey {
    /// Decrypts a ciphertext.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is not in `Z_{n^2}`, or is a multiple of
    /// `n`: see [`PublicKey::admits`].
    pub fn decrypt(&self, c: &Ciphertext) -> BigUint {
        assert!(c.0 < self.public.n2, "ciphertext out of range");
        let x = c.0.modpow(self.lambda.expose(), &self.public.n2);
        let l = self.public.l_function(&x);
        l.mul_mod(self.mu.expose(), &self.public.n)
    }
}

impl Ciphertext {
    /// Homomorphic addition: `Dec(a.add(b)) = Dec(a) + Dec(b) mod n`.
    pub fn add(&self, other: &Ciphertext, pk: &PublicKey) -> Ciphertext {
        Ciphertext(self.0.mul_mod(&other.0, &pk.n2))
    }

    /// Homomorphic scalar multiplication: `Dec(c.mul_scalar(k)) = k * Dec(c) mod n`.
    pub fn mul_scalar(&self, k: &BigUint, pk: &PublicKey) -> Ciphertext {
        Ciphertext(self.0.modpow(k, &pk.n2))
    }
}

/// Fixed-point packing of `f32` values into Paillier plaintexts.
///
/// Each value is clamped to `[-clip, clip]`, shifted to be non-negative,
/// and quantized to `value_bits` bits. Slots are separated by
/// `headroom_bits` guard bits so that up to `2^headroom_bits` ciphertexts
/// can be summed homomorphically without inter-slot carry propagation.
#[derive(Clone, Debug)]
pub struct VectorCodec {
    /// Symmetric clamp bound for encoded values.
    pub clip: f64,
    /// Bits of precision per value.
    pub value_bits: u32,
    /// Guard bits per slot (bounds how many ciphertexts may be summed).
    pub headroom_bits: u32,
    /// Number of slots packed into one plaintext.
    pub slots: usize,
}

impl VectorCodec {
    /// Creates a codec sized for the given public key.
    ///
    /// `max_summands` bounds how many ciphertexts will be homomorphically
    /// accumulated before decryption.
    ///
    /// # Panics
    ///
    /// Panics if even a single slot does not fit in the plaintext space.
    pub fn for_key(pk: &PublicKey, clip: f64, value_bits: u32, max_summands: usize) -> VectorCodec {
        let headroom_bits = usize::BITS - max_summands.leading_zeros();
        let slot_bits = (value_bits + headroom_bits) as usize;
        // Leave 2 spare bits below the modulus bit length for safety.
        let usable = pk.n.bit_len().saturating_sub(2);
        let slots = usable / slot_bits;
        assert!(slots >= 1, "plaintext space too small for one slot");
        VectorCodec {
            clip,
            value_bits,
            headroom_bits,
            slots,
        }
    }

    fn slot_bits(&self) -> usize {
        (self.value_bits + self.headroom_bits) as usize
    }

    fn scale(&self) -> f64 {
        // Quantized values occupy [0, 2^value_bits): v in [-clip, clip]
        // maps to (v + clip) * scale.
        (((1u64 << self.value_bits) - 1) as f64) / (2.0 * self.clip)
    }

    /// Number of plaintexts needed for `len` values.
    pub fn plaintexts_for(&self, len: usize) -> usize {
        len.div_ceil(self.slots)
    }

    /// Packs a slice of `f32` into plaintext integers.
    pub fn encode(&self, values: &[f32]) -> Vec<BigUint> {
        let scale = self.scale();
        let slot_bits = self.slot_bits();
        values
            .chunks(self.slots)
            .map(|chunk| {
                let mut m = BigUint::zero();
                // Pack the highest slot first so slot 0 ends in the low bits.
                for &v in chunk.iter().rev() {
                    let clamped = (v as f64).clamp(-self.clip, self.clip);
                    let q = ((clamped + self.clip) * scale).round() as u64;
                    m = &m.shl_bits(slot_bits) + &BigUint::from_u64(q);
                }
                m
            })
            .collect()
    }

    /// Unpacks plaintexts produced by summing `summands` encoded vectors,
    /// returning the *sums* of the original values.
    ///
    /// `len` is the original vector length (the final plaintext may be
    /// partially filled).
    ///
    /// # Panics
    ///
    /// Panics if `plaintexts` does not contain at least `len` slots.
    pub fn decode_sum(&self, plaintexts: &[BigUint], len: usize, summands: usize) -> Vec<f32> {
        let scale = self.scale();
        let slot_bits = self.slot_bits();
        let modulus = BigUint::one().shl_bits(slot_bits);
        let mut out = Vec::with_capacity(len);
        'outer: for pt in plaintexts {
            let mut rest = pt.clone();
            for _ in 0..self.slots {
                if out.len() == len {
                    break 'outer;
                }
                let (q, slot) = rest.div_rem(&modulus);
                rest = q;
                let raw = slot.to_u64().expect("slot exceeds 64 bits") as f64;
                // Each summand contributed a +clip offset.
                let v = raw / scale - self.clip * summands as f64;
                out.push(v as f32);
            }
        }
        assert_eq!(out.len(), len, "not enough plaintexts for {len} values");
        out
    }

    /// Convenience: encrypts a whole `f32` vector.
    pub fn encrypt_vector(
        &self,
        pk: &PublicKey,
        values: &[f32],
        rng: &mut DetRng,
    ) -> Vec<Ciphertext> {
        self.encode(values)
            .iter()
            .map(|m| pk.encrypt(m, rng))
            .collect()
    }

    /// Convenience: decrypts a summed ciphertext vector back to value sums.
    pub fn decrypt_sum(
        &self,
        sk: &PrivateKey,
        cts: &[Ciphertext],
        len: usize,
        summands: usize,
    ) -> Vec<f32> {
        let pts: Vec<BigUint> = cts.iter().map(|c| sk.decrypt(c)).collect();
        self.decode_sum(&pts, len, summands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair() -> KeyPair {
        let mut rng = DetRng::from_u64(42);
        KeyPair::generate(256, &mut rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = keypair();
        let mut rng = DetRng::from_u64(1);
        for m in [0u64, 1, 42, 1_000_000, u32::MAX as u64] {
            let m = BigUint::from_u64(m);
            let c = kp.public.encrypt(&m, &mut rng);
            assert_eq!(kp.private.decrypt(&c), m);
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let kp = keypair();
        let mut rng = DetRng::from_u64(2);
        let m = BigUint::from_u64(7);
        let c1 = kp.public.encrypt(&m, &mut rng);
        let c2 = kp.public.encrypt(&m, &mut rng);
        assert_ne!(c1, c2);
        assert_eq!(kp.private.decrypt(&c1), kp.private.decrypt(&c2));
    }

    #[test]
    fn homomorphic_addition() {
        let kp = keypair();
        let mut rng = DetRng::from_u64(3);
        let a = BigUint::from_u64(1234);
        let b = BigUint::from_u64(8766);
        let ca = kp.public.encrypt(&a, &mut rng);
        let cb = kp.public.encrypt(&b, &mut rng);
        let sum = ca.add(&cb, &kp.public);
        assert_eq!(kp.private.decrypt(&sum), BigUint::from_u64(10_000));
    }

    #[test]
    fn homomorphic_addition_wraps_mod_n() {
        let kp = keypair();
        let mut rng = DetRng::from_u64(4);
        let big = &kp.public.n - &BigUint::one();
        let c1 = kp.public.encrypt(&big, &mut rng);
        let c2 = kp.public.encrypt(&BigUint::from_u64(2), &mut rng);
        let sum = c1.add(&c2, &kp.public);
        assert_eq!(kp.private.decrypt(&sum), BigUint::one());
    }

    #[test]
    fn homomorphic_scalar_multiplication() {
        let kp = keypair();
        let mut rng = DetRng::from_u64(5);
        let m = BigUint::from_u64(111);
        let c = kp.public.encrypt(&m, &mut rng);
        let scaled = c.mul_scalar(&BigUint::from_u64(9), &kp.public);
        assert_eq!(kp.private.decrypt(&scaled), BigUint::from_u64(999));
    }

    #[test]
    fn zero_ciphertext_is_identity() {
        let kp = keypair();
        let mut rng = DetRng::from_u64(6);
        let m = BigUint::from_u64(55);
        let c = kp.public.encrypt(&m, &mut rng);
        let sum = c.add(&kp.public.zero_ciphertext(), &kp.public);
        assert_eq!(kp.private.decrypt(&sum), m);
    }

    #[test]
    #[should_panic]
    fn oversized_plaintext_panics() {
        let kp = keypair();
        let mut rng = DetRng::from_u64(7);
        let too_big = kp.public.n.clone();
        kp.public.encrypt(&too_big, &mut rng);
    }

    #[test]
    fn codec_roundtrip_single_summand() {
        let kp = keypair();
        let codec = VectorCodec::for_key(&kp.public, 1.0, 16, 8);
        let values = vec![0.5f32, -0.25, 0.0, 0.99, -0.99, 0.125, -0.333];
        let pts = codec.encode(&values);
        let decoded = codec.decode_sum(&pts, values.len(), 1);
        for (v, d) in values.iter().zip(decoded.iter()) {
            assert!((v - d).abs() < 1e-3, "{v} vs {d}");
        }
    }

    #[test]
    fn codec_clamps_out_of_range() {
        let kp = keypair();
        let codec = VectorCodec::for_key(&kp.public, 1.0, 16, 8);
        let pts = codec.encode(&[5.0f32, -5.0]);
        let decoded = codec.decode_sum(&pts, 2, 1);
        assert!((decoded[0] - 1.0).abs() < 1e-3);
        assert!((decoded[1] + 1.0).abs() < 1e-3);
    }

    #[test]
    fn codec_packs_multiple_slots() {
        let kp = keypair();
        let codec = VectorCodec::for_key(&kp.public, 1.0, 16, 8);
        assert!(
            codec.slots > 1,
            "expected multiple slots, got {}",
            codec.slots
        );
        let n = codec.slots * 2 + 1;
        let values: Vec<f32> = (0..n).map(|i| (i as f32 / n as f32) - 0.5).collect();
        assert_eq!(codec.plaintexts_for(n), 3);
        let decoded = codec.decode_sum(&codec.encode(&values), n, 1);
        for (v, d) in values.iter().zip(decoded.iter()) {
            assert!((v - d).abs() < 1e-3);
        }
    }

    #[test]
    fn encrypted_vector_sum_matches_plain_sum() {
        let kp = keypair();
        let codec = VectorCodec::for_key(&kp.public, 1.0, 12, 4);
        let mut rng = DetRng::from_u64(8);
        let parties: Vec<Vec<f32>> = (0..4)
            .map(|p| {
                (0..10)
                    .map(|i| ((p * 10 + i) as f32 / 40.0) - 0.5)
                    .collect()
            })
            .collect();
        // Each party encrypts; the aggregator sums ciphertexts.
        let mut acc: Option<Vec<Ciphertext>> = None;
        for pv in &parties {
            let cts = codec.encrypt_vector(&kp.public, pv, &mut rng);
            acc = Some(match acc {
                None => cts,
                Some(prev) => prev
                    .iter()
                    .zip(cts.iter())
                    .map(|(a, b)| a.add(b, &kp.public))
                    .collect(),
            });
        }
        let sums = codec.decrypt_sum(&kp.private, &acc.unwrap(), 10, 4);
        for i in 0..10 {
            let expected: f32 = parties.iter().map(|p| p[i]).sum();
            assert!(
                (sums[i] - expected).abs() < 5e-3,
                "slot {i}: {} vs {expected}",
                sums[i]
            );
        }
    }

    #[test]
    fn distinct_keys_for_distinct_seeds() {
        let mut r1 = DetRng::from_u64(1);
        let mut r2 = DetRng::from_u64(2);
        let k1 = KeyPair::generate(128, &mut r1);
        let k2 = KeyPair::generate(128, &mut r2);
        assert_ne!(k1.public.n, k2.public.n);
    }

    #[test]
    fn debug_of_a_key_pair_shows_the_public_half_only() {
        let kp = keypair();
        for shown in [format!("{kp:?}"), format!("{kp:#?}")] {
            assert!(shown.contains(&kp.public.n.to_string()), "{shown}");
            let shown: String = shown.split_whitespace().collect();
            for part in [kp.private.lambda.expose(), kp.private.mu.expose()] {
                // Any four bytes in a row, in hex (how `BigUint` prints)
                // or as a list of decimals.
                for w in part.to_bytes_be_padded(32).windows(4) {
                    let dec: Vec<String> = w.iter().map(|b| b.to_string()).collect();
                    let hex: String = w.iter().map(|b| format!("{b:02x}")).collect();
                    assert!(!shown.contains(&dec.join(",")), "{shown}");
                    assert!(!shown.contains(&hex), "{shown}");
                }
            }
        }
    }
}
