//! Known answers for everything that hangs off the ChaCha20 keystream:
//! the `DetRng` stream, a keyed round permutation, and a sealed record.
//!
//! The constants were produced by the scalar one-block-at-a-time cipher,
//! the 26-bit-limb Poly1305 and the unconditional-`%` `gen_range`; any
//! faster kernel has to reproduce them byte for byte, because every
//! model init, synthetic shard, mapper and permutation in the repository
//! is a function of this stream.

use deta::core::shuffle::RoundPermutation;
use deta::crypto::sha256::sha256;
use deta::crypto::{open, seal, AeadKey, DetRng, Nonce};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const FIRST_64_OF_SEED_7: [u64; 64] = [
    0xebd56d41cd364cb6,
    0x47dd0004f779c789,
    0x230baffc24bf8dd5,
    0x5eab9ada0920d1a9,
    0xaa7fe8d17521468c,
    0x5383c7f2b8762b28,
    0x656d944b482c3ca7,
    0x303838fd806c2c4a,
    0xeec0624145a0f920,
    0x1d4963c54599c19e,
    0xcb7c7cafc0a19396,
    0x036426c58737c153,
    0x92fdbe95115f3e86,
    0x9e720add2cd70ea0,
    0x3bf426e145b9fc43,
    0x50d7a7600c6dcd2e,
    0xde8bd7b01977cf2a,
    0x34720703d15d8fab,
    0x2a2571df8b333458,
    0x18c4f56b7a3da0c3,
    0xc7c51ec11f4ce5cf,
    0x40240d1dc7a6ffdf,
    0xdd7778c13df637fc,
    0x8c532b7f0b38c87b,
    0x720e6e590af36e95,
    0x05bd672a37aa58b4,
    0x76c624f74104dc16,
    0xd8cf24f0c26bdf32,
    0x7995cc2dbb15aca5,
    0x40be782544dac793,
    0x2451d187d80d2547,
    0xc2d2dc77d15729ad,
    0x0c459ddc6539066d,
    0x6e190ce6be63c1c1,
    0x47eb54a0e61fda19,
    0xbd074ba4f0e9b623,
    0x0aefbf523c4c23de,
    0x4e1eac3a236aa508,
    0x1dd5e1f6052cfb11,
    0x0950e8bd0c09065d,
    0x826c856e51f07637,
    0x753d1248557cc252,
    0x390523da974093f1,
    0x50c233bb9a7abbb2,
    0xf5eeaabc0c479d05,
    0x3e357a5f1337094b,
    0x8e82c69cfb0e62f4,
    0xa7507e2ceebcab97,
    0x534a778896fb0763,
    0x71f2e919d367534e,
    0x8d3a3c6546163c2c,
    0x3e453ed6819a32c1,
    0xaee12364cdc28178,
    0xa2849d3c40d8c4c5,
    0x5bb05d254881b480,
    0x2bfaccf0e3284520,
    0xae8d027c9fe78559,
    0xd18af5b0772d7f9a,
    0xf2097500c33444a5,
    0x7673d24bed486077,
    0x639ac812677e9397,
    0x372748dff22a4bc0,
    0xba440a5473c27e27,
    0xbaaf50dcb61081ce,
];

#[test]
fn det_rng_first_64_u64_of_seed_7() {
    let mut rng = DetRng::from_u64(7);
    let got: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
    assert_eq!(got, FIRST_64_OF_SEED_7);
}

#[test]
fn round_permutation_of_100k_slots() {
    // `apply` on 0.0, 1.0, 2.0, … reads the permutation back out: every
    // index below 2^24 is exact in an f32.
    let n = 100_000usize;
    let slots: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let perm = RoundPermutation::derive(&[7; 32], &[3; 16], 0, n);
    let bytes: Vec<u8> = perm
        .apply(&slots)
        .iter()
        .flat_map(|&s| (s as u32).to_le_bytes())
        .collect();
    assert_eq!(
        hex(&sha256(&bytes)),
        "c31e727e800396d35295ebc854f2b3de76ed7469d91d1d38030f1806d68aaea7"
    );
}

#[test]
fn seal_of_a_megabyte_and_one() {
    // 1 000 001 bytes: many wide keystream calls, then a ragged tail that
    // ends mid-block and mid-Poly1305-block.
    let msg: Vec<u8> = (0..1_000_001u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect();
    let key = AeadKey(core::array::from_fn(|i| i as u8));
    let nonce = Nonce::from_parts(9, 77);
    let sealed = seal(&key, &nonce, b"deta-record", &msg);
    assert_eq!(sealed.len(), 1_000_017);
    assert_eq!(
        hex(&sha256(&sealed)),
        "594beaf6f4b150c9003b3bad607769b31d4b4a6c3fa68faa2c599f660cc73678"
    );
    assert_eq!(
        hex(&sealed[sealed.len() - 16..]),
        "75307a2ee9041ad7ce306a171f8950f3"
    );
    assert_eq!(open(&key, &nonce, b"deta-record", &sealed).unwrap(), msg);
}
