//! Known answers for everything that hangs off the ChaCha20 keystream:
//! the `DetRng` stream, a keyed round permutation, and a sealed record.
//!
//! The first five tests' constants were produced by the scalar
//! one-block-at-a-time cipher, the 26-bit-limb Poly1305 and the
//! unconditional-`%` `gen_range`; the draws across the 1 024-byte refill
//! were recorded with the eight-lane body and the scalar Poly1305, before
//! the sixteen-lane ChaCha20 and eight-lane Poly1305 bodies existed. Any
//! faster kernel has to reproduce them byte for byte, because every model
//! init, synthetic shard, mapper and permutation in the repository is a
//! function of this stream, and every sealed record of the cipher and MAC.

use deta::core::shuffle::RoundPermutation;
use deta::crypto::aead::{open_in_place, seal_in_place};
use deta::crypto::sha256::sha256;
use deta::crypto::{open, seal, AeadError, AeadKey, DetRng, Nonce, SigningKey};
use deta::transport::secure::{respond, HandshakeInitiator};
use deta::transport::TransportError;

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

/// Draws 120..=140 and 250..=260 of seed 7: draw 128 is byte 1 024 and
/// draw 256 byte 2 048, so each run straddles one 1 024-byte refill.
/// Recorded with the 512-byte refill, before the 16-lane body existed.
const SEED_7_DRAWS_ACROSS_REFILLS: [(usize, u64); 32] = [
    (120, 0x3139ab50f92304db),
    (121, 0xf2b96a501618a732),
    (122, 0xfcd87cbb7d171bb5),
    (123, 0xb0beee1894904c0c),
    (124, 0x1d0021b1d7d18ef1),
    (125, 0x748d629ff2df098f),
    (126, 0x3870149fc4772350),
    (127, 0xb6a47d2128e9558d),
    (128, 0x3e1c1f68969dc643),
    (129, 0x82096f8513732766),
    (130, 0x08d6ad1dfa2318ae),
    (131, 0x922eef8a759bcc7f),
    (132, 0x669ab2a7d9223bb6),
    (133, 0x08dc00969212b6a7),
    (134, 0x96871a5f5ecd8c65),
    (135, 0x799e112c23d6ae2a),
    (136, 0xda5a08d888113897),
    (137, 0x198f0b195b02d144),
    (138, 0x45ad5c8d4fceb415),
    (139, 0x368f79fca2e25780),
    (140, 0xcc64c47526ac1304),
    (250, 0x0af0b53ecf5ed894),
    (251, 0x0dd6281ddee1ef21),
    (252, 0x4d9b3b53ab0b5e3c),
    (253, 0xeb18389c11bd3be8),
    (254, 0xc017eddd64b6623d),
    (255, 0xb6c5fa9db5533ad9),
    (256, 0x9fc4fc0f4509ac76),
    (257, 0x68ffffe36b31d60b),
    (258, 0xdba0ca3365bfcaba),
    (259, 0x3ca92036169efd53),
    (260, 0x943d9b2c756c4ef5),
];

#[test]
fn det_rng_draws_across_the_1024_byte_refills_of_seed_7() {
    let mut rng = DetRng::from_u64(7);
    let draws: Vec<u64> = (0..=260).map(|_| rng.next_u64()).collect();
    for (i, want) in SEED_7_DRAWS_ACROSS_REFILLS {
        assert_eq!(draws[i], want, "draw {i}");
    }
}

#[test]
fn det_rng_fill_of_3000_bytes_after_one_u32() {
    // Starts four bytes into the stream, so every refill it crosses
    // (1 024 and 2 048) falls mid-request.
    let mut rng = DetRng::from_u64(7);
    assert_eq!(rng.next_u32(), 0xcd364cb6);
    let mut buf = vec![0u8; 3000];
    rng.fill_bytes(&mut buf);
    assert_eq!(hex(&buf[..16]), "416dd5eb89c779f70400dd47d58dbf24");
    assert_eq!(hex(&buf[2984..]), "a73de4379330ce2f0ac248caeea15017");
    assert_eq!(
        hex(&sha256(&buf)),
        "f65cd90dd3f58393ae5ab56317c9888f076fb90c1a475936ddaf8e9d5f8ba24e"
    );
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
    let key = AeadKey::new(core::array::from_fn(|i| i as u8));
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

fn kat_message(len: usize) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
        .collect()
}

/// SHA-256 of `seal(key 00..1f, nonce (9, 77), "deta-record", message)`
/// at the lengths where something changes hands — nothing, one byte, a
/// Poly1305 block and its neighbours, a wide keystream call and its
/// neighbours, one `fedavg` fragment record (1 356 829 bytes) — recorded
/// with the allocating `seal` of the commit before in-place sealing
/// existed. `seal` is now a wrapper over `seal_in_place`: comparing the
/// two with each other would prove nothing, these rows do.
const SEALED_SHA256: [(usize, &str); 9] = [
    (
        0,
        "5c8830875695225d46d666120663e581749d3cde913744c2e664f1aca5b06b1e",
    ),
    (
        1,
        "ef5b08da59a8ab5dfe6d38167aaa4924ffb7a4ca3a53f992bd3bc4c9876440e5",
    ),
    (
        15,
        "7b1f4a1a4acb7dcb2eade812a7dbd750491082f16b60e00e7884980a6af4ab2a",
    ),
    (
        16,
        "56b409c683b3e04530be90b78b7c343af4eaf26c789f9007f8c0135ed721ee16",
    ),
    (
        17,
        "6e469fd7d2fe8f4bd37a11223f3f0543cd1217731f4ed9f067d104dc9444796f",
    ),
    (
        511,
        "5f37e2e97d6a320e09b1e159dabee6a53a31c4af45f608a40f1164ea71930aa0",
    ),
    (
        512,
        "5d3ddd2618ea2c42612a1022b59770e3d5084bb2164a282e56cbbf8345efe852",
    ),
    (
        513,
        "50f3eda7fbb1424a0d3de89bd40e7a8833f877364dc00d52b7c28716c1fe0e6a",
    ),
    (
        1_356_829,
        "0edf86def98ddbb65b1c2cf8228e3aa28f3538ea3ccd792d8c6868350bda57a2",
    ),
];

#[test]
fn sealed_bytes_at_block_edges_and_at_fragment_size() {
    let key = AeadKey::new(core::array::from_fn(|i| i as u8));
    let nonce = Nonce::from_parts(9, 77);
    for (len, digest) in SEALED_SHA256 {
        let msg = kat_message(len);
        let sealed = seal(&key, &nonce, b"deta-record", &msg);
        assert_eq!(hex(&sha256(&sealed)), digest, "{len} bytes");
        // Behind a frame header, which it must leave alone, the in-place
        // path writes those same bytes, and reads them back.
        let mut frame = vec![0xa5; 5];
        frame.extend_from_slice(&msg);
        seal_in_place(&key, &nonce, b"deta-record", &mut frame, 5);
        assert_eq!(frame[..5], [0xa5; 5], "{len} bytes");
        assert_eq!(frame[5..], sealed, "{len} bytes");
        open_in_place(&key, &nonce, b"deta-record", &mut frame, 5).expect("own record");
        assert_eq!(frame[..5], [0xa5; 5], "{len} bytes");
        assert_eq!(frame[5..], msg, "{len} bytes");
    }
}

#[test]
fn a_flipped_byte_leaves_an_in_place_open_its_ciphertext_and_its_place_in_line() {
    // Verify before decrypt: the error comes back with the buffer still
    // what arrived, bit for bit — no partially decrypted plaintext.
    let key = AeadKey::new(core::array::from_fn(|i| i as u8));
    let nonce = Nonce::from_parts(9, 77);
    let msg = kat_message(100_003);
    let mut frame = vec![0xa5; 5];
    frame.extend_from_slice(&msg);
    seal_in_place(&key, &nonce, b"deta-record", &mut frame, 5);
    for at in [5, 5 + msg.len() / 2, frame.len() - 17, frame.len() - 1] {
        let mut bad = frame.clone();
        bad[at] ^= 0x04;
        let arrived = bad.clone();
        assert_eq!(
            open_in_place(&key, &nonce, b"deta-record", &mut bad, 5),
            Err(AeadError::BadTag),
            "byte {at}"
        );
        assert_eq!(bad, arrived, "byte {at}");
    }
    let mut short = vec![0xa5; 5 + 15];
    assert_eq!(
        open_in_place(&key, &nonce, b"deta-record", &mut short, 5),
        Err(AeadError::Truncated)
    );
    assert_eq!(short, [0xa5; 20]);

    // One layer up: a record that fails leaves the buffer alone and does
    // not use up its sequence number — the genuine record still opens.
    let identity = SigningKey::generate(&mut DetRng::from_u64(1));
    let initiator = HandshakeInitiator::new(&mut DetRng::from_u64(2));
    let (response, mut rx) =
        respond(initiator.hello(), &identity, &mut DetRng::from_u64(3)).expect("respond");
    let mut tx = initiator
        .complete(&response, &identity.verifying_key())
        .expect("complete");
    let mut record = vec![0xa5; 5];
    record.extend_from_slice(&msg);
    tx.seal_in_place(&mut record, 5);
    let mut bad = record.clone();
    bad[5 + 77] ^= 0x80;
    let arrived = bad.clone();
    assert_eq!(
        rx.open_in_place(&mut bad, 5),
        Err(TransportError::BadRecord)
    );
    assert_eq!(bad, arrived);
    rx.open_in_place(&mut record, 5)
        .expect("the failed open did not advance the sequence");
    assert_eq!(record[5..], msg);
    assert_eq!(record[..5], [0xa5; 5]);
}
