//! Known answers for the public-key primitives built on `deta-bignum`:
//! a Schnorr signature and a Diffie-Hellman agreement over the fixed
//! group. They were recorded before the bignum division and
//! exponentiation were rewritten; a signature, a public value and an
//! agreed key are functions of their inputs, so neither rewrite may move
//! a byte of them.

use deta_crypto::dh::EphemeralSecret;
use deta_crypto::{DetRng, SigningKey};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn schnorr_signature_matches_its_known_answer() {
    let secret: Vec<u8> = (1..=32).collect();
    let sk = SigningKey::from_bytes(&secret).unwrap();
    let vk = sk.verifying_key();
    assert_eq!(
        hex(&vk.to_bytes()),
        "71da6e11105e5f6445814ce69a923061760294be8e6d7dc0876141920fd3edd2"
    );
    let msg = b"deta known answer: schnorr";
    let sig = sk.sign(msg);
    assert_eq!(
        sig.e.to_string(),
        "199b868a8979704847367571e7c17129165c2d83c8a03c0cbb735870b7cdd88c"
    );
    assert_eq!(
        sig.s.to_string(),
        "43c4cd2348fb42d606b869dc044219910d18eb351c3417f6c72ca345744926c4"
    );
    assert!(vk.verify(msg, &sig));
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "a known answer compares the agreed key's bytes"
)]
fn dh_agreement_matches_its_known_answer() {
    let mut rng = DetRng::from_u64(40);
    let alice = EphemeralSecret::generate(&mut rng);
    let bob = EphemeralSecret::generate(&mut rng);
    let (alice_pub, bob_pub) = (alice.public_key(), bob.public_key());
    assert_eq!(
        hex(&alice_pub.to_bytes()),
        "92f20dd78b6cf0cda67e16051ee8164203895194b3ce01634c9a3d47832f17de"
    );
    assert_eq!(
        hex(&bob_pub.to_bytes()),
        "924f41ca3a6e7a8dfa894f492026dc67248c735c8fa410cc4b12a74f324eab37"
    );
    let ka = alice.agree(&bob_pub, b"deta known answer: dh").unwrap();
    let kb = bob.agree(&alice_pub, b"deta known answer: dh").unwrap();
    assert_eq!(
        hex(ka.expose()),
        "3d08801e364e2aa986691a6ce2029bcdc9fe23d9f79ff4a01e7a3ab8d3618433"
    );
    assert!(ka.ct_eq(&kb));
}
