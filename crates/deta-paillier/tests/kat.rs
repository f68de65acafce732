//! Known answers for Paillier: a key pair, a ciphertext for a fixed key
//! and seed, its decryption, and a homomorphic sum. They were recorded
//! before `deta-bignum`'s division and exponentiation were rewritten,
//! which must move no bit of them.

use deta_bignum::BigUint;
use deta_crypto::DetRng;
use deta_paillier::KeyPair;

#[test]
fn ciphertexts_match_their_known_answers() {
    let kp = KeyPair::generate(256, &mut DetRng::from_u64(40));
    assert_eq!(
        kp.public.n.to_string(),
        "6a1e4f9fae3186c9c70f1b0a6dadfa89d8e8fc67d35fa819111cb022daedbfdd"
    );
    let (a, b) = (
        BigUint::from_u64(123_456_789),
        BigUint::from_u64(987_654_321),
    );
    let ca = kp.public.encrypt(&a, &mut DetRng::from_u64(41));
    let cb = kp.public.encrypt(&b, &mut DetRng::from_u64(42));
    assert_eq!(ca.0.to_string(), "10bcc59741fd60fe7141505d2a56669234f291e61c1aa8eeea3578385ac5caf1c9a83570cd79ed87b7c6c6bb86ddd94456d6b49e648f3ed9e479b760347a454a");
    assert_eq!(cb.0.to_string(), "41e453fd08fcbfbd6fc05f2dc4055a49cfa7f3572331ed7bfbb3f1bac2c5718bd75cafd8a242caedcd78a278bc786b566a3ed74211af152b91f3bdc427880ce");
    assert_eq!(kp.private.decrypt(&ca), a);
    let sum = ca.add(&cb, &kp.public);
    assert_eq!(sum.0.to_string(), "1ddd52e6a09778d42d5038374accead99251eeccba06c7f21eb225830476f394a2963fe80ba86907442a067016aede386beed7ebb21e149430caeba2d045effe");
    assert_eq!(kp.private.decrypt(&sum), &a + &b);
}
