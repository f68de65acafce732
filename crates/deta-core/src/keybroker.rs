//! The trusted key broker (paper Section 4.2).
//!
//! A participant-controlled service that dispatches the shared permutation
//! key and the session id to parties. A round's training identifier is
//! derived from the session id ([`training_id`]), so the broker and the
//! parties compute every round's id themselves and none travels in a
//! message. Neither secret ever reaches an aggregator; a breached
//! aggregator therefore cannot re-derive parameter order, nor choose the
//! order the parties shuffle under.

#![deny(clippy::iter_over_hash_type)]

use deta_crypto::sha256::hmac_sha256;
use deta_crypto::{DetRng, Secret};

/// The key broker.
#[derive(Clone)]
pub struct KeyBroker {
    perm_key: Secret<[u8; 32]>,
    session_id: Secret<[u8; 16]>,
}

impl KeyBroker {
    /// Creates a broker with a fresh permutation key and session id.
    pub fn new(rng: &mut DetRng) -> KeyBroker {
        let perm_key = Secret::filled(|key| rng.fill_bytes(key));
        let session_id = Secret::filled(|id| rng.fill_bytes(id));
        KeyBroker {
            perm_key,
            session_id,
        }
    }

    /// Dispatches the permutation key to a party (in the real system this
    /// travels over an out-of-band secure channel among participants).
    pub fn permutation_key(&self) -> Secret<[u8; 32]> {
        self.perm_key.clone()
    }

    /// Dispatches the session id to a party, beside the permutation key:
    /// with it the party derives every round's training id itself.
    pub fn session_id(&self) -> Secret<[u8; 16]> {
        self.session_id.clone()
    }

    /// Returns the training identifier for a round ([`training_id`]).
    pub fn training_id(&self, round: u64) -> [u8; 16] {
        training_id(&self.session_id, round)
    }
}

/// The training identifier of `round` in the session `session_id`.
///
/// Derived as `HMAC(session_id, round)`, so identifiers are unique per
/// round and unpredictable without the session id, yet any component
/// holding the session id — the broker and the parties — can recompute
/// them. This is the one derivation of a round's id.
#[expect(
    clippy::disallowed_methods,
    reason = "derives a round's id from the session id"
)]
pub fn training_id(session_id: &Secret<[u8; 16]>, round: u64) -> [u8; 16] {
    let mac = hmac_sha256(session_id.expose(), &round.to_le_bytes());
    let mut id = [0u8; 16];
    id.copy_from_slice(&mac[..16]);
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_ids_unique_per_round() {
        let broker = KeyBroker::new(&mut DetRng::from_u64(1));
        let ids: Vec<[u8; 16]> = (0..50).map(|r| broker.training_id(r)).collect();
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_ne!(ids[i], ids[j], "rounds {i} and {j} collide");
            }
        }
    }

    #[test]
    fn training_ids_deterministic() {
        let broker = KeyBroker::new(&mut DetRng::from_u64(1));
        assert_eq!(broker.training_id(3), broker.training_id(3));
    }

    #[test]
    fn different_sessions_differ() {
        let b1 = KeyBroker::new(&mut DetRng::from_u64(1));
        let b2 = KeyBroker::new(&mut DetRng::from_u64(2));
        assert!(!b1.permutation_key().ct_eq(&b2.permutation_key()));
        assert_ne!(b1.training_id(0), b2.training_id(0));
    }

    #[test]
    fn a_party_holding_the_session_id_derives_the_brokers_ids() {
        let broker = KeyBroker::new(&mut DetRng::from_u64(7));
        let session_id = broker.session_id();
        for round in [0, 1, 2, u64::MAX] {
            assert_eq!(training_id(&session_id, round), broker.training_id(round));
        }
    }

    /// Known answers, recorded with the derivation that carried the id
    /// in `RoundStart`: the broker of seeds 0 and 42, built as a session
    /// builds it (`root.fork(b"keybroker")`).
    #[test]
    fn training_id_known_answers() {
        let known: [(u64, [(u64, &str); 5]); 2] = [
            (
                0,
                [
                    (0, "318b89bb2abded17ba01271bd65f18c4"),
                    (1, "84920b1b846bb888f4cba8a11ef1f8c5"),
                    (2, "d9aa38cf3abf32db5fbc4c1104f1eb8e"),
                    (1 << 32, "1402997a809bb9c4078a52e9707f8aca"),
                    (u64::MAX, "30dfd055f5c53948f733876aeb5170a8"),
                ],
            ),
            (
                42,
                [
                    (0, "511c8c093edc21cd5dfacbb884f5603a"),
                    (1, "d5cafd7b0cc15e7c37d502023402acae"),
                    (2, "017cfd83f80d1bdff18988be511c1738"),
                    (1 << 32, "d185866a7de4e471469ad5cbeba69ac5"),
                    (u64::MAX, "21d4ccf743f372ba897113c50fcd43e8"),
                ],
            ),
        ];
        for (seed, rows) in known {
            let broker = KeyBroker::new(&mut DetRng::from_u64(seed).fork(b"keybroker"));
            for (round, want) in rows {
                let hex: String = (broker.training_id(round).iter())
                    .map(|b| format!("{b:02x}"))
                    .collect();
                assert_eq!(hex, want, "seed {seed}, round {round}");
            }
        }
    }
}
