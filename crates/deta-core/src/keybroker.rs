//! The trusted key broker (paper Section 4.2).
//!
//! A participant-controlled service that dispatches the shared permutation
//! key to parties and generates the per-round training identifiers. The
//! permutation key never reaches any aggregator; a breached aggregator
//! therefore cannot re-derive parameter order.

#![deny(clippy::iter_over_hash_type)]

use deta_crypto::sha256::hmac_sha256;
use deta_crypto::{DetRng, Secret};

/// The key broker.
pub struct KeyBroker {
    perm_key: Secret<[u8; 32]>,
    session_id: [u8; 16],
}

impl KeyBroker {
    /// Creates a broker with a fresh permutation key and session id.
    pub fn new(rng: &mut DetRng) -> KeyBroker {
        let perm_key = Secret::filled(|key| rng.fill_bytes(key));
        let mut session_id = [0u8; 16];
        rng.fill_bytes(&mut session_id);
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

    /// Returns the training identifier for a round.
    ///
    /// Derived as `HMAC(session_id, round)`, so identifiers are unique per
    /// round and unpredictable without the session id, yet any component
    /// holding the session id can recompute them.
    pub fn training_id(&self, round: u64) -> [u8; 16] {
        let mac = hmac_sha256(&self.session_id, &round.to_le_bytes());
        let mut id = [0u8; 16];
        id.copy_from_slice(&mac[..16]);
        id
    }
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
}
