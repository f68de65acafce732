//! Failover drill: a token key breached out of a *retired* aggregator
//! incarnation must be dead — parties authenticate the replacement
//! incarnation against the fresh proxy-published key, so the stolen key
//! answers for nobody.

use crate::common;
use crate::Drill;
use deta_core::proxy::TOKEN_SECRET_LABEL;
use deta_core::session::DetaConfig;
use deta_crypto::{DetRng, SigningKey};
use deta_nn::models::mlp;
use deta_runtime::{FailoverPolicy, Node, RuntimeConfig, StallFault, ThreadedSession};
use deta_transport::secure::{respond, HandshakeInitiator, TransportError};
use std::time::Duration;

/// The incarnation-retirement drill set.
pub fn drills() -> Vec<Drill> {
    vec![Drill {
        id: "failover-token-reuse",
        claim: "failover re-attests the replacement aggregator and \
                rotates its token; keys of the retired incarnation are \
                dead even if later breached (recovery layer, paper §4.1 \
                applied per incarnation)",
        attack: "after agg-1 is retired by a failover, an attacker \
                 breaches the dead CVM, extracts its token signing key, \
                 and answers a fresh party handshake with it",
        run: retired_token_is_dead,
    }]
}

fn retired_token_is_dead() -> Result<String, String> {
    let (shards, test, dim, classes) = common::fl_data(3);
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 5;
    let rt = RuntimeConfig {
        round_deadline: Duration::from_secs(2),
        tick: Duration::from_millis(10),
        retry_initial: Duration::from_secs(3600),
        retry_max: Duration::from_secs(3600),
        stalls: vec![StallFault {
            node: "agg-1".to_string(),
            round: 1,
        }],
        failover: FailoverPolicy::Restart,
        ..RuntimeConfig::default()
    };
    let mut session =
        ThreadedSession::setup(cfg, &move |rng| mlp(&[dim, 12, classes], rng), shards, rt)
            .map_err(|e| format!("setup failed: {e}"))?;
    session
        .run(&test)
        .map_err(|e| format!("restart failover failed to heal: {e}"))?;
    let view = session.view();
    if view.failovers == 0 {
        return Err("no failover occurred; nothing was retired".to_string());
    }
    let retired_name = view
        .retired_aggs
        .first()
        .cloned()
        .ok_or("failover retired no incarnation")?;
    let replacement_name = format!("{retired_name}#r1");
    let directory = view.tokens;
    let retired_vk = directory
        .get(&retired_name)
        .cloned()
        .ok_or("retired incarnation missing from the token directory")?;
    let fresh_vk = directory
        .get(&replacement_name)
        .cloned()
        .ok_or("replacement incarnation missing from the token directory")?;
    if retired_vk.to_bytes() == fresh_vk.to_bytes() {
        return Err("failover reused the retired incarnation's token".to_string());
    }

    // Breach the dead CVM, as the paper's adversary may.
    let Some(Node::Aggregator(node)) = view.node(&retired_name) else {
        return Err("retired incarnation unreachable for breach".to_string());
    };
    let dump = node.cvm().breach();
    let stolen_bytes = dump
        .secrets
        .iter()
        .find(|(label, _)| label == TOKEN_SECRET_LABEL)
        .map(|(_, bytes)| bytes.clone())
        .ok_or("breach dump held no token material")?;
    let stolen = SigningKey::from_bytes(&stolen_bytes).ok_or("stolen material did not parse")?;
    if stolen.verifying_key().to_bytes() != retired_vk.to_bytes() {
        return Err("breach did not yield the retired incarnation's key".to_string());
    }
    session
        .shutdown()
        .map_err(|e| format!("shutdown failed: {e}"))?;

    // Mount: the attacker answers a fresh party handshake with the
    // stolen key; the party expects the replacement's published token.
    let rng = DetRng::from_u64(0xF41);
    let init = HandshakeInitiator::new(&mut rng.fork(b"party"));
    let (reply, _chan) = respond(init.hello(), &stolen, &mut rng.fork(b"attacker"))
        .map_err(|e| format!("attacker respond failed: {e}"))?;
    match init.complete(&reply, &fresh_vk) {
        Err(e @ TransportError::BadAuthentication) => Ok(format!(
            "TransportError::BadAuthentication — {e}: {retired_name}'s \
             breached key cannot answer for {replacement_name}; the \
             directory holds distinct keys for both incarnations"
        )),
        Err(e) => Err(format!("wrong rejection: {e}")),
        Ok(_) => Err("a retired incarnation's stolen token still authenticates".to_string()),
    }
}
