//! Stale-state drills against a live sequential session: a breached
//! aggregator replaying old aggregates into parties, and a party
//! replaying old uploads into aggregators. Both must be absorbed by the
//! round guards without touching any replica.

use crate::common;
use crate::Drill;
use deta_core::node::Actor;
use deta_core::session::{DetaConfig, DetaSession, SessionParts};
use deta_core::supervise::{FailoverPolicy, RuntimeConfig};
use deta_core::wire::Msg;
use deta_crypto::DetRng;
use deta_nn::models::mlp;
use deta_nn::train::LabeledData;
use std::time::Duration;

/// A completed 3-party, 3-aggregator, 2-round session left live for
/// post-hoc injection, under the failover `policy`: `Restart` is the one
/// under which a party keeps its upload for a replay.
fn finished_session(
    seed: u64,
    policy: FailoverPolicy,
) -> Result<(DetaSession, LabeledData), String> {
    let (shards, test, dim, classes) = common::fl_data(3, 80, 40);
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.seed = seed;
    let builder = move |rng: &mut DetRng| mlp(&[dim, 12, classes], rng);
    let parts =
        SessionParts::build(cfg, &builder, shards).map_err(|e| format!("setup failed: {e:?}"))?;
    let rt = RuntimeConfig {
        failover: policy,
        ..RuntimeConfig::default()
    };
    let mut session =
        DetaSession::bootstrap(parts, rt).map_err(|e| format!("setup failed: {e:?}"))?;
    session.run(&test);
    Ok((session, test))
}

/// The stale-state drill set.
pub fn drills() -> Vec<Drill> {
    vec![
        Drill {
            id: "stale-aggregated-injection",
            claim: "a party only applies an Aggregated fragment for a \
                    round newer than its last finished round; a breached \
                    aggregator cannot rewrite history (wire round guard)",
            attack: "a compromised aggregator pushes a poisoned \
                     Msg::Aggregated for an already-finished round over \
                     its live secure channel",
            run: stale_aggregated_injection,
        },
        Drill {
            id: "stale-upload-replay",
            claim: "aggregators discard uploads for completed rounds; a \
                    replayed upload can neither re-open a round nor leave \
                    pending state behind (aggregator round guard)",
            attack: "a party re-sends its sealed round-2 upload to every \
                     aggregator after the round completed",
            run: stale_upload_replay,
        },
    ]
}

fn stale_aggregated_injection() -> Result<String, String> {
    let (mut session, _test) = finished_session(11, FailoverPolicy::None)?;
    let before = session.party_params(0);
    // The compromised aggregator speaks over its genuine channel, so the
    // record decrypts fine — only the round guard stands.
    session.aggregator_mut(0).drill_send_sealed(
        "party-0",
        &Msg::Aggregated {
            round: 1,
            fragment: vec![9.9; 16],
        },
    );
    let mailbox = session.party_mut(0).endpoint();
    let mut delivered = 0;
    while let Ok(msg) = mailbox.recv_timeout(Duration::from_millis(100)) {
        let from = msg.from.to_string();
        session.party_mut(0).handle_wire(&from, msg.payload);
        delivered += 1;
    }
    if delivered == 0 {
        return Err("the injected record never arrived".to_string());
    }
    if session.party_mut(0).last_finished_round() != 2 {
        return Err("the stale aggregate rewound the party's round state".to_string());
    }
    if session.party_params(0) != before {
        return Err("a stale Msg::Aggregated mutated the replica".to_string());
    }
    Ok(
        "stale-round guard — Msg::Aggregated for round 1 decrypted at \
        finished round 2, counted as ignored wire traffic, and dropped; \
        replica parameters bit-identical"
            .to_string(),
    )
}

fn stale_upload_replay() -> Result<String, String> {
    let (mut session, _test) = finished_session(12, FailoverPolicy::Restart)?;
    let before = session.party_params(1);
    if session.party_mut(0).replay_upload(2).is_err() {
        return Err("party-0 held no stored upload for round 2".to_string());
    }
    let n_aggs = session.config.n_aggregators;
    let mut absorbed = 0;
    for j in 0..n_aggs {
        absorbed += session.aggregator_mut(j).pump();
    }
    if absorbed == 0 {
        return Err("the replayed uploads never arrived".to_string());
    }
    for j in 0..n_aggs {
        if !session.aggregator_mut(j).pending_uploads().is_empty() {
            return Err(format!(
                "aggregator {j} kept a replayed upload pending; a later \
                 quorum could re-aggregate round 2"
            ));
        }
    }
    let mailbox = session.party_mut(0).endpoint();
    if mailbox.recv_timeout(Duration::from_millis(100)).is_ok() {
        return Err("an aggregator answered a replayed upload".to_string());
    }
    if session.party_params(1) != before {
        return Err("a replayed upload changed the aggregate".to_string());
    }
    Ok("completed-round guard — the replayed round-2 Upload was \
        discarded by every aggregator: no pending state, no Aggregated \
        response, replicas unchanged"
        .to_string())
}
