//! Hostile-input drills on a session's own nodes, driven inline
//! (`DetaSession::bootstrap`): one message — an upload of an odd length,
//! a duplicated Phase II opener — that used to cost everyone else the
//! round, or the session its setup.

use crate::common;
use crate::Drill;
use deta_core::session::{DetaConfig, DetaSession, SessionParts};
use deta_core::wire::Msg;
use deta_nn::models::mlp;
use deta_transport::{FaultPolicy, SendVerdict};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const PARTIES: usize = 3;

/// The hostile-input drill set.
pub fn drills() -> Vec<Drill> {
    vec![
        Drill {
            id: "upload-length-erasure",
            claim: "an upload whose length differs from what its round \
                    already holds is refused where it arrives; no party \
                    can make an aggregator let go of another party's \
                    upload (aggregator upload guard)",
            attack: "party-2, registered, sends every aggregator a \
                     round-1 upload of 7 values behind the honest \
                     parties' 4-value uploads, then a 4-value one",
            run: upload_length_erasure,
        },
        Drill {
            id: "handshake-duplicate",
            claim: "Phase II is idempotent: the same opener delivered \
                    twice is answered twice with the same reply and \
                    leaves the aggregator on the channel the party \
                    adopted (aggregator handshake guard)",
            attack: "the network delivers party-0's Hello to agg-0 \
                     twice, back to back",
            run: handshake_duplicate,
        },
    ]
}

/// The session after Phase II — run over `policy`, if any.
fn nodes(seed: u64, policy: Option<Arc<dyn FaultPolicy>>) -> Result<DetaSession, String> {
    let (shards, _test, dim, classes) = common::fl_data(PARTIES);
    let mut cfg = DetaConfig::deta(PARTIES, 1);
    cfg.seed = seed;
    let parts = SessionParts::build(cfg, &move |rng| mlp(&[dim, 12, classes], rng), shards)
        .map_err(|e| format!("build failed: {e:?}"))?;
    if let Some(policy) = policy {
        parts.network.set_fault_policy(policy);
    }
    DetaSession::bootstrap(parts).map_err(|e| format!("Phase II failed: {e:?}"))
}

fn upload_length_erasure() -> Result<String, String> {
    let mut session = nodes(21, None)?;
    let n_aggs = session.config.n_aggregators;
    let aggs: Vec<String> = (0..n_aggs)
        .map(|j| session.aggregator_mut(j).name.clone())
        .collect();
    // Over each party's genuine channels, in upload order; the last party
    // sends its odd upload first.
    for i in 0..PARTIES {
        let p = session.party_mut(i);
        let lengths: &[usize] = if i == PARTIES - 1 { &[7, 4] } else { &[4] };
        for (agg, &len) in aggs
            .iter()
            .flat_map(|a| lengths.iter().map(move |l| (a, l)))
        {
            let fragment = vec![i as f32; len];
            p.drill_send_sealed(agg, &Msg::Upload { round: 1, fragment });
        }
    }
    for j in 0..n_aggs {
        let a = session.aggregator_mut(j);
        a.pump();
        if a.completed_rounds != 1 {
            let held: Vec<String> = (a.pending_uploads().into_iter())
                .map(|(_, party, _)| party)
                .collect();
            return Err(format!(
                "{} did not aggregate round 1: it holds the uploads of {held:?}",
                a.name
            ));
        }
    }
    Ok(format!(
        "upload guard — Upload{{round 1, 7 values}} from party-2 was \
         refused by every aggregator with the honest uploads still held; \
         round 1 aggregated all {PARTIES} parties"
    ))
}

/// Delivers the first frame party-0 sends agg-0 — its `Hello` — twice.
#[derive(Default)]
struct DuplicateFirstHello(AtomicBool);

impl FaultPolicy for DuplicateFirstHello {
    fn on_send(&self, from: &str, to: &str, _payload: &[u8]) -> SendVerdict {
        if from == "party-0" && to == "agg-0" && !self.0.swap(true, Ordering::Relaxed) {
            SendVerdict::Duplicate
        } else {
            SendVerdict::Deliver
        }
    }
}

fn handshake_duplicate() -> Result<String, String> {
    let policy = Arc::new(DuplicateFirstHello::default());
    nodes(22, Some(Arc::clone(&policy) as _))?;
    if !policy.0.load(Ordering::Relaxed) {
        return Err("no Hello was duplicated".to_string());
    }
    Ok(format!(
        "handshake guard — agg-0 answered both copies of party-0's Hello \
         with the one reply and kept the channel party-0 adopted; all \
         {PARTIES} parties registered with every aggregator"
    ))
}
