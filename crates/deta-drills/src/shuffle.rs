//! Shuffle drill: a breached initiator tries to pin the dynamic shuffle.
//! When a round's announcement carried the round's training id, the
//! initiator could announce round 2 with round 1's id, and every party
//! would shuffle round 2 as it shuffled round 1 — a static shuffle, whose
//! fragments correlate slot by slot across rounds. An announcement now
//! carries the round number alone, and each party derives the id from
//! the key broker's session id, which no aggregator holds.

use crate::common::{self, bits};
use crate::sim::fleet::entitled_fragment;
use crate::Drill;
use deta_core::aggregator::parse_breached_memory;
use deta_core::session::{DetaConfig, DetaSession, SessionParts};
use deta_core::supervise::RuntimeConfig;
use deta_core::wire::Msg;
use deta_crypto::DetRng;
use deta_nn::models::mlp;

const PARTIES: usize = 3;
const SEED: u64 = 23;
/// The tag of the retired announcement layout: round, then training id.
const RETIRED_ROUND_START: u8 = 6;

/// The shuffle drill set.
pub fn drills() -> Vec<Drill> {
    vec![Drill {
        id: "static-shuffle-pin",
        claim: "every round is shuffled under its own permutation, which \
                the parties derive from the key broker's session id; no \
                aggregator can choose the training id a round is shuffled \
                under (paper §4.2, dynamic shuffle)",
        attack: "a breached agg-0 announces round 2 to every party with \
                 round 1's training id, in the announcement layout that \
                 carried one",
        run: static_shuffle_pin,
    }]
}

/// Agg-0's guest memory after it aggregated `round`: each party's
/// fragment, in party order.
fn held(session: &DetaSession, round: u64) -> Result<Vec<Vec<f32>>, String> {
    let memory = parse_breached_memory(&session.breach_aggregator(0).memory);
    let fragments: Vec<Vec<f32>> = (memory.into_iter())
        .filter(|(_, r, _)| *r == round)
        .map(|(_, _, fragment)| fragment)
        .collect();
    if fragments.len() != PARTIES {
        return Err(format!(
            "agg-0 holds {} round-{round} fragments for {PARTIES} parties",
            fragments.len()
        ));
    }
    Ok(fragments)
}

/// Pearson correlation of two equally long vectors, slot by slot.
fn correlation(a: &[f32], b: &[f32]) -> f64 {
    let n = a.len() as f64;
    let mean = |v: &[f32]| v.iter().map(|x| f64::from(*x)).sum::<f64>() / n;
    let (ma, mb) = (mean(a), mean(b));
    let (mut ab, mut aa, mut bb) = (0.0, 0.0, 0.0);
    for (x, y) in a.iter().zip(b) {
        let (x, y) = (f64::from(*x) - ma, f64::from(*y) - mb);
        ab += x * y;
        aa += x * x;
        bb += y * y;
    }
    ab / (aa * bb).sqrt()
}

fn static_shuffle_pin() -> Result<String, String> {
    let (shards, test, dim, classes) = common::fl_data(PARTIES, 80, 40);
    let mut cfg = DetaConfig::deta(PARTIES, 2);
    cfg.seed = SEED;
    let builder = move |rng: &mut DetRng| mlp(&[dim, 12, classes], rng);
    let mut parts =
        SessionParts::build(cfg, &builder, shards).map_err(|e| format!("setup failed: {e:?}"))?;
    for party in &mut parts.parties {
        party.record_updates = true;
    }
    // The participants' side, for the check: the partition and the
    // broker that derives each round's permutation.
    let (transformer, broker) = (parts.transformer.clone(), parts.broker.clone());
    let mut session = DetaSession::bootstrap(parts, RuntimeConfig::default())
        .map_err(|e| format!("setup failed: {e:?}"))?;
    session.step(&test);
    let round_1 = held(&session, 1)?;

    let mut forged = vec![RETIRED_ROUND_START];
    forged.extend_from_slice(&2u64.to_le_bytes());
    forged.extend_from_slice(&broker.training_id(1));
    let names: Vec<String> = (0..PARTIES).map(|i| format!("party-{i}")).collect();
    for name in &names {
        session
            .aggregator_mut(0)
            .drill_send_sealed_bytes(name, &forged);
    }
    let accepted = (0..PARTIES)
        .filter(|&i| session.party_mut(i).poll_round_start().is_some())
        .count();
    if accepted == 0 {
        // What is left to a breached initiator: the round number alone.
        for name in &names {
            session
                .aggregator_mut(0)
                .drill_send_sealed(name, &Msg::RoundStart { round: 2 });
        }
    }
    for i in 0..PARTIES {
        let party = session.party_mut(i);
        if party.poll_round_start().is_none() {
            return Err(format!("party-{i} never started round 2"));
        }
        party
            .run_local_round()
            .map_err(|e| format!("party-{i} could not train round 2: {e}"))?;
    }
    session.aggregator_mut(0).pump();
    let round_2 = held(&session, 2)?;

    let (tid, perm_key) = (broker.training_id(2), broker.permutation_key());
    let mut pinned = Vec::new();
    for (i, fragment) in round_2.iter().enumerate() {
        let log = &session.party_mut(i).update_log;
        let Some((_, update)) = log.iter().find(|(r, _)| *r == 2) else {
            return Err(format!("party-{i} logged no round-2 update"));
        };
        let entitled = entitled_fragment(&transformer, update, 0, &tid, &perm_key);
        if bits(&entitled) != bits(fragment) {
            pinned.push(format!("party-{i}"));
        }
    }
    let corr = (round_1.iter().zip(&round_2))
        .map(|(a, b)| correlation(a, b))
        .sum::<f64>()
        / PARTIES as f64;
    if accepted > 0 || !pinned.is_empty() {
        return Err(format!(
            "static shuffle — {accepted} of {PARTIES} parties accepted round 2 under \
             round 1's id; agg-0's round-2 fragments from {} are not shuffled under \
             round 2's permutation (slot-wise correlation with round 1: {corr:.3})",
            pinned.join(", ")
        ));
    }
    Ok(format!(
        "retired layout refused — the round-2 announcement carrying round 1's id \
         opened on every party's channel and decoded at none; announced as \
         RoundStart{{round: 2}}, all {PARTIES} of agg-0's round-2 fragments are the \
         parties' round-2 updates under round 2's permutation, bit for bit \
         (slot-wise correlation with round 1: {corr:.3})"
    ))
}
