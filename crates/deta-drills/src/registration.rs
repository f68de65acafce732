//! Registration drill: a party with a genuine channel re-registers with
//! a weight that poisons the weighted mean and under names nobody will
//! ever upload as. Before the guard either message stopped every
//! aggregator — the first by an assertion in the averaging kernel, the
//! second by inflating the count every round waits for.

use crate::common;
use crate::Drill;
use deta_core::session::{DetaConfig, DetaSession};
use deta_core::wire::Msg;
use deta_nn::models::mlp;

const PARTIES: usize = 3;
const SEED: u64 = 19;

/// The registration drill set.
pub fn drills() -> Vec<Drill> {
    vec![Drill {
        id: "register-poison",
        claim: "a registration is accepted only under the sender's \
                authenticated name and with a finite positive weight; \
                anything else is dropped before it can reach the \
                weighted mean or the round quorum (aggregator \
                registration guard)",
        attack: "party-0 re-registers on its genuine channels with \
                 weight NaN, then as ghost-0 and ghost-1 with weight 1, \
                 at every aggregator before round 1",
        run: register_poison,
    }]
}

/// Runs the 2-round deployment and returns an honest replica's final
/// parameters; `hostile` lets party-0 send its registrations first.
fn run_fl(hostile: bool) -> Result<Vec<f32>, String> {
    let (shards, test, dim, classes) = common::fl_data(PARTIES, 80, 40);
    let mut cfg = DetaConfig::deta(PARTIES, 2);
    cfg.seed = SEED;
    let n_aggs = cfg.n_aggregators;
    let mut session = DetaSession::setup(cfg, &move |rng| mlp(&[dim, 12, classes], rng), shards)
        .map_err(|e| format!("setup failed: {e:?}"))?;
    if hostile {
        for j in 0..n_aggs {
            let agg = session.aggregator_mut(j).name.clone();
            for (party, weight) in [("party-0", f32::NAN), ("ghost-0", 1.0), ("ghost-1", 1.0)] {
                session.party_mut(0).drill_send_sealed(
                    &agg,
                    &Msg::Register {
                        party: party.to_string(),
                        weight,
                    },
                );
            }
            if session.aggregator_mut(j).pump() != 3 {
                return Err(format!("{agg} did not receive the three registrations"));
            }
            let registered = session.aggregator_mut(j).registered_parties();
            if registered != PARTIES {
                return Err(format!(
                    "{agg} holds {registered} registrations for {PARTIES} parties: \
                     rounds would wait for uploads that cannot arrive"
                ));
            }
        }
    }
    let metrics = session.run(&test);
    for j in 0..n_aggs {
        let done = session.aggregator_mut(j).completed_rounds;
        if done != metrics.len() as u64 {
            return Err(format!("aggregator {j} completed {done} rounds"));
        }
    }
    let params = session.party_params(PARTIES - 1);
    if params.iter().any(|v| !v.is_finite()) {
        return Err("the NaN weight reached the aggregate".to_string());
    }
    for i in 0..PARTIES {
        if session.party_params(i) != params {
            return Err(format!("replica {i} diverged"));
        }
    }
    Ok(params)
}

fn register_poison() -> Result<String, String> {
    let clean = run_fl(false)?;
    let attacked = run_fl(true)?;
    if attacked != clean {
        return Err(format!(
            "the registrations moved the model: relative L2 {:.3}",
            common::rel_l2(&attacked, &clean)
        ));
    }
    Ok(format!(
        "registration guard — Register{{party-0, NaN}}, Register{{ghost-0}} \
         and Register{{ghost-1}} from party-0 were dropped by every \
         aggregator ({PARTIES} registrations held); both rounds completed \
         and every replica is bit-identical to the clean run"
    ))
}
