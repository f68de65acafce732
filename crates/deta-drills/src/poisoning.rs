//! Active model-poisoning drills: malicious parties mount sign-flip,
//! boosting, and collusion attacks against live sessions twice — once
//! under plain FedAvg, once under a robust rule — with the *same seed*.
//! The drill passes only when the numeric gates show FedAvg measurably
//! corrupted while the robust rule holds the aggregate near its clean
//! run. Rejection is asserted, not eyeballed.

use crate::common;
use crate::Drill;
use deta_attacks::PoisonKind;
use deta_core::agg::AggKind;
use deta_core::session::{DetaConfig, DetaSession};
use deta_nn::models::mlp;

const PARTIES: usize = 6;
const SEED: u64 = 33;

/// Final state of one 2-round run: an honest replica's parameters and
/// the end-of-run test accuracy.
struct RunOutcome {
    params: Vec<f32>,
    accuracy: f32,
}

/// Runs the standard drill deployment (6 parties, 3 aggregators,
/// partition + shuffle, 3 rounds) under `algorithm`, with `poisoners`
/// mounting `poison`. Enough data and local training that the clean
/// runs reach well-above-chance accuracy, giving the accuracy gate
/// headroom.
fn run_fl(
    algorithm: AggKind,
    poisoners: &[usize],
    poison: Option<PoisonKind>,
) -> Result<RunOutcome, String> {
    let (shards, test, dim, classes) = common::fl_data(PARTIES, 240, 80);
    let mut cfg = DetaConfig::deta(PARTIES, 3);
    cfg.algorithm = algorithm;
    cfg.seed = SEED;
    cfg.local_epochs = 2;
    cfg.lr = 0.3;
    let mut session = DetaSession::setup(cfg, &move |rng| mlp(&[dim, 16, classes], rng), shards)
        .map_err(|e| format!("setup failed: {e:?}"))?;
    if let Some(kind) = poison {
        for &i in poisoners {
            session.party_mut(i).set_update_tamper(kind.tamper());
        }
    }
    let metrics = session.run(&test);
    let last = metrics.last().ok_or("no rounds completed")?;
    Ok(RunOutcome {
        // Replicas are synchronized after each round; read an honest one.
        params: session.party_params(PARTIES - 1),
        accuracy: last.test_accuracy,
    })
}

/// Same-seed quartet: clean and poisoned runs under FedAvg and under the
/// robust rule.
struct Quartet {
    drift_mean: f64,
    drift_robust: f64,
    acc_drop_mean: f32,
    acc_drop_robust: f32,
}

fn quartet(robust: AggKind, poisoners: &[usize], poison: PoisonKind) -> Result<Quartet, String> {
    let clean_mean = run_fl(AggKind::IterativeAveraging, &[], None)?;
    let bad_mean = run_fl(AggKind::IterativeAveraging, poisoners, Some(poison))?;
    let clean_robust = run_fl(robust, &[], None)?;
    let bad_robust = run_fl(robust, poisoners, Some(poison))?;
    Ok(Quartet {
        drift_mean: common::rel_l2(&bad_mean.params, &clean_mean.params),
        drift_robust: common::rel_l2(&bad_robust.params, &clean_robust.params),
        acc_drop_mean: clean_mean.accuracy - bad_mean.accuracy,
        acc_drop_robust: clean_robust.accuracy - bad_robust.accuracy,
    })
}

impl Quartet {
    /// The shared numeric gate: the poison must drag FedAvg's final
    /// parameters far from its clean run while the robust rule stays
    /// close, with a wide margin between the two drifts.
    fn assert_rejected(&self, rule: &str, accuracy_gate: bool) -> Result<String, String> {
        let detail = format!(
            "update-distance gate: FedAvg drift {:.3} vs {rule} drift {:.3} \
             (relative L2 of final parameters, poisoned vs clean, same seed); \
             accuracy drop {:.3} vs {:.3}",
            self.drift_mean, self.drift_robust, self.acc_drop_mean, self.acc_drop_robust,
        );
        if self.drift_mean < 1.0 {
            return Err(format!("the poison barely moved FedAvg — {detail}"));
        }
        if self.drift_robust > 0.5 {
            return Err(format!("the robust rule drifted too — {detail}"));
        }
        if self.drift_mean < 10.0 * self.drift_robust {
            return Err(format!("no clear margin between the rules — {detail}"));
        }
        if accuracy_gate {
            if self.acc_drop_mean < 0.1 {
                return Err(format!("FedAvg accuracy survived the poison — {detail}"));
            }
            if self.acc_drop_robust.abs() > 0.1 {
                return Err(format!("{rule} accuracy moved under poison — {detail}"));
            }
        }
        Ok(format!("{rule} rejected the poison — {detail}"))
    }
}

/// The model-poisoning drill set.
pub fn drills() -> Vec<Drill> {
    vec![
        Drill {
            id: "poison-sign-flip-krum",
            claim: "Krum excludes a sign-flipping party that corrupts \
                    plain FedAvg under identical seed, data, and \
                    partitioning (paper §7.1 robust aggregation)",
            attack: "party-0 uploads -50x its honest update every round",
            run: sign_flip_vs_krum,
        },
        Drill {
            id: "poison-boost-flame",
            claim: "FLAME-lite's norm clipping neutralizes a boosted \
                    update that dominates plain FedAvg",
            attack: "party-0 uploads 100x its honest update every round",
            run: boost_vs_flame,
        },
        Drill {
            id: "poison-collusion-krum",
            claim: "Krum with f=2 rejects a colluding pair uploading an \
                    identical crafted point (a tight hostile cluster \
                    distance-based rules must not mistake for consensus)",
            attack: "party-0 and party-1 both upload the same crafted \
                     +/-25 pattern every round",
            run: collusion_vs_krum,
        },
    ]
}

fn sign_flip_vs_krum() -> Result<String, String> {
    let q = quartet(
        AggKind::Krum { f: 1 },
        &[0],
        PoisonKind::SignFlip { scale: 50.0 },
    )?;
    q.assert_rejected("Krum{f:1}", true)
}

fn boost_vs_flame() -> Result<String, String> {
    let q = quartet(
        AggKind::FlameLite,
        &[0],
        PoisonKind::ScaledUpdate { factor: 100.0 },
    )?;
    // Pure positive scaling can preserve the argmax, so accuracy is not
    // a reliable corruption signal here; the distance gate is.
    q.assert_rejected("FLAME-lite", false)
}

fn collusion_vs_krum() -> Result<String, String> {
    let q = quartet(
        AggKind::Krum { f: 2 },
        &[0, 1],
        PoisonKind::Collusion { magnitude: 25.0 },
    )?;
    q.assert_rejected("Krum{f:2}", true)
}
