//! Failover drill: a threaded DeTA deployment loses a follower
//! aggregator mid-session and heals it.
//!
//! A `StallFault` makes `agg-1` stop servicing its mailbox the moment
//! round 2 is announced — the canonical "CVM went dark" failure. With
//! `FailoverPolicy::Restart` armed, the supervisor detects the dead
//! node at the round deadline, respawns it as a freshly attested
//! incarnation (`agg-1#r1`), rebinds every party to it, and replays the
//! round from the parties' sealed uploads. Every configured round
//! completes, and the final model matches what a fault-free run
//! produces — recovery changes availability, not the aggregate.
//!
//! ```text
//! cargo run --release --example failover_drill
//! ```

use deta::core::DetaConfig;
use deta::datasets::{iid_partition, DatasetSpec};
use deta::nn::models::mlp;
use deta::runtime::{FailoverPolicy, RuntimeConfig, StallFault, ThreadedSession};
use std::time::Duration;

fn main() {
    let spec = DatasetSpec::mnist_like().at_resolution(12);
    let train = spec.generate(800, 1);
    let test = spec.generate(200, 2);
    let shards = iid_partition(&train, 4, 3);

    let mut config = DetaConfig::deta(4, 4);
    config.n_aggregators = 3;
    config.local_epochs = 2;
    config.lr = 0.25;
    config.seed = 42;

    let dim = spec.dim();
    let classes = spec.classes;
    let builder = move |rng: &mut deta::crypto::DetRng| mlp(&[dim, 32, classes], rng);

    let rt = RuntimeConfig {
        round_deadline: Duration::from_secs(5),
        failover: FailoverPolicy::Restart,
        stalls: vec![StallFault {
            node: "agg-1".to_string(),
            round: 2,
        }],
        ..RuntimeConfig::default()
    };

    println!("== failover drill: 4 parties, 3 aggregators, agg-1 dies at round 2 ==");
    let mut faulted = ThreadedSession::setup(config.clone(), &builder, shards.clone(), rt)
        .expect("threaded setup");
    let metrics = faulted
        .run(&test)
        .expect("restart failover heals the round");
    for m in &metrics {
        println!(
            "round {:2}  loss {:.4}  acc {:5.1}%  latency {:6.2}s",
            m.round,
            m.test_loss,
            m.test_accuracy * 100.0,
            m.round_latency_s,
        );
    }
    let view = faulted.view();
    println!(
        "\nfailovers: {}   retired incarnations: {:?}   final aggregators: {:?}",
        view.failovers, view.retired_aggs, view.agg_names,
    );

    println!("\n== fault-free reference ==");
    let mut clean = ThreadedSession::setup(config, &builder, shards, RuntimeConfig::default())
        .expect("threaded setup");
    clean.run(&test).expect("fault-free run");

    let identical = (0..4).all(|i| faulted.party_params(i) == clean.party_params(i));
    println!(
        "healed parameters {} the fault-free run's",
        if identical {
            "are bit-identical to"
        } else {
            "DIFFER from"
        }
    );
    assert!(identical, "recovery must not change the aggregate");
}
