//! A 4-party + 3-aggregator session behind the bridge, children hosted
//! on threads of the test process (each one calling `run_node`, exactly
//! what a child process does) — the shape `bench/src/run.rs` measures.

use deta_core::session::DetaConfig;
use deta_crypto::DetRng;
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_nn::train::LabeledData;
use deta_nn::Sequential;
use deta_socket::{run_node, SocketError};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

pub const PARTIES: usize = 4;
pub const AGGREGATORS: usize = 3;
/// Every node of the session has a seat at the hub.
pub const SEATS: usize = PARTIES + AGGREGATORS;

pub fn config(rounds: usize) -> DetaConfig {
    let mut cfg = DetaConfig::deta(PARTIES, rounds);
    cfg.n_aggregators = AGGREGATORS;
    cfg.seed = 0x5ea7;
    cfg
}

/// The parties' shards and a test set.
pub fn data() -> (Vec<LabeledData>, LabeledData) {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    (
        iid_partition(&spec.generate(40 * PARTIES, 1), PARTIES, 3),
        spec.generate(40, 2),
    )
}

pub fn model(rng: &mut DetRng) -> Sequential {
    mlp(&[64, 16, 10], rng)
}

/// Hosts node `name` of the session on a thread of its own.
pub fn child(
    addr: SocketAddr,
    name: &str,
    cfg: &DetaConfig,
    shards: &[LabeledData],
) -> JoinHandle<Result<(), SocketError>> {
    let (name, cfg, shards) = (name.to_string(), cfg.clone(), shards.to_vec());
    std::thread::spawn(move || {
        run_node(addr, &name, cfg, &model, shards, Duration::from_millis(10))
    })
}
