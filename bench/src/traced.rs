//! The per-layer metric table and the budget that ties level 2 to
//! level 1: which layer function runs how often in one round.

use crate::report::Metric;
use crate::workload::Workload;

/// Every per-layer metric `roundbench-traced` prints, with its unit, in
/// the order printed: the same list `BENCHMARK.json` declares (a test
/// keeps them equal). Three names go beyond the issue's list because
/// the budget needs them: `nn.train_local_s` and `agg.kernel_s` are
/// training and the aggregation kernel at the traced workload's own
/// shape (the issue's `nn.train_*_s` and `agg.*_s` have fixed shapes,
/// none of them `median_32p`'s), and `wire.record_codec_s` is the
/// `Msg::Record` wrapper every sealed fragment crosses.
pub const PER_LAYER: [(&str, &str); 68] = [
    // session (deta-core::session), level 1
    ("session.announce_s", "s"),
    ("session.party_local_s", "s"),
    ("session.agg_pump_s", "s"),
    ("session.party_finish_s", "s"),
    ("session.eval_s", "s"),
    ("session.driver_self_s", "s"),
    ("session.alloc_bytes_per_round", "bytes"),
    ("session.allocs_per_round", "count"),
    ("session.final_test_loss", "loss"),
    // aggregator (AggregatorNode), level 1
    ("aggregator.pump_s", "s"),
    ("aggregator.non_kernel_s", "s"),
    // tensor / nn
    ("tensor.matmul_s", "s"),
    ("tensor.matmul_tn_s", "s"),
    ("tensor.im2col_s", "s"),
    ("nn.train_mlp_s", "s"),
    ("nn.train_conv_s", "s"),
    ("nn.train_local_s", "s"),
    ("nn.evaluate_s", "s"),
    ("nn.flat_params_s", "s"),
    // transform (transform, mapper, shuffle)
    ("transform.forward_s", "s"),
    ("transform.inverse_s", "s"),
    ("shuffle.derive_s", "s"),
    ("shuffle.apply_s", "s"),
    ("mapper.partition_s", "s"),
    ("mapper.merge_s", "s"),
    // secure (deta-transport::secure, deta-crypto, deta-sev-sim)
    ("secure.seal_s", "s"),
    ("secure.open_s", "s"),
    ("secure.handshake_s", "s"),
    ("crypto.sha256_s", "s"),
    ("crypto.sign_s", "s"),
    ("crypto.verify_s", "s"),
    ("sev.attest_s", "s"),
    // wire (deta-core::wire, deta-runtime::rtmsg)
    ("wire.encode_s", "s"),
    ("wire.decode_s", "s"),
    ("wire.record_codec_s", "s"),
    ("rtmsg.codec_s", "s"),
    // transport (Network / Endpoint)
    ("transport.hop_s", "s"),
    ("transport.hop_small_s", "s"),
    ("transport.msgs_per_round", "count"),
    ("transport.bytes_party_agg", "bytes"),
    ("transport.bytes_agg_agg", "bytes"),
    ("transport.bytes_ctl", "bytes"),
    // agg (deta-core::agg)
    ("agg.fedavg_s", "s"),
    ("agg.fedavg_32p_s", "s"),
    ("agg.median_s", "s"),
    ("agg.trimmed_s", "s"),
    ("agg.krum_s", "s"),
    ("agg.flame_s", "s"),
    ("agg.kernel_s", "s"),
    // runtime (ThreadedSession, in-process)
    ("runtime.setup_s", "s"),
    ("runtime.round_s", "s"),
    ("runtime.upload_phase_s", "s"),
    ("runtime.agg_phase_s", "s"),
    ("runtime.download_phase_s", "s"),
    // socket (deta-socket)
    ("socket.frame_codec_s", "s"),
    ("socket.wire_codec_s", "s"),
    ("socket.loopback_hop_s", "s"),
    ("socket.upload_phase_s", "s"),
    ("socket.agg_phase_s", "s"),
    ("socket.download_phase_s", "s"),
    ("socket.round_tax_s", "s"),
    // paillier / bignum
    ("paillier.keygen_s", "s"),
    ("paillier.encrypt_s", "s"),
    ("paillier.add_s", "s"),
    ("paillier.decrypt_s", "s"),
    ("bignum.modpow_s", "s"),
    // trace
    ("trace.overhead_ratio", "ratio"),
    ("budget.coverage", "ratio"),
];

/// The declared unit of a per-layer metric.
///
/// # Panics
///
/// Panics on a name that is not in [`PER_LAYER`].
pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
}

/// One line of the budget: a layer function and its calls per round.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetRow {
    pub name: String,
    pub per_call_s: f64,
    pub calls: u64,
}

impl BudgetRow {
    pub fn per_round_s(&self) -> f64 {
        self.per_call_s * self.calls as f64
    }
}

/// The calls one sequential round makes into each layer function, for
/// `n` parties and `k` aggregators, read off `Party::run_local_round`,
/// `AggregatorNode::try_aggregate` and `Party::finish_round`:
///
/// * per party: train once, flatten the model twice (round base and
///   update), transform once, inverse once;
/// * per party and aggregator, in each direction (so `2nk`): encode the
///   inner message, seal it, wrap and unwrap the record, one hop, open,
///   decode;
/// * per aggregator: the kernel once, and `n` more encodes to write the
///   breach-memory image;
/// * once: the evaluation; and a small-message hop for every delivery
///   that carries no fragment.
pub fn budget_rows(w: &Workload, isolated: &[Metric], small_msgs: f64) -> Vec<BudgetRow> {
    let (n, k) = (w.parties as u64, w.aggregators as u64);
    let calls: [(&str, u64); 13] = [
        ("nn.train_local_s", n),
        ("nn.flat_params_s", 2 * n),
        ("transform.forward_s", n),
        ("transform.inverse_s", n),
        ("wire.encode_s", 2 * n * k + n * k),
        ("wire.decode_s", 2 * n * k),
        ("wire.record_codec_s", 2 * n * k),
        ("secure.seal_s", 2 * n * k),
        ("secure.open_s", 2 * n * k),
        ("transport.hop_s", 2 * n * k),
        ("agg.kernel_s", k),
        ("nn.evaluate_s", 1),
        ("transport.hop_small_s", small_msgs.round() as u64),
    ];
    calls
        .iter()
        .filter(|(_, calls)| *calls > 0)
        .map(|(name, calls)| BudgetRow {
            name: (*name).to_string(),
            per_call_s: isolated
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("{name} was not measured"))
                .value,
            calls: *calls,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
            assert!(
                PER_LAYER[..i].iter().all(|(other, _)| other != name),
                "{name} declared twice"
            );
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn budget_multiplies_per_call_time_by_calls() {
        let w = Workload::find("fedavg_seq").expect("workload");
        let isolated: Vec<Metric> = PER_LAYER
            .iter()
            .map(|(name, unit)| Metric::new(name, unit, 0.001))
            .collect();
        let rows = budget_rows(w, &isolated, 10.0);
        let seal = rows
            .iter()
            .find(|r| r.name == "secure.seal_s")
            .expect("row");
        assert_eq!(seal.calls, 24);
        assert!((seal.per_round_s() - 0.024).abs() < 1e-12);
        let encode = rows
            .iter()
            .find(|r| r.name == "wire.encode_s")
            .expect("row");
        assert_eq!(encode.calls, 36);
    }
}
