//! Known answers for the round-latency model: one fixed set of measured
//! inputs under the DeTA and FFL configurations, on the LAN and WAN
//! links, with the bits of every phase of the breakdown. The figures'
//! latency columns (fig5/6/7) are these sums, so a refactor of the model
//! has to reproduce the bits exactly.
//!
//! The answers were recorded while the model was a struct of six
//! settable fields, built as `deta_default(link)` or `ffl_default(link)`
//! by the configuration's `cc_protected`.

use deta::core::latency::{self, RoundInputs, RoundLatency};
use deta::core::session::DetaConfig;
use deta::transport::LinkModel;

/// One round's measured inputs, with every term non-zero.
const INPUTS: RoundInputs = RoundInputs {
    max_party_train_s: 1.234_567,
    max_party_transform_s: 0.067_891,
    max_party_crypto_s: 2.5,
    upload_bytes_per_party: 4_070_440,
    download_bytes_per_party: 4_070_452,
    max_aggregate_s: 0.321_7,
    n_aggregators: 3,
};

fn latency(config: &DetaConfig) -> RoundLatency {
    latency::round(config.link, config.cc_protected, &INPUTS)
}

/// The bits of every phase, in field order, then of the total.
fn bits(l: &RoundLatency) -> [u64; 8] {
    [
        l.train_s,
        l.transform_s,
        l.crypto_s,
        l.upload_s,
        l.aggregate_s,
        l.cc_overhead_s,
        l.download_s,
        l.total(),
    ]
    .map(f64::to_bits)
}

fn check(config: DetaConfig, link: LinkModel, want: [u64; 8]) {
    let config = DetaConfig { link, ..config };
    let hex = |bits: [u64; 8]| bits.map(|b| format!("{b:#018x}"));
    assert_eq!(hex(bits(&latency(&config))), hex(want));
}

#[test]
fn deta_on_the_lan() {
    let want = [
        0x3ff3c0c9539b8887,
        0x3fb1614df8b15726,
        0x3ffd555555555555,
        0x3fa12f3cd97a2f46,
        0x3fd63c64345cfedf,
        0x3faeb851eb851eb8,
        0x3fa12f40121c6acd,
        0x400ce20186260866,
    ];
    check(DetaConfig::deta(4, 1), LinkModel::lan(), want);
}

#[test]
fn deta_on_the_wan() {
    let want = [
        0x3ff3c0c9539b8887,
        0x3fb1614df8b15726,
        0x3ffd555555555555,
        0x3fd6c2ba24539c60,
        0x3fd63c64345cfedf,
        0x3faeb851eb851eb8,
        0x3fd6c2be2b1e66c8,
        0x4011049b4e32f732,
    ];
    check(DetaConfig::deta(4, 1), LinkModel::wan(), want);
}

#[test]
fn ffl_on_the_lan() {
    let want = [
        0x3ff3c0c9539b8887,
        0x3fb1614df8b15726,
        0x3ffd555555555555,
        0x3fa12f3cd97a2f46,
        0x3fd496bb98c7e282,
        0x0000000000000000,
        0x3fa12f40121c6acd,
        0x400c326b2b05505f,
    ];
    check(DetaConfig::ffl_baseline(4, 1), LinkModel::lan(), want);
}

#[test]
fn ffl_on_the_wan() {
    let want = [
        0x3ff3c0c9539b8887,
        0x3fb1614df8b15726,
        0x3ffd555555555555,
        0x3fd6c2ba24539c60,
        0x3fd496bb98c7e282,
        0x0000000000000000,
        0x3fd6c2be2b1e66c8,
        0x4010acd020a29b2e,
    ];
    check(DetaConfig::ffl_baseline(4, 1), LinkModel::wan(), want);
}
