//! The round-latency accounting model.
//!
//! The paper reports end-to-end training latency on a real testbed (AMD
//! EPYC aggregators, GPU parties, a physical network). This reproduction
//! runs everything in one process, so per-round latency is *accounted*
//! rather than waited out:
//!
//! * **Compute** terms (local training, transform, aggregation, Paillier
//!   encryption/decryption) are measured wall-clock times of the real Rust
//!   implementations.
//! * **Network** terms come from [`LinkModel`] applied to the actual bytes
//!   each message carried.
//! * **Confidential-computing overhead** is a multiplicative factor on
//!   aggregator compute plus a fixed per-round cost, modelling SEV memory
//!   encryption and extra VM exits. The figures (8% + 20 ms) are in line
//!   with published SEV overhead measurements; they only apply when the
//!   deployment is CC-protected.
//! * **Party-side parallelism**: with `k` aggregators, per-fragment work
//!   (notably Paillier encryption/decryption) runs `k`-way parallel in a
//!   real deployment. The model applies an Amdahl-style discount: 40% of
//!   the measured serial crypto time speeds up by `min(k, 8)`, the rest
//!   (randomness generation, packing, serialization) stays serial. This is the effect behind the
//!   paper's observation that Paillier fusion is slightly *faster* under
//!   DeTA (their Figure 5f).
//!
//! These figures stand in for hardware the reproduction lacks, so they
//! are constants; a session's model is chosen by its configuration's
//! `link` and `cc_protected` alone.

use deta_transport::LinkModel;
use std::time::Instant;

/// Multiplier on aggregator compute when running inside a CVM.
const CC_COMPUTE_FACTOR: f64 = 1.08;
/// Fixed per-round CC overhead per aggregator (seconds).
const CC_ROUND_OVERHEAD_S: f64 = 0.02;
/// Party-side hardware parallelism available for per-fragment work.
const PARALLELISM: usize = 8;
/// Fraction of party-side crypto work that parallelizes across fragments
/// (Amdahl's law; the rest is serial).
const CRYPTO_PARALLEL_FRACTION: f64 = 0.4;

/// The one stopwatch behind every measured compute term: runs `work` and
/// adds its wall time to `timer_s`. A telemetry span meant to have the
/// same extent is opened first thing inside `work`.
pub(crate) fn timed<T>(timer_s: &mut f64, work: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = work();
    *timer_s += t0.elapsed().as_secs_f64();
    out
}

/// Measured inputs for one round.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundInputs {
    /// Slowest party's local training time (parties run in parallel).
    pub max_party_train_s: f64,
    /// Slowest party's transform + inverse-transform time.
    pub max_party_transform_s: f64,
    /// Slowest party's serial Paillier encrypt/decrypt time.
    pub max_party_crypto_s: f64,
    /// Bytes uploaded per party this round (sum over fragments).
    pub upload_bytes_per_party: u64,
    /// Bytes downloaded per party this round.
    pub download_bytes_per_party: u64,
    /// Slowest aggregator's aggregation compute time.
    pub max_aggregate_s: f64,
    /// Number of aggregators.
    pub n_aggregators: usize,
}

/// Per-phase breakdown of one round's latency.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundLatency {
    /// Party training phase.
    pub train_s: f64,
    /// Transform phase.
    pub transform_s: f64,
    /// Party-side cryptography phase (after parallelism discount).
    pub crypto_s: f64,
    /// Upload transfer.
    pub upload_s: f64,
    /// Aggregation compute (after CC factor).
    pub aggregate_s: f64,
    /// CC fixed overhead.
    pub cc_overhead_s: f64,
    /// Download transfer.
    pub download_s: f64,
}

impl RoundLatency {
    /// Total round latency.
    pub fn total(&self) -> f64 {
        self.train_s
            + self.transform_s
            + self.crypto_s
            + self.upload_s
            + self.aggregate_s
            + self.cc_overhead_s
            + self.download_s
    }
}

/// The latency breakdown of one round over `link`, with the CC terms
/// when the aggregators are `cc_protected` (a session's
/// `DetaConfig::{link, cc_protected}`).
pub fn round(link: LinkModel, cc_protected: bool, inputs: &RoundInputs) -> RoundLatency {
    let k = inputs.n_aggregators.max(1);
    let par = PARALLELISM.min(k) as f64;
    let frac = CRYPTO_PARALLEL_FRACTION;
    let crypto_discount = (1.0 - frac) + frac / par;
    let (cc_factor, cc_fixed) = if cc_protected {
        (CC_COMPUTE_FACTOR, CC_ROUND_OVERHEAD_S * k as f64)
    } else {
        (1.0, 0.0)
    };
    // Parties upload k fragments; fragment transfers to distinct
    // aggregators proceed in parallel, but each party's uplink is
    // shared, so bytes serialize while per-message base latency
    // overlaps: time = base + total_bytes / bandwidth.
    let transfer_s = |bytes: u64| link.transfer_time(bytes as usize);
    RoundLatency {
        train_s: inputs.max_party_train_s,
        transform_s: inputs.max_party_transform_s,
        crypto_s: inputs.max_party_crypto_s * crypto_discount,
        upload_s: transfer_s(inputs.upload_bytes_per_party),
        aggregate_s: inputs.max_aggregate_s * cc_factor,
        cc_overhead_s: cc_fixed,
        download_s: transfer_s(inputs.download_bytes_per_party),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> RoundInputs {
        RoundInputs {
            max_party_train_s: 1.0,
            max_party_transform_s: 0.1,
            max_party_crypto_s: 0.0,
            upload_bytes_per_party: 1_000_000,
            download_bytes_per_party: 1_000_000,
            max_aggregate_s: 0.5,
            n_aggregators: 3,
        }
    }

    #[test]
    fn deta_costs_more_than_ffl_for_same_inputs() {
        let link = LinkModel::lan();
        let deta = round(link, true, &inputs()).total();
        let ffl_inputs = RoundInputs {
            n_aggregators: 1,
            max_party_transform_s: 0.0,
            ..inputs()
        };
        let ffl = round(link, false, &ffl_inputs).total();
        assert!(deta > ffl, "{deta} !> {ffl}");
    }

    #[test]
    fn cc_factor_applies_only_when_protected() {
        let link = LinkModel::lan();
        let with_cc = round(link, true, &inputs());
        let without = round(link, false, &inputs());
        assert!(with_cc.aggregate_s > without.aggregate_s);
        assert_eq!(without.cc_overhead_s, 0.0);
        assert!(with_cc.cc_overhead_s > 0.0);
    }

    #[test]
    fn crypto_parallelism_discount() {
        let serial = RoundInputs {
            max_party_crypto_s: 8.0,
            n_aggregators: 1,
            ..inputs()
        };
        let parallel = RoundInputs {
            max_party_crypto_s: 8.0,
            n_aggregators: 4,
            ..inputs()
        };
        let s = round(LinkModel::lan(), true, &serial);
        let p = round(LinkModel::lan(), true, &parallel);
        // One aggregator: no discount. Four: Amdahl with fraction 0.4.
        assert!((s.crypto_s - 8.0).abs() < 1e-12);
        let want = 8.0 * (0.6 + 0.4 / 4.0);
        assert!(
            (p.crypto_s - want).abs() < 1e-12,
            "{} vs {want}",
            p.crypto_s
        );
        assert!(p.crypto_s < s.crypto_s);
    }

    #[test]
    fn parallelism_capped_by_hardware() {
        let sixteen = RoundInputs {
            max_party_crypto_s: 8.0,
            n_aggregators: 16,
            ..inputs()
        };
        let r = round(LinkModel::lan(), true, &sixteen);
        // Sixteen fragments, but the hardware cap of 8 bounds the
        // parallel portion's speedup.
        let want = 8.0 * (0.6 + 0.4 / 8.0);
        assert!((r.crypto_s - want).abs() < 1e-12);
    }

    #[test]
    fn total_sums_phases() {
        let r = round(LinkModel::lan(), true, &inputs());
        let manual = r.train_s
            + r.transform_s
            + r.crypto_s
            + r.upload_s
            + r.aggregate_s
            + r.cc_overhead_s
            + r.download_s;
        assert!((r.total() - manual).abs() < 1e-12);
    }

    #[test]
    fn bytes_drive_transfer_time() {
        let link = LinkModel {
            base_s: 0.0,
            bytes_per_s: 1000.0,
        };
        let bytes = RoundInputs {
            upload_bytes_per_party: 5000,
            download_bytes_per_party: 1000,
            ..RoundInputs::default()
        };
        let r = round(link, false, &bytes);
        assert!((r.upload_s - 5.0).abs() < 1e-9);
        assert!((r.download_s - 1.0).abs() < 1e-9);
    }
}
