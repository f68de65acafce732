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
//!   encryption and extra VM exits. The defaults (8% + 20 ms) are in line
//!   with published SEV overhead measurements; they only apply when the
//!   deployment is CC-protected.
//! * **Party-side parallelism**: with `k` aggregators, per-fragment work
//!   (notably Paillier encryption/decryption) runs `k`-way parallel in a
//!   real deployment. The model applies an Amdahl-style discount: a
//!   `crypto_parallel_fraction` of the measured serial crypto time speeds
//!   up by `min(k, parallelism)`, the rest (randomness generation,
//!   packing, serialization) stays serial. This is the effect behind the
//!   paper's observation that Paillier fusion is slightly *faster* under
//!   DeTA (their Figure 5f).

use deta_transport::LinkModel;
use std::time::Instant;

/// Latency model parameters.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Network link model.
    pub link: LinkModel,
    /// Multiplier on aggregator compute when running inside a CVM.
    pub cc_compute_factor: f64,
    /// Fixed per-round CC overhead per aggregator (seconds).
    pub cc_round_overhead_s: f64,
    /// Party-side hardware parallelism available for per-fragment work.
    pub parallelism: usize,
    /// Fraction of party-side crypto work that parallelizes across
    /// fragments (Amdahl's law; the rest is serial).
    pub crypto_parallel_fraction: f64,
    /// Whether aggregators are CC-protected.
    pub cc_protected: bool,
}

impl LatencyModel {
    /// The DeTA deployment defaults.
    pub fn deta_default(link: LinkModel) -> LatencyModel {
        LatencyModel {
            link,
            cc_compute_factor: 1.08,
            cc_round_overhead_s: 0.02,
            parallelism: 8,
            crypto_parallel_fraction: 0.4,
            cc_protected: true,
        }
    }

    /// The FFL baseline: no CC protection.
    pub fn ffl_default(link: LinkModel) -> LatencyModel {
        LatencyModel {
            cc_protected: false,
            ..Self::deta_default(link)
        }
    }
}

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

impl LatencyModel {
    /// Computes the latency breakdown for one round.
    pub fn round(&self, inputs: &RoundInputs) -> RoundLatency {
        let k = inputs.n_aggregators.max(1);
        let par = self.parallelism.max(1).min(k) as f64;
        let frac = self.crypto_parallel_fraction.clamp(0.0, 1.0);
        let crypto_discount = (1.0 - frac) + frac / par;
        let (cc_factor, cc_fixed) = if self.cc_protected {
            (self.cc_compute_factor, self.cc_round_overhead_s * k as f64)
        } else {
            (1.0, 0.0)
        };
        // Parties upload k fragments; fragment transfers to distinct
        // aggregators proceed in parallel, but each party's uplink is
        // shared, so bytes serialize while per-message base latency
        // overlaps: time = base + total_bytes / bandwidth.
        let transfer_s = |bytes: u64| self.link.transfer_time(bytes as usize);
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
        let deta = LatencyModel::deta_default(link).round(&inputs()).total();
        let ffl = LatencyModel::ffl_default(link)
            .round(&RoundInputs {
                n_aggregators: 1,
                max_party_transform_s: 0.0,
                ..inputs()
            })
            .total();
        assert!(deta > ffl, "{deta} !> {ffl}");
    }

    #[test]
    fn cc_factor_applies_only_when_protected() {
        let link = LinkModel::lan();
        let with_cc = LatencyModel::deta_default(link).round(&inputs());
        let without = LatencyModel::ffl_default(link).round(&inputs());
        assert!(with_cc.aggregate_s > without.aggregate_s);
        assert_eq!(without.cc_overhead_s, 0.0);
        assert!(with_cc.cc_overhead_s > 0.0);
    }

    #[test]
    fn crypto_parallelism_discount() {
        let link = LinkModel::lan();
        let model = LatencyModel::deta_default(link);
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
        let s = model.round(&serial);
        let p = model.round(&parallel);
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
        let link = LinkModel::lan();
        let mut model = LatencyModel::deta_default(link);
        model.parallelism = 2;
        let r = model.round(&RoundInputs {
            max_party_crypto_s: 8.0,
            n_aggregators: 16,
            ..inputs()
        });
        // Hardware cap of 2 bounds the parallel portion's speedup.
        let want = 8.0 * (0.6 + 0.4 / 2.0);
        assert!((r.crypto_s - want).abs() < 1e-12);
    }

    #[test]
    fn total_sums_phases() {
        let link = LinkModel::lan();
        let r = LatencyModel::deta_default(link).round(&inputs());
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
        let model = LatencyModel::ffl_default(link);
        let r = model.round(&RoundInputs {
            upload_bytes_per_party: 5000,
            download_bytes_per_party: 1000,
            ..RoundInputs::default()
        });
        assert!((r.upload_s - 5.0).abs() < 1e-9);
        assert!((r.download_s - 1.0).abs() < 1e-9);
    }
}
