//! The four workloads: their shapes, fixed round counts and references.
//!
//! Everything that decides how much work a run does is a constant here,
//! so a parent commit and a change under test do identical work. The
//! `--seed` reaches the program only through [`DetaConfig::seed`] and
//! the shards and test set generated from it.

use deta_core::{AggKind, DetaConfig};
use deta_crypto::DetRng;
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::{convnet8, mlp};
use deta_nn::train::LabeledData;
use deta_nn::Sequential;

/// The `run_seconds` declared in `BENCHMARK.json`, which the driver
/// passes back as `--seconds`: about how long the timed rounds of a
/// workload took where the benchmark was defined. It is accepted and
/// echoed, and decides nothing: how much work a run does is fixed by the
/// counts below, so a parent commit and a change do identical work.
pub const RUN_SECONDS: u64 = 20;

/// The seed the stored reference losses were recorded at.
pub const DEFAULT_SEED: u64 = 42;

/// Test-set size: one accuracy step is 1/64.
pub const TEST_EXAMPLES: usize = 64;

/// Rounds run before timing starts (allocator warm, caches filled).
/// They are also the rounds the plain reference recomputes
/// (`crate::reference`), at every seed.
pub const WARMUP_ROUNDS: usize = 2;

/// How the nodes of a workload are hosted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deployment {
    /// `DetaSession`: every node driven from one thread.
    Sequential,
    /// `ThreadedSession::setup_detached` behind a `SocketHub`, one child
    /// per node on a thread of this process, over TCP loopback.
    Tcp,
}

/// The model every party trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// `mlp(dims)` on MNIST-shaped 784-dimensional inputs.
    Mlp(&'static [usize]),
    /// `convnet8(3, 32, 10)` on CIFAR-shaped 3×32×32 inputs.
    ConvNet8,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub deployment: Deployment,
    pub algorithm: AggKind,
    pub parties: usize,
    pub aggregators: usize,
    pub model: Model,
    pub examples_per_party: usize,
    pub batch_size: usize,
    /// Timed rounds of a run: a fixed count, chosen so they take about
    /// [`RUN_SECONDS`] at the commit that defined the benchmark.
    pub timed_rounds: usize,
    /// Fresh set-ups per `setup_s` sample, so no sample is under 0.4 s.
    pub setup_batch: usize,
    /// `setup_s` samples per run (the median is reported): half are
    /// taken before the rounds and half after, so a slow stretch of the
    /// box cannot cover them all.
    pub setup_samples: usize,
    /// Final test loss at [`DEFAULT_SEED`]; the correctness check allows
    /// 2 % around it.
    pub reference_test_loss: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fedavg_seq",
        why: "1.0M-param MLP, 4 parties, 3 aggregators, sequential: the update data path \
              (transform, seal/open, codec, copies) is ~85 % of a round",
        deployment: Deployment::Sequential,
        algorithm: AggKind::IterativeAveraging,
        parties: 4,
        aggregators: 3,
        model: Model::Mlp(&[784, 1280, 10]),
        examples_per_party: 16,
        batch_size: 16,
        timed_rounds: 36,
        setup_batch: 2,
        setup_samples: 6,
        reference_test_loss: 0.054904207587242126,
    },
    Workload {
        name: "fedavg_tcp",
        why: "the same session behind SocketHub on TCP loopback: every fragment also crosses \
              frame codec, sealed link records, replay window and the hub relay twice",
        deployment: Deployment::Tcp,
        algorithm: AggKind::IterativeAveraging,
        parties: 4,
        aggregators: 3,
        model: Model::Mlp(&[784, 1280, 10]),
        examples_per_party: 16,
        batch_size: 16,
        timed_rounds: 30,
        setup_batch: 1,
        setup_samples: 4,
        reference_test_loss: 0.06382466852664948,
    },
    Workload {
        name: "train_conv",
        why: "67k-param ConvNet, 128 examples per party: tensor and nn kernels are >90 % of \
              a round, the data path <5 %, so a data-path change must not move it",
        deployment: Deployment::Sequential,
        algorithm: AggKind::IterativeAveraging,
        parties: 4,
        aggregators: 3,
        model: Model::ConvNet8,
        examples_per_party: 128,
        batch_size: 32,
        timed_rounds: 54,
        setup_batch: 4,
        setup_samples: 6,
        reference_test_loss: 0.000868198461830616,
    },
    Workload {
        name: "median_32p",
        why: "coordinate median over 32 parties of a 102k-param MLP: the aggregator pump and \
              the robust kernel get their largest share, as many small fragments",
        deployment: Deployment::Sequential,
        algorithm: AggKind::CoordinateMedian,
        parties: 32,
        aggregators: 3,
        model: Model::Mlp(&[784, 128, 10]),
        examples_per_party: 8,
        batch_size: 8,
        timed_rounds: 48,
        setup_batch: 2,
        setup_samples: 6,
        reference_test_loss: 0.15061549842357635,
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Rounds of a run, warm-up included.
    pub fn planned_rounds(&self) -> usize {
        WARMUP_ROUNDS + self.timed_rounds
    }

    pub fn dataset(&self) -> DatasetSpec {
        match self.model {
            Model::Mlp(_) => DatasetSpec::mnist_like(),
            Model::ConvNet8 => DatasetSpec::cifar10_like().at_resolution(32),
        }
    }

    pub fn build_model(&self, rng: &mut DetRng) -> Sequential {
        match self.model {
            Model::Mlp(dims) => mlp(dims, rng),
            Model::ConvNet8 => convnet8(3, 32, 10, rng),
        }
    }

    pub fn n_params(&self) -> usize {
        self.build_model(&mut DetRng::from_u64(0)).param_count()
    }

    /// The session configuration: the paper's evaluation shape (full
    /// transform, FedAvg mode, one local epoch) at this workload's size.
    pub fn config(&self, seed: u64, rounds: usize) -> DetaConfig {
        DetaConfig {
            n_aggregators: self.aggregators,
            algorithm: self.algorithm,
            batch_size: self.batch_size,
            seed,
            ..DetaConfig::deta(self.parties, rounds)
        }
    }

    /// Per-party training shards generated from the seed.
    pub fn shards(&self, seed: u64) -> Vec<LabeledData> {
        let train = covering(
            &self.dataset(),
            self.examples_per_party * self.parties,
            data_seed(seed, b"train"),
        );
        iid_partition(&train, self.parties, data_seed(seed, b"split"))
    }

    /// The held-out test set generated from the seed.
    pub fn test_set(&self, seed: u64) -> LabeledData {
        covering(&self.dataset(), TEST_EXAMPLES, data_seed(seed, b"test"))
    }
}

/// `n` examples of `spec` in which every class has at least half its
/// fair share: `DatasetSpec::generate` labels at random, and a draw
/// that leaves a class short is made again from the next sub-seed.
///
/// The FedAvg rows train on 64 examples in all. About one seed in
/// thirty would leave a class with one or no training example, and the
/// run would end at 0.84 accuracy however correct the program is; with
/// every class covered, every seed can reach the floor a correct run
/// must reach. The larger workloads practically never redraw.
fn covering(spec: &DatasetSpec, n: usize, seed: u64) -> LabeledData {
    let least = n / (2 * spec.classes);
    let draws = DetRng::from_u64(seed);
    (0u64..)
        .map(|attempt| spec.generate(n, draws.fork_indexed(b"draw", attempt).next_u64()))
        .find(|data| {
            let mut count = vec![0usize; spec.classes];
            for &class in &data.labels {
                count[class] += 1;
            }
            count.iter().all(|&c| c >= least)
        })
        .expect("an unbounded search ends only by finding")
}

fn data_seed(seed: u64, label: &[u8]) -> u64 {
    DetRng::from_u64(seed)
        .fork(b"roundbench")
        .fork(label)
        .next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(Workload::find(w.name).map(|f| f.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(Workload::find("nope").is_none());
    }

    #[test]
    fn model_sizes_match_the_glossary() {
        assert_eq!(Workload::find("fedavg_seq").unwrap().n_params(), 1_017_610);
        assert_eq!(Workload::find("fedavg_tcp").unwrap().n_params(), 1_017_610);
        assert_eq!(Workload::find("train_conv").unwrap().n_params(), 67_642);
        assert_eq!(Workload::find("median_32p").unwrap().n_params(), 101_770);
    }

    #[test]
    fn every_class_has_at_least_half_its_fair_share() {
        let w = Workload::find("fedavg_seq").unwrap();
        for seed in 0..40 {
            let mut count = [0usize; 10];
            for shard in w.shards(seed) {
                assert_eq!(shard.len(), w.examples_per_party);
                for &class in &shard.labels {
                    count[class] += 1;
                }
            }
            assert!(count.iter().all(|&c| c >= 3), "seed {seed}: {count:?}");
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = Workload::find("median_32p").unwrap();
        let a = w.shards(7);
        let b = w.shards(7);
        let c = w.shards(8);
        assert_eq!(a.len(), 32);
        assert_eq!(a[0].len(), 8);
        assert_eq!(a[3].features.data(), b[3].features.data());
        assert_ne!(a[3].features.data(), c[3].features.data());
        assert_eq!(w.test_set(7).len(), TEST_EXAMPLES);
    }
}
