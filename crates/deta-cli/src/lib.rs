//! Configuration parsing and session assembly for the `deta-cli` binary,
//! and the harness of the evaluation binaries ([`bench`](mod@bench)).
//!
//! The config format is deliberately minimal — `key = value` lines with
//! `#` comments — so the CLI has no parser dependencies:
//!
//! ```text
//! # experiment.cfg
//! dataset      = mnist
//! resolution   = 12
//! model        = convnet8
//! parties      = 4
//! aggregators  = 3
//! rounds       = 5
//! algorithm    = avg
//! shuffle      = true
//! ```
//!
//! Run with `deta-cli run experiment.cfg` (see `deta-cli help`).

use deta_core::dp::LdpConfig;
use deta_core::paillier_fusion::PaillierFusionConfig;
use deta_core::transform::TransformConfig;
use deta_core::{AggKind, DetaConfig, SyncMode};
use deta_crypto::DetRng;
use deta_datasets::{iid_partition, noniid_skew_partition, DatasetSpec};
use deta_nn::models;
use deta_nn::train::LabeledData;
use deta_nn::Sequential;
use deta_transport::LinkModel;
use std::collections::HashMap;

pub mod bench;

/// A deterministic model constructor, as [`Config::model_builder`]
/// returns it.
pub type ModelBuilder = Box<dyn Fn(&mut DetRng) -> Sequential>;

/// Every key a configuration may set: the ones [`Config`]'s accessors
/// read.
pub const KEYS: [&str; 30] = [
    "dataset",
    "resolution",
    "model",
    "hidden",
    "parties",
    "aggregators",
    "rounds",
    "local_epochs",
    "batch_size",
    "lr",
    "seed",
    "partition",
    "shuffle",
    "cc_protected",
    "mode",
    "algorithm",
    "krum_f",
    "trim",
    "paillier",
    "paillier_bits",
    "ldp_epsilon",
    "ldp_delta",
    "ldp_clip",
    "participation",
    "link",
    "examples_per_party",
    "round_deadline_s",
    "noniid",
    "party_drop",
    "chaos_severs",
];

/// A parsed `key = value` configuration.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Config {
    entries: HashMap<String, String>,
}

/// Configuration errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A line was not `key = value` or a comment.
    BadLine(usize),
    /// A line set a key no accessor reads (not in [`KEYS`]).
    UnknownKey {
        /// The offending line, from 1.
        line: usize,
        /// The key it set.
        key: String,
    },
    /// A line set a key an earlier line already set.
    RepeatedKey {
        /// The repeating line, from 1.
        line: usize,
        /// The key it set again.
        key: String,
    },
    /// A value failed to parse.
    BadValue {
        /// The offending key.
        key: String,
        /// The offending value.
        value: String,
    },
    /// An enum-style key had an unknown variant.
    UnknownChoice {
        /// The offending key.
        key: String,
        /// The offending value.
        value: String,
        /// The accepted variants.
        allowed: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::BadLine(n) => write!(f, "line {n}: expected `key = value`"),
            ConfigError::UnknownKey { line, key } => write!(f, "line {line}: unknown key {key:?}"),
            ConfigError::RepeatedKey { line, key } => {
                write!(f, "line {line}: key {key:?} is already set")
            }
            ConfigError::BadValue { key, value } => {
                write!(f, "bad value for {key}: {value:?}")
            }
            ConfigError::UnknownChoice {
                key,
                value,
                allowed,
            } => {
                write!(f, "unknown {key} {value:?} (allowed: {allowed})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parses config text.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadLine`] for malformed lines,
    /// [`ConfigError::UnknownKey`] for a key not in [`KEYS`] and
    /// [`ConfigError::RepeatedKey`] for a key set twice.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut entries = HashMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(ConfigError::BadLine(i + 1));
            };
            let key = k.trim().to_string();
            if !KEYS.contains(&key.as_str()) {
                return Err(ConfigError::UnknownKey { line: i + 1, key });
            }
            if entries.contains_key(&key) {
                return Err(ConfigError::RepeatedKey { line: i + 1, key });
            }
            entries.insert(key, v.trim().to_string());
        }
        Ok(Config { entries })
    }

    /// Raw string lookup of one of [`KEYS`].
    pub fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(KEYS.contains(&key), "{key:?} is missing from KEYS");
        self.entries.get(key).map(String::as_str)
    }

    fn parse_as<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ConfigError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ConfigError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
            }),
        }
    }

    fn parse_bool(&self, key: &str, default: bool) -> Result<bool, ConfigError> {
        match self.get(key) {
            None => Ok(default),
            Some("true" | "yes" | "1" | "on") => Ok(true),
            Some("false" | "no" | "0" | "off") => Ok(false),
            Some(v) => Err(ConfigError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
            }),
        }
    }

    /// Resolves the dataset spec (`dataset`, `resolution`).
    pub fn dataset(&self) -> Result<DatasetSpec, ConfigError> {
        let name = self.get("dataset").unwrap_or("mnist");
        let mut spec = match name {
            "mnist" => DatasetSpec::mnist_like(),
            "cifar10" => DatasetSpec::cifar10_like(),
            "cifar100" => DatasetSpec::cifar100_like(),
            "rvlcdip" => DatasetSpec::rvlcdip_like(),
            "imagenet" => DatasetSpec::imagenet_like(),
            other => {
                return Err(ConfigError::UnknownChoice {
                    key: "dataset".to_string(),
                    value: other.to_string(),
                    allowed: "mnist|cifar10|cifar100|rvlcdip|imagenet",
                })
            }
        };
        let resolution: usize = self.parse_as("resolution", 12)?;
        spec = spec.at_resolution(resolution);
        Ok(spec)
    }

    /// Builds the model constructor (`model`).
    pub fn model_builder(&self, spec: &DatasetSpec) -> Result<ModelBuilder, ConfigError> {
        let hw = spec.height;
        let c = spec.channels;
        let classes = spec.classes;
        let dim = spec.dim();
        let name = self.get("model").unwrap_or("mlp").to_string();
        let hidden: usize = self.parse_as("hidden", 32)?;
        Ok(match name.as_str() {
            "mlp" => Box::new(move |rng| models::mlp(&[dim, hidden, classes], rng)),
            "convnet8" => Box::new(move |rng| models::convnet8(c, hw, classes, rng)),
            "convnet23" => Box::new(move |rng| models::convnet23(c, hw, classes, rng)),
            "vgg_lite" => Box::new(move |rng| models::vgg_lite(c, hw, classes, rng)),
            "resnet_lite" => Box::new(move |rng| models::resnet_lite(c, hw, classes, rng)),
            other => {
                return Err(ConfigError::UnknownChoice {
                    key: "model".to_string(),
                    value: other.to_string(),
                    allowed: "mlp|convnet8|convnet23|vgg_lite|resnet_lite",
                })
            }
        })
    }

    /// Builds the session configuration.
    pub fn session_config(&self) -> Result<DetaConfig, ConfigError> {
        let n_parties: usize = self.parse_as("parties", 4)?;
        if n_parties == 0 {
            return Err(ConfigError::BadValue {
                key: "parties".to_string(),
                value: "0".to_string(),
            });
        }
        let rounds: usize = self.parse_as("rounds", 5)?;
        let mut cfg = DetaConfig::deta(n_parties, rounds);
        cfg.n_aggregators = self.parse_as("aggregators", 3)?;
        cfg.local_epochs = self.parse_as("local_epochs", 1)?;
        cfg.batch_size = self.parse_as("batch_size", 32)?;
        cfg.lr = self.parse_as("lr", 0.1f32)?;
        cfg.seed = self.parse_as("seed", 0u64)?;
        cfg.transform = TransformConfig {
            partition: self.parse_bool("partition", true)?,
            shuffle: self.parse_bool("shuffle", true)?,
        };
        if !cfg.transform.partition {
            cfg.n_aggregators = 1;
        }
        cfg.cc_protected = self.parse_bool("cc_protected", true)?;
        cfg.mode = match self.get("mode").unwrap_or("fedavg") {
            "fedavg" => SyncMode::FedAvg,
            "fedsgd" => SyncMode::FedSgd,
            other => {
                return Err(ConfigError::UnknownChoice {
                    key: "mode".to_string(),
                    value: other.to_string(),
                    allowed: "fedavg|fedsgd",
                })
            }
        };
        cfg.algorithm = match self.get("algorithm").unwrap_or("avg") {
            "avg" => AggKind::IterativeAveraging,
            "sum" => AggKind::GradientSum,
            "median" => AggKind::CoordinateMedian,
            "krum" => AggKind::Krum {
                f: self.parse_as("krum_f", 1)?,
            },
            "flame" => AggKind::FlameLite,
            "trimmed" => AggKind::TrimmedMean {
                trim: self.parse_as("trim", 1)?,
            },
            other => {
                return Err(ConfigError::UnknownChoice {
                    key: "algorithm".to_string(),
                    value: other.to_string(),
                    allowed: "avg|sum|median|krum|flame|trimmed",
                })
            }
        };
        if self.parse_bool("paillier", false)? {
            cfg.paillier = Some(PaillierFusionConfig {
                n_bits: self.parse_as("paillier_bits", 384)?,
                ..Default::default()
            });
        }
        if self.get("ldp_epsilon").is_some() {
            cfg.ldp = Some(LdpConfig {
                epsilon: self.parse_as("ldp_epsilon", 0.0)?,
                delta: self.parse_as("ldp_delta", 1e-5f64)?,
                clip_norm: self.parse_as("ldp_clip", 1.0f64)?,
            });
        }
        if self.get("participation").is_some() {
            cfg.participation = Some(self.parse_as("participation", 0)?);
        }
        cfg.link = match self.get("link").unwrap_or("lan") {
            "lan" => LinkModel::lan(),
            "wan" => LinkModel::wan(),
            other => {
                return Err(ConfigError::UnknownChoice {
                    key: "link".to_string(),
                    value: other.to_string(),
                    allowed: "lan|wan",
                })
            }
        };
        Ok(cfg)
    }

    /// Examples generated per party (`examples_per_party`); zero is
    /// rejected, as a party with no examples cannot train.
    pub fn examples_per_party(&self) -> Result<usize, ConfigError> {
        match self.parse_as("examples_per_party", 200)? {
            0 => Err(ConfigError::BadValue {
                key: "examples_per_party".to_string(),
                value: "0".to_string(),
            }),
            n => Ok(n),
        }
    }

    /// Supervisor round deadline in seconds for `cluster` runs
    /// (`round_deadline_s`). Fault drills shorten it so a killed node
    /// process turns into a structured timeout quickly; zero, negative
    /// and values no `Duration` holds are rejected.
    pub fn round_deadline_s(&self) -> Result<f64, ConfigError> {
        let s: f64 = self.parse_as("round_deadline_s", 60.0)?;
        if s <= 0.0 || std::time::Duration::try_from_secs_f64(s).is_err() {
            return Err(ConfigError::BadValue {
                key: "round_deadline_s".to_string(),
                value: s.to_string(),
            });
        }
        Ok(s)
    }

    /// Whether to use the non-IID 90-10 split (`noniid`).
    pub fn noniid(&self) -> Result<bool, ConfigError> {
        self.parse_bool("noniid", false)
    }

    /// Partial participation for `cluster` runs (`party_drop`): a party
    /// whose link dies past its reconnect budget is dropped from the
    /// session instead of ending the run (see `RuntimeConfig::party_drop`).
    pub fn party_drop(&self) -> Result<bool, ConfigError> {
        self.parse_bool("party_drop", false)
    }

    /// Link-chaos schedule for `cluster` runs (`chaos_severs`): a
    /// comma-separated list of `node@count` entries — the hub abruptly
    /// severs `node`'s TCP connection (no `Bye`, both directions) the
    /// moment it has received `count` total frames from it, once per
    /// entry. E.g. `party-1@4,party-1@9` severs party-1's link twice.
    /// Exercises the reconnect-and-resume path in a real deployment.
    pub fn chaos_severs(&self) -> Result<HashMap<String, Vec<u64>>, ConfigError> {
        let mut out: HashMap<String, Vec<u64>> = HashMap::new();
        let Some(raw) = self.get("chaos_severs") else {
            return Ok(out);
        };
        for entry in raw.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let parsed = entry
                .split_once('@')
                .and_then(|(node, n)| Some((node.trim(), n.trim().parse::<u64>().ok()?)));
            let Some((node, count)) = parsed else {
                return Err(ConfigError::BadValue {
                    key: "chaos_severs".to_string(),
                    value: entry.to_string(),
                });
            };
            if node.is_empty() {
                return Err(ConfigError::BadValue {
                    key: "chaos_severs".to_string(),
                    value: entry.to_string(),
                });
            }
            out.entry(node.to_string()).or_default().push(count);
        }
        for counts in out.values_mut() {
            counts.sort_unstable();
        }
        Ok(out)
    }

    /// Assembles everything a session run needs — config, model
    /// builder, per-party shards, and the shared test set — all derived
    /// deterministically from this configuration. The coordinator and
    /// every spawned node process call this with the same file, so each
    /// rebuilds bit-identical data without any of it crossing a socket.
    pub fn prepare(&self) -> Result<Prepared, ConfigError> {
        let spec = self.dataset()?;
        let session = self.session_config()?;
        let per_party = self.examples_per_party()?;
        let n_parties = session.n_parties;
        let train = spec.generate(per_party * n_parties, session.seed.wrapping_add(1));
        let test = spec.generate((per_party / 2).max(50), session.seed.wrapping_add(2));
        let shards = if self.noniid()? {
            noniid_skew_partition(&train, n_parties, 0.9, session.seed.wrapping_add(3))
        } else {
            iid_partition(&train, n_parties, session.seed.wrapping_add(3))
        };
        let builder = self.model_builder(&spec)?;
        Ok(Prepared {
            session,
            builder,
            shards,
            test,
        })
    }
}

/// A fully assembled run: the session configuration plus the
/// deterministic model builder and data split it implies.
pub struct Prepared {
    /// The session configuration.
    pub session: DetaConfig,
    /// The model constructor.
    pub builder: ModelBuilder,
    /// One training shard per party.
    pub shards: Vec<LabeledData>,
    /// The shared test set.
    pub test: LabeledData,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_config() {
        let cfg = Config::parse(
            "# comment\n\
             dataset = cifar10\n\
             resolution = 16   # inline comment\n\
             parties = 8\n\
             shuffle = false\n",
        )
        .unwrap();
        let spec = cfg.dataset().unwrap();
        assert_eq!(spec.name, "cifar10-like");
        assert_eq!(spec.height, 16);
        let sc = cfg.session_config().unwrap();
        assert_eq!(sc.n_parties, 8);
        assert!(!sc.transform.shuffle);
        assert!(sc.transform.partition);
    }

    #[test]
    fn defaults_when_empty() {
        let cfg = Config::parse("").unwrap();
        let sc = cfg.session_config().unwrap();
        assert_eq!(sc.n_parties, 4);
        assert_eq!(sc.n_aggregators, 3);
        assert_eq!(sc.algorithm.name(), "iterative-averaging");
        assert!(sc.ldp.is_none());
        assert!(sc.participation.is_none());
    }

    #[test]
    fn rejects_malformed_line() {
        assert_eq!(
            Config::parse("dataset cifar10"),
            Err(ConfigError::BadLine(1))
        );
    }

    #[test]
    fn rejects_unknown_choices() {
        let cfg = Config::parse("dataset = svhn").unwrap();
        assert!(matches!(
            cfg.dataset(),
            Err(ConfigError::UnknownChoice { .. })
        ));
        let cfg = Config::parse("algorithm = quantum").unwrap();
        assert!(matches!(
            cfg.session_config(),
            Err(ConfigError::UnknownChoice { .. })
        ));
    }

    #[test]
    fn rejects_bad_numbers() {
        let cfg = Config::parse("parties = many").unwrap();
        assert!(matches!(
            cfg.session_config(),
            Err(ConfigError::BadValue { .. })
        ));
    }

    #[test]
    fn algorithms_and_modes_resolve() {
        for (alg, name) in [
            ("avg", "iterative-averaging"),
            ("sum", "gradient-sum"),
            ("median", "coordinate-median"),
            ("krum", "krum"),
            ("flame", "flame-lite"),
            ("trimmed", "trimmed-mean"),
        ] {
            let cfg = Config::parse(&format!("algorithm = {alg}")).unwrap();
            assert_eq!(cfg.session_config().unwrap().algorithm.name(), name);
        }
        let cfg = Config::parse("mode = fedsgd").unwrap();
        assert_eq!(cfg.session_config().unwrap().mode, SyncMode::FedSgd);
    }

    #[test]
    fn ldp_and_participation_options() {
        let cfg = Config::parse("ldp_epsilon = 8.0\nldp_clip = 2.5\nparticipation = 3\n").unwrap();
        let sc = cfg.session_config().unwrap();
        let ldp = sc.ldp.unwrap();
        assert_eq!(ldp.epsilon, 8.0);
        assert_eq!(ldp.clip_norm, 2.5);
        assert_eq!(sc.participation, Some(3));
    }

    #[test]
    fn round_deadline_defaults_and_rejects_nonpositive() {
        let cfg = Config::parse("").unwrap();
        assert_eq!(cfg.round_deadline_s().unwrap(), 60.0);
        let cfg = Config::parse("round_deadline_s = 2.5").unwrap();
        assert_eq!(cfg.round_deadline_s().unwrap(), 2.5);
        let cfg = Config::parse("round_deadline_s = 0").unwrap();
        assert!(matches!(
            cfg.round_deadline_s(),
            Err(ConfigError::BadValue { .. })
        ));
    }

    #[test]
    fn a_party_without_examples_is_rejected() {
        let cfg = Config::parse("examples_per_party = 0").unwrap();
        assert!(matches!(
            cfg.examples_per_party(),
            Err(ConfigError::BadValue { .. })
        ));
        assert!(cfg.prepare().is_err(), "refused before any data is split");
    }

    #[test]
    fn a_session_without_parties_is_rejected() {
        let cfg = Config::parse("parties = 0").unwrap();
        assert!(matches!(
            cfg.session_config(),
            Err(ConfigError::BadValue { .. })
        ));
        assert!(cfg.prepare().is_err(), "refused before any data is split");
    }

    #[test]
    fn round_deadline_rejects_what_no_duration_holds() {
        let cfg = Config::parse("round_deadline_s = 1e20").unwrap();
        assert!(matches!(
            cfg.round_deadline_s(),
            Err(ConfigError::BadValue { .. })
        ));
    }

    #[test]
    fn chaos_severs_parse_and_reject() {
        let cfg = Config::parse("").unwrap();
        assert!(cfg.chaos_severs().unwrap().is_empty());
        assert!(!cfg.party_drop().unwrap());
        let cfg = Config::parse("chaos_severs = party-1@9, party-1@4, agg-0@2\n").unwrap();
        let severs = cfg.chaos_severs().unwrap();
        // Per-node thresholds come back sorted ascending.
        assert_eq!(severs["party-1"], vec![4, 9]);
        assert_eq!(severs["agg-0"], vec![2]);
        for bad in ["party-1", "party-1@", "@4", "party-1@x"] {
            let cfg = Config::parse(&format!("chaos_severs = {bad}")).unwrap();
            assert!(
                matches!(cfg.chaos_severs(), Err(ConfigError::BadValue { .. })),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn no_partition_forces_single_aggregator() {
        let cfg = Config::parse("partition = false\naggregators = 3").unwrap();
        let sc = cfg.session_config().unwrap();
        assert_eq!(sc.n_aggregators, 1);
    }

    #[test]
    fn rejects_unknown_and_repeated_keys() {
        assert_eq!(
            Config::parse("dataset = mnist\npartys = 8"),
            Err(ConfigError::UnknownKey {
                line: 2,
                key: "partys".to_string()
            })
        );
        assert_eq!(
            Config::parse("parties = 8\n# a comment\nparties = 2"),
            Err(ConfigError::RepeatedKey {
                line: 3,
                key: "parties".to_string()
            })
        );
        let err = Config::parse("partys = 8").unwrap_err().to_string();
        assert!(
            err.contains("line 1") && err.contains("\"partys\""),
            "{err}"
        );
    }

    #[test]
    fn every_shipped_config_parses_and_prepares() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "cfg") {
                let text = std::fs::read_to_string(&path).unwrap();
                let cfg = Config::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
                cfg.prepare().unwrap_or_else(|e| panic!("{path:?}: {e}"));
                seen += 1;
            }
        }
        assert!(seen >= 4, "found {seen} configs in {dir}");
    }

    #[test]
    fn overhead_math() {
        assert!((bench::overhead(1.4, 1.0) - 0.4).abs() < 1e-12);
        assert!((bench::overhead(0.96, 1.0) + 0.04).abs() < 1e-12);
        assert_eq!(bench::overhead(1.0, 0.0), 0.0);
    }

    #[test]
    fn median_resists_one_outlier() {
        use bench::median;
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 100.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // The property the perf gates rely on: one wild sample moves a
        // sum by its full magnitude but the median not at all.
        assert_eq!(median(&[0.5, 0.5, 0.5, 0.5, 50.0]), 0.5);
    }

    #[test]
    fn args_take_only_the_declared_flags() {
        let args = |raw: &[&str]| {
            bench::Args::from_args(raw.iter().map(|a| a.to_string()), &["images"], &["fast"])
        };
        let ok = args(&["--fast", "--images", "7"]).unwrap();
        assert!(ok.switch("fast"));
        assert_eq!(ok.get("images", 60usize), 7);
        assert_eq!(ok.value("iterations"), None);
        assert_eq!(args(&[]).unwrap().count("images", 60), 60);
        for (raw, named) in [
            (&["--image", "7"][..], "\"--image\""),
            (&["--images"], "\"--images\""),
            (&["--images", "--fast"], "\"--images\""),
            (&["--images", "1", "--images", "2"], "\"--images\""),
            (&["--fast", "7"], "\"7\""),
        ] {
            let err = args(raw).unwrap_err();
            assert!(err.contains(named), "{raw:?}: {err}");
        }
    }

    #[test]
    fn model_builders_build() {
        let cfg = Config::parse("model = resnet_lite\nresolution = 8").unwrap();
        let spec = cfg.dataset().unwrap();
        let builder = cfg.model_builder(&spec).unwrap();
        let model = builder(&mut DetRng::from_u64(1));
        assert!(model.param_count() > 0);
    }
}
