//! The round ledger: every decision a round's *result* depends on.
//!
//! A DeTA round has one shape whichever way its nodes are scheduled, so
//! what it selects and what it reports is decided here, once, and both
//! the inline [`crate::DetaSession`] and the threaded runtime own a
//! [`RoundLedger`]: which parties train (a seeded draw over the parties
//! still in the session), what counts as uploaded and downloaded bytes
//! (the party ↔ aggregator links' delivered-byte windows, from before
//! the round is announced to after the last party has finished), how
//! cumulative node timers become latency-model inputs, and how the
//! training loss is averaged. A session is left with scheduling only:
//! it opens a round, reports each node's completion into the
//! [`OpenRound`], and closes it.

use crate::latency::{LatencyModel, RoundInputs};
use crate::party::PartyTimers;
use crate::session::{DetaConfig, RoundMetrics};
use deta_crypto::DetRng;
use deta_transport::Network;
use std::collections::{BTreeMap, HashMap};

/// Round accounting that outlives a round: numbering, the cumulative
/// latency, and each node's timers as of its previous report.
pub struct RoundLedger {
    seed: u64,
    participation: Option<usize>,
    network: Network,
    latency_model: LatencyModel,
    party_names: Vec<String>,
    next_round: u64,
    cumulative_latency_s: f64,
    party_timers: Vec<PartyTimers>,
    aggregate_s: HashMap<String, f64>,
}

/// One round between [`RoundLedger::open`] and [`RoundLedger::close`].
pub struct OpenRound {
    /// The round's number, starting at 1.
    pub round: u64,
    trains: Vec<bool>,
    links_before: BTreeMap<(String, String), u64>,
    /// Per party index: cumulative timers at completion, and the
    /// training loss when the party trained.
    parties: Vec<Option<(PartyTimers, Option<f32>)>>,
    /// Cumulative aggregation seconds by aggregator endpoint name.
    aggregators: BTreeMap<String, f64>,
}

impl RoundLedger {
    /// A ledger for the session `config` describes, over the parties
    /// named in index order.
    pub fn new(
        config: &DetaConfig,
        network: Network,
        latency_model: LatencyModel,
        party_names: Vec<String>,
    ) -> RoundLedger {
        RoundLedger {
            seed: config.seed,
            participation: config.participation,
            network,
            latency_model,
            party_timers: vec![PartyTimers::default(); party_names.len()],
            party_names,
            next_round: 1,
            cumulative_latency_s: 0.0,
            aggregate_s: HashMap::new(),
        }
    }

    /// Party endpoint names, in index order.
    pub fn party_names(&self) -> &[String] {
        &self.party_names
    }

    /// Number of rounds opened so far.
    pub fn completed_rounds(&self) -> u64 {
        self.next_round - 1
    }

    /// Opens the next round over `online`, the ascending indices of the
    /// parties still in the session. With a participation quorum `q`
    /// below their number, the round's cohort is the first `q` of a
    /// shuffle of `online` seeded by the session seed and the round
    /// number; otherwise everyone online trains.
    pub fn open(&mut self, online: &[usize]) -> OpenRound {
        let round = self.next_round;
        self.next_round += 1;
        let mut cohort = online.to_vec();
        if let Some(q) = self.participation.filter(|q| *q < online.len()) {
            DetRng::from_u64(self.seed)
                .fork_indexed(b"participation", round)
                .shuffle(&mut cohort);
            cohort.truncate(q);
        }
        let mut trains = vec![false; self.party_names.len()];
        for i in cohort {
            trains[i] = true;
        }
        OpenRound {
            round,
            trains,
            links_before: self.network.link_bytes(),
            parties: vec![None; self.party_names.len()],
            aggregators: BTreeMap::new(),
        }
    }

    /// Closes `open` into its metrics. `agg_names` is the aggregator set
    /// the round completed under (a failover may have changed it since
    /// the round opened); only those aggregators' links and timers count.
    pub fn close(
        &mut self,
        open: OpenRound,
        agg_names: &[String],
        test_loss: f32,
        test_accuracy: f32,
    ) -> RoundMetrics {
        let links_after = self.network.link_bytes();
        let window = |froms: &[String], tos: &[String]| -> u64 {
            links_after
                .iter()
                .filter(|((from, to), _)| froms.contains(from) && tos.contains(to))
                .map(|(link, bytes)| bytes - open.links_before.get(link).copied().unwrap_or(0))
                .sum()
        };
        let upload_bytes = window(&self.party_names, agg_names);
        let download_bytes = window(agg_names, &self.party_names);

        // Slowest node per term (nodes run in parallel), from the deltas
        // of the cumulative timers each completion carried. The loss is
        // summed in party-index order so the float reduction does not
        // depend on arrival order.
        let (mut train_s, mut transform_s, mut crypto_s) = (0.0f64, 0.0f64, 0.0f64);
        let (mut loss_sum, mut trained, mut finished) = (0.0f32, 0usize, 0u64);
        for (prev, report) in self.party_timers.iter_mut().zip(&open.parties) {
            let Some((timers, loss)) = report else {
                continue;
            };
            finished += 1;
            train_s = train_s.max(timers.train_s - prev.train_s);
            transform_s = transform_s.max(timers.transform_s - prev.transform_s);
            crypto_s = crypto_s.max(timers.crypto_s - prev.crypto_s);
            *prev = *timers;
            if let Some(loss) = loss {
                loss_sum += loss;
                trained += 1;
            }
        }
        let mut aggregate_s = 0.0f64;
        for name in agg_names {
            if let Some(cumulative) = open.aggregators.get(name) {
                let prev = self.aggregate_s.entry(name.clone()).or_insert(0.0);
                aggregate_s = aggregate_s.max(cumulative - *prev);
                *prev = *cumulative;
            }
        }
        // Per-party bytes and the loss average over the parties that
        // finished (resp. trained in) the round: one lost mid-round
        // contributed to neither.
        let latency = self.latency_model.round(&RoundInputs {
            max_party_train_s: train_s,
            max_party_transform_s: transform_s,
            max_party_crypto_s: crypto_s,
            upload_bytes_per_party: upload_bytes / finished.max(1),
            download_bytes_per_party: download_bytes / finished.max(1),
            max_aggregate_s: aggregate_s,
            n_aggregators: agg_names.len(),
        });
        let round_latency_s = latency.total();
        self.cumulative_latency_s += round_latency_s;
        RoundMetrics {
            round: open.round,
            train_loss: loss_sum / trained.max(1) as f32,
            test_loss,
            test_accuracy,
            latency,
            round_latency_s,
            cumulative_latency_s: self.cumulative_latency_s,
            upload_bytes,
            download_bytes,
        }
    }
}

impl OpenRound {
    /// Whether party `i` is in this round's cohort.
    pub fn trains(&self, i: usize) -> bool {
        self.trains[i]
    }

    /// Party `i` finished the round with these cumulative timers;
    /// `train_loss` is set when it trained.
    pub fn party_done(&mut self, i: usize, timers: PartyTimers, train_loss: Option<f32>) {
        self.parties[i] = Some((timers, train_loss));
    }

    /// Aggregator `name` completed the round having spent `aggregate_s`
    /// seconds aggregating since it started.
    pub fn aggregator_done(&mut self, name: &str, aggregate_s: f64) {
        self.aggregators.insert(name.to_string(), aggregate_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deta_transport::LinkModel;

    fn new_ledger(parties: usize, participation: Option<usize>, seed: u64) -> RoundLedger {
        ledger_on(Network::new(LinkModel::lan()), parties, participation, seed)
    }

    fn ledger_on(net: Network, parties: usize, q: Option<usize>, seed: u64) -> RoundLedger {
        let mut config = DetaConfig::deta(parties, 1);
        config.participation = q;
        config.seed = seed;
        let names = (0..parties).map(|i| format!("party-{i}")).collect();
        RoundLedger::new(
            &config,
            net,
            LatencyModel::deta_default(LinkModel::lan()),
            names,
        )
    }

    fn cohort(open: &OpenRound, parties: usize) -> Vec<usize> {
        (0..parties).filter(|i| open.trains(*i)).collect()
    }

    /// The draw every healthy run has always made (recorded before the
    /// ledger existed): moving it would move every partial-participation
    /// trajectory.
    #[test]
    fn cohort_is_the_pinned_draw() {
        let mut ledger = new_ledger(5, Some(3), 1234);
        let all = [0, 1, 2, 3, 4];
        let drawn: Vec<Vec<usize>> = (0..3).map(|_| cohort(&ledger.open(&all), 5)).collect();
        assert_eq!(drawn, COHORTS_SEED_1234);
    }

    #[test]
    fn cohort_never_names_a_party_that_left() {
        let mut ledger = new_ledger(4, Some(3), 31);
        for _ in 0..20 {
            assert_eq!(cohort(&ledger.open(&[0, 1, 2]), 4), [0, 1, 2]);
        }
        let mut ledger = new_ledger(4, Some(2), 31);
        for _ in 0..20 {
            let open = ledger.open(&[0, 2, 3]);
            assert_eq!(cohort(&open, 4).len(), 2);
            assert!(!open.trains(1));
        }
    }

    #[test]
    fn close_bills_party_links_inside_the_window_and_averages_over_reports() {
        let net = Network::new(LinkModel::lan());
        let mut ledger = ledger_on(net.clone(), 2, None, 0);
        let ends: Vec<_> = ["party-0", "party-1", "agg-0", "agg-1", "supervisor"]
            .iter()
            .map(|name| net.register(name))
            .collect();
        let aggs = ["agg-0".to_string(), "agg-1".to_string()];
        let send = |from: usize, to: &str, bytes: usize| {
            ends[from].send(to, vec![0u8; bytes]).expect("delivered");
        };
        send(0, "agg-0", 1_000); // before any round: in no window

        let mut open = ledger.open(&[0, 1]);
        send(0, "agg-0", 10);
        send(1, "agg-1", 20);
        send(2, "party-0", 7);
        send(3, "agg-0", 100); // follower sync
        send(0, "supervisor", 500); // control plane
        let timers = PartyTimers {
            train_s: 1.5,
            ..PartyTimers::default()
        };
        open.party_done(0, timers, Some(2.0));
        open.party_done(1, PartyTimers::default(), None);
        open.aggregator_done("agg-0", 0.25);
        let m = ledger.close(open, &aggs, 0.5, 0.75);
        assert_eq!((m.round, m.upload_bytes, m.download_bytes), (1, 30, 7));
        assert_eq!(
            (m.train_loss, m.test_loss, m.test_accuracy),
            (2.0, 0.5, 0.75)
        );
        assert_eq!(
            (m.latency.train_s, m.latency.aggregate_s),
            (1.5, 0.25 * 1.08)
        );

        // Timers are cumulative: the next round sees only its own delta,
        // and a party that left reports nothing and counts for nothing.
        let mut open = ledger.open(&[0]);
        send(0, "agg-0", 4);
        let timers = PartyTimers {
            train_s: 2.0,
            ..PartyTimers::default()
        };
        open.party_done(0, timers, Some(3.0));
        let m = ledger.close(open, &aggs, 0.0, 0.0);
        assert_eq!((m.round, m.upload_bytes, m.download_bytes), (2, 4, 0));
        assert_eq!((m.train_loss, m.latency.train_s), (3.0, 0.5));
        assert_eq!(ledger.completed_rounds(), 2);
    }

    const COHORTS_SEED_1234: [[usize; 3]; 3] = [[2, 3, 4], [1, 2, 4], [2, 3, 4]];
}
