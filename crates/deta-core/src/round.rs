//! The round ledger: every decision a round's *result* depends on.
//!
//! A DeTA round has one shape whichever way its nodes are scheduled, so
//! what it selects and what it reports is decided here, once, and both
//! the inline [`crate::DetaSession`] and the threaded runtime own a
//! [`RoundLedger`]: who is still in the session, which of them train (a
//! seeded draw), the `RoundPlan` each is sent, which completions the
//! round waits for and what each one carried, what counts as uploaded
//! and downloaded bytes (the party ↔ aggregator links' delivered-byte
//! windows, from before the round is announced to after the last party
//! has finished), how cumulative node timers become latency-model
//! inputs, and how the training loss is averaged. A session is left
//! with scheduling only: it opens a round, hands out its plans, absorbs
//! the nodes' reports into the [`OpenRound`] until nobody is awaited,
//! and closes it.

use crate::latency::{self, RoundInputs};
use crate::party::PartyTimers;
use crate::rtmsg::CtlMsg;
use crate::session::{DetaConfig, RoundMetrics};
use deta_crypto::DetRng;
use deta_transport::{LinkModel, Network};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Round accounting that outlives a round: numbering, who is still in
/// the session, the cumulative latency, and each node's timers as of its
/// previous report.
pub struct RoundLedger {
    seed: u64,
    participation: Option<usize>,
    network: Network,
    link: LinkModel,
    cc_protected: bool,
    party_names: Arc<[String]>,
    /// Parties that left the session: in no later cohort, awaited by no
    /// completion wait.
    left: HashSet<String>,
    next_round: u64,
    cumulative_latency_s: f64,
    party_timers: Vec<PartyTimers>,
    aggregate_s: HashMap<String, f64>,
}

/// One round between [`RoundLedger::open`] and [`RoundLedger::close`].
pub struct OpenRound {
    /// The round's number, starting at 1.
    pub round: u64,
    party_names: Arc<[String]>,
    /// Indices of the parties in the session when the round opened.
    online: Vec<usize>,
    trains: Vec<bool>,
    links_before: BTreeMap<(String, String), u64>,
    /// Per party index: cumulative timers at completion, and the
    /// training loss when the party trained.
    parties: Vec<Option<(PartyTimers, Option<f32>)>>,
    /// Cumulative aggregation seconds by aggregator endpoint name.
    aggregators: BTreeMap<String, f64>,
    /// Nodes whose completion of the round is in.
    done: HashSet<String>,
    /// The one party asked for a parameter snapshot, by index, and the
    /// number of values the snapshot must hold.
    snapshot: Option<(usize, usize)>,
    /// The parameter snapshot that party's `PartyDone` carried, for
    /// evaluation.
    pub params: Option<Vec<f32>>,
}

impl RoundLedger {
    /// A ledger for the session `config` describes, over the parties
    /// named in index order.
    pub fn new(config: &DetaConfig, network: Network, party_names: Vec<String>) -> RoundLedger {
        RoundLedger {
            seed: config.seed,
            participation: config.participation,
            network,
            link: config.link,
            cc_protected: config.cc_protected,
            party_timers: vec![PartyTimers::default(); party_names.len()],
            party_names: party_names.into(),
            left: HashSet::new(),
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

    /// `party` leaves the session: no later round plans for it, and no
    /// wait, the open round's included, expects it.
    pub fn leave(&mut self, party: &str) {
        self.left.insert(party.to_string());
    }

    /// The parties that left the session.
    pub fn left(&self) -> &HashSet<String> {
        &self.left
    }

    /// Ascending indices of the parties still in the session.
    pub fn online(&self) -> Vec<usize> {
        let names = &self.party_names;
        (0..names.len())
            .filter(|&i| !self.left.contains(&names[i]))
            .collect()
    }

    /// Opens the next round over the parties still in the session. With
    /// a participation quorum `q` below their number, the round's cohort
    /// is the first `q` of a shuffle of their indices seeded by the
    /// session seed and the round number; otherwise everyone online
    /// trains. With `snapshot_len`, the first of them is asked for a
    /// snapshot of its parameters, which must hold that many values.
    pub fn open(&mut self, snapshot_len: Option<usize>) -> OpenRound {
        let round = self.next_round;
        self.next_round += 1;
        let online = self.online();
        let mut cohort = online.clone();
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
        let snapshot = snapshot_len.and_then(|len| Some((*online.first()?, len)));
        OpenRound {
            round,
            party_names: Arc::clone(&self.party_names),
            online,
            trains,
            links_before: self.network.link_bytes(),
            parties: vec![None; self.party_names.len()],
            aggregators: BTreeMap::new(),
            done: HashSet::new(),
            snapshot,
            params: None,
        }
    }

    /// The nodes `open` still waits on: every aggregator in `agg_names`
    /// and every party still in the session, less those whose completion
    /// is in.
    pub fn awaiting(&self, open: &OpenRound, agg_names: &[String]) -> HashSet<String> {
        let parties = self.online().into_iter().map(|i| &self.party_names[i]);
        agg_names
            .iter()
            .chain(parties)
            .filter(|name| !open.done.contains(*name))
            .cloned()
            .collect()
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
        let inputs = RoundInputs {
            max_party_train_s: train_s,
            max_party_transform_s: transform_s,
            max_party_crypto_s: crypto_s,
            upload_bytes_per_party: upload_bytes / finished.max(1),
            download_bytes_per_party: download_bytes / finished.max(1),
            max_aggregate_s: aggregate_s,
            n_aggregators: agg_names.len(),
        };
        let latency = latency::round(self.link, self.cc_protected, &inputs);
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
    /// The `RoundPlan` of every party in the round, by party index: train
    /// or only synchronize, and whether to attach its parameters to
    /// `PartyDone` (the one party asked for a snapshot).
    pub fn plans(&self) -> Vec<(usize, CtlMsg)> {
        let plan = |i: usize| CtlMsg::RoundPlan {
            round: self.round,
            train: self.trains[i],
            report_params: self.snapshot.is_some_and(|(reporter, _)| reporter == i),
        };
        self.online.iter().map(|&i| (i, plan(i))).collect()
    }

    /// The party asked for this round's parameter snapshot, if any.
    pub fn reporter(&self) -> Option<&str> {
        let (i, _) = self.snapshot?;
        Some(&self.party_names[i])
    }

    /// Takes in a node's report; returns whether it completed the
    /// sender's part of the round — an aggregator's `AggDone` for this
    /// round or a later one, a party's `PartyDone` for this one. A
    /// parameter snapshot is kept only from the party asked for one, and
    /// any other party's is ignored and counted.
    ///
    /// # Errors
    ///
    /// The reason the round fails on the sender: the party asked for the
    /// snapshot sent one that is not the model's length.
    pub fn absorb(&mut self, from: &str, report: CtlMsg) -> Result<bool, String> {
        let party = self.party_names.iter().position(|n| n == from);
        match report {
            CtlMsg::AggDone { round, aggregate_s } if round >= self.round && party.is_none() => {
                self.aggregators.insert(from.to_string(), aggregate_s);
            }
            CtlMsg::PartyDone {
                round,
                trained,
                train_loss,
                train_s,
                transform_s,
                crypto_s,
                params,
            } if round == self.round => {
                let Some(i) = party else {
                    return Ok(false);
                };
                match (params, self.snapshot) {
                    (Some(params), Some((reporter, len))) if reporter == i => {
                        if params.len() != len {
                            return Err(format!(
                                "reported a parameter snapshot of {} values for a model of {len}",
                                params.len()
                            ));
                        }
                        self.params = Some(params);
                    }
                    (Some(_), _) => {
                        deta_obs::metrics::counter_add("deta_ctl_ignored_total", "snapshot", 1);
                    }
                    (None, _) => {}
                }
                let timers = PartyTimers {
                    train_s,
                    transform_s,
                    crypto_s,
                };
                self.parties[i] = Some((timers, trained.then_some(train_loss)));
            }
            // Not a handler: any other report, a stale one, or one from a
            // node that does not owe it, completes nothing.
            _ => return Ok(false),
        }
        self.done.insert(from.to_string());
        Ok(true)
    }

    /// `node`'s completion no longer counts: it was retired.
    pub fn expect_again(&mut self, node: &str) {
        self.done.remove(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_ledger(parties: usize, participation: Option<usize>, seed: u64) -> RoundLedger {
        ledger_on(Network::new(LinkModel::lan()), parties, participation, seed)
    }

    fn ledger_on(net: Network, parties: usize, q: Option<usize>, seed: u64) -> RoundLedger {
        let mut config = DetaConfig::deta(parties, 1);
        config.participation = q;
        config.seed = seed;
        let names = (0..parties).map(|i| format!("party-{i}")).collect();
        RoundLedger::new(&config, net, names)
    }

    fn cohort(open: &OpenRound) -> Vec<usize> {
        let plans = open.plans().into_iter();
        let trains = |plan: &CtlMsg| matches!(plan, CtlMsg::RoundPlan { train: true, .. });
        plans.filter(|(_, p)| trains(p)).map(|(i, _)| i).collect()
    }

    fn party_done(round: u64, train_s: f64, loss: Option<f32>) -> CtlMsg {
        CtlMsg::PartyDone {
            round,
            trained: loss.is_some(),
            train_loss: loss.unwrap_or(0.0),
            train_s,
            transform_s: 0.0,
            crypto_s: 0.0,
            params: None,
        }
    }

    /// The draw every healthy run has always made (recorded before the
    /// ledger existed): moving it would move every partial-participation
    /// trajectory.
    #[test]
    fn cohort_is_the_pinned_draw() {
        let mut ledger = new_ledger(5, Some(3), 1234);
        let drawn: Vec<Vec<usize>> = (0..3).map(|_| cohort(&ledger.open(None))).collect();
        assert_eq!(drawn, COHORTS_SEED_1234);
    }

    #[test]
    fn cohort_never_names_a_party_that_left() {
        let mut ledger = new_ledger(4, Some(3), 31);
        ledger.leave("party-3");
        for _ in 0..20 {
            assert_eq!(cohort(&ledger.open(None)), [0, 1, 2]);
        }
        let mut ledger = new_ledger(4, Some(2), 31);
        ledger.leave("party-1");
        for _ in 0..20 {
            let open = ledger.open(Some(8));
            assert_eq!(cohort(&open).len(), 2);
            assert!(open.plans().iter().all(|(i, _)| *i != 1));
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

        let mut open = ledger.open(None);
        send(0, "agg-0", 10);
        send(1, "agg-1", 20);
        send(2, "party-0", 7);
        send(3, "agg-0", 100); // follower sync
        send(0, "supervisor", 500); // control plane
        assert_eq!(
            open.absorb("party-0", party_done(1, 1.5, Some(2.0))),
            Ok(true)
        );
        assert_eq!(open.absorb("party-1", party_done(1, 0.0, None)), Ok(true));
        let agg_done = CtlMsg::AggDone {
            round: 1,
            aggregate_s: 0.25,
        };
        assert_eq!(open.absorb("agg-0", agg_done), Ok(true));
        assert_eq!(
            open.absorb("agg-1", CtlMsg::Ready),
            Ok(false),
            "not a completion"
        );
        let awaiting: Vec<String> = ledger.awaiting(&open, &aggs).into_iter().collect();
        assert_eq!(awaiting, ["agg-1"]);
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
        ledger.leave("party-1");
        let mut open = ledger.open(None);
        send(0, "agg-0", 4);
        assert_eq!(
            open.absorb("party-0", party_done(1, 9.0, Some(9.0))),
            Ok(false),
            "stale"
        );
        assert_eq!(
            open.absorb("party-0", party_done(2, 2.0, Some(3.0))),
            Ok(true)
        );
        assert!(!ledger.awaiting(&open, &[]).contains("party-1"));
        let m = ledger.close(open, &aggs, 0.0, 0.0);
        assert_eq!((m.round, m.upload_bytes, m.download_bytes), (2, 4, 0));
        assert_eq!((m.train_loss, m.latency.train_s), (3.0, 0.5));
        assert_eq!(ledger.completed_rounds(), 2);
    }

    const COHORTS_SEED_1234: [[usize; 3]; 3] = [[2, 3, 4], [1, 2, 4], [2, 3, 4]];
}
