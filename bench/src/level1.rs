//! Level 1 of the layer trace: a sequential round driven by hand.
//!
//! `DetaSession::run_round` is private, but every call it makes is
//! public. This module builds the same nodes (`SessionParts::build` +
//! Phase II) and makes exactly those calls — `begin_round`, `pump`,
//! `poll_round_start`, `run_local_round`, `try_finish_round`, `evaluate`
//! — with one span around each, all children of the round's span. The
//! result is the split of a round into its phases, measured from
//! outside, plus allocation and message counts taken at the same
//! boundaries.

use crate::trace::{alloc_counters, SpanId, Tracer};
use crate::workload::Workload;
use deta_core::aggregator::AggregatorNode;
use deta_core::keybroker::KeyBroker;
use deta_core::party::Party;
use deta_core::SessionParts;
use deta_nn::train::LabeledData;
use deta_transport::Network;

/// A bootstrapped session held as its parts, driven by [`HandSession::round`].
pub struct HandSession {
    parties: Vec<Party>,
    aggregators: Vec<AggregatorNode>,
    broker: KeyBroker,
    network: Network,
    next_round: u64,
}

/// What one hand-driven round measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundPhases {
    pub round_s: f64,
    /// `begin_round` on the initiator plus the pump that fans it out.
    pub announce_s: f64,
    /// `poll_round_start` + `run_local_round`, summed over parties:
    /// training, transform, seal, upload.
    pub party_local_s: f64,
    /// Every `AggregatorNode::pump` after the uploads, summed: open,
    /// decode, aggregate, seal, download, follower sync.
    pub agg_pump_s: f64,
    /// `try_finish_round`, summed over parties: open, inverse, merge.
    pub party_finish_s: f64,
    pub eval_s: f64,
    /// The round span's self time: what no call span covers.
    pub driver_self_s: f64,
    /// Seconds inside the aggregation kernels, from the nodes' own
    /// `aggregate_time_s`, summed over aggregators.
    pub agg_kernel_s: f64,
    pub alloc_bytes: u64,
    pub allocs: u64,
    /// Messages delivered by the in-process network this round.
    pub messages: u64,
    pub train_loss: f32,
    pub test_loss: f32,
    pub test_accuracy: f32,
}

impl HandSession {
    /// Builds the nodes and runs Phase II, as `DetaSession::setup` does.
    ///
    /// # Panics
    ///
    /// Panics when the set-up fails: the workloads are chosen so that it
    /// cannot.
    pub fn setup(w: &'static Workload, seed: u64, shards: Vec<LabeledData>) -> HandSession {
        let parts = SessionParts::build(w.config(seed, 0), &|rng| w.build_model(rng), shards)
            .expect("session parts");
        let SessionParts {
            network,
            mut parties,
            mut aggregators,
            broker,
            tokens,
            ..
        } = parts;
        for p in &mut parties {
            p.send_hellos(&tokens);
        }
        for a in &mut aggregators {
            a.pump();
        }
        for p in &mut parties {
            p.complete_handshakes().expect("phase II handshakes");
        }
        for a in &mut aggregators {
            a.pump();
        }
        for p in &mut parties {
            assert!(p.registration_complete(), "registration incomplete");
        }
        HandSession {
            parties,
            aggregators,
            broker,
            network,
            next_round: 1,
        }
    }

    /// Runs one round the way `DetaSession::step` does (full
    /// participation, nobody offline), one span per public call.
    ///
    /// # Panics
    ///
    /// Panics on protocol desynchronisation, like the session it mirrors.
    pub fn round(&mut self, tracer: &mut Tracer, test: &LabeledData) -> (SpanId, RoundPhases) {
        let round = self.next_round;
        self.next_round += 1;
        let kernel0: f64 = self.aggregators.iter().map(|a| a.aggregate_time_s).sum();
        let (allocs0, bytes0) = alloc_counters();
        let root = tracer.open("round", None, round);

        let tid = self.broker.training_id(round);
        self.network.reset_stats();
        let (initiator, _) = self
            .aggregators
            .split_first_mut()
            .expect("at least one aggregator");
        tracer.time("agg.begin_round", root, round, || {
            initiator.begin_round(round, tid).expect("announce")
        });
        for a in &mut self.aggregators {
            tracer.time("agg.announce_pump", root, round, || a.pump());
        }

        let mut train_loss_sum = 0.0f32;
        for p in &mut self.parties {
            let started = tracer.time("party.poll_round_start", root, round, || {
                p.poll_round_start()
            });
            assert!(started.is_some(), "party missed round start");
            tracer.time("party.run_local_round", root, round, || {
                p.run_local_round().expect("local round")
            });
            train_loss_sum += p.last_train_loss;
        }

        while self.aggregators.iter().any(|a| a.completed_rounds < round) {
            let mut progress = 0;
            for a in &mut self.aggregators {
                progress += tracer.time("agg.pump", root, round, || a.pump());
            }
            assert!(progress > 0, "aggregation deadlock at round {round}");
        }

        for p in &mut self.parties {
            let done = tracer.time("party.try_finish_round", root, round, || {
                p.try_finish_round()
            });
            assert!(done, "party could not finish round {round}");
        }
        let (initiator, _) = self
            .aggregators
            .split_first_mut()
            .expect("at least one aggregator");
        tracer.time("agg.pump", root, round, || initiator.pump());

        let evaluator = &mut self.parties[0];
        let (test_loss, test_accuracy) = tracer.time("party.evaluate", root, round, || {
            evaluator.evaluate(test, 128)
        });

        tracer.close(root);
        let (allocs1, bytes1) = alloc_counters();
        let kernel1: f64 = self.aggregators.iter().map(|a| a.aggregate_time_s).sum();
        let sum = |prefix: &str| tracer.children_seconds(root, |name| name == prefix);
        let phases = RoundPhases {
            round_s: tracer.span(root).seconds(),
            announce_s: sum("agg.begin_round") + sum("agg.announce_pump"),
            party_local_s: sum("party.poll_round_start") + sum("party.run_local_round"),
            agg_pump_s: sum("agg.pump"),
            party_finish_s: sum("party.try_finish_round"),
            eval_s: sum("party.evaluate"),
            driver_self_s: tracer.self_seconds(root),
            agg_kernel_s: kernel1 - kernel0,
            alloc_bytes: bytes1 - bytes0,
            allocs: allocs1 - allocs0,
            messages: self.network.stats().messages,
            train_loss: train_loss_sum / self.parties.len() as f32,
            test_loss,
            test_accuracy,
        };
        (root, phases)
    }

    /// Flat parameters of party `i`'s replica.
    pub fn party_params(&self, i: usize) -> Vec<f32> {
        self.parties[i].model.flat_params()
    }

    pub fn aggregators(&self) -> usize {
        self.aggregators.len()
    }
}
