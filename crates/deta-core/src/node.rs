//! A node as a host holds it, and the one driver of its protocol.
//!
//! Every way of running a session drives a node alike: [`Actor::start`]
//! once, then [`Actor::step`] per input — a supervisor directive
//! ([`CtlMsg`]) or a peer's wire frame — in the order the inputs arrive.
//! [`crate::DetaSession`] steps the nodes of a session in turn on one
//! thread; `deta-runtime` steps each node on a thread of its own, from
//! its mailbox, and so does a `deta-socket` child process. A step
//! *returns* the reports the node owes the supervisor (`Ready`, `Failed`,
//! `PartyDone`, `AggDone`) instead of sending them; every host sends them
//! to [`SUPERVISOR`] from the node's mailbox ([`report`]), and classifies
//! what the mailbox holds the same way ([`Input::from_mailbox`]). When a
//! party trains, skips, is ready or is done, and when an aggregator
//! reports a round, is decided here and nowhere else.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::aggregator::{AggRole, AggregatorNode};
use crate::party::Party;
use crate::rtmsg::{CtlMsg, SUPERVISOR};
use deta_crypto::VerifyingKey;
use deta_telemetry::TelemetryValue;
use deta_transport::{Endpoint, Message};
use std::collections::HashMap;

/// A node, as a host holds it: the value an actor loop serves and hands
/// back when it exits, final state intact, so the host can inspect it
/// (model parameters, breached memory) after the join.
pub enum Node {
    /// A party.
    Party(Box<Party>),
    /// An aggregator.
    Aggregator(Box<AggregatorNode>),
}

impl Node {
    /// The node's endpoint name.
    pub fn name(&self) -> &str {
        match self {
            Node::Party(p) => &p.name,
            Node::Aggregator(a) => &a.name,
        }
    }

    /// The node's protocol driver.
    pub fn actor(&mut self) -> &mut dyn Actor {
        match self {
            Node::Party(p) => p.as_mut(),
            Node::Aggregator(a) => a.as_mut(),
        }
    }
}

/// One thing that happens to a node.
pub enum Input {
    /// A directive from the supervisor.
    Ctl(CtlMsg),
    /// A frame from a peer. It comes by value, so that a sealed record is
    /// opened in the buffer it arrived in.
    Wire(Message),
}

impl Input {
    /// What a frame from the node's mailbox is: a directive when
    /// [`SUPERVISOR`] sent it, a peer's frame otherwise. A directive that
    /// does not decode is counted and dropped (`None`).
    pub fn from_mailbox(msg: Message) -> Option<Input> {
        if &*msg.from != SUPERVISOR {
            return Some(Input::Wire(msg));
        }
        match CtlMsg::decode(&msg.payload) {
            Ok(ctl) => Some(Input::Ctl(ctl)),
            Err(_) => {
                deta_telemetry::metrics::counter_add("deta_ctl_ignored_total", "undecodable", 1);
                None
            }
        }
    }
}

/// Sends a node's reports to [`SUPERVISOR`] from its mailbox, in order.
/// A failed send means the supervisor is gone (shutdown in progress),
/// and the node's host sees its own exit condition shortly.
pub fn report(endpoint: &Endpoint, reports: Vec<CtlMsg>) {
    for msg in reports {
        if let Ok(frame) = msg.encode() {
            let _ = endpoint.send(SUPERVISOR, frame);
        }
    }
}

/// A node's protocol: how it boots and how it reacts to each input.
pub trait Actor {
    /// A handle onto the node's mailbox (clones share the queue); its
    /// name is the node's.
    fn endpoint(&self) -> Endpoint;

    /// Boots the node, given the token verifying keys the attestation
    /// proxy published; returns what it reports at once.
    fn start(&mut self, tokens: &HashMap<String, VerifyingKey>) -> Vec<CtlMsg>;

    /// Reacts to one input; returns what the node now reports to the
    /// supervisor, in order.
    fn step(&mut self, input: Input) -> Vec<CtlMsg>;
}

/// What a party was told to do with one round.
#[derive(Clone, Copy)]
struct Plan {
    round: u64,
    /// Train and upload, or only synchronize.
    train: bool,
    /// Attach the synchronized parameters to `PartyDone`.
    report: bool,
}

/// A party's control-plane state.
#[derive(Default)]
pub(crate) struct PartyControl {
    /// The plan for a round not announced yet.
    plan: Option<Plan>,
    /// The round executing locally.
    active: Option<Plan>,
    /// `Ready` is reported for the aggregators the party has now.
    ready: bool,
    /// `Failed` is reported: the party takes no further protocol action.
    failed: bool,
}

impl Actor for Party {
    fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Phase II, from this side: a hello to every aggregator. The rest
    /// (handshakes, registration) is message-driven.
    fn start(&mut self, tokens: &HashMap<String, VerifyingKey>) -> Vec<CtlMsg> {
        self.send_hellos(tokens);
        Vec::new()
    }

    fn step(&mut self, input: Input) -> Vec<CtlMsg> {
        if self.control.failed {
            return Vec::new();
        }
        match input {
            Input::Wire(msg) => on_wire(msg, |from, payload| self.handle_wire(from, payload)),
            Input::Ctl(CtlMsg::RoundPlan {
                round,
                train,
                report_params: report,
            }) => {
                self.control.plan = Some(Plan {
                    round,
                    train,
                    report,
                });
            }
            Input::Ctl(CtlMsg::Rebind { rebinds }) => {
                for e in &rebinds {
                    if let Some(token) = VerifyingKey::from_bytes(&e.verifying_key) {
                        self.rebind(e.index as usize, &e.name, token);
                    }
                }
                // Readiness is re-proven against the replacements: `Ready`
                // again once every new channel verifies and re-registers.
                self.control.ready = false;
            }
            Input::Ctl(CtlMsg::Remap {
                round,
                mapper,
                aggs,
            }) => {
                if !self.apply_remap(round, &mapper, &aggs) {
                    return fail(self, "re-partition mapper rejected".to_string());
                }
                // Survivor channels persist, so readiness may already
                // hold; it is reported again so that the supervisor's
                // failover barrier sees this party.
                self.control.ready = false;
            }
            Input::Ctl(CtlMsg::Replay { round }) => {
                self.replay_upload(round);
            }
            Input::Ctl(other) => ignored(&other),
        }
        settle(self).unwrap_or_else(|reason| fail(self, reason))
    }
}

/// What a party owes the supervisor once an input is in: `Ready` when
/// every aggregator acknowledged its registration; the planned round run
/// or skipped as soon as the initiator announced it; `PartyDone` once
/// every aggregated fragment of it is applied. An error is the reason
/// the party fails.
fn settle(party: &mut Party) -> Result<Vec<CtlMsg>, String> {
    let mut out = Vec::new();
    if !party.control.ready {
        if let Some(agg) = party.auth_failure() {
            return Err(format!("aggregator {agg:?} failed authentication"));
        }
        if party.acks_complete() {
            party.control.ready = true;
            out.push(CtlMsg::Ready);
        }
    }
    let (active, plan) = (party.control.active, party.control.plan);
    if let (None, Some(plan), Some((round, _))) = (active, plan, party.current_round()) {
        if round == plan.round {
            party.control.plan = None;
            let started = if plan.train {
                party.run_local_round()
            } else {
                party.skip_local_round()
            };
            started.map_err(|e| e.to_string())?;
            party.control.active = Some(plan);
        }
    }
    let Some(plan) = party.control.active else {
        return Ok(out);
    };
    if party.finish_round() && party.last_finished_round() >= plan.round {
        party.control.active = None;
        let timers = party.timers;
        out.push(CtlMsg::PartyDone {
            round: plan.round,
            trained: plan.train,
            train_loss: if plan.train {
                party.last_train_loss
            } else {
                0.0
            },
            train_s: timers.train_s,
            transform_s: timers.transform_s,
            crypto_s: timers.crypto_s,
            params: plan.report.then(|| party.model.flat_params()),
        });
    }
    Ok(out)
}

/// A party's unrecoverable failure: reported once, its last report.
fn fail(party: &mut Party, reason: String) -> Vec<CtlMsg> {
    party.control.failed = true;
    vec![CtlMsg::Failed { reason }]
}

impl Actor for AggregatorNode {
    fn endpoint(&self) -> Endpoint {
        self.endpoint.clone()
    }

    /// Phase II is reactive on this side: an aggregator is ready as soon
    /// as it is served.
    fn start(&mut self, _tokens: &HashMap<String, VerifyingKey>) -> Vec<CtlMsg> {
        vec![CtlMsg::Ready]
    }

    fn step(&mut self, input: Input) -> Vec<CtlMsg> {
        let mut out = Vec::new();
        match input {
            Input::Wire(msg) => on_wire(msg, |from, payload| self.handle_wire(from, payload)),
            Input::Ctl(CtlMsg::Trigger { round, training_id }) => {
                if let Err(e) = self.begin_round(round, training_id) {
                    let reason = e.to_string();
                    out.push(CtlMsg::Failed { reason });
                }
            }
            Input::Ctl(CtlMsg::Reopen { round }) => {
                deta_telemetry::event("round_reopened", &[("round", round.into())]);
                self.reopen_round(round);
                self.reported = self.reported.min(round.saturating_sub(1));
            }
            Input::Ctl(CtlMsg::Topology { initiator, aggs }) => {
                self.set_role(AggRole::among(&self.name, &initiator, &aggs));
            }
            Input::Ctl(CtlMsg::Deregister { party }) => {
                let field = [("party", TelemetryValue::from(party.as_str()))];
                deta_telemetry::event("party_deregistered", &field);
                self.deregister(&party);
            }
            Input::Ctl(other) => ignored(&other),
        }
        if self.completed_rounds > self.reported {
            self.reported = self.completed_rounds;
            out.push(CtlMsg::AggDone {
                round: self.reported,
                aggregate_s: self.aggregate_time_s,
            });
        }
        out
    }
}

/// Hands a peer's frame to a node's wire handler inside a span, so that
/// merged-trace critical paths can name the dispatch and decode time
/// outside the node's own compute spans.
fn on_wire(msg: Message, handle: impl FnOnce(&str, Vec<u8>)) {
    let bytes = TelemetryValue::from(msg.payload.len());
    let _span = deta_telemetry::span("handle_wire").with_field("bytes", bytes);
    handle(&msg.from, msg.payload);
}

/// A directive this kind of node has no use for (a report, or the other
/// kind's directive): dropped and counted, so discarded control traffic
/// stays observable.
fn ignored(msg: &CtlMsg) {
    deta_telemetry::metrics::counter_add("deta_ctl_ignored_total", msg.name(), 1);
}
