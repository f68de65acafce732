//! The per-node actor loops.
//!
//! Every node (aggregator or party) runs one of these loops on its own
//! OS thread. The loop owns a clone of the node's mailbox
//! [`Endpoint`] and is the *only* receiver: each queued frame is routed
//! either to the node's wire handler (`handle_wire`) or, when the sender
//! is the supervisor, to the control-plane dispatcher. Idle ticks emit
//! heartbeats so the supervisor can tell a stalled node from a busy one.
//!
//! Exit conditions (all of them leave the node value intact for the
//! supervisor to recover via the join handle):
//!
//! * the shared stop flag is set,
//! * a `Shutdown` control message arrives,
//! * the mailbox is closed and drained (`RecvError::Closed`).

use crate::rtmsg::{CtlMsg, SUPERVISOR};
use deta_core::aggregator::{AggRole, AggregatorNode};
use deta_core::party::Party;
use deta_core::session::Node;
use deta_core::wire::Msg;
use deta_crypto::VerifyingKey;
use deta_telemetry::{FlightRecorder, TelemetryValue};
use deta_transport::{Endpoint, RecvError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shared per-deployment actor state, plus this node's private halt
/// flag.
#[derive(Clone)]
pub struct ActorContext {
    /// Cooperative stop flag, set once by the supervisor at shutdown.
    pub stop: Arc<AtomicBool>,
    /// Per-node halt flag: the supervisor sets it to retire exactly this
    /// node during a failover (even one deliberately stalled), leaving
    /// the rest of the deployment running.
    pub halt: Arc<AtomicBool>,
    /// Mailbox poll tick (and heartbeat cadence when idle).
    pub tick: Duration,
}

impl ActorContext {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.halt.load(Ordering::Relaxed)
    }
}

/// Serves `node` on the calling thread until an exit condition holds,
/// then hands it back, final state intact, so the host can inspect it
/// (model parameters, breached memory) after the join. A party runs
/// Phase II against `tokens` first; an aggregator given `stall_at_round`
/// stops servicing its mailbox once it sees that round announced (fault
/// injection). Every span and event the thread emits meanwhile
/// (including deep inside deta-core) lands in `recorder`.
pub fn serve(
    mut node: Node,
    tokens: &HashMap<String, VerifyingKey>,
    stall_at_round: Option<u64>,
    ctx: &ActorContext,
    recorder: Arc<FlightRecorder>,
) -> Node {
    let _telemetry = deta_telemetry::attach(recorder);
    match &mut node {
        Node::Party(p) => run_party(p, tokens, ctx),
        Node::Aggregator(a) => run_aggregator(a, stall_at_round, ctx),
    }
    node
}

fn send_ctl(endpoint: &Endpoint, msg: &CtlMsg) {
    // A failed send means the supervisor is gone (shutdown in progress);
    // the actor will observe its own exit condition shortly.
    if let Ok(frame) = msg.encode() {
        let _ = endpoint.send(SUPERVISOR, frame);
    }
}

/// Parks the thread until the stop flag is set: the deliberate "stalled
/// node" behavior used by fault-injection tests. The mailbox is ignored
/// but the thread stays joinable.
fn stall_until_stop(ctx: &ActorContext) {
    while !ctx.stopped() {
        std::thread::sleep(ctx.tick);
    }
}

/// The aggregator service loop.
///
/// `stall_at_round`, when set, makes this node stop servicing its
/// mailbox as soon as it sees the announcement of that round (via the
/// supervisor's `Trigger` on the initiator, or the initiator's
/// `SyncRound` fan-out on a follower) — fault injection for supervisor
/// tests.
fn run_aggregator(agg: &mut AggregatorNode, stall_at_round: Option<u64>, ctx: &ActorContext) {
    let endpoint = agg.endpoint();
    let mut hb_seq = 0u64;
    let mut last_reported = 0u64;
    // Aggregators are ready as soon as their thread is servicing the
    // mailbox: Phase II is reactive on this side.
    send_ctl(&endpoint, &CtlMsg::Ready);
    loop {
        if ctx.stopped() {
            break;
        }
        match endpoint.recv_timeout(ctx.tick) {
            Ok(msg) => {
                if &*msg.from == SUPERVISOR {
                    match CtlMsg::decode(&msg.payload) {
                        Ok(CtlMsg::Shutdown) => break,
                        Ok(CtlMsg::Trigger { round, training_id }) => {
                            if stall_at_round.is_some_and(|at| round >= at) {
                                deta_telemetry::event(
                                    "stall_injected",
                                    &[("round", TelemetryValue::from(round))],
                                );
                                stall_until_stop(ctx);
                                break;
                            }
                            if let Err(e) = agg.begin_round(round, training_id) {
                                send_ctl(
                                    &endpoint,
                                    &CtlMsg::Failed {
                                        reason: e.to_string(),
                                    },
                                );
                            }
                        }
                        Ok(CtlMsg::Reopen { round }) => {
                            deta_telemetry::event(
                                "round_reopened",
                                &[("round", TelemetryValue::from(round))],
                            );
                            agg.reopen_round(round);
                            last_reported = last_reported.min(round.saturating_sub(1));
                        }
                        Ok(CtlMsg::Topology { initiator, aggs }) => {
                            agg.set_role(AggRole::among(&agg.name, &initiator, &aggs));
                        }
                        Ok(CtlMsg::Deregister { party }) => {
                            deta_telemetry::event(
                                "party_deregistered",
                                &[("party", TelemetryValue::from(party.as_str()))],
                            );
                            agg.deregister(&party);
                        }
                        // Supervisor-bound reports and party-only
                        // directives are not for an aggregator; count
                        // each drop so discarded control traffic stays
                        // observable. Enumerated (not `_`) so adding a
                        // CtlMsg variant forces a decision here.
                        Ok(
                            other @ (CtlMsg::Ready
                            | CtlMsg::Failed { .. }
                            | CtlMsg::Heartbeat { .. }
                            | CtlMsg::RoundPlan { .. }
                            | CtlMsg::PartyDone { .. }
                            | CtlMsg::AggDone { .. }
                            | CtlMsg::Rebind { .. }
                            | CtlMsg::Remap { .. }
                            | CtlMsg::Replay { .. }),
                        ) => {
                            deta_telemetry::metrics::counter_add(
                                "deta_ctl_ignored_total",
                                other.name(),
                                1,
                            );
                        }
                        Err(_) => {
                            deta_telemetry::metrics::counter_add(
                                "deta_ctl_ignored_total",
                                "undecodable",
                                1,
                            );
                        }
                    }
                } else {
                    if let Some(at) = stall_at_round {
                        if let Ok(Msg::SyncRound { round, .. }) = Msg::decode(&msg.payload) {
                            if round >= at {
                                deta_telemetry::event(
                                    "stall_injected",
                                    &[("round", TelemetryValue::from(round))],
                                );
                                stall_until_stop(ctx);
                                break;
                            }
                        }
                    }
                    // Spanned so merged-trace critical paths can name
                    // dispatch/decode time that falls outside the
                    // node's own compute spans.
                    let _handle = deta_telemetry::span("handle_wire")
                        .with_field("bytes", TelemetryValue::from(msg.payload.len()));
                    agg.handle_wire(&msg.from, msg.payload);
                }
            }
            Err(RecvError::Timeout) => {
                hb_seq += 1;
                send_ctl(&endpoint, &CtlMsg::Heartbeat { seq: hb_seq });
            }
            Err(RecvError::Closed) => break,
        }
        if agg.completed_rounds > last_reported {
            last_reported = agg.completed_rounds;
            send_ctl(
                &endpoint,
                &CtlMsg::AggDone {
                    round: last_reported,
                    aggregate_s: agg.aggregate_time_s,
                },
            );
        }
    }
}

/// The party service loop.
///
/// Bootstraps Phase II itself (hellos → handshakes → registration, all
/// message-driven through [`Party::handle_wire`]), reports `Ready` once
/// every aggregator acked registration, then executes one round per
/// supervisor `RoundPlan`: train-or-skip when the matching `RoundStart`
/// arrives, and `PartyDone` once every aggregated fragment is applied.
fn run_party(party: &mut Party, tokens: &HashMap<String, VerifyingKey>, ctx: &ActorContext) {
    let endpoint = party.endpoint();
    party.send_hellos(tokens);
    let mut hb_seq = 0u64;
    let mut ready_sent = false;
    let mut failed = false;
    // The plan for a not-yet-announced round: (round, train, report).
    let mut plan: Option<(u64, bool, bool)> = None;
    // The round currently executing locally: (round, trained, report).
    let mut active: Option<(u64, bool, bool)> = None;
    loop {
        if ctx.stopped() {
            break;
        }
        match endpoint.recv_timeout(ctx.tick) {
            Ok(msg) => {
                if &*msg.from == SUPERVISOR {
                    match CtlMsg::decode(&msg.payload) {
                        Ok(CtlMsg::Shutdown) => break,
                        Ok(CtlMsg::RoundPlan {
                            round,
                            train,
                            report_params,
                        }) => plan = Some((round, train, report_params)),
                        Ok(CtlMsg::Rebind { rebinds }) => {
                            for e in &rebinds {
                                let Some(token) = VerifyingKey::from_bytes(&e.verifying_key) else {
                                    continue;
                                };
                                party.rebind(e.index as usize, &e.name, token);
                            }
                            // Readiness must be re-proven against the
                            // replacements: Ready fires again once every
                            // new channel verifies and re-registers.
                            ready_sent = false;
                        }
                        Ok(CtlMsg::Remap {
                            round,
                            mapper,
                            aggs,
                        }) => {
                            if !party.apply_remap(round, &mapper, &aggs) {
                                send_ctl(
                                    &endpoint,
                                    &CtlMsg::Failed {
                                        reason: "re-partition mapper rejected".to_string(),
                                    },
                                );
                                failed = true;
                            }
                            // Survivor channels persist, so readiness may
                            // already hold; re-announce it so the
                            // supervisor's failover barrier sees this
                            // party.
                            ready_sent = false;
                        }
                        Ok(CtlMsg::Replay { round }) => {
                            party.replay_upload(round);
                        }
                        // Supervisor-bound reports and aggregator-only
                        // directives are not for a party; count each
                        // drop so discarded control traffic stays
                        // observable. Enumerated (not `_`) so adding a
                        // CtlMsg variant forces a decision here.
                        Ok(
                            other @ (CtlMsg::Ready
                            | CtlMsg::Failed { .. }
                            | CtlMsg::Heartbeat { .. }
                            | CtlMsg::Trigger { .. }
                            | CtlMsg::PartyDone { .. }
                            | CtlMsg::AggDone { .. }
                            | CtlMsg::Reopen { .. }
                            | CtlMsg::Topology { .. }
                            | CtlMsg::Deregister { .. }),
                        ) => {
                            deta_telemetry::metrics::counter_add(
                                "deta_ctl_ignored_total",
                                other.name(),
                                1,
                            );
                        }
                        Err(_) => {
                            deta_telemetry::metrics::counter_add(
                                "deta_ctl_ignored_total",
                                "undecodable",
                                1,
                            );
                        }
                    }
                } else {
                    let _handle = deta_telemetry::span("handle_wire")
                        .with_field("bytes", TelemetryValue::from(msg.payload.len()));
                    party.handle_wire(&msg.from, msg.payload);
                }
            }
            Err(RecvError::Timeout) => {
                hb_seq += 1;
                send_ctl(&endpoint, &CtlMsg::Heartbeat { seq: hb_seq });
            }
            Err(RecvError::Closed) => break,
        }
        if failed {
            // Keep draining (so peers are not blocked on a full queue
            // semantic) but take no further protocol action.
            continue;
        }
        if !ready_sent {
            if let Some(agg) = party.auth_failure() {
                send_ctl(
                    &endpoint,
                    &CtlMsg::Failed {
                        reason: format!("aggregator {agg:?} failed authentication"),
                    },
                );
                failed = true;
                continue;
            }
            if party.acks_complete() {
                ready_sent = true;
                send_ctl(&endpoint, &CtlMsg::Ready);
            }
        }
        // Start the planned round once the initiator announced it.
        if active.is_none() {
            if let (Some((pr, train, report)), Some((cur, _))) = (plan, party.current_round()) {
                if cur == pr {
                    plan = None;
                    let result = if train {
                        party.run_local_round()
                    } else {
                        party.skip_local_round()
                    };
                    match result {
                        Ok(()) => active = Some((pr, train, report)),
                        Err(e) => {
                            send_ctl(
                                &endpoint,
                                &CtlMsg::Failed {
                                    reason: e.to_string(),
                                },
                            );
                            failed = true;
                        }
                    }
                }
            }
        }
        // Complete it once every aggregated fragment has been applied.
        if let Some((round, trained, report)) = active {
            if party.finish_round() && party.last_finished_round() >= round {
                active = None;
                let params = if report {
                    Some(party.model.flat_params())
                } else {
                    None
                };
                send_ctl(
                    &endpoint,
                    &CtlMsg::PartyDone {
                        round,
                        trained,
                        train_loss: if trained { party.last_train_loss } else { 0.0 },
                        train_s: party.timers.train_s,
                        transform_s: party.timers.transform_s,
                        crypto_s: party.timers.crypto_s,
                        params,
                    },
                );
            }
        }
    }
}
