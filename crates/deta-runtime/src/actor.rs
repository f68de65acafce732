//! The mailbox loop a node thread runs.
//!
//! Every node (aggregator or party) runs [`serve`] on its own OS thread.
//! The loop owns a clone of the node's mailbox and is its *only*
//! receiver: each queued frame — a supervisor directive or a peer's wire
//! frame ([`Input::from_mailbox`]) — is one
//! [`deta_core::node::Actor::step`] of the node, and every report the
//! step returns is sent to the supervisor ([`report`]). What the node
//! does is `deta_core::node`'s, the same step the inline session runs; a
//! thread adds only what waiting on a mailbox needs: idle ticks emit
//! heartbeats so the supervisor can tell a stalled node from a busy one,
//! and an injected stall parks it.
//!
//! Exit conditions (all of them leave the node value intact for the
//! supervisor to recover via the join handle):
//!
//! * the shared stop flag or the node's halt flag is set,
//! * a `Shutdown` control message arrives,
//! * the mailbox is closed and drained (`RecvError::Closed`).

use deta_core::node::{report, Input, Node};
use deta_core::rtmsg::CtlMsg;
use deta_core::wire::Msg;
use deta_crypto::VerifyingKey;
use deta_telemetry::{FlightRecorder, TelemetryValue};
use deta_transport::RecvError;
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
/// (model parameters, breached memory) after the join. The node starts
/// against `tokens` (a party says its Phase II hellos); a node given
/// `stall_at_round` stops servicing its mailbox once it sees that round
/// announced (fault injection). Every span and event the thread emits
/// meanwhile (including deep inside deta-core) lands in `recorder`.
pub fn serve(
    mut node: Node,
    tokens: &HashMap<String, VerifyingKey>,
    stall_at_round: Option<u64>,
    ctx: &ActorContext,
    recorder: Arc<FlightRecorder>,
) -> Node {
    let _telemetry = deta_telemetry::attach(recorder);
    let actor = node.actor();
    let endpoint = actor.endpoint();
    report(&endpoint, actor.start(tokens));
    let mut hb_seq = 0u64;
    while !ctx.stopped() {
        let input = match endpoint.recv_timeout(ctx.tick).map(Input::from_mailbox) {
            Ok(Some(Input::Ctl(CtlMsg::Shutdown))) => break,
            Ok(Some(input)) => input,
            Ok(None) => continue,
            Err(RecvError::Timeout) => {
                hb_seq += 1;
                report(&endpoint, vec![CtlMsg::Heartbeat { seq: hb_seq }]);
                continue;
            }
            Err(RecvError::Closed) => break,
        };
        if let Some(round) = stall_at_round.and_then(|at| announces(&input, at)) {
            deta_telemetry::event("stall_injected", &[("round", TelemetryValue::from(round))]);
            // The mailbox is ignored but the thread stays joinable.
            while !ctx.stopped() {
                std::thread::sleep(ctx.tick);
            }
            break;
        }
        report(&endpoint, actor.step(input));
    }
    node
}

/// The round `input` announces, if it is `at` or later: the supervisor's
/// `Trigger` on the initiator, or the initiator's `SyncRound` fan-out on
/// a follower.
fn announces(input: &Input, at: u64) -> Option<u64> {
    let round = match input {
        Input::Ctl(CtlMsg::Trigger { round, .. }) => *round,
        Input::Wire(msg) => match Msg::decode(&msg.payload) {
            Ok(Msg::SyncRound { round, .. }) => round,
            _ => return None,
        },
        Input::Ctl(_) => return None,
    };
    (round >= at).then_some(round)
}
