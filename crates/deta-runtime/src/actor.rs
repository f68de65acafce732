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
use deta_crypto::VerifyingKey;
use deta_obs::{FlightRecorder, TelemetryValue};
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
/// or a later one (fault injection): on the supervisor's `Trigger`, or,
/// on an aggregator it does not trigger, after the step that left it
/// holding an upload of that round. Every span and event the thread emits
/// meanwhile (including deep inside deta-core) lands in `recorder`.
pub fn serve(
    mut node: Node,
    tokens: &HashMap<String, VerifyingKey>,
    stall_at_round: Option<u64>,
    ctx: &ActorContext,
    recorder: Arc<FlightRecorder>,
) -> Node {
    let _telemetry = deta_obs::attach(recorder);
    let endpoint = node.actor().endpoint();
    report(&endpoint, node.actor().start(tokens));
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
        let stall = match (stall_at_round, &input) {
            (Some(at), Input::Ctl(CtlMsg::Trigger { round, .. })) if *round >= at => Some(*round),
            _ => {
                report(&endpoint, node.actor().step(input));
                stall_at_round.and_then(|at| holds_round(&node, at))
            }
        };
        if let Some(round) = stall {
            deta_obs::event("stall_injected", &[("round", TelemetryValue::from(round))]);
            // The mailbox is ignored but the thread stays joinable.
            while !ctx.stopped() {
                std::thread::sleep(ctx.tick);
            }
            break;
        }
    }
    node
}

/// The round `at` or later that `node` holds an upload for, if it is an
/// aggregator that does: how an aggregator the supervisor does not
/// trigger first sees a round.
fn holds_round(node: &Node, at: u64) -> Option<u64> {
    match node {
        Node::Aggregator(agg) => agg.latest_pending_round().filter(|round| *round >= at),
        Node::Party(_) => None,
    }
}
