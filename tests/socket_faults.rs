//! Adversarial and fault-path behaviour of the TCP bridge, tested
//! against a bare `SocketHub` with the drill suite's hand-rolled client
//! ([`deta_drills::socket::Rogue`]), built from the public wire
//! primitives — the client can misbehave in ways `deta_socket::run_node`
//! never would.
//!
//! Covered here:
//! * a replayed data frame is rejected with a structured error naming
//!   the offending link — also when it reuses, for a second destination,
//!   a number spent on the first: one counter numbers a child's
//!   direction of its link;
//! * a reordered (future-sequence) frame is rejected and not delivered;
//! * an *abrupt* disconnect parks the seat for reconnection (no error,
//!   mailbox open); only a graceful `Bye` surfaces as the simulator's
//!   distinguishable [`NetError::Closed`];
//! * a peer with the wrong key never gets past the auth challenge;
//! * the `FaultPolicy` seam applies to socket-borne frames unchanged;
//! * a delivery acknowledgement speaks for the link it arrives on, only
//!   up to what was sent there, and only after auth — and a refused one
//!   prunes nothing;
//! * a seat's closure reaches a child that was resuming when it landed;
//! * trace ids ride a `Trace` frame ahead of their `Data`, and a `Trace`
//!   followed by anything else is malformed.

use deta::crypto::{DetRng, SigningKey};
use deta::socket::{SocketError, SocketFrame};
use deta::transport::{FaultPolicy, NetError, RecvError, SendVerdict, TraceCtx};
use deta_drills::socket::{start_hub, wait_error, Custody, Rogue};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One counter numbers everything a child sends, so a number spent on
/// `agg-0` is a replay whichever destination it comes back for.
#[test]
fn replayed_frame_rejected_with_link_name() {
    for again in ["agg-0", "agg-1"] {
        let (hub, network, agg, key) = start_hub();
        let other = network.register("agg-1");
        let mut rogue = Rogue::connect(hub.addr(), "party-0", &key).expect("auth");
        rogue.resume();
        rogue.send_data("agg-0", 0, b"upload");
        let msg = agg
            .recv_timeout(Duration::from_secs(2))
            .expect("first frame delivered");
        assert_eq!(&*msg.from, "party-0");
        assert_eq!(msg.payload, b"upload");

        // The same number again, sealed as a fresh record: the secure
        // channel accepts the bytes, the replay window must not.
        rogue.send_data(again, 0, b"upload");
        match wait_error(&hub).expect("a structured error") {
            SocketError::Replay {
                link,
                seq,
                expected,
            } => {
                let named = format!("party-0->{again}");
                assert_eq!(link, named, "error must name the offending frame");
                assert_eq!(seq, 0);
                assert_eq!(expected, 1);
            }
            other => panic!("expected a replay rejection, got: {other}"),
        }
        for endpoint in [&agg, &other] {
            assert!(
                matches!(
                    endpoint.recv_timeout(Duration::from_millis(200)),
                    Err(RecvError::Timeout)
                ),
                "the replayed frame must not be delivered"
            );
        }
        hub.join();
    }
}

#[test]
fn reordered_frame_rejected_and_undelivered() {
    let (hub, _network, agg, key) = start_hub();
    let mut rogue = Rogue::connect(hub.addr(), "party-0", &key).expect("auth");
    rogue.resume();
    // First frame on the link claims sequence 5: a reorder (or a
    // truncation attack hiding frames 0..5).
    rogue.send_data("agg-0", 5, b"late");
    match wait_error(&hub).expect("a structured error") {
        SocketError::Replay {
            link,
            seq,
            expected,
        } => {
            assert_eq!(link, "party-0->agg-0");
            assert_eq!(seq, 5);
            assert_eq!(expected, 0);
        }
        other => panic!("expected a sequence rejection, got: {other}"),
    }
    assert!(
        matches!(
            agg.recv_timeout(Duration::from_millis(200)),
            Err(RecvError::Timeout)
        ),
        "an out-of-order frame must not be delivered"
    );
    hub.join();
}

/// Satellite regression: an *abrupt* TCP loss (no `Bye`) no longer
/// closes the node's hub mailbox — the seat parks awaiting
/// reconnection and the session resumes where it left off. The PR 6
/// "disconnect surfaces as `NetError::Closed`" behaviour now applies
/// only after a graceful `Bye`.
#[test]
fn peer_disconnect_surfaces_as_closed() {
    let (hub, network, agg, key) = start_hub();
    let mut rogue = Rogue::connect(hub.addr(), "party-0", &key).expect("auth");
    rogue.resume();
    rogue.send_data("agg-0", 0, b"alive");
    agg.recv_timeout(Duration::from_secs(2))
        .expect("frame 0 delivered");
    // Hard disconnect: drop the socket with no Bye. Link churn is not
    // an error — the seat parks, the mailbox stays open.
    drop(rogue);
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        !network.is_closed("party-0"),
        "an abrupt loss must park the seat, not close the mailbox"
    );
    assert!(
        hub.first_error().is_none(),
        "an abrupt loss mid-session is not a protocol error"
    );
    // Reconnect under the same identity: the replay window survived the
    // outage, so the link picks up at the next sequence number.
    let mut rogue = Rogue::connect(hub.addr(), "party-0", &key).expect("re-auth");
    rogue.resume();
    rogue.send_data("agg-0", 1, b"resumed");
    let msg = agg
        .recv_timeout(Duration::from_secs(2))
        .expect("post-resume frame delivered");
    assert_eq!(msg.payload, b"resumed");
    // Graceful sign-off, then disconnect: NOW the mailbox closes and
    // senders observe the simulator's Closed.
    rogue.send(&SocketFrame::Bye);
    drop(rogue);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !network.is_closed("party-0") {
        assert!(
            Instant::now() < deadline,
            "a post-Bye disconnect must close the node's hub mailbox"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        matches!(
            network.send_as("agg-0", "party-0", b"hello?".to_vec(), TraceCtx::default()),
            Err(NetError::Closed(_))
        ),
        "sends to a departed peer must observe Closed, as in the simulator"
    );
    assert!(
        hub.first_error().is_none(),
        "a graceful Bye is not a protocol error"
    );
    hub.join();
}

#[test]
fn wrong_key_never_authenticates() {
    let (hub, network, _agg, _key) = start_hub();
    let mut wrong_rng = DetRng::from_u64(1).fork(b"imposter");
    let wrong_key = SigningKey::generate(&mut wrong_rng);
    assert!(
        Rogue::connect(hub.addr(), "party-0", &wrong_key).is_none(),
        "a signature under the wrong key must not be welcomed"
    );
    match wait_error(&hub).expect("a structured error") {
        SocketError::Auth { peer, .. } => assert_eq!(peer, "party-0"),
        other => panic!("expected an auth rejection, got: {other}"),
    }
    assert!(
        !network.is_closed("party-0"),
        "a failed imposter must not close the real node's mailbox"
    );
    hub.join();
}

struct DropUploads;

impl FaultPolicy for DropUploads {
    fn on_send(&self, from: &str, to: &str, _payload: &[u8]) -> SendVerdict {
        if from == "party-0" && to == "agg-0" {
            SendVerdict::Drop
        } else {
            SendVerdict::Deliver
        }
    }
}

/// Fault-seam genericization: a policy installed on the hub network
/// applies to frames that arrived over TCP exactly as to in-process
/// sends — the socket layer injects through the same chokepoint.
#[test]
fn fault_policy_applies_to_socket_frames() {
    let (hub, network, agg, key) = start_hub();
    network.set_fault_policy(Arc::new(DropUploads));
    let mut rogue = Rogue::connect(hub.addr(), "party-0", &key).expect("auth");
    rogue.resume();
    rogue.send_data("agg-0", 0, b"dropped");
    assert!(
        matches!(
            agg.recv_timeout(Duration::from_millis(300)),
            Err(RecvError::Timeout)
        ),
        "a Drop verdict must swallow a socket-borne frame"
    );
    assert!(
        hub.first_error().is_none(),
        "a policy drop is not a protocol error"
    );
    drop(rogue);
    hub.join();
}

/// A traced message crosses as two frames — its ids, then its `Data` —
/// and arrives as one message carrying them beside a payload untouched.
#[test]
fn a_trace_frame_gives_the_next_data_frame_its_context() {
    let (hub, _network, agg, key) = start_hub();
    let mut rogue = Rogue::connect(hub.addr(), "party-0", &key).expect("auth");
    rogue.resume();
    rogue.send(&SocketFrame::Trace {
        trace_id: 3,
        msg_id: 42,
    });
    rogue.send_data("agg-0", 0, b"traced");
    rogue.send_data("agg-0", 1, b"plain");
    let traced = agg.recv_timeout(Duration::from_secs(2)).expect("delivered");
    assert_eq!(traced.payload, b"traced");
    let trace = TraceCtx {
        trace_id: 3,
        parent: 42,
    };
    assert_eq!(traced.trace, trace);
    let plain = agg.recv_timeout(Duration::from_secs(2)).expect("delivered");
    assert_eq!(plain.payload, b"plain");
    assert_eq!(plain.trace, TraceCtx::default(), "ids belong to one frame");
    assert!(hub.first_error().is_none());
    hub.join();
}

/// `Trace` is only ever the first half of a message: whatever else
/// follows it is refused as malformed, naming the link, and nothing is
/// delivered.
#[test]
fn a_trace_frame_followed_by_anything_but_data_is_malformed() {
    let trace = SocketFrame::Trace {
        trace_id: 1,
        msg_id: 7,
    };
    for next in [ack(0), SocketFrame::Bye, trace.clone()] {
        let (hub, _network, agg, key) = start_hub();
        let mut rogue = Rogue::connect(hub.addr(), "party-0", &key).expect("auth");
        rogue.resume();
        rogue.send(&trace);
        rogue.send(&next);
        rogue.send_data("agg-0", 0, b"upload");
        match wait_error(&hub).expect("a structured error") {
            SocketError::Malformed { link } => assert_eq!(link, "incoming", "after {next:?}"),
            other => panic!("expected a malformed-frame rejection after {next:?}, got: {other}"),
        }
        assert!(
            matches!(
                agg.recv_timeout(Duration::from_millis(200)),
                Err(RecvError::Timeout)
            ),
            "nothing behind a stray trace frame is delivered"
        );
        hub.join();
    }
}

fn ack(next: u64) -> SocketFrame {
    SocketFrame::Ack { next }
}

/// An acknowledgement speaks for the hub's side of the link it arrives
/// on, and never past what the hub sent there: neither the seat the
/// frames were relayed to, claiming frames its link never carried, nor
/// the seat that sent them, acknowledging on its own link, which carried
/// nothing, makes the hub forget a frame `agg-0` is owed.
#[test]
fn an_acknowledgement_past_what_was_sent_is_refused_and_prunes_nothing() {
    for (from_agg, claimed, refused) in [
        (true, 9, ("hub->agg-0", 9, 3)),
        (false, 3, ("hub->party-0", 3, 0)),
    ] {
        let mut held = Custody::start().expect("three frames in custody");
        let claimant = if from_agg {
            &mut held.agg
        } else {
            &mut held.party
        };
        claimant.send(&ack(claimed));
        match wait_error(&held.hub).expect("a structured error") {
            SocketError::Ack {
                link,
                next,
                stamped,
            } => assert_eq!((link.as_str(), next, stamped), refused),
            other => panic!("expected an Ack rejection, got: {other}"),
        }
        assert_eq!(held.agg_resumes(3).expect("replayed"), [0, 1, 2]);
        held.hub.join();
    }
}

#[test]
fn an_acknowledgement_before_welcome_is_an_auth_failure() {
    let (hub, _network, _agg, _key) = start_hub();
    let mut rogue = Rogue::dial(hub.addr(), "party-0");
    assert!(matches!(rogue.recv(), Some(SocketFrame::Challenge { .. })));
    rogue.send(&ack(0));
    match wait_error(&hub).expect("a structured error") {
        SocketError::Auth { detail, .. } => {
            assert_eq!(detail, "peer did not present an auth proof");
        }
        other => panic!("expected the auth rejection, got: {other}"),
    }
    hub.join();
}

/// The honest counterpart: what the entitled seat acknowledges is not
/// replayed to it, and what it has not acknowledged is.
#[test]
fn an_honest_acknowledgement_prunes_exactly_what_it_names() {
    let mut held = Custody::start().expect("three frames in custody");
    // The connection that carries the acknowledgement dies right behind
    // it; the hub reads one before the other, and serves the resume last.
    held.agg.send(&ack(2));
    assert_eq!(held.agg_resumes(1).expect("replayed"), [2]);
    assert!(held.hub.first_error().is_none());
    held.hub.join();
}

/// A closure is broadcast to live links only and re-announced to a seat
/// once its resume has made it live. The hub asks the network what is
/// closed *after* it lets go of the egress lock (asking under it would
/// invert `network -> egress`), so a closure may land before the resume,
/// during it or after it: wherever it lands, the resuming child hears.
/// The seat here hears of its own closure, announced like any other's.
#[test]
fn a_closure_that_lands_around_a_resume_still_reaches_the_resuming_child() {
    for contend in std::iter::once(false).chain([true; 8]) {
        let (hub, network, _agg, key) = start_hub();
        // Authenticated, its `Resume` not yet sent: the seat is parked.
        let mut party = Rogue::connect(hub.addr(), "party-0", &key).expect("auth");
        if contend {
            // The barrier releases the closure and the resume together.
            let go = Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    go.wait();
                    network.close("party-0");
                });
                go.wait();
                party.resume();
            });
        } else {
            // Parked throughout: only the re-announcement can tell it.
            network.close("party-0");
            party.resume();
        }
        loop {
            match party.recv().expect("the link outlives the closure") {
                SocketFrame::Close { name } if name == "party-0" => break,
                _ => {}
            }
        }
        hub.join();
    }
}
