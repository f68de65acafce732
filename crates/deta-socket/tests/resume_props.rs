//! Property tests for the resume/resync protocol's sequencing core: a
//! sender numbering one direction of a link with one counter, with a
//! bounded retransmit buffer, against a [`ReplayWindow`] receiver,
//! across randomly placed link outages and adversarial retransmit
//! interleavings.
//!
//! The properties mirror the wire contract `Resume`/`ResumeAck`
//! implement: after any number of crashes and resumes, the receiver
//! delivers every frame of the direction **exactly once, in order** —
//! frames of several sources (the hub relaying for every node) or for
//! several destinations (a party uploading to every aggregator)
//! interleaved on the one counter — and a rejected frame never advances
//! the window: a replay cannot burn a live sequence number. The last
//! property runs the same protocol on the real [`RetransmitBuffer`] with
//! delivery acknowledged in between outages: pruning on an `Ack` must
//! not cost a frame its retransmission.

use deta_proptest::{cases, Gen};
use deta_socket::{ReplayWindow, RetransmitBuffer, SocketFrame};
use deta_transport::Message;

/// Names a direction's frames carry, interleaved on its one counter.
const NAMES: [&str; 3] = ["party-0", "party-1", "party-2"];

fn any_name(g: &mut Gen) -> &'static str {
    NAMES[g.usize_in(0, NAMES.len())]
}

/// `payload` from `from`, sent untraced.
fn message(from: &str, payload: Vec<u8>) -> Message {
    Message {
        from: from.into(),
        payload,
        trace: Default::default(),
    }
}

#[test]
fn resync_after_outages_delivers_exactly_once_in_order() {
    cases("socket/resume-exactly-once", 300, |g: &mut Gen| {
        let total = g.usize_in(1, 48);
        // The hub -> agg-0 direction: relays from several parties. The
        // sender's unacknowledged frames, (seq, source), which it may
        // have to retransmit; pruned on every resume, as `ResumeAck`
        // prescribes.
        let mut next = 0u64;
        let mut buffer: Vec<(u64, &str)> = Vec::new();
        let mut window = ReplayWindow::new();
        let mut produced: Vec<(u64, &str)> = Vec::new();
        let mut delivered: Vec<(u64, &str)> = Vec::new();
        // Each epoch: produce and send some frames, then crash — the
        // link loses an arbitrary *suffix* of the in-flight frames
        // (TCP delivers a prefix) — then resume from the receiver's
        // claim.
        while produced.len() < total || !buffer.is_empty() {
            // Produce a batch of fresh frames into the buffer (at least
            // one while any remain, so every epoch makes progress).
            if produced.len() < total {
                for _ in 0..g.usize_in(1, total - produced.len() + 1) {
                    let frame = (next, any_name(g));
                    next += 1;
                    buffer.push(frame);
                    produced.push(frame);
                }
            }
            // Resume first: prune the buffer to what the receiver never
            // delivered, then retransmit. An adversarial sender may also
            // replay from before the claim; the window must shrug it off.
            let claim = window.next();
            buffer.retain(|&(seq, _)| seq >= claim);
            let mut in_flight = buffer.clone();
            if g.bool() && claim > 0 {
                // Stale retransmit start: re-send already-delivered seqs.
                let back = g.u64_in(1, claim + 1);
                let stale = (claim - back..claim).map(|seq| (seq, any_name(g)));
                in_flight = stale.chain(in_flight).collect();
            }
            // The crash truncates delivery to a prefix of the flight.
            let got = g.usize_in(0, in_flight.len() + 1);
            for &(seq, src) in &in_flight[..got] {
                if window.accept(src, "agg-0", seq).is_ok() {
                    delivered.push((seq, src));
                }
            }
            // Everything the receiver acknowledged leaves the buffer.
            let claim = window.next();
            buffer.retain(|&(seq, _)| seq >= claim);
        }
        assert_eq!(
            delivered, produced,
            "resync must deliver every frame exactly once, in order"
        );
    });
}

#[test]
fn rejected_frames_never_advance_the_window() {
    cases("socket/resume-reject-frozen", 300, |g: &mut Gen| {
        let mut window = ReplayWindow::new();
        let steps = g.usize_in(1, 40);
        let mut next = 0u64;
        for _ in 0..steps {
            // Mostly honest traffic, salted with replays and futures.
            let seq = match g.usize_in(0, 4) {
                0 if next > 0 => g.u64_in(0, next), // replay
                1 => next + 1 + g.u64_in(0, 16),    // future (gap)
                _ => next,                          // in order
            };
            match window.accept(any_name(g), "agg-0", seq) {
                Ok(()) => {
                    assert_eq!(seq, next, "only the expected seq may be accepted");
                    next += 1;
                }
                Err(_) => assert_eq!(
                    window.next(),
                    next,
                    "a rejected frame must not advance the window"
                ),
            }
        }
        assert_eq!(window.next(), next);
    });
}

#[test]
fn resume_claims_are_exactly_resumable() {
    cases("socket/resume-snapshot-claims", 200, |g: &mut Gen| {
        // Whatever the direction carried, and from whom, its claim is
        // exactly the point it resumes from: the claimed seq is
        // accepted, the one before it is a replay.
        let mut window = ReplayWindow::new();
        for seq in 0..g.u64_in(0, 40) {
            window
                .accept(any_name(g), "agg-0", seq)
                .expect("in-order accept");
        }
        let claim = window.next();
        if claim > 0 {
            window
                .accept(any_name(g), "agg-0", claim - 1)
                .expect_err("the claim's predecessor is a replay");
        }
        window
            .accept(any_name(g), "agg-0", claim)
            .expect("the claimed seq must be exactly resumable");
    });
}

/// The (destination, seq) of every frame `buffer` retains, oldest first.
fn retained(buffer: &RetransmitBuffer) -> Vec<(String, u64)> {
    buffer
        .frames()
        .map(|f| match &**f {
            SocketFrame::Data { dst, seq, .. } => (dst.clone(), *seq),
            other => panic!("unexpected {other:?}"),
        })
        .collect()
}

#[test]
fn ack_pruning_between_outages_keeps_exactly_once_and_empties_a_quiet_link() {
    const SRC: &str = "party-0";
    const DSTS: [&str; 3] = ["agg-0", "agg-1", "agg-2"];
    cases("socket/resume-ack-pruning", 300, |g: &mut Gen| {
        let total = g.u64_in(1, 48);
        // The party-0 -> hub direction: uploads to every aggregator on
        // one counter.
        let mut buffer = RetransmitBuffer::new("party-0->hub");
        let mut window = ReplayWindow::new();
        let mut produced: Vec<(String, u64)> = Vec::new();
        let mut delivered: Vec<(String, u64)> = Vec::new();
        let stamp = |buffer: &mut RetransmitBuffer, produced: &mut Vec<_>, g: &mut Gen| {
            let dst = DSTS[g.usize_in(0, DSTS.len())];
            let seq = produced.len() as u64;
            buffer.stamp(dst, message(SRC, vec![seq as u8]));
            produced.push((dst.to_string(), seq));
        };
        while (produced.len() as u64) < total || !buffer.is_empty() {
            let sent = produced.len() as u64;
            if sent < total {
                for _ in 0..g.u64_in(1, total - sent + 1) {
                    stamp(&mut buffer, &mut produced, g);
                }
            }
            // Resume: the receiver's claim prunes, what is left flies.
            buffer
                .prune(window.next())
                .expect("nothing this small is evicted");
            let flight = retained(&buffer);
            // The outage truncates delivery to a prefix of the flight.
            // Every accepted frame is acknowledged; each acknowledgement
            // reaches the sender there and then — mid-flight — or dies
            // with the connection, or is forged to claim the future.
            let got = g.usize_in(0, flight.len() + 1);
            for (dst, seq) in &flight[..got] {
                window
                    .accept(SRC, dst, *seq)
                    .expect("a pruned flight starts at the claim");
                delivered.push((dst.clone(), *seq));
                let sent = produced.len() as u64;
                match g.usize_in(0, 4) {
                    0 => {}
                    1 => {
                        let forged = sent + 1 + g.u64_in(0, 8);
                        buffer
                            .acknowledge(forged)
                            .expect_err("more than was ever sent");
                    }
                    _ => buffer.acknowledge(seq + 1).expect("accepted, so sent"),
                }
                // What the window has not accepted is all still there,
                // in order: no frame is pruned before it was delivered.
                let kept = retained(&buffer);
                let oldest = kept.first().map_or(sent, |(_, seq)| *seq);
                assert_eq!(kept, produced[oldest as usize..], "kept {kept:?}");
                assert!(
                    oldest <= window.next(),
                    "seq {oldest} would be due next, but the window is at {}",
                    window.next()
                );
            }
        }
        assert_eq!(delivered, produced, "exactly once, in order");
        // A healthy stretch: everything sent arrives, acknowledgements
        // coalesce (any subset that ends with the last). Once the link
        // is quiet its sender holds nothing.
        let more = g.u64_in(1, 16);
        for i in 0..more {
            stamp(&mut buffer, &mut produced, g);
            let (dst, seq) = produced.last().expect("just stamped");
            window.accept(SRC, dst, *seq).expect("in order");
            if i + 1 == more || g.bool() {
                buffer.acknowledge(seq + 1).expect("accepted, so sent");
            }
        }
        assert!(buffer.is_empty());
    });
}
