//! Property tests for the resume/resync protocol's sequencing core:
//! a [`SeqTracker`]-numbered sender with a bounded retransmit buffer
//! against a [`ReplayWindow`] receiver, across randomly placed link
//! outages and adversarial retransmit interleavings.
//!
//! The properties mirror the wire contract `Resume`/`ResumeAck`
//! implement: after any number of crashes and resumes, the receiver
//! delivers every link's payloads **exactly once, in order** (the
//! sequence of accepted seqs is exactly `0..n`), and a rejected frame
//! never advances the window — a replay cannot burn a live sequence
//! number. The last property runs the same protocol on the real
//! [`RetransmitBuffer`] with delivery acknowledged in between outages:
//! pruning on an `Ack` must not cost a frame its retransmission.

use deta_proptest::{cases, Gen};
use deta_socket::{ReplayWindow, RetransmitBuffer, SeqTracker, SocketFrame};

const SRC: &str = "party-0";
const DST: &str = "agg-0";

/// The receiver's resume claim for the modelled link: the next seq it
/// will accept, exactly what a `Resume`/`ResumeAck` window entry says.
fn claimed_next(window: &ReplayWindow) -> u64 {
    window
        .snapshot_from(SRC)
        .into_iter()
        .find(|(_, d, _)| d == DST)
        .map(|(_, _, n)| n)
        .unwrap_or(0)
}

#[test]
fn resync_after_outages_delivers_exactly_once_in_order() {
    cases("socket/resume-exactly-once", 300, |g: &mut Gen| {
        let total = g.usize_in(1, 48);
        let mut tracker = SeqTracker::new();
        // The sender's unacknowledged-frame buffer: seqs it may have to
        // retransmit. Pruned on every resume, as `ResumeAck` prescribes.
        let mut buffer: Vec<u64> = Vec::new();
        let mut window = ReplayWindow::new();
        let mut delivered: Vec<u64> = Vec::new();
        let mut produced = 0usize;
        // Each epoch: produce and send some frames, then crash — the
        // link loses an arbitrary *suffix* of the in-flight frames
        // (TCP delivers a prefix) — then resume from the receiver's
        // claimed window.
        while produced < total || !buffer.is_empty() {
            // Produce a batch of fresh frames into the buffer (at least
            // one while any remain, so every epoch makes progress).
            if produced < total {
                let fresh = g.usize_in(1, total - produced + 1);
                for _ in 0..fresh {
                    buffer.push(tracker.next(SRC, DST));
                }
                produced += fresh;
            }
            // Resume first: prune the buffer to what the receiver never
            // delivered, then retransmit. An adversarial sender may also
            // replay from before the claim; the window must shrug it off.
            let next = claimed_next(&window);
            buffer.retain(|&seq| seq >= next);
            let mut in_flight: Vec<u64> = buffer.clone();
            if g.bool() && next > 0 {
                // Stale retransmit start: re-send already-delivered seqs.
                let back = g.u64_in(1, next + 1);
                let mut stale: Vec<u64> = (next - back..next).collect();
                stale.extend(in_flight);
                in_flight = stale;
            }
            // The crash truncates delivery to a prefix of the flight.
            let got = g.usize_in(0, in_flight.len() + 1);
            for &seq in &in_flight[..got] {
                if window.accept(SRC, DST, seq).is_ok() {
                    delivered.push(seq);
                }
            }
            // Everything the receiver acknowledged leaves the buffer.
            let next = claimed_next(&window);
            buffer.retain(|&seq| seq >= next);
        }
        let expect: Vec<u64> = (0..total as u64).collect();
        assert_eq!(
            delivered, expect,
            "resync must deliver every seq exactly once, in order"
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
            match window.accept(SRC, DST, seq) {
                Ok(()) => {
                    assert_eq!(seq, next, "only the expected seq may be accepted");
                    next += 1;
                }
                Err(v) => {
                    assert_eq!(v.seq, seq);
                    assert_eq!(v.expected, next, "the violation must name the live seq");
                    // A reject may materialize the link's implicit-zero
                    // entry, but its claimed next never moves.
                    assert_eq!(
                        claimed_next(&window),
                        next,
                        "a rejected frame must not advance the window"
                    );
                }
            }
        }
        assert_eq!(claimed_next(&window), next);
    });
}

#[test]
fn snapshot_claims_are_exactly_resumable() {
    cases("socket/resume-snapshot-claims", 200, |g: &mut Gen| {
        // Several links advance independently; the snapshot must claim
        // exactly the point each link resumes from: the claimed seq is
        // accepted, the one before it is a replay.
        let links = g.vec_of(1, 5, |g| {
            (
                format!("party-{}", g.usize_in(0, 4)),
                format!("agg-{}", g.usize_in(0, 2)),
            )
        });
        let mut window = ReplayWindow::new();
        for (src, dst) in &links {
            let n = g.u64_in(0, 12);
            let base = claimed_next_for(&window, src, dst);
            for seq in base..base + n {
                window.accept(src, dst, seq).expect("in-order accept");
            }
        }
        for (src, dst, next) in window.snapshot() {
            if next > 0 {
                let v = window
                    .accept(&src, &dst, next - 1)
                    .expect_err("the claim's predecessor is a replay");
                assert_eq!(v.expected, next);
            }
            window
                .accept(&src, &dst, next)
                .expect("the claimed seq must be exactly resumable");
        }
    });
}

fn claimed_next_for(window: &ReplayWindow, src: &str, dst: &str) -> u64 {
    window
        .snapshot_from(src)
        .into_iter()
        .find(|(_, d, _)| d == dst)
        .map(|(_, _, n)| n)
        .unwrap_or(0)
}

/// The sequence numbers `buffer` retains toward `dst`, oldest first.
fn retained(buffer: &RetransmitBuffer, dst: &str) -> Vec<u64> {
    buffer
        .frames()
        .filter_map(|f| match &**f {
            SocketFrame::Data { dst: d, seq, .. } if d == dst => Some(*seq),
            _ => None,
        })
        .collect()
}

#[test]
fn ack_pruning_between_outages_keeps_exactly_once_and_empties_a_quiet_link() {
    cases("socket/resume-ack-pruning", 300, |g: &mut Gen| {
        let total = g.u64_in(1, 48);
        let mut buffer = RetransmitBuffer::default();
        let mut window = ReplayWindow::new();
        let mut delivered: Vec<u64> = Vec::new();
        let mut produced = 0u64;
        // A second link through the same buffer that nobody acknowledges:
        // nothing said about SRC -> DST may touch it.
        let bystanders = g.usize_in(0, 4);
        for _ in 0..bystanders {
            buffer.stamp(SRC.to_string(), "agg-1".to_string(), vec![0xb5]);
        }
        while produced < total || !retained(&buffer, DST).is_empty() {
            if produced < total {
                for _ in 0..g.u64_in(1, total - produced + 1) {
                    buffer.stamp(SRC.to_string(), DST.to_string(), vec![produced as u8]);
                    produced += 1;
                }
            }
            // Resume: the receiver's claims prune, what is left flies.
            buffer
                .prune(window.snapshot())
                .expect("nothing this small is evicted");
            let flight = retained(&buffer, DST);
            // The outage truncates delivery to a prefix of the flight.
            // Every accepted frame is acknowledged; each acknowledgement
            // reaches the sender there and then — mid-flight — or dies
            // with the connection, or is forged to claim the future.
            let got = g.usize_in(0, flight.len() + 1);
            for &seq in &flight[..got] {
                window
                    .accept(SRC, DST, seq)
                    .expect("a pruned flight starts at the claim");
                delivered.push(seq);
                match g.usize_in(0, 4) {
                    0 => {}
                    1 => {
                        let forged = produced + 1 + g.u64_in(0, 8);
                        buffer
                            .acknowledge(SRC, DST, forged)
                            .expect_err("more than was ever sent");
                    }
                    _ => buffer
                        .acknowledge(SRC, DST, seq + 1)
                        .expect("accepted, so sent"),
                }
                // What the window has not accepted is all still there,
                // in order: no frame is pruned before it was delivered.
                let kept = retained(&buffer, DST);
                let oldest = kept.first().copied().unwrap_or(produced);
                assert!(kept.iter().copied().eq(oldest..produced), "kept {kept:?}");
                assert!(
                    oldest <= claimed_next(&window),
                    "seq {oldest} would be due next, but the window is at {}",
                    claimed_next(&window)
                );
                assert_eq!(retained(&buffer, "agg-1").len(), bystanders);
            }
        }
        let expect: Vec<u64> = (0..total).collect();
        assert_eq!(delivered, expect, "exactly once, in order");
        // A healthy stretch: everything sent arrives, acknowledgements
        // coalesce (any subset that ends with the last). Once the link
        // is quiet its sender holds nothing of it.
        let more = g.u64_in(1, 16);
        for seq in total..total + more {
            buffer.stamp(SRC.to_string(), DST.to_string(), vec![seq as u8]);
            window.accept(SRC, DST, seq).expect("in order");
            if seq + 1 == total + more || g.bool() {
                buffer
                    .acknowledge(SRC, DST, seq + 1)
                    .expect("accepted, so sent");
            }
        }
        assert!(retained(&buffer, DST).is_empty());
        assert_eq!(buffer.len(), bystanders);
    });
}
