//! Property tests for the receiver-side [`ReplayWindow`]: the bridge's
//! last line of defence against logical-frame replay and reorder above
//! TCP.
//!
//! The contract under test is strict in-order delivery per direction of
//! a link: one counter numbers every `Data` frame of the direction,
//! whatever its (src, dst). Under *arbitrary* interleavings of names and
//! sequence numbers, the window accepts exactly the frames forming the
//! 0, 1, 2, … sequence, every rejection names the offending frame's
//! `src->dst` with the structured [`SocketError::Replay`], and a
//! rejection never advances the window — an attacker cannot burn
//! sequence numbers by sending garbage.

use deta_proptest::{cases, Gen};
use deta_socket::{ReplayWindow, SocketError};

/// A small universe of endpoint names: the frames of one direction
/// carry several sources (the hub relays for every node) or several
/// destinations (a party uploads to every aggregator).
const NAMES: [&str; 4] = ["party-0", "party-1", "agg-0", "agg-1"];

fn arbitrary_link(g: &mut Gen) -> (&'static str, &'static str) {
    let src = NAMES[g.usize_in(0, NAMES.len())];
    let dst = NAMES[g.usize_in(0, NAMES.len())];
    (src, dst)
}

#[test]
fn window_matches_the_strict_in_order_model_under_interleavings() {
    cases("socket/replay-window-model", 400, |g: &mut Gen| {
        let mut window = ReplayWindow::new();
        // The reference model: one counter for the whole direction.
        let mut expected = 0u64;
        let events = g.usize_in(1, 120);
        for _ in 0..events {
            let (src, dst) = arbitrary_link(g);
            // Bias toward the interesting neighbourhood of the counter:
            // the correct value, a replayed old one, a skipped-ahead
            // one, or arbitrary garbage.
            let seq = match g.usize_in(0, 4) {
                0 => expected,
                1 => expected.saturating_sub(g.u64_in(1, 4)),
                2 => expected + g.u64_in(1, 4),
                _ => g.u64(),
            };
            match window.accept(src, dst, seq) {
                Ok(()) => {
                    assert_eq!(seq, expected, "accepted out-of-order seq on {src}->{dst}");
                    expected += 1;
                }
                Err(SocketError::Replay {
                    link,
                    seq: got,
                    expected: want,
                }) => {
                    assert_ne!(seq, expected, "rejected the in-order seq");
                    assert_eq!(link, format!("{src}->{dst}"), "wrong frame blamed");
                    assert_eq!(got, seq);
                    assert_eq!(want, expected, "reject must report the real expectation");
                    // And the model deliberately does not advance.
                }
                Err(other) => panic!("unexpected error variant: {other}"),
            }
            assert_eq!(window.next(), expected, "the claim is the count accepted");
        }
    });
}

#[test]
fn accepts_exactly_the_zero_based_in_order_subsequence() {
    cases("socket/replay-window-subsequence", 300, |g: &mut Gen| {
        let mut window = ReplayWindow::new();
        let stream = g.vec_of(1, 80, |g| (arbitrary_link(g), g.u64_in(0, 10)));
        let accepted: Vec<u64> = stream
            .iter()
            .filter(|((src, dst), seq)| window.accept(src, dst, *seq).is_ok())
            .map(|(_, seq)| *seq)
            .collect();
        let want: Vec<u64> = (0..accepted.len() as u64).collect();
        assert_eq!(
            accepted, want,
            "the accepted frames must be exactly 0, 1, 2, … in order, whatever \
             their names (stream: {stream:?})"
        );
    });
}

#[test]
fn rejects_never_advance_the_window_and_never_leak_across_links() {
    cases("socket/replay-window-no-advance", 300, |g: &mut Gen| {
        // Two links, as the hub holds them: one window per seat.
        let (mut victim, mut bystander) = (ReplayWindow::new(), ReplayWindow::new());
        // Drive the victim to an arbitrary position, with frames to
        // several destinations.
        let position = g.u64_in(0, 20);
        for seq in 0..position {
            let dst = NAMES[g.usize_in(2, NAMES.len())];
            victim.accept("party-0", dst, seq).expect("in-order prefix");
        }
        // A burst of wrong sequence numbers: every one rejected with the
        // same unchanged expectation, whichever order they arrive in.
        let burst = g.vec_of(1, 20, |g| g.u64());
        for seq in burst.into_iter().filter(|&s| s != position) {
            let err = victim
                .accept("party-0", "agg-1", seq)
                .expect_err("wrong seq must be rejected");
            match err {
                SocketError::Replay {
                    link,
                    seq: got,
                    expected,
                } => {
                    assert_eq!(link, "party-0->agg-1");
                    assert_eq!(got, seq);
                    assert_eq!(expected, position, "a reject advanced the window");
                }
                other => panic!("unexpected error variant: {other}"),
            }
        }
        // Another link is unaffected by the victim's rejects…
        bystander
            .accept("party-1", "agg-0", 0)
            .expect("a fresh link starts at 0");
        // …and the victim still accepts exactly its next seq.
        victim
            .accept("party-0", "agg-0", position)
            .expect("the window must still expect the pre-burst seq");
    });
}
