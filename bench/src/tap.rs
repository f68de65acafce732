//! Round boundaries and phases of a threaded or socket deployment, seen
//! from outside through the hub network's [`NetTap`] seam.
//!
//! `ThreadedSession::run` drives every round inside one call, so the
//! benchmark cannot put a clock around a single round. What it can see
//! is the supervisor fanning out `CtlMsg::RoundPlan { round }` to the
//! parties at the start of each round, and every fragment crossing the
//! party↔aggregator links. [`RoundTap`] records those deliveries with a
//! timestamp; [`round_spans`] turns the record into per-round intervals
//! and phases. The analysis is a pure function of the event list so it
//! can be tested on synthetic sequences.

use deta_runtime::{CtlMsg, SUPERVISOR};
use deta_transport::NetTap;
use std::sync::Mutex;
use std::time::Instant;

/// What a tapped delivery meant for round accounting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TapKind {
    /// The supervisor told a party to run `round`.
    Plan(u64),
    /// A party→aggregator delivery (a fragment upload).
    Upload,
    /// An aggregator→party delivery (round announcement or aggregated
    /// fragment; the last one of a round is always a fragment).
    Download,
}

/// One tapped delivery: seconds since the tap was created, and process
/// CPU seconds for plan events (0 for the others, which never need it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TapEvent {
    pub kind: TapKind,
    pub at_s: f64,
    pub cpu_s: f64,
}

/// A [`NetTap`] that logs round plans and fragment deliveries.
pub struct RoundTap {
    origin: Instant,
    events: Mutex<Vec<TapEvent>>,
}

impl Default for RoundTap {
    fn default() -> RoundTap {
        RoundTap::new()
    }
}

impl RoundTap {
    pub fn new() -> RoundTap {
        RoundTap {
            origin: Instant::now(),
            events: Mutex::new(Vec::with_capacity(1 << 12)),
        }
    }

    /// Seconds since the tap was created: the clock of its events.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// The events logged so far, in delivery order.
    pub fn events(&self) -> Vec<TapEvent> {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TapEvent>> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl NetTap for RoundTap {
    // Runs under the network lock: classify by name first so the only
    // payloads decoded are the supervisor's few-byte control frames.
    fn on_deliver(&self, from: &str, to: &str, payload: &[u8]) {
        let kind = if from == SUPERVISOR {
            match CtlMsg::decode(payload) {
                Ok(CtlMsg::RoundPlan { round, .. }) => TapKind::Plan(round),
                _ => return,
            }
        } else if from.starts_with("party-") && to.starts_with("agg-") {
            TapKind::Upload
        } else if from.starts_with("agg-") && to.starts_with("party-") {
            TapKind::Download
        } else {
            return;
        };
        let at_s = self.now_s();
        // Every copy of a plan is logged (one per party, a few a round);
        // `round_spans` keeps the first.
        let cpu_s = match kind {
            TapKind::Plan(_) => crate::procfs::cpu_seconds(),
            _ => 0.0,
        };
        self.lock().push(TapEvent { kind, at_s, cpu_s });
    }
}

/// One round as reconstructed from the tap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundSpan {
    pub round: u64,
    /// First `RoundPlan` fan-out of this round.
    pub start_s: f64,
    /// First fan-out of the next round, or the end of the run.
    pub end_s: f64,
    /// Process CPU seconds at `start_s`.
    pub cpu_at_start_s: f64,
    /// Start → last upload delivered: training, transform, seal, send,
    /// for the slowest party.
    pub upload_phase_s: f64,
    /// Last upload → last download delivered: open, aggregate, seal,
    /// send, for the slowest aggregator.
    pub agg_phase_s: f64,
    /// Last download → end: open, inverse transform, merge, completion
    /// report and the driver's evaluation.
    pub download_phase_s: f64,
}

impl RoundSpan {
    pub fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Reconstructs the rounds of a run from its tap events.
///
/// A round starts at the *first* plan naming it (the supervisor sends
/// one per party; later copies and re-deliveries are ignored, as is a
/// plan for a round already seen) and ends where the next one starts;
/// the last round ends at `end_s`, when `run` returned. When the run
/// failed, the last announced round never completed and is dropped.
pub fn round_spans(events: &[TapEvent], end_s: f64, run_failed: bool) -> Vec<RoundSpan> {
    struct Open {
        round: u64,
        start_s: f64,
        cpu_s: f64,
        last_upload_s: Option<f64>,
        last_download_s: Option<f64>,
    }
    let mut rounds: Vec<Open> = Vec::new();
    for e in events {
        match e.kind {
            TapKind::Plan(round) => {
                if rounds.last().is_none_or(|open| round > open.round) {
                    rounds.push(Open {
                        round,
                        start_s: e.at_s,
                        cpu_s: e.cpu_s,
                        last_upload_s: None,
                        last_download_s: None,
                    });
                }
            }
            TapKind::Upload => {
                if let Some(open) = rounds.last_mut() {
                    open.last_upload_s = Some(e.at_s);
                }
            }
            TapKind::Download => {
                if let Some(open) = rounds.last_mut() {
                    open.last_download_s = Some(e.at_s);
                }
            }
        }
    }
    let ends: Vec<f64> = rounds
        .iter()
        .skip(1)
        .map(|next| next.start_s)
        .chain(std::iter::once(end_s))
        .collect();
    let mut spans: Vec<RoundSpan> = rounds
        .iter()
        .zip(ends)
        .map(|(open, end_s)| {
            let uploaded = open.last_upload_s.unwrap_or(open.start_s);
            let downloaded = open.last_download_s.unwrap_or(uploaded).max(uploaded);
            RoundSpan {
                round: open.round,
                start_s: open.start_s,
                end_s,
                cpu_at_start_s: open.cpu_s,
                upload_phase_s: uploaded - open.start_s,
                agg_phase_s: downloaded - uploaded,
                download_phase_s: end_s - downloaded,
            }
        })
        .collect();
    if run_failed {
        spans.pop();
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TapKind, at_s: f64) -> TapEvent {
        TapEvent {
            kind,
            at_s,
            cpu_s: at_s * 2.0,
        }
    }

    /// Three rounds, each plan fanned out to four parties, the second
    /// round's fan-out re-delivered late (a supervisor retry).
    fn three_rounds() -> Vec<TapEvent> {
        let mut events = Vec::new();
        for (round, base) in [(1u64, 0.0), (2, 1.0), (3, 2.5)] {
            for party in 0..4 {
                events.push(ev(TapKind::Plan(round), base + 0.001 * f64::from(party)));
            }
            events.push(ev(TapKind::Download, base + 0.01)); // RoundStart
            events.push(ev(TapKind::Upload, base + 0.3));
            events.push(ev(TapKind::Upload, base + 0.4));
            if round == 2 {
                events.push(ev(TapKind::Plan(2), base + 0.45));
                events.push(ev(TapKind::Plan(1), base + 0.46));
            }
            events.push(ev(TapKind::Download, base + 0.6));
            events.push(ev(TapKind::Download, base + 0.7));
        }
        events
    }

    #[test]
    fn duplicate_fanouts_do_not_split_rounds() {
        let spans = round_spans(&three_rounds(), 3.5, false);
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans.iter().map(|s| s.round).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(spans[0].start_s, 0.0);
        assert_eq!(spans[0].end_s, 1.0);
        assert_eq!(spans[1].wall_s(), 1.5);
        assert_eq!(spans[2].end_s, 3.5);
        assert_eq!(spans[1].cpu_at_start_s, 2.0);
        let total: f64 = spans.iter().map(RoundSpan::wall_s).sum();
        assert!((total - 3.5).abs() < 1e-12, "intervals tile the run");
    }

    #[test]
    fn phases_tile_each_round() {
        for s in round_spans(&three_rounds(), 3.5, false) {
            assert!((s.upload_phase_s - 0.4).abs() < 1e-12);
            assert!((s.agg_phase_s - 0.3).abs() < 1e-12);
            let sum = s.upload_phase_s + s.agg_phase_s + s.download_phase_s;
            assert!((sum - s.wall_s()).abs() < 1e-12);
        }
    }

    #[test]
    fn failed_run_drops_the_round_that_never_finished() {
        // The run died in round 3: its plan went out, nothing came back.
        let mut events = three_rounds();
        events.truncate(events.len() - 4);
        let spans = round_spans(&events, 2.9, true);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].round, 2);
        // Round 2 still ends where round 3 was announced.
        assert_eq!(spans[1].end_s, 2.5);
    }

    #[test]
    fn missing_last_round_is_simply_absent() {
        // Planned 4 rounds, the tap saw 3: the caller compares lengths.
        let spans = round_spans(&three_rounds(), 3.5, false);
        assert_eq!(spans.len(), 3);
        assert!(round_spans(&[], 1.0, false).is_empty());
        assert!(round_spans(&[ev(TapKind::Plan(1), 0.0)], 1.0, true).is_empty());
    }
}
