//! Per-link tap: records every frame a node receives.
//!
//! The tap sits inside the network lock, so the recorded order on any
//! single link is exactly the delivery order that link's receiver
//! observes. The privacy checker replays these logs to prove each
//! aggregator only ever saw traffic from whitelisted senders, with
//! frame sizes consistent with its own fragment of the model — nothing
//! more.

use crate::common::lock;
use deta_transport::NetTap;
use std::sync::Mutex;

/// One observed frame.
#[derive(Clone, Debug)]
pub struct TapRecord {
    /// Sending endpoint.
    pub from: String,
    /// Receiving endpoint.
    pub to: String,
    /// The raw frame (sealed records stay sealed — the tap sees what a
    /// network observer would see).
    pub payload: Vec<u8>,
}

/// A `NetTap` accumulating every delivered frame.
#[derive(Default)]
pub struct TapLog {
    delivered: Mutex<Vec<TapRecord>>,
}

impl TapLog {
    /// Fresh, empty log.
    pub fn new() -> TapLog {
        TapLog::default()
    }

    /// Everything delivered so far, in global delivery order.
    pub fn delivered(&self) -> Vec<TapRecord> {
        lock(&self.delivered).clone()
    }

    /// Delivered frames on one directed link, in delivery order.
    pub fn delivered_on(&self, from: &str, to: &str) -> Vec<TapRecord> {
        lock(&self.delivered)
            .iter()
            .filter(|r| r.from == from && r.to == to)
            .cloned()
            .collect()
    }

    /// Delivered frames into one endpoint, in delivery order.
    pub fn delivered_to(&self, to: &str) -> Vec<TapRecord> {
        lock(&self.delivered)
            .iter()
            .filter(|r| r.to == to)
            .cloned()
            .collect()
    }
}

impl NetTap for TapLog {
    fn on_deliver(&self, from: &str, to: &str, payload: &[u8]) {
        lock(&self.delivered).push(TapRecord {
            from: from.to_string(),
            to: to.to_string(),
            payload: payload.to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_filter_by_link_and_destination() {
        let tap = TapLog::new();
        tap.on_deliver("a", "b", b"1");
        tap.on_deliver("a", "c", b"2");
        tap.on_deliver("b", "c", b"3");
        tap.on_drop("a", "b", b"4");
        assert_eq!(tap.delivered().len(), 3);
        assert_eq!(tap.delivered_on("a", "b").len(), 1);
        assert_eq!(tap.delivered_to("c").len(), 2);
    }
}
