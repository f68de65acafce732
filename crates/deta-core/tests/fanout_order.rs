//! The order an aggregator's fan-outs reach the network in is the name
//! order of its parties — not the order they joined in, and not one
//! that differs from run to run — so that two traces of one seed can be
//! diffed and a fault plan meets the same interleaving every time.

mod common;

use std::sync::{Arc, Mutex};

use common::{aggregator, registered};
use deta_core::agg::AggKind;
use deta_core::wire::Msg;
use deta_crypto::DetRng;
use deta_transport::{LinkModel, NetTap, Network};

const PARTIES: usize = 8;

/// The destination of every frame `agg-0` had delivered, in order.
#[derive(Default)]
struct Destinations(Mutex<Vec<String>>);

impl NetTap for Destinations {
    fn on_deliver(&self, from: &str, to: &str, _payload: &[u8]) {
        if from == "agg-0" {
            self.0.lock().expect("tap log").push(to.to_string());
        }
    }
}

impl Destinations {
    fn drain(&self) -> Vec<String> {
        std::mem::take(&mut *self.0.lock().expect("tap log"))
    }
}

#[test]
fn fan_outs_go_out_in_party_name_order_every_time() {
    let by_name: Vec<String> = (0..PARTIES).map(|i| format!("party-{i}")).collect();
    // Two sessions in one process: a hasher's order differs between them.
    for _session in 0..2 {
        let net = Network::new(LinkModel::lan());
        let mut rng = DetRng::from_u64(7);
        let mut agg = aggregator(&net, AggKind::IterativeAveraging, &mut rng);
        // Joined last name first: not the order of arrival either.
        let mut parties = registered(&net, &mut agg, (0..PARTIES).rev(), &mut rng);
        let sent = Arc::new(Destinations::default());
        net.set_tap(Arc::clone(&sent) as Arc<dyn NetTap>);

        agg.begin_round(1, [7; 16]).expect("the initiator");
        assert_eq!(sent.drain(), by_name, "RoundStart fan-out");
        for party in &mut parties {
            assert!(matches!(
                party.recv(),
                Some(Msg::RoundStart { round: 1, .. })
            ));
            party.send(&Msg::Upload {
                round: 1,
                fragment: vec![1.0; 4],
            });
        }
        agg.pump();
        assert_eq!(agg.completed_rounds, 1);
        assert_eq!(sent.drain(), by_name, "Aggregated fan-out");
    }
}
