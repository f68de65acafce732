//! The bridge occupies neither slot of a child's replica: a policy
//! installed there rules on the node's egress, a tap sees it as
//! deliveries, and a drop is the one frame the policy lost.

use deta_core::session::{DetaConfig, NodeParts};
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::Sequential;
use deta_runtime::{CtlMsg, SUPERVISOR};
use deta_socket::{host_node, HubSeat, SocketHub};
use deta_transport::{FaultPolicy, LinkModel, NetTap, Network, SendVerdict};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Loses the node's first heartbeat and nothing else.
struct DropFirstHeartbeat;

impl FaultPolicy for DropFirstHeartbeat {
    fn on_send(&self, _from: &str, _to: &str, payload: &[u8]) -> SendVerdict {
        match CtlMsg::decode(payload) {
            Ok(CtlMsg::Heartbeat { seq: 1 }) => SendVerdict::Drop,
            _ => SendVerdict::Deliver,
        }
    }
}

/// What the replica delivered and lost, as `(delivered, to, message)`.
#[derive(Default)]
struct Log(Mutex<Vec<(bool, String, CtlMsg)>>);

impl Log {
    fn push(&self, delivered: bool, to: &str, payload: &[u8]) {
        if let Ok(msg) = CtlMsg::decode(payload) {
            let mut log = self.0.lock().expect("tap log");
            log.push((delivered, to.to_string(), msg));
        }
    }
}

impl NetTap for Log {
    fn on_deliver(&self, _from: &str, to: &str, payload: &[u8]) {
        self.push(true, to, payload);
    }
    fn on_drop(&self, _from: &str, to: &str, payload: &[u8]) {
        self.push(false, to, payload);
    }
}

#[test]
fn a_childs_fault_policy_and_tap_slots_are_free() {
    const SEED: u64 = 0x51075;
    let mut cfg = DetaConfig::deta(2, 1);
    cfg.n_aggregators = 1;
    cfg.seed = SEED;
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let shards = iid_partition(&spec.generate(8, 1), 2, 2);
    // An aggregator built alone calls no model builder.
    let parts = NodeParts::build(cfg, &|_| Sequential::new(), shards, "agg-0").expect("build");

    let hub_net = Network::new(LinkModel::lan());
    let supervisor = hub_net.register(SUPERVISOR);
    let seat = HubSeat {
        name: "agg-0".to_string(),
        key: parts.tokens["agg-0"].clone(),
    };
    let hub = SocketHub::bind(hub_net.clone(), vec![seat], SEED).expect("bind");

    let log = Arc::new(Log::default());
    parts.network.set_fault_policy(Arc::new(DropFirstHeartbeat));
    parts.network.set_tap(Arc::clone(&log) as Arc<dyn NetTap>);
    let addr = hub.addr();
    let child =
        std::thread::spawn(move || host_node(addr, "agg-0", SEED, parts, Duration::from_millis(5)));

    // What reaches the hub's supervisor: heartbeat 1 never does.
    let next = || {
        let msg = supervisor
            .recv_timeout(Duration::from_secs(10))
            .expect("the child reports in");
        assert_eq!(&*msg.from, "agg-0");
        CtlMsg::decode(&msg.payload).expect("a control message")
    };
    assert_eq!(next(), CtlMsg::Ready);
    assert_eq!(next(), CtlMsg::Heartbeat { seq: 2 });
    let shutdown = CtlMsg::Shutdown.encode().expect("encode");
    hub_net
        .send_as(SUPERVISOR, "agg-0", shutdown, Default::default())
        .expect("the seat is open");
    child.join().expect("child thread").expect("a clean run");
    assert!(hub.join().is_none());

    let log = log.0.lock().expect("tap log");
    let to_supervisor = |i: usize| (log[i].0, log[i].1.as_str(), &log[i].2);
    assert_eq!(to_supervisor(0), (true, SUPERVISOR, &CtlMsg::Ready));
    assert_eq!(
        to_supervisor(1),
        (false, SUPERVISOR, &CtlMsg::Heartbeat { seq: 1 })
    );
    assert_eq!(
        to_supervisor(2),
        (true, SUPERVISOR, &CtlMsg::Heartbeat { seq: 2 })
    );
    assert_eq!(log.iter().filter(|(delivered, ..)| !delivered).count(), 1);
}
