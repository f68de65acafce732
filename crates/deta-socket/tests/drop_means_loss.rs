//! A drop means a loss: a bridged session's healthy frames are
//! deliveries at both ends of every link, so a fault-free run records no
//! `net_drop` event and no `deta_net_drops_total` series anywhere, and a
//! policy that drops frames on the hub network accounts for exactly the
//! frames it dropped. Alone in its binary — the metrics registry is the
//! process's.

mod common;

use common::{child, config, data, model, SEATS};
use deta_runtime::{RuntimeConfig, RuntimeError};
use deta_socket::launch;
use deta_telemetry::FlightRecorder;
use deta_transport::{FaultPolicy, SendVerdict};
use std::collections::HashMap;
use std::sync::Arc;

/// `tests/socket_faults.rs`'s policy: party-0's frames to agg-0 are lost.
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

struct DeliverAll;

impl FaultPolicy for DeliverAll {
    fn on_send(&self, _from: &str, _to: &str, _payload: &[u8]) -> SendVerdict {
        SendVerdict::Deliver
    }
}

/// The `deta_net_drops_total` lines of the registry's snapshot.
fn drop_series() -> Vec<String> {
    deta_telemetry::metrics::prometheus_snapshot()
        .lines()
        .filter(|line| line.starts_with("deta_net_drops_total"))
        .map(str::to_string)
        .collect()
}

#[test]
fn a_healthy_frame_is_never_a_drop_and_a_dropped_one_is_the_only_drop() {
    let cfg = config(2);
    let (shards, test) = data();
    let trace_dir = std::env::temp_dir().join(format!("deta-drop-{}", std::process::id()));
    let mut rt = RuntimeConfig::default();
    rt.telemetry.enabled = true;
    rt.telemetry.ring_capacity = 1 << 16;
    rt.telemetry.trace_dir = trace_dir.clone();
    let (child_cfg, child_shards) = (cfg.clone(), shards.clone());
    let mut bridged = launch(cfg, &model, shards, rt, HashMap::new(), |name, addr| {
        Ok::<_, RuntimeError>(child(addr, name, &child_cfg, &child_shards))
    })
    .expect("setup");
    // Phase II and registration have crossed the bridge in both directions.
    assert_eq!(
        drop_series(),
        Vec::<String>::new(),
        "set-up dropped nothing"
    );

    // Three frames lost to a policy, sent from this thread so that their
    // `net_drop` events land in a ring of its own.
    let own_ring = FlightRecorder::new("test", 64);
    let network = bridged.session.network().clone();
    network.set_fault_policy(Arc::new(DropUploads));
    {
        let _attached = deta_telemetry::attach(Arc::clone(&own_ring));
        for _ in 0..3 {
            network
                .send_as("party-0", "agg-0", b"upload".to_vec(), Default::default())
                .expect("a drop is silent");
        }
    }
    network.set_fault_policy(Arc::new(DeliverAll));
    let lost = |records: &[deta_telemetry::TelemetryRecord]| {
        records.iter().filter(|r| r.name == "net_drop").count()
    };
    assert_eq!(lost(&own_ring.drain().0), 3);

    // Two healthy rounds later those three are still all there is.
    bridged.session.run(&test).expect("run");
    for child in bridged.hosts {
        child.join().expect("child thread").expect("a clean child");
    }
    let (hub_err, harvest) = bridged.hub.join_harvest();
    assert!(hub_err.is_none(), "{hub_err:?}");
    let wanted = r#"deta_net_drops_total{label="party-0->agg-0"} 3"#;
    assert_eq!(drop_series(), [wanted]);
    // Every child shipped its ring (and the hub adds its own when it has
    // something to say); the coordinator's is dumped on request.
    assert!(harvest.traces.len() >= SEATS, "{:?}", harvest.traces.keys());
    for (node, (jsonl, _)) in &harvest.traces {
        assert!(jsonl.contains("net_send"), "{node} shipped no traffic");
        assert!(!jsonl.contains("net_drop"), "{node} recorded a drop");
    }
    let dump = bridged.session.dump_trace().expect("a coordinator dump");
    let coordinator = std::fs::read_to_string(&dump).expect("readable");
    assert!(coordinator.contains("net_send"));
    assert!(!coordinator.contains("net_drop"));
    let _ = std::fs::remove_dir_all(trace_dir);
}
