//! The hub's own flight recorder: a link the chaos plan severs once is
//! harvested, under the name `hub`, as a `link_down` and a
//! `link_resumed` naming the node. Alone in its binary: it turns the
//! telemetry sink on, which is sticky for the process.

mod common;

use common::{child, config, data, model, SEATS};
use deta_runtime::{RuntimeConfig, RuntimeError};
use deta_socket::launch;
use std::collections::HashMap;

#[test]
fn a_severed_link_is_a_link_down_and_a_link_resumed_in_the_hubs_ring() {
    let cfg = config(2);
    let (shards, test) = data();
    let trace_dir = std::env::temp_dir().join(format!("deta-hub-ring-{}", std::process::id()));
    let mut rt = RuntimeConfig::default();
    rt.telemetry.enabled = true;
    rt.telemetry.trace_dir = trace_dir.clone();
    // party-1's link is cut after its 2nd ingress frame, once.
    let chaos = HashMap::from([("party-1".to_string(), vec![2])]);
    let (child_cfg, child_shards) = (cfg.clone(), shards.clone());
    let mut bridged = launch(cfg, &model, shards, rt, chaos, |name, addr| {
        Ok::<_, RuntimeError>(child(addr, name, &child_cfg, &child_shards))
    })
    .expect("setup");
    bridged.session.run(&test).expect("run");
    for child in bridged.hosts {
        child.join().expect("child thread").expect("a clean child");
    }
    assert_eq!(bridged.hub.pending_severs(), 0, "the planned cut fired");
    let (hub_err, harvest) = bridged.hub.join_harvest();
    assert!(hub_err.is_none(), "{hub_err:?}");
    // Every child shipped its ring, and the hub holds one of its own.
    assert_eq!(
        harvest.traces.len(),
        SEATS + 1,
        "{:?}",
        harvest.traces.keys()
    );
    let hub = harvest.traces.get("hub").expect("the hub's own ring");
    for name in ["link_down", "link_resumed"] {
        assert!(
            (hub.records.iter()).any(|r| r.name == name && r.field_str("node") == Some("party-1")),
            "no {name} naming party-1 in {:?}",
            hub.records
        );
    }
    let _ = std::fs::remove_dir_all(trace_dir);
}
