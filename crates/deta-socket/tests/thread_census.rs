//! How many threads the bridge costs: `SocketHub::bind` starts the
//! acceptor and nothing else, a connected seat costs the hub a reader
//! and a writer, and everything is joined at teardown. Alone in its
//! binary — the census is of the whole process.
#![cfg(target_os = "linux")]

mod common;

use common::{child, config, data, model, SEATS};
use deta_runtime::{RuntimeConfig, RuntimeError, ThreadedSession};
use deta_socket::hub::seats_for;
use deta_socket::SocketHub;
use std::time::{Duration, Instant};

/// Threads of this process, by the kernel's count.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn the_hub_costs_one_thread_to_bind_and_two_per_connected_seat() {
    let cfg = config(1);
    let (shards, test) = data();
    let seed = cfg.seed;
    let baseline = threads();
    let mut bound = None;
    let mut children = Vec::new();
    let mut session = ThreadedSession::setup_detached(
        cfg.clone(),
        &model,
        shards.clone(),
        RuntimeConfig::default(),
        |nodes, network| {
            let seats = seats_for(&nodes, seed);
            let names: Vec<String> = seats.iter().map(|s| s.name.clone()).collect();
            let before = threads();
            let hub = SocketHub::bind(network.clone(), seats, seed)
                .map_err(|_| RuntimeError::Protocol("socket hub failed to bind"))?;
            assert_eq!(threads(), before + 1, "bind starts the acceptor alone");
            for name in &names {
                children.push(child(hub.addr(), name, &cfg, &shards));
            }
            bound = Some(hub);
            Ok(())
        },
    )
    .expect("setup");
    // Every node has said `Ready` over its link, so every link is up. A
    // child is three threads by construction: the one spawned above (its
    // actor), its link's reader and its link's writer.
    let hub_threads = threads() - baseline - 3 * SEATS;
    assert!(
        hub_threads <= 2 * SEATS + 1,
        "{hub_threads} hub threads for {SEATS} connected seats"
    );
    // The round runs on those threads.
    session.run(&test).expect("run");
    assert_eq!(children.len(), SEATS);
    for child in children {
        child.join().expect("child thread").expect("a clean child");
    }
    assert!(bound.expect("host ran").join().is_none());
    // A joined thread leaves the kernel's table a moment after `join`.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != baseline {
        assert!(Instant::now() < deadline, "{} threads left", threads());
        std::thread::sleep(Duration::from_millis(10));
    }
}
