//! A traced run moves exactly the bytes an untraced run moves: the trace
//! context rides beside each payload as `Message::trace`, never in it. An
//! in-process `ThreadedSession` runs untraced and then traced, and the two
//! runs must agree on every link's delivered bytes and on every party's
//! parameter bits — while the traced run's flight recorders hold, for
//! every `net_send`, the `net_recv` of the same message. One test alone in
//! its binary: enabling the telemetry sink is sticky for the process.

use deta::core::DetaConfig;
use deta::datasets::{iid_partition, DatasetSpec};
use deta::nn::models::mlp;
use deta::runtime::{RuntimeConfig, ThreadedSession};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Per-link delivered bytes and per-party parameter bits of one run,
/// plus the coordinator's flight-recorder dump when traced.
type Run = (
    BTreeMap<(String, String), u64>,
    Vec<Vec<u32>>,
    Option<String>,
);

fn run(mut rt: RuntimeConfig) -> Run {
    // No idle tick within a run: an idle actor's heartbeat is timed by the
    // wall clock, so it would bill the links to the supervisor differently
    // from one run to the next, traced or not.
    rt.tick = Duration::from_secs(30);
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let shards = iid_partition(&spec.generate(120, 1), 3, 3);
    let test = spec.generate(30, 2);
    let (dim, classes) = (spec.dim(), spec.classes);
    let mut cfg = DetaConfig::deta(3, 2);
    cfg.n_aggregators = 2;
    cfg.seed = 42;
    let builder = move |rng: &mut deta::crypto::DetRng| mlp(&[dim, 16, classes], rng);
    let mut session = ThreadedSession::setup(cfg, &builder, shards, rt).expect("setup");
    session.run(&test).expect("run");
    let bits = (0..3)
        .map(|i| {
            let params = session.party_params(i).expect("party params");
            params.iter().map(|p| p.to_bits()).collect()
        })
        .collect();
    let dump = session.dump_trace().map(|path| {
        let text = std::fs::read_to_string(&path).expect("readable dump");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("prom"));
        text
    });
    (session.network().link_bytes(), bits, dump)
}

/// The `msg_id` field of every `name` event in a JSONL dump.
fn msg_ids(dump: &str, name: &str) -> Vec<u64> {
    let tag = format!("\"name\":\"{name}\"");
    dump.lines()
        .filter(|line| line.contains(&tag))
        .map(|line| {
            let at = line.find("\"msg_id\":").expect("an edge event has an id") + 9;
            let digits: String = line[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().expect("a numeric id")
        })
        .collect()
}

#[test]
fn a_traced_run_sends_the_bytes_of_an_untraced_one() {
    let (plain_bytes, plain_bits, plain_dump) = run(RuntimeConfig::default());
    assert!(plain_dump.is_none(), "an untraced run has nothing to dump");

    let mut rt = RuntimeConfig::default();
    rt.telemetry.enabled = true;
    rt.telemetry.ring_capacity = 1 << 16;
    rt.telemetry.trace_dir =
        std::env::temp_dir().join(format!("deta-traced-{}", std::process::id()));
    let trace_dir = rt.telemetry.trace_dir.clone();
    let (traced_bytes, traced_bits, dump) = run(rt);
    let _ = std::fs::remove_dir_all(trace_dir);

    assert!(!plain_bytes.is_empty());
    assert_eq!(plain_bytes, traced_bytes, "per-link delivered bytes");
    assert_eq!(plain_bits, traced_bits, "party parameter bits");

    let dump = dump.expect("a traced run dumps its recorders");
    let sends = msg_ids(&dump, "net_send");
    let recvs: BTreeSet<u64> = msg_ids(&dump, "net_recv").into_iter().collect();
    assert!(!sends.is_empty(), "a traced run records its sends");
    let unmatched: Vec<u64> = sends.into_iter().filter(|id| !recvs.contains(id)).collect();
    assert_eq!(
        unmatched,
        Vec::<u64>::new(),
        "net_send without its net_recv"
    );
}
