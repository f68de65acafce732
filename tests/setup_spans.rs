//! A traced threaded set-up can be attributed span by span: the build's
//! `attest` (one per aggregator), `model_draw` and `mapper` land in the
//! supervisor's ring, which is attached before the build runs, and
//! every Phase II handshake leaves a `handshake` span at both of its
//! ends, named by the peer. Alone in its binary: it turns the telemetry
//! sink on, which is sticky for the process.

use deta::core::DetaConfig;
use deta::datasets::{iid_partition, DatasetSpec};
use deta::nn::models::mlp;
use deta::runtime::{RuntimeConfig, TelemetryConfig, ThreadedSession};

#[test]
fn a_traced_set_up_records_every_set_up_span() {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let shards = iid_partition(&spec.generate(40, 1), 2, 3);
    let (dim, classes) = (spec.dim(), spec.classes);
    let mut cfg = DetaConfig::deta(2, 1);
    cfg.n_aggregators = 2;
    let rt = RuntimeConfig {
        telemetry: TelemetryConfig {
            enabled: true,
            trace_dir: std::env::temp_dir()
                .join(format!("deta-setup-spans-{}", std::process::id())),
            ..TelemetryConfig::default()
        },
        ..RuntimeConfig::default()
    };
    let mut session =
        ThreadedSession::setup(cfg, &move |rng| mlp(&[dim, 8, classes], rng), shards, rt)
            .expect("set-up");
    let path = session.dump_trace().expect("a traced session dumps");
    session.shutdown().expect("shutdown");
    let text = std::fs::read_to_string(&path).expect("dump must be readable");
    let spans = |node: &str, name: &str| {
        let (node, name) = (
            format!("\"node\":\"{node}\""),
            format!("\"name\":\"{name}\""),
        );
        (text.lines())
            .filter(|l| l.contains(&node) && l.contains(&name) && l.contains("\"kind\":\"span\""))
            .collect::<Vec<_>>()
    };
    assert_eq!(spans("supervisor", "attest").len(), 2, "one per aggregator");
    assert_eq!(spans("supervisor", "model_draw").len(), 1);
    assert_eq!(spans("supervisor", "mapper").len(), 1);
    for (party, agg) in [("party-0", "agg-0"), ("party-1", "agg-1")] {
        let peer = format!("\"peer\":\"{agg}\"");
        let at_party = spans(party, "handshake");
        for step in ["hello", "complete"] {
            let step = format!("\"step\":\"{step}\"");
            assert!(at_party
                .iter()
                .any(|l| l.contains(&peer) && l.contains(&step)));
        }
        let peer = format!("\"peer\":\"{party}\"");
        let at_agg = spans(agg, "handshake");
        assert!(at_agg
            .iter()
            .any(|l| l.contains(&peer) && l.contains("respond")));
    }
}
