//! A node built alone (`NodeParts::build`, what a process hosting one
//! node runs) is the node `SessionParts::build` builds among the others,
//! bit for bit — and building an aggregator alone touches no model.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use deta_core::session::{DetaConfig, Node, NodeParts, SessionParts};
use deta_crypto::DetRng;
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_nn::train::LabeledData;
use deta_nn::Sequential;
use deta_transport::{NetTap, Network};

thread_local! {
    /// Bytes this thread holds (the test harness's other threads must
    /// not leak into the count), and the most it has held.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s without destructors, so touching them never
// allocates or re-enters the allocator. `realloc` is the trait's
// default (`alloc`, copy, `dealloc`), so a growing buffer is counted at
// both sizes while both exist.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.with(|n| n.replace(n.get() + layout.size())) + layout.size();
        PEAK.with(|p| p.set(p.get().max(live)));
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get().saturating_sub(layout.size())));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PARTIES: usize = 4;

fn config() -> DetaConfig {
    let mut cfg = DetaConfig::deta(PARTIES, 2);
    cfg.seed = 0x0de7a;
    cfg
}

fn shards() -> Vec<LabeledData> {
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    iid_partition(&spec.generate(10 * PARTIES, 1), PARTIES, 2)
}

fn small_model(rng: &mut DetRng) -> Sequential {
    mlp(&[64, 24, 10], rng)
}

/// Every frame the network delivers, in order.
#[derive(Default)]
struct Log(Mutex<Vec<(String, String, Vec<u8>)>>);

impl NetTap for Log {
    fn on_deliver(&self, from: &str, to: &str, payload: &[u8]) {
        let mut log = self.0.lock().expect("tap log");
        log.push((from.to_string(), to.to_string(), payload.to_vec()));
    }
}

fn tap(network: &Network) -> Arc<Log> {
    let log = Arc::new(Log::default());
    network.set_tap(Arc::clone(&log) as Arc<dyn NetTap>);
    log
}

fn drain(log: &Log) -> Vec<(String, String, Vec<u8>)> {
    std::mem::take(&mut *log.0.lock().expect("tap log"))
}

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn each_of_the_seven_nodes_built_alone_is_its_twin_in_the_full_build() {
    let mut full = SessionParts::build(config(), &small_model, shards()).expect("full build");
    let full_log = tap(&full.network);
    // What each full-build node says first: a party its hellos, an
    // aggregator its reply to party-0's.
    let mut hellos: HashMap<String, Vec<(String, String, Vec<u8>)>> = HashMap::new();
    for party in &mut full.parties {
        party.send_hellos(&full.tokens);
        hellos.insert(party.name.clone(), drain(&full_log));
    }
    let mut replies = HashMap::new();
    for agg in &mut full.aggregators {
        agg.pump();
        let sent = drain(&full_log);
        replies.insert(agg.name.clone(), sent[0].clone());
    }

    for party in &full.parties {
        let alone = NodeParts::build(config(), &small_model, shards(), &party.name).expect("node");
        assert_eq!(alone.tokens, full.tokens, "{}", party.name);
        let Node::Party(mut twin) = alone.node else {
            panic!("{} is a party", party.name);
        };
        assert_eq!(twin.name, party.name);
        assert_eq!(twin.weight(), party.weight());
        assert_eq!(
            bits(&twin.model.flat_params()),
            bits(&party.model.flat_params()),
            "{}",
            party.name
        );
        assert_eq!(
            twin.transformer().mapper().to_bytes(),
            party.transformer().mapper().to_bytes()
        );
        let log = tap(&alone.network);
        twin.send_hellos(&alone.tokens);
        assert_eq!(drain(&log), hellos[&party.name], "{}", party.name);
    }

    for agg in &full.aggregators {
        let alone = NodeParts::build(config(), &small_model, shards(), &agg.name).expect("node");
        assert_eq!(alone.tokens, full.tokens, "{}", agg.name);
        let Node::Aggregator(mut twin) = alone.node else {
            panic!("{} is an aggregator", agg.name);
        };
        assert_eq!(twin.name, agg.name);
        assert_eq!(twin.role(), agg.role());
        assert_eq!(
            twin.link_signing_key().verifying_key(),
            full.tokens[&agg.name],
            "{}",
            agg.name
        );
        // The same hello draws the same reply: same token, same RNG fork.
        let (from, to, hello) = hellos["party-0"]
            .iter()
            .find(|(_, to, _)| *to == agg.name)
            .expect("party-0 greets every aggregator");
        let log = tap(&alone.network);
        alone
            .network
            .send_as(from, to, hello.clone())
            .expect("own mailbox");
        twin.pump();
        assert_eq!(drain(&log)[1], replies[&agg.name], "{}", agg.name);
    }

    let unknown = NodeParts::build(config(), &small_model, shards(), "party-4");
    assert!(unknown.is_err(), "a name outside the session is refused");
}

#[test]
fn an_aggregator_built_alone_holds_no_model_and_no_mapper() {
    // A million parameters, were anything to ask for them.
    let big_model = |rng: &mut DetRng| mlp(&[64, 1000, 1000, 10], rng);
    let data = shards();
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let alone = NodeParts::build(config(), &big_model, data, "agg-1").expect("node");
    let held_at_most = PEAK.with(Cell::get) - before;
    assert!(matches!(alone.node, Node::Aggregator(_)));
    // One model is 4 MB of parameters and as much again of gradients, the
    // mapper 6 MB; Phase I for the fleet is bignum churn, a few KiB live.
    assert!(
        held_at_most < 1 << 20,
        "building one aggregator held {held_at_most} bytes at its peak"
    );
}
