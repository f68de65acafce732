//! A coordinator whose nodes run elsewhere builds none of them:
//! `ThreadedSession::setup_detached` holds the model it evaluates on and
//! no mapper, permutation table or party replica. Alone in its binary:
//! it counts the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use deta::core::DetaConfig;
use deta::crypto::DetRng;
use deta::datasets::{iid_partition, DatasetSpec};
use deta::nn::models::mlp;
use deta::runtime::{RuntimeConfig, RuntimeError, ThreadedSession};

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

#[test]
fn a_detached_set_up_holds_the_eval_model_and_no_node() {
    // A million parameters: one replica is 4.3 MB, the mapper's position
    // tables as much again and its labels half that.
    let big_model = |rng: &mut DetRng| mlp(&[64, 1000, 1000, 10], rng);
    let params = big_model(&mut DetRng::from_u64(0)).param_count();
    let model_bytes = 4 * params;
    let spec = DatasetSpec::mnist_like().at_resolution(8);
    let shards = iid_partition(&spec.generate(40, 1), 4, 3);
    let mut cfg = DetaConfig::deta(4, 1);
    cfg.n_aggregators = 3;
    cfg.seed = 0xc0de;

    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let mut seen = None;
    let outcome = ThreadedSession::setup_detached(
        cfg,
        &big_model,
        shards,
        RuntimeConfig::default(),
        |nodes, _network| {
            let (held, peak) = (LIVE.with(Cell::get), PEAK.with(Cell::get));
            seen = Some((held - before, peak - before, nodes.parties.len()));
            // Nobody to host them: stop here, with the build measured.
            Err(RuntimeError::Protocol("measured"))
        },
    );
    assert!(matches!(outcome, Err(RuntimeError::Protocol("measured"))));
    let (held, peak, parties) = seen.expect("the host was called");
    assert_eq!(parties, 4, "the roster names every party");
    assert!(
        held >= model_bytes,
        "the coordinator evaluates on a model of its own: {held} bytes held"
    );
    // Phase I for the fleet is bignum churn, a few KiB live; a mapper or
    // a second replica would add megabytes.
    assert!(
        peak < model_bytes + (1 << 20),
        "the build held {peak} bytes at its peak, {model_bytes} of them the model"
    );
}
