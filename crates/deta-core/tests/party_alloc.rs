//! What one party's round allocates beyond its local training: the
//! round's minimum set of model-sized buffers (DESIGN.md §13, "A party's
//! round, at its minimum"), and nothing more. Uploading makes the round's
//! permutations (derived by the first party of a process to ask, borrowed
//! by the rest) and one sealed record per fragment, gathered straight
//! from the model's parameter tensors through one fragment-sized scratch:
//! no flat copy of the update, unless the session's failover policy can
//! ask for a replay (`Restart`), and then exactly that one. Finishing
//! un-shuffles each download out of the record it arrived in, through one
//! fragment-sized scratch, straight into the model's parameter tensors:
//! no decoded download, no merge buffer, no copy into the model.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use deta_core::supervise::{FailoverPolicy, RuntimeConfig};
use deta_core::{DetaConfig, DetaSession, SessionParts};
use deta_datasets::{iid_partition, DatasetSpec};
use deta_nn::models::mlp;
use deta_nn::train::train_local;

thread_local! {
    /// Bytes requested by this thread (the test harness's other threads
    /// must not leak into the count).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it never
// allocates or re-enters the allocator. `realloc` is the trait's
// default, which asks `alloc` for the whole new size: a buffer that
// grows is charged again each time it does.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes `f` allocates on this thread.
fn allocated_by(f: impl FnOnce()) -> usize {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// What one party's round allocated, and the sizes to judge it by.
struct Round {
    /// Bytes of the model's parameters.
    model: usize,
    /// Bytes of the largest fragment.
    fragment: usize,
    /// Uploading, beyond what the party's training allocates.
    upload: usize,
    /// Finishing.
    download: usize,
}

/// Party 0's first round under the failover `policy`.
fn party_round(policy: FailoverPolicy) -> Round {
    const AGGREGATORS: usize = 3;
    let spec = DatasetSpec::mnist_like().at_resolution(16);
    let shards = iid_partition(&spec.generate(64, 1), 2, 2);
    let data = shards[0].clone();
    let mut cfg = DetaConfig::deta(2, 1);
    cfg.n_aggregators = AGGREGATORS;
    let (epochs, batch, lr) = (cfg.local_epochs, cfg.batch_size, cfg.lr);
    let (dim, classes) = (spec.dim(), spec.classes);
    let builder = move |rng: &mut _| mlp(&[dim, 64, classes], rng);
    let parts = SessionParts::build(cfg, &builder, shards).expect("session builds");
    let rt = RuntimeConfig {
        failover: policy,
        ..RuntimeConfig::default()
    };
    let mut session = DetaSession::bootstrap(parts, rt).expect("session sets up");
    let model = 4 * session.party_mut(0).model.param_count();
    let fragment = model.div_ceil(AGGREGATORS);

    // Training's own buffers, measured on a replica trained on the
    // party's shard: they are what training is, and not this test's
    // subject. The first run grows the GEMM's packing scratch to its
    // final size; the second is what the party's training allocates.
    let mut replica = session.party_mut(0).model.clone();
    train_local(&mut replica, &data, epochs, batch, lr);
    let training = allocated_by(|| {
        train_local(&mut replica, &data, epochs, batch, lr);
    });

    session.aggregator_mut(0).announce(1);
    for i in 0..2 {
        assert_eq!(session.party_mut(i).poll_round_start(), Some(1));
    }
    let upload = allocated_by(|| session.party_mut(0).run_local_round().expect("round runs"));
    session.party_mut(1).run_local_round().expect("round runs");
    for j in 0..AGGREGATORS {
        session.aggregator_mut(j).pump();
    }
    let download = allocated_by(|| assert!(session.party_mut(0).try_finish_round()));
    // Between rounds the party holds no gradient.
    let party = session.party_mut(0);
    assert!(party.model.layers().iter().all(|l| l.grads().is_empty()));
    Round {
        model,
        fragment,
        upload: upload - training,
        download,
    }
}

#[test]
fn a_party_round_allocates_its_permutations_and_records_and_no_copy_of_the_update() {
    let Round {
        model,
        fragment,
        upload,
        download,
    } = party_round(FailoverPolicy::None);
    // Small change: the permutations' keyed derivation, the frames'
    // headers and tags, the vectors of fragments, records and parameter
    // tensors (about 0.8 KiB uploading and 0.5 KiB finishing, at the
    // writing).
    let small = 2 * 1024;
    assert!(
        model > 4 * small,
        "a model of {model} bytes is too small to tell"
    );
    // The permutations (a `u32` per parameter) and the sealed records,
    // plus the gather scratch of at most one fragment.
    assert!(
        (2 * model..=2 * model + fragment + small).contains(&upload),
        "uploading allocated {upload} bytes beyond training, for a {model}-byte model"
    );
    // The un-shuffle scratch of at most one fragment.
    assert!(
        download <= fragment + small,
        "finishing allocated {download} bytes, for a {model}-byte model"
    );
}

#[test]
fn under_restart_a_party_keeps_one_flat_update_more() {
    let none = party_round(FailoverPolicy::None);
    let restart = party_round(FailoverPolicy::Restart);
    // One flat update, `Vec::with_capacity` of the model exactly. It
    // stands in for the table of parameter tensors a gather from the
    // model builds (a few pointers: 48 bytes less, at the writing).
    let more = restart.upload - none.upload;
    let table = 256;
    assert!(
        (none.model - table..=none.model).contains(&more),
        "under Restart uploading allocated {more} bytes more, for a {}-byte model",
        none.model
    );
    assert_eq!(restart.download, none.download);
}
