//! What one aggregating pump allocates. A plain upload stays in the
//! record it was opened in and moves into guest memory there, with no
//! breach records rendered until somebody reads the memory; the rule
//! (mean, median or trimmed mean alike) reads the records where they lie
//! and writes the round's `Aggregated` message into the first party's
//! frame, which is copied frame to frame. So a plain round costs the
//! node one frame per party and at most 4 KiB besides. Under Paillier
//! fusion the `AggregatedEncrypted` message is encoded once, into the
//! first party's frame, and copied the same way.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::{aggregator, plain_manifest, registered};
use deta_bignum::BigUint;
use deta_core::agg::AggKind;
use deta_core::recovery::Manifest;
use deta_core::wire::Msg;
use deta_crypto::DetRng;
use deta_paillier::{Ciphertext, PublicKey};
use deta_transport::{LinkModel, Network};

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

/// Runs one round of `kind` over eight parties on a hand-built node and
/// checks that the pump which opens the last upload, aggregates and fans
/// out allocates one frame per party and at most 4 KiB more.
fn an_aggregating_pump_allocates_one_frame_per_party(kind: AggKind) {
    const PARTIES: usize = 8;
    const VALUES: usize = 16 * 1024;
    let fragment = 4 * VALUES;
    let net = Network::new(LinkModel::lan());
    let mut rng = DetRng::from_u64(0xa110c);
    let mut agg = aggregator(&net, &plain_manifest(kind), &mut rng);
    let mut parties = registered(&net, &mut agg, 0..PARTIES, &mut rng);
    let upload = Msg::Upload {
        round: 1,
        fragment: vec![0.5; VALUES],
    };
    let (last, rest) = parties.split_last_mut().expect("eight parties");
    for party in rest.iter_mut() {
        party.send(&upload);
    }
    agg.pump();
    assert_eq!(agg.completed_rounds, 0);

    // The pump measured is the one that opens the last upload,
    // aggregates and fans out.
    last.send(&upload);
    let before = BYTES.with(Cell::get);
    agg.pump();
    let allocated = BYTES.with(Cell::get) - before;
    assert_eq!(agg.completed_rounds, 1);

    // The last upload is opened in the frame it arrived in and held
    // there; the rule reads every upload where it lies, a tile at a time,
    // and writes its result into the first party's frame; each next
    // party's frame is copied from the one before and sealed where it
    // lies.
    let hops = PARTIES * fragment;
    let small = 4 * 1024;
    assert!(
        allocated <= hops + small,
        "{}: {allocated} bytes allocated, {} more than budgeted",
        kind.name(),
        allocated - hops
    );
    for party in &mut parties {
        assert_eq!(
            party.recv(),
            Some(Msg::Aggregated {
                round: 1,
                fragment: vec![0.5; VALUES],
            })
        );
    }
}

#[test]
fn an_averaging_pump_allocates_one_frame_per_party() {
    an_aggregating_pump_allocates_one_frame_per_party(AggKind::IterativeAveraging);
}

#[test]
fn a_median_pump_allocates_one_frame_per_party() {
    an_aggregating_pump_allocates_one_frame_per_party(AggKind::CoordinateMedian);
}

#[test]
fn a_trimmed_mean_pump_allocates_one_frame_per_party() {
    an_aggregating_pump_allocates_one_frame_per_party(AggKind::TrimmedMean { trim: 2 });
}

#[test]
fn an_encrypted_fan_out_allocates_its_plaintext_once() {
    const PARTIES: usize = 8;
    const CIPHERTEXTS: usize = 32;
    /// Bytes of one ciphertext under a 1024-bit modulus.
    const CIPHERTEXT: usize = 256;
    let net = Network::new(LinkModel::lan());
    let mut rng = DetRng::from_u64(0xa110d);
    // Summing needs no more of a key than its modulus.
    let n = BigUint::from_bytes_be(&[0xff; CIPHERTEXT / 2]);
    let pk = PublicKey { n2: &n * &n, n };
    let manifest = Manifest {
        paillier_pk: Some(pk.clone()),
        ..plain_manifest(AggKind::IterativeAveraging)
    };
    let mut agg = aggregator(&net, &manifest, &mut rng);
    let mut parties = registered(&net, &mut agg, 0..PARTIES, &mut rng);
    let ciphertext = vec![0x7f; CIPHERTEXT];
    let upload = Msg::UploadEncrypted {
        round: 1,
        ciphertexts: vec![ciphertext.clone(); CIPHERTEXTS],
        value_count: 1024,
    };
    let (last, rest) = parties.split_last_mut().expect("eight parties");
    for party in rest.iter_mut() {
        party.send(&upload);
    }
    agg.pump();
    assert_eq!(agg.completed_rounds, 0);

    // What the homomorphic sum itself allocates, measured on one
    // ciphertext's chain of additions: it dwarfs the fan-out, and is not
    // what this test is about.
    let c = Ciphertext(BigUint::from_bytes_be(&ciphertext));
    let before = BYTES.with(Cell::get);
    let mut sum = pk.zero_ciphertext();
    for _ in 0..PARTIES {
        sum = sum.add(&c, &pk);
    }
    let arithmetic = CIPHERTEXTS * (BYTES.with(Cell::get) - before);

    last.send(&upload);
    let before = BYTES.with(Cell::get);
    agg.pump();
    let allocated = BYTES.with(Cell::get) - before;
    assert_eq!(agg.completed_rounds, 1);

    // The encoded message: tag, round, two counts, a length, and each
    // ciphertext behind a length of its own.
    let plaintext = 29 + CIPHERTEXTS * (4 + CIPHERTEXT);
    // The last upload's ciphertexts are decoded out of the record it
    // arrived in and parsed into integers; the sums are serialized and
    // encoded into the first party's frame; each party's frame is
    // sealed where it lies.
    let hops = (3 + PARTIES) * plaintext;
    let small = 16 * 1024;
    assert!(
        allocated <= arithmetic + hops + small,
        "{allocated} bytes allocated, {} more than budgeted",
        allocated - arithmetic - hops
    );
    let expected = Msg::AggregatedEncrypted {
        round: 1,
        ciphertexts: vec![sum.0.to_bytes_be(); CIPHERTEXTS],
        value_count: 1024,
        summands: PARTIES as u64,
    };
    for party in &mut parties {
        assert_eq!(party.recv().as_ref(), Some(&expected));
    }
}
