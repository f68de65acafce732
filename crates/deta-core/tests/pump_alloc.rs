//! What one aggregating pump allocates: the round's `Aggregated`
//! plaintext — or `AggregatedEncrypted`, under Paillier fusion — exists
//! once, not once per party, the breach-memory records are written into
//! one buffer reserved for all of them, and a fragment crossing the node
//! costs one buffer per hop — its values decoded out of the record it
//! arrived in, one sealed frame per recipient.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use common::{aggregator, registered, RawParty};
use deta_bignum::BigUint;
use deta_core::agg::AggKind;
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

#[test]
fn an_aggregating_pump_allocates_one_plaintext_and_one_record_buffer() {
    const PARTIES: usize = 8;
    const VALUES: usize = 16 * 1024;
    let fragment = 4 * VALUES;
    let net = Network::new(LinkModel::lan());
    let mut rng = DetRng::from_u64(0xa110c);
    let mut agg = aggregator(&net, AggKind::IterativeAveraging, &mut rng);
    let mut parties: Vec<RawParty> = (0..PARTIES)
        .map(|i| RawParty::join(&net, &mut agg, &format!("party-{i}"), &mut rng))
        .collect();
    for (i, party) in parties.iter_mut().enumerate() {
        party.send(&Msg::Register {
            party: format!("party-{i}"),
            weight: 1.0,
        });
    }
    agg.pump();
    let upload = Msg::Upload {
        round: 1,
        fragment: vec![0.5; VALUES],
    };
    let (last, rest) = parties.split_last_mut().expect("eight parties");
    for party in rest.iter_mut() {
        assert_eq!(party.recv(), Some(Msg::RegisterAck));
        party.send(&upload);
    }
    agg.pump();
    assert_eq!(agg.completed_rounds, 0);

    // The pump measured is the one that opens the last upload,
    // aggregates and fans out.
    assert_eq!(last.recv(), Some(Msg::RegisterAck));
    last.send(&upload);
    let before = BYTES.with(Cell::get);
    agg.pump();
    let allocated = BYTES.with(Cell::get) - before;
    assert_eq!(agg.completed_rounds, 1);

    // Aggregation proper: the record buffer holds every upload once, the
    // weighted mean accumulates in `f64` (two fragments' worth) and
    // returns one fragment, and one plaintext serves the whole fan-out.
    let aggregation = (PARTIES + 4) * fragment;
    // The hops on either side of it: the last upload is opened in the
    // frame it arrived in and its values are decoded once (a `Vec<f32>`,
    // for alignment); each party's frame is filled with the plaintext
    // and sealed where it lies.
    let hops = (1 + PARTIES) * fragment;
    let small = 16 * 1024;
    assert!(
        allocated <= aggregation + hops + small,
        "{allocated} bytes allocated, {} more than budgeted",
        allocated - aggregation - hops
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
fn an_encrypted_fan_out_allocates_its_plaintext_once() {
    const PARTIES: usize = 8;
    const CIPHERTEXTS: usize = 32;
    /// Bytes of one ciphertext under a 1024-bit modulus.
    const CIPHERTEXT: usize = 256;
    let net = Network::new(LinkModel::lan());
    let mut rng = DetRng::from_u64(0xa110d);
    let mut agg = aggregator(&net, AggKind::IterativeAveraging, &mut rng);
    // Summing needs no more of a key than its modulus.
    let n = BigUint::from_bytes_be(&[0xff; CIPHERTEXT / 2]);
    let pk = PublicKey { n2: &n * &n, n };
    agg.set_paillier_key(pk.clone());
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
    // arrived in and parsed into integers; the sums are serialized; one
    // plaintext is encoded; each party's frame is filled with it and
    // sealed where it lies.
    let hops = (4 + PARTIES) * plaintext;
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
