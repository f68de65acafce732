//! The wire contract of the three message enums — `Msg` (party ↔
//! aggregator), `CtlMsg` (supervisor ↔ actor) and `SocketFrame` (hub ↔
//! child process) — in two halves.
//!
//! **Golden bytes.** One row per variant: a literal encoding beside the
//! `Debug` form of the value it must decode to and be re-encoded from,
//! plus SHA-256 digests of model-sized fragments. These pin every tag,
//! field order and prefix width; a codec change that moves one byte fails
//! here before any parity suite runs.
//!
//! **Laws.** One harness, applied to all three enums: encodings
//! round-trip, every strict prefix and every one-byte extension is
//! rejected, arbitrary and corrupted bytes never panic the decoder, and
//! no four bytes of an encoding can be turned into a length that makes
//! the decoder allocate out of proportion to its input (the
//! `u32::MAX`-elements bomb, checked with a counting allocator, not
//! assumed).

use deta::core::wire::Msg;
use deta::crypto::sha256::sha256;
use deta::runtime::{CtlMsg, RebindEntry};
use deta::socket::SocketFrame;
use deta_proptest::{cases, Gen};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

thread_local! {
    /// Bytes this thread has requested from the allocator.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting requested bytes per thread (tests run
/// on parallel threads, so a process-wide count would be noise).
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a destructor-free
// const-initialised thread-local, so touching it cannot allocate or
// observe a torn-down slot.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|r| r.set(r.get().saturating_add(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes requested from the allocator while `f` ran on this thread.
fn requested_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len() / 2)
        .map(|i| u8::from_str_radix(&text[2 * i..2 * i + 2], 16).expect("hex digit"))
        .collect()
}

/// What the harness needs from a message enum.
trait Wire: Sized + Debug {
    const NAME: &'static str;
    /// Number of variants; `variant` returns `0..VARIANTS`.
    const VARIANTS: usize;
    /// One encoding per variant, in hex, beside the `Debug` form of the
    /// value it is the encoding of.
    const GOLDEN: &'static [(&'static str, &'static str)];
    fn arbitrary(g: &mut Gen) -> Self;
    fn to_wire(&self) -> Vec<u8>;
    fn from_wire(buf: &[u8]) -> Option<Self>;
    /// Variant index, by an exhaustive `match`: adding a variant without
    /// a golden row and a generator arm stops this file compiling.
    fn variant(&self) -> usize;
}

fn check_golden<T: Wire>() {
    let mut seen = vec![false; T::VARIANTS];
    for (text, debug) in T::GOLDEN {
        let value = T::from_wire(&unhex(text))
            .unwrap_or_else(|| panic!("{}: {text} ({debug}) must decode", T::NAME));
        assert_eq!(&format!("{value:?}"), debug, "{}: value of {text}", T::NAME);
        assert_eq!(
            &hex(&value.to_wire()),
            text,
            "{}: bytes of {debug}",
            T::NAME
        );
        seen[value.variant()] = true;
    }
    assert!(
        seen.iter().all(|s| *s),
        "{}: every variant needs a golden row, coverage {seen:?}",
        T::NAME
    );
}

fn check_laws<T: Wire>() {
    let mut generated = vec![false; T::VARIANTS];
    cases(&format!("wire_laws/{}/codec", T::NAME), 300, |g| {
        let value = T::arbitrary(g);
        generated[value.variant()] = true;
        let bytes = value.to_wire();
        // NaN payloads are not `PartialEq`-reflexive: compare bytes.
        let back = T::from_wire(&bytes).expect("own encoding must decode");
        assert_eq!(back.to_wire(), bytes, "round trip of {value:?}");
        for cut in 0..bytes.len() {
            assert!(
                T::from_wire(&bytes[..cut]).is_none(),
                "prefix of {cut} bytes of {value:?} accepted"
            );
        }
        let mut longer = bytes.clone();
        longer.push(g.u8());
        assert!(
            T::from_wire(&longer).is_none(),
            "trailing byte after {value:?} accepted"
        );
        // One corrupted byte: rejected or a value like any other.
        let mut flipped = bytes.clone();
        let at = g.usize_in(0, flipped.len());
        flipped[at] ^= g.u8() | 1;
        if let Some(other) = T::from_wire(&flipped) {
            let again = other.to_wire();
            assert_eq!(T::from_wire(&again).map(|v| v.to_wire()), Some(again));
        }
        // No four bytes, read as a length or a count, may cost more than
        // the input's own size class: a legitimate decode owns a few
        // machine words per four input bytes, a bomb asks for gigabytes.
        let budget = 16 * bytes.len() + 1024;
        for at in 0..bytes.len().saturating_sub(3) {
            let mut evil = bytes.clone();
            evil[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let (_, cost) = requested_by(|| T::from_wire(&evil));
            assert!(
                cost <= budget,
                "0xffffffff at byte {at} of {value:?} made the decoder request {cost} bytes"
            );
        }
    });
    assert!(
        generated.iter().all(|s| *s),
        "{}: the generator must reach every variant, coverage {generated:?}",
        T::NAME
    );
    cases(&format!("wire_laws/{}/garbage", T::NAME), 400, |g| {
        let garbage = g.bytes(0, 256);
        if let Some(value) = T::from_wire(&garbage) {
            // Whatever garbage decodes to is a value like any other.
            let bytes = value.to_wire();
            assert_eq!(T::from_wire(&bytes).map(|v| v.to_wire()), Some(bytes));
        }
        // Garbage behind a valid tag reaches the field readers.
        let mut tagged = garbage;
        if let Some(first) = tagged.first_mut() {
            *first = 1 + *first % 16;
        }
        let _ = T::from_wire(&tagged);
    });
    // The short-buffer bomb: a golden encoding cut at any offset, then a
    // `u32::MAX` count and two bytes. Every count and length prefix of
    // every variant sits at one of those offsets; there the buffer must
    // be rejected before anything is allocated for the count. At the
    // other offsets the four bytes are plain field bytes, and whatever
    // decodes re-encodes to the same buffer — which no decoder that took
    // them for a count could do.
    for (text, debug) in T::GOLDEN {
        let bytes = unhex(text);
        for at in 1..=bytes.len() {
            let mut evil = bytes[..at].to_vec();
            evil.extend_from_slice(&u32::MAX.to_le_bytes());
            evil.extend_from_slice(&[0, 0]);
            let (decoded, cost) = requested_by(|| T::from_wire(&evil));
            assert!(
                cost <= 16 * at + 256,
                "{debug} cut at {at} + 0xffffffff made the decoder request {cost} bytes"
            );
            if let Some(value) = decoded {
                assert_eq!(value.to_wire(), evil, "{debug} cut at {at} + 0xffffffff");
            }
        }
    }
}

fn name(g: &mut Gen) -> String {
    g.string_of("abcdefghijklmnopqrstuvwxyz0123456789-#", 0, 24)
}

fn names(g: &mut Gen) -> Vec<String> {
    g.vec_of(0, 6, name)
}

fn floats(g: &mut Gen) -> Vec<f32> {
    g.vec_of(0, 64, Gen::f32_any)
}

fn ciphertexts(g: &mut Gen) -> Vec<Vec<u8>> {
    g.vec_of(0, 8, |g| g.bytes(0, 32))
}

fn windows(g: &mut Gen) -> Vec<(String, String, u64)> {
    g.vec_of(0, 6, |g| (name(g), name(g), g.u64()))
}

impl Wire for Msg {
    const NAME: &'static str = "Msg";
    const VARIANTS: usize = 12;
    const GOLDEN: &'static [(&'static str, &'static str)] = &[
        ("0103000000010203", "Hello { handshake: [1, 2, 3] }"),
        ("02020000000405", "HelloReply { handshake: [4, 5] }"),
        ("0304000000deadbeef", "Record { sealed: [222, 173, 190, 239] }"),
        ("040700000070617274792d370000c03f", "Register { party: \"party-7\", weight: 1.5 }"),
        ("05", "RegisterAck"),
        ("06070000000000000030313233343536373839616263646566", "RoundStart { round: 7, training_id: [48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 97, 98, 99, 100, 101, 102] }"),
        ("070807060504030201030000000000803f000020c000007040", "Upload { round: 72623859790382856, fragment: [1.0, -2.5, 3.75] }"),
        ("0b0200000000000000280000000000000003000000020000000102000000000100000003", "UploadEncrypted { round: 2, ciphertexts: [[1, 2], [], [3]], value_count: 40 }"),
        ("080900000000000000020000000000003f0000807f", "Aggregated { round: 9, fragment: [0.5, inf] }"),
        ("0c0300000000000000100000000000000004000000000000000100000004000000ffffffff", "AggregatedEncrypted { round: 3, ciphertexts: [[255, 255, 255, 255]], value_count: 16, summands: 4 }"),
        ("09010000000000000030313233343536373839616263646566", "SyncRound { round: 1, training_id: [48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 97, 98, 99, 100, 101, 102] }"),
        ("0affffffffffffffff", "SyncDone { round: 18446744073709551615 }"),
    ];

    fn arbitrary(g: &mut Gen) -> Msg {
        match g.usize_in(0, Self::VARIANTS) {
            0 => Msg::Hello {
                handshake: g.bytes(0, 128),
            },
            1 => Msg::HelloReply {
                handshake: g.bytes(0, 128),
            },
            2 => Msg::Record {
                sealed: g.bytes(0, 256),
            },
            3 => Msg::Register {
                party: name(g),
                weight: g.f32_any(),
            },
            4 => Msg::RegisterAck,
            5 => Msg::RoundStart {
                round: g.u64(),
                training_id: g.array(),
            },
            6 => Msg::Upload {
                round: g.u64(),
                fragment: floats(g),
            },
            7 => Msg::UploadEncrypted {
                round: g.u64(),
                ciphertexts: ciphertexts(g),
                value_count: g.u64(),
            },
            8 => Msg::Aggregated {
                round: g.u64(),
                fragment: floats(g),
            },
            9 => Msg::AggregatedEncrypted {
                round: g.u64(),
                ciphertexts: ciphertexts(g),
                value_count: g.u64(),
                summands: g.u64(),
            },
            10 => Msg::SyncRound {
                round: g.u64(),
                training_id: g.array(),
            },
            _ => Msg::SyncDone { round: g.u64() },
        }
    }

    fn to_wire(&self) -> Vec<u8> {
        self.encode().expect("fields fit their prefixes")
    }

    fn from_wire(buf: &[u8]) -> Option<Msg> {
        Msg::decode(buf).ok()
    }

    fn variant(&self) -> usize {
        match self {
            Msg::Hello { .. } => 0,
            Msg::HelloReply { .. } => 1,
            Msg::Record { .. } => 2,
            Msg::Register { .. } => 3,
            Msg::RegisterAck => 4,
            Msg::RoundStart { .. } => 5,
            Msg::Upload { .. } => 6,
            Msg::UploadEncrypted { .. } => 7,
            Msg::Aggregated { .. } => 8,
            Msg::AggregatedEncrypted { .. } => 9,
            Msg::SyncRound { .. } => 10,
            Msg::SyncDone { .. } => 11,
        }
    }
}

impl Wire for CtlMsg {
    const NAME: &'static str = "CtlMsg";
    const VARIANTS: usize = 14;
    const GOLDEN: &'static [(&'static str, &'static str)] = &[
        ("01", "Ready"),
        ("020c0000006167672d31206661696c6564", "Failed { reason: \"agg-1 failed\" }"),
        ("032a00000000000000", "Heartbeat { seq: 42 }"),
        ("04070000000000000030313233343536373839616263646566", "Trigger { round: 7, training_id: [48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 97, 98, 99, 100, 101, 102] }"),
        ("0503000000000000000100", "RoundPlan { round: 3, train: true, report_params: false }"),
        ("060300000000000000010000803e000000000000f83f000000000000c03f000000000000000001030000000000803f000020c000005040", "PartyDone { round: 3, trained: true, train_loss: 0.25, train_s: 1.5, transform_s: 0.125, crypto_s: 0.0, params: Some([1.0, -2.5, 3.25]) }"),
        ("060400000000000000000000000000000000000000000000000000000000000000000000000000", "PartyDone { round: 4, trained: false, train_loss: 0.0, train_s: 0.0, transform_s: 0.0, crypto_s: 0.0, params: None }"),
        ("070300000000000000000000000000e03f", "AggDone { round: 3, aggregate_s: 0.5 }"),
        ("08", "Shutdown"),
        ("090200000002000000080000006167672d32237231040000000102030400000000080000006167672d3023723300000000", "Rebind { rebinds: [RebindEntry { index: 2, name: \"agg-2#r1\", .. }, RebindEntry { index: 0, name: \"agg-0#r3\", .. }] }"),
        ("0a05000000000000000600000000000100000002000000050000006167672d30050000006167672d32", "Remap { round: 5, mapper: [0, 0, 1, 0, 0, 0], aggs: [\"agg-0\", \"agg-2\"] }"),
        ("0b0500000000000000", "Replay { round: 5 }"),
        ("0c0600000000000000", "Reopen { round: 6 }"),
        ("0e0700000070617274792d33", "Deregister { party: \"party-3\" }"),
        ("0d050000006167672d3202000000050000006167672d32080000006167672d30237231", "Topology { initiator: \"agg-2\", aggs: [\"agg-2\", \"agg-0#r1\"] }"),
    ];

    fn arbitrary(g: &mut Gen) -> CtlMsg {
        match g.usize_in(0, Self::VARIANTS) {
            0 => CtlMsg::Ready,
            1 => CtlMsg::Failed { reason: name(g) },
            2 => CtlMsg::Heartbeat { seq: g.u64() },
            3 => CtlMsg::Trigger {
                round: g.u64(),
                training_id: g.array(),
            },
            4 => CtlMsg::RoundPlan {
                round: g.u64(),
                train: g.bool(),
                report_params: g.bool(),
            },
            5 => CtlMsg::PartyDone {
                round: g.u64(),
                trained: g.bool(),
                train_loss: g.f32_any(),
                train_s: f64::from_bits(g.u64()),
                transform_s: f64::from_bits(g.u64()),
                crypto_s: f64::from_bits(g.u64()),
                params: if g.bool() { Some(floats(g)) } else { None },
            },
            6 => CtlMsg::AggDone {
                round: g.u64(),
                aggregate_s: f64::from_bits(g.u64()),
            },
            7 => CtlMsg::Shutdown,
            8 => CtlMsg::Rebind {
                rebinds: g.vec_of(0, 5, |g| RebindEntry {
                    index: g.u32(),
                    name: name(g),
                    verifying_key: g.bytes(0, 40),
                }),
            },
            9 => CtlMsg::Remap {
                round: g.u64(),
                mapper: g.bytes(0, 128),
                aggs: names(g),
            },
            10 => CtlMsg::Replay { round: g.u64() },
            11 => CtlMsg::Reopen { round: g.u64() },
            12 => CtlMsg::Deregister { party: name(g) },
            _ => CtlMsg::Topology {
                initiator: name(g),
                aggs: names(g),
            },
        }
    }

    fn to_wire(&self) -> Vec<u8> {
        self.encode().expect("fields fit their prefixes")
    }

    fn from_wire(buf: &[u8]) -> Option<CtlMsg> {
        CtlMsg::decode(buf).ok()
    }

    fn variant(&self) -> usize {
        match self {
            CtlMsg::Ready => 0,
            CtlMsg::Failed { .. } => 1,
            CtlMsg::Heartbeat { .. } => 2,
            CtlMsg::Trigger { .. } => 3,
            CtlMsg::RoundPlan { .. } => 4,
            CtlMsg::PartyDone { .. } => 5,
            CtlMsg::AggDone { .. } => 6,
            CtlMsg::Shutdown => 7,
            CtlMsg::Rebind { .. } => 8,
            CtlMsg::Remap { .. } => 9,
            CtlMsg::Replay { .. } => 10,
            CtlMsg::Reopen { .. } => 11,
            CtlMsg::Deregister { .. } => 12,
            CtlMsg::Topology { .. } => 13,
        }
    }
}

impl Wire for SocketFrame {
    const NAME: &'static str = "SocketFrame";
    const VARIANTS: usize = 13;
    const GOLDEN: &'static [(&'static str, &'static str)] = &[
        ("01070070617274792d3005006167672d31080706050403020103000000090807", "Data { src: \"party-0\", dst: \"agg-1\", seq: 72623859790382856, payload: [9, 8, 7] }"),
        ("0205006167672d31", "Close { name: \"agg-1\" }"),
        ("033031323334353637383961626364656630313233343536373839414243444546", "Challenge { nonce: [48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 97, 98, 99, 100, 101, 102, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 65, 66, 67, 68, 69, 70] }"),
        ("04070070617274792d3002000000aabb", "AuthProof { name: \"party-0\", sig: [170, 187] }"),
        ("05", "Welcome"),
        ("06", "Bye"),
        ("07e803000000000000", "ClockProbe { t_hub_ns: 1000 }"),
        ("08e803000000000000d007000000000000", "ClockEcho { t_hub_ns: 1000, t_peer_ns: 2000 }"),
        ("0905006167672d300300000000000000030000007b7d0a", "TraceShip { name: \"agg-0\", dropped: 3, jsonl: [123, 125, 10] }"),
        ("0a070070617274792d300200000005006167672d30070070617274792d30050000000000000005006167672d31070070617274792d300000000000000000", "Resume { src: \"party-0\", windows: [(\"agg-0\", \"party-0\", 5), (\"agg-1\", \"party-0\", 0)] }"),
        ("0b01000000070070617274792d3005006167672d300600000000000000", "ResumeAck { windows: [(\"party-0\", \"agg-0\", 6)] }"),
        ("0c070070617274792d3005006167672d310807060504030201", "Ack { src: \"party-0\", dst: \"agg-1\", next: 72623859790382856 }"),
        ("0d03000000000000000807060504030201", "Trace { trace_id: 3, msg_id: 72623859790382856 }"),
    ];

    fn arbitrary(g: &mut Gen) -> SocketFrame {
        match g.usize_in(0, Self::VARIANTS) {
            0 => SocketFrame::Data {
                src: name(g),
                dst: name(g),
                seq: g.u64(),
                payload: g.bytes(0, 400),
            },
            1 => SocketFrame::Close { name: name(g) },
            2 => SocketFrame::Challenge { nonce: g.array() },
            3 => SocketFrame::AuthProof {
                name: name(g),
                sig: g.bytes(0, 96),
            },
            4 => SocketFrame::Welcome,
            5 => SocketFrame::Bye,
            6 => SocketFrame::ClockProbe { t_hub_ns: g.u64() },
            7 => SocketFrame::ClockEcho {
                t_hub_ns: g.u64(),
                t_peer_ns: g.u64(),
            },
            8 => SocketFrame::TraceShip {
                name: name(g),
                dropped: g.u64(),
                jsonl: g.bytes(0, 400),
            },
            9 => SocketFrame::Resume {
                src: name(g),
                windows: windows(g),
            },
            10 => SocketFrame::ResumeAck {
                windows: windows(g),
            },
            11 => SocketFrame::Ack {
                src: name(g),
                dst: name(g),
                next: g.u64(),
            },
            _ => SocketFrame::Trace {
                trace_id: g.u64(),
                msg_id: g.u64(),
            },
        }
    }

    fn to_wire(&self) -> Vec<u8> {
        self.encode()
    }

    fn from_wire(buf: &[u8]) -> Option<SocketFrame> {
        SocketFrame::decode(buf)
    }

    fn variant(&self) -> usize {
        match self {
            SocketFrame::Data { .. } => 0,
            SocketFrame::Close { .. } => 1,
            SocketFrame::Challenge { .. } => 2,
            SocketFrame::AuthProof { .. } => 3,
            SocketFrame::Welcome => 4,
            SocketFrame::Bye => 5,
            SocketFrame::ClockProbe { .. } => 6,
            SocketFrame::ClockEcho { .. } => 7,
            SocketFrame::TraceShip { .. } => 8,
            SocketFrame::Resume { .. } => 9,
            SocketFrame::ResumeAck { .. } => 10,
            SocketFrame::Ack { .. } => 11,
            SocketFrame::Trace { .. } => 12,
        }
    }
}

#[test]
fn msg_golden_bytes() {
    check_golden::<Msg>();
}

#[test]
fn ctl_msg_golden_bytes() {
    check_golden::<CtlMsg>();
}

#[test]
fn socket_frame_golden_bytes() {
    check_golden::<SocketFrame>();
}

/// Model-sized fragments go through the bulk float path and the sized
/// buffers, which the three-element golden rows above do not reach.
#[test]
fn model_sized_fragments_golden_digests() {
    let fragment: Vec<f32> = (0..100_000u32)
        .map(|i| f32::from_bits(i.wrapping_mul(0x9E37_79B9)))
        .collect();
    let upload = Msg::Upload {
        round: 11,
        fragment: fragment.clone(),
    }
    .to_wire();
    assert_eq!(upload.len(), 1 + 8 + 4 + 400_000);
    let mut record = vec![0xEE];
    deta::core::wire::put_upload(&mut record, 11, &fragment).expect("fits");
    assert_eq!(record[1..5], (upload.len() as u32).to_le_bytes());
    assert_eq!(
        record[5..],
        upload[..],
        "the borrowed writer must agree with Msg::Upload"
    );
    let aggregated = Msg::Aggregated {
        round: 11,
        fragment: fragment.clone(),
    }
    .to_wire();
    let done = CtlMsg::PartyDone {
        round: 11,
        trained: true,
        train_loss: 0.5,
        train_s: 1.0,
        transform_s: 2.0,
        crypto_s: 3.0,
        params: Some(fragment),
    }
    .to_wire();
    let data = SocketFrame::Data {
        src: "party-0".to_string(),
        dst: "agg-0".to_string(),
        seq: 3,
        payload: upload.clone(),
    }
    .to_wire();
    fn check<T: Wire>(bytes: &[u8], digest: &str) {
        assert_eq!(hex(&sha256(bytes)), digest, "{} digest", T::NAME);
        let back = T::from_wire(bytes).map(|m| m.to_wire());
        assert_eq!(back.as_deref(), Some(bytes), "{} round trip", T::NAME);
    }
    check::<Msg>(
        &upload,
        "bccf1e62e0a59724593290d3285162e490c3efd5b5c498eda9b22e1906a37ec6",
    );
    check::<Msg>(
        &aggregated,
        "86e1d7c95f033d8093d54b31ac2e73926445c549891ea95d62805d338bb49281",
    );
    check::<CtlMsg>(
        &done,
        "b3985bd805f125a5c221b94cc509da9e77a58a5f30e35082c5808e66b08df970",
    );
    check::<SocketFrame>(
        &data,
        "1cdf85533d6cd5ef5e396e9d2d1ff567c0bffec6b885af4c3b5b3dad0ffea124",
    );
}

#[test]
fn msg_laws() {
    check_laws::<Msg>();
}

#[test]
fn ctl_msg_laws() {
    check_laws::<CtlMsg>();
}

#[test]
fn socket_frame_laws() {
    check_laws::<SocketFrame>();
}
