//! Known answers for what an aggregator node sends: the plaintext of the
//! `Aggregated` record each party receives, for each of the six plain
//! rules over five parties. `tests/agg_kat.rs` pins the kernels through
//! `Aggregation::aggregate`; these pin them where a node runs them, on
//! the uploads it opened, with the registered weights, in party-name
//! order, and encoded into the records it fans out.
//!
//! The uploads hold NaNs of both signs (one with a payload), both
//! infinities, signed zeros and subnormals, across two whole tiles and a
//! partial one. No coordinate has two NaN sources, so every output bit
//! is fixed whichever operand of an addition the compiler puts first.

mod common;

use common::{aggregator, plain_manifest, registered};
use deta_core::agg::AggKind;
use deta_core::wire::Msg;
use deta_crypto::sha256::sha256;
use deta_crypto::DetRng;
use deta_transport::{LinkModel, Network};

const VALUES: usize = 130;

/// Party `p`'s upload: ordinary values with ties, a column of negative
/// zeros, a column of subnormals, and the specials of parties 1 and 3.
fn fragment(p: usize) -> Vec<f32> {
    let mut values: Vec<f32> = (0..VALUES)
        .map(|c| ((p * 37 + c * 11) % 23) as f32 * 0.375 - 4.0)
        .collect();
    values[10 + p] = -0.0;
    values[20 + p] = 0.0;
    values[100] = -0.0;
    values[101] = f32::from_bits(1 + p as u32);
    values[128] = -f32::from_bits(0x007f_ffff - p as u32);
    match p {
        1 => {
            values[3] = f32::NAN;
            values[67] = -f32::NAN;
            values[129] = f32::from_bits(0x7fc1_2345);
        }
        3 => {
            values[5] = f32::NEG_INFINITY;
            values[66] = f32::INFINITY;
        }
        _ => {}
    }
    values
}

/// The plaintext of the `Aggregated` record every party receives for one
/// round of `kind`, checked to be the same for all five.
fn aggregated_plaintext(kind: AggKind) -> Vec<u8> {
    let net = Network::new(LinkModel::lan());
    let mut rng = DetRng::from_u64(0x4a7);
    let mut agg = aggregator(&net, &plain_manifest(kind), &mut rng);
    // Joined out of name order, then each re-registered with its own
    // weight.
    let order = [3, 0, 4, 1, 2];
    let mut parties = registered(&net, &mut agg, order.into_iter(), &mut rng);
    for (p, party) in order.into_iter().zip(&mut parties) {
        party.send(&Msg::Register {
            party: format!("party-{p}"),
            weight: 1.0 + p as f32 * 0.5,
        });
    }
    agg.pump();
    for (p, party) in order.into_iter().zip(&mut parties) {
        assert_eq!(party.recv(), Some(Msg::RegisterAck));
        party.send(&Msg::Upload {
            round: 1,
            fragment: fragment(p),
        });
    }
    agg.pump();
    assert_eq!(agg.completed_rounds, 1, "{}", kind.name());
    let mut plaintexts = parties.iter_mut().map(|party| {
        let msg = party.recv().expect("an aggregate");
        assert!(
            matches!(&msg, Msg::Aggregated { round: 1, fragment } if fragment.len() == VALUES),
            "{msg:?}"
        );
        msg.encode().expect("encodes")
    });
    let first = plaintexts.next().expect("five parties");
    for other in plaintexts {
        assert_eq!(other, first, "{}", kind.name());
    }
    first
}

fn check(kind: AggKind, want: &str) {
    let digest: String = (sha256(&aggregated_plaintext(kind)).iter())
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(digest, want, "{}", kind.name());
}

#[test]
fn iterative_averaging() {
    check(
        AggKind::IterativeAveraging,
        "2e65fba8178a7d701a685b937e38cb92b25219265b881d29099e0522022975b5",
    );
}

#[test]
fn gradient_sum() {
    check(
        AggKind::GradientSum,
        "efcb903a3400917ef4ff8393046d6ad98eedde267301fce3cf0b4f5f8d6a068e",
    );
}

#[test]
fn coordinate_median() {
    check(
        AggKind::CoordinateMedian,
        "0b935e5fb0b2eaffe6f0170873b08209fac2a68c3aff51fdafb2c99622b391e1",
    );
}

#[test]
fn trimmed_mean() {
    check(
        AggKind::TrimmedMean { trim: 1 },
        "58e01cf85a7bd6e5d3257ca7824e0691262aee77cc1df9f9580ddb4611f6776f",
    );
}

#[test]
fn krum() {
    check(
        AggKind::Krum { f: 1 },
        "3d5fe206030984a176491110f861637ca71ebb8a2ccdc9b6c3c13531f0185237",
    );
}

#[test]
fn flame_lite() {
    check(
        AggKind::FlameLite,
        "d7b5772f1a5c32c663d7c1323fe4d8e4e5b6042c7013956473c2c5ada2eaeb01",
    );
}
