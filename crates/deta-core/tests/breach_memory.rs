//! An aggregator's guest memory is the last aggregated round's decoded
//! uploads, held by move and rendered only when something reads it as
//! bytes. A breach must still read exactly what the eager encoding used
//! to write — length-prefixed (party name, `Upload` message) records in
//! party-name order, the round before replaced — and the host must still
//! see those bytes sealed under the CVM's one nonce. The two digests
//! were taken from the eager encoding, before the memory was held.

mod common;

use common::{aggregator, plain_manifest, registered};
use deta_core::agg::AggKind;
use deta_core::aggregator::parse_breached_memory;
use deta_core::wire::Msg;
use deta_crypto::sha256::sha256;
use deta_crypto::DetRng;
use deta_transport::wire::put_bytes;
use deta_transport::{LinkModel, Network};

const VALUES: usize = 64;

/// Party `i`'s upload for `round`: distinct values, signed zeros and
/// infinities among them.
fn fragment(round: u64, i: usize) -> Vec<f32> {
    let mut values: Vec<f32> = (0..VALUES)
        .map(|v| (round as usize * 7919 + i * 1000 + v) as f32 * 0.25 - 3.0)
        .collect();
    values[i] = -0.0;
    values[VALUES - 1 - i] = if i.is_multiple_of(2) {
        f32::INFINITY
    } else {
        f32::NEG_INFINITY
    };
    values
}

/// The records the eager encoding wrote for `round`, in name order.
fn eager_records(round: u64, parties: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..parties {
        let upload = Msg::Upload {
            round,
            fragment: fragment(round, i),
        };
        put_bytes(&mut out, format!("party-{i}").as_bytes()).expect("short name");
        put_bytes(&mut out, &upload.encode().expect("small upload")).expect("small upload");
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn a_breach_reads_the_records_the_eager_encoding_wrote() {
    const PARTIES: usize = 3;
    let net = Network::new(LinkModel::lan());
    let mut rng = DetRng::from_u64(0xb4eac);
    let mut agg = aggregator(&net, &plain_manifest(AggKind::IterativeAveraging), &mut rng);
    // Joined out of name order: the records are in name order all the same.
    let order = [2, 0, 1];
    let mut parties = registered(&net, &mut agg, order.into_iter(), &mut rng);
    let mut digests = Vec::new();
    for round in 1..=2 {
        for (party, i) in parties.iter_mut().zip(order) {
            party.send(&Msg::Upload {
                round,
                fragment: fragment(round, i),
            });
        }
        agg.pump();
        assert_eq!(agg.completed_rounds, round);
        let dump = agg.cvm().breach();
        assert_eq!(dump.memory, eager_records(round, PARTIES), "round {round}");
        let records: Vec<_> = (0..PARTIES)
            .map(|i| (format!("party-{i}"), round, fragment(round, i)))
            .collect();
        assert_eq!(parse_breached_memory(&dump.memory), records);
        digests.push(hex(&sha256(&dump.memory)));
        digests.push(hex(&sha256(&agg.cvm().host_memory_image())));
    }
    assert_eq!(
        digests,
        [
            // Round 1: the breach's bytes, then the host's image of them.
            "12ee7e6391179add7789f6c74f466f95b5785bc17266f64ea20511c70513760f",
            "fdd9c16804b96c83ee8fd98f4340c3331eb5f73490e3e82187901291c247752d",
            // Round 2, which replaced round 1.
            "cf45d03a38137117ebbbea5c9af6a35a90a5d2e5e8c96d41f2b80688a2c2181a",
            "1545723f272aa071b565341239ff6250cee11bd9a5d1885f302a28e70cfa5cc7",
        ]
    );
}
