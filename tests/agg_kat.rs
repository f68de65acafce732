//! Known answers for the six aggregation algorithms.
//!
//! The digests were produced by the kernels as they stood before the
//! robust ones were rewritten over a sorting network: a per-coordinate
//! column gather and `sort_by(f32::total_cmp)` under the median, the
//! trimmed mean and FLAME-lite's reference, and one `sq_dist` per
//! ordered pair under Krum. Selection is order-free and every `f64`
//! sum keeps its addition order, so any faster kernel has to reproduce
//! these bytes exactly — on NaNs of both signs, signed zeros,
//! infinities, subnormals and wholly tied columns as much as on
//! ordinary updates.

use deta::core::AggKind;
use deta::crypto::sha256::sha256;
use deta::crypto::DetRng;
use Planting::{Clean, Hostile, Mixed};

const PARTIES: [usize; 8] = [1, 2, 3, 4, 5, 31, 32, 33];
const LENGTHS: [usize; 5] = [1, 63, 64, 65, 1000];

/// Bit patterns a hostile party can put in an update.
const SPECIALS: [u32; 16] = [
    0x7fc0_0000, // +NaN
    0xffc0_0000, // -NaN
    0x7fc1_2345, // +NaN with a payload
    0xffc0_0001, // -NaN with a payload
    0x7f80_0000, // +inf
    0xff80_0000, // -inf
    0x7f7f_ffff, // f32::MAX
    0xff7f_ffff, // f32::MIN
    0x0000_0000, // +0
    0x8000_0000, // -0
    0x0000_0001, // smallest subnormal
    0x8000_0001, // its negative
    0x007f_ffff, // largest subnormal
    0x807f_ffff, // its negative
    0x3f80_0000, // 1.0
    0xbf80_0000, // -1.0
];

/// Index of the first special that no sum of 33 can turn into an
/// infinity or a NaN.
const TAME_SPECIALS: usize = 8;

#[derive(Clone, Copy, Debug)]
enum Planting {
    /// Specials anywhere, one coordinate in eight; tied columns of any
    /// special. Degenerate for the distance-based algorithms (every
    /// party holds a NaN) and the hard case for the selecting ones.
    Hostile,
    /// Only every third party carries NaNs, infinities and extremes;
    /// tied columns are tame. Krum and FLAME-lite must choose among
    /// honest parties.
    Mixed,
    /// Finite Gaussians rounded to quarters: many ties per column.
    Clean,
}

fn inputs(n: usize, len: usize, planting: Planting, rng: &mut DetRng) -> Vec<Vec<f32>> {
    let special = |rng: &mut DetRng, from: usize| {
        let i = from + rng.gen_range((SPECIALS.len() - from) as u64) as usize;
        f32::from_bits(SPECIALS[i])
    };
    let mut out: Vec<Vec<f32>> = (0..n)
        .map(|p| {
            (0..len)
                .map(|_| {
                    let v = rng.next_gaussian() as f32;
                    match planting {
                        Planting::Hostile if rng.gen_range(8) == 0 => special(rng, 0),
                        Planting::Mixed if p % 3 == 1 && rng.gen_range(8) == 0 => special(rng, 0),
                        Planting::Clean => (v * 4.0).round() / 4.0,
                        _ => v,
                    }
                })
                .collect()
        })
        .collect();
    // Every sixteenth column (and the only one of a length-1 update in
    // half the cases) holds one value for every party.
    for c in 0..len {
        if rng.gen_range(16) == 0 || (len == 1 && n.is_multiple_of(2)) {
            let tied = match planting {
                Planting::Hostile => special(rng, 0),
                Planting::Mixed => special(rng, TAME_SPECIALS),
                Planting::Clean => 0.25,
            };
            for row in out.iter_mut() {
                row[c] = tied;
            }
        }
    }
    out
}

/// SHA-256 over the output bits of `kind` on every shape of one
/// planting, in `PARTIES` × `LENGTHS` order.
///
/// An output NaN is hashed bit for bit where the kernel returns an input
/// value (Krum, the median of an odd count) and as the canonical NaN
/// where it is the result of arithmetic: when both operands of an
/// addition are NaN the hardware keeps the first one's sign, and which
/// the compiler puts first differs between a debug and a release build
/// of the same loop.
fn digest(kind: fn(usize) -> AggKind, planting: Planting, seed: u64) -> String {
    let mut rng = DetRng::from_u64(seed);
    let mut bytes = Vec::new();
    for n in PARTIES {
        let selects = match kind(n) {
            AggKind::Krum { .. } => true,
            AggKind::CoordinateMedian => n % 2 == 1,
            _ => false,
        };
        let weights: Vec<f32> = (0..n).map(|p| 1.0 + (p % 3) as f32).collect();
        for len in LENGTHS {
            let ins = inputs(n, len, planting, &mut rng);
            let out = kind(n)
                .build()
                .aggregate(&ins, &weights)
                .expect("well-formed inputs");
            assert_eq!(out.len(), len);
            bytes.extend(out.iter().flat_map(|v| {
                let v = if v.is_nan() && !selects { f32::NAN } else { *v };
                v.to_bits().to_le_bytes()
            }));
        }
    }
    sha256(&bytes).iter().map(|b| format!("{b:02x}")).collect()
}

fn check(kind: fn(usize) -> AggKind, planting: Planting, want: &str) {
    let seed = 0xa99 + planting as u64;
    assert_eq!(digest(kind, planting, seed), want, "{planting:?}");
}

#[test]
fn iterative_averaging() {
    let kind = |_| AggKind::IterativeAveraging;
    check(
        kind,
        Hostile,
        "f92f2dd2b78e4e3856b2f381ae026bb69de81f2fccd617f48e2058a610f7e549",
    );
    check(
        kind,
        Mixed,
        "2888804c28f3853fb7b399c76348e640917caafd89091b248598457ad199f65d",
    );
    check(
        kind,
        Clean,
        "1337c9a3eed969995173d919f03d480aea429ece19e676ea3450bf59aafdc583",
    );
}

#[test]
fn gradient_sum() {
    let kind = |_| AggKind::GradientSum;
    check(
        kind,
        Hostile,
        "60cbdc62412443f214f7c08d2b6483dc0ae10851c678e3655396cbc38d30a25b",
    );
    check(
        kind,
        Mixed,
        "626730311578f1661227a0ee847a2c7b4c65f85d2ca4d95911148618c7aa2e4c",
    );
    check(
        kind,
        Clean,
        "8e0d8d51f663eb57f35b0b994dba5818f17c02ca28f896237995c46f0f459327",
    );
}

#[test]
fn coordinate_median() {
    let kind = |_| AggKind::CoordinateMedian;
    check(
        kind,
        Hostile,
        "5ee9c3022820c6cd0b5a6ec15299aba709c31fad1d1b9d2d9039a8b0f1155eb2",
    );
    check(
        kind,
        Mixed,
        "f37aa15916f16b68bd055b4447d8dbe720e6a35cc3462409372c690c10648b3e",
    );
    check(
        kind,
        Clean,
        "152119bc4328f9906a3a73b47f89f2f30f7d67d937595268d30039d3df8f63b2",
    );
}

#[test]
fn trimmed_mean() {
    let kind = |n| AggKind::TrimmedMean { trim: (n - 1) / 3 };
    check(
        kind,
        Hostile,
        "aae3ff0bd4269d93c931d57c54a70b68649324a41c6c7b92334e878d5f87670e",
    );
    check(
        kind,
        Mixed,
        "5dfe90f768ff8e4cd69c2f63021188b7870078832ef5b281b309164f10e22b90",
    );
    check(
        kind,
        Clean,
        "8181d3ba8e2ee9b839cb4157959cd8539a07dcd7870b426eceade9ef293e6a09",
    );
}

#[test]
fn krum() {
    let kind = |n| AggKind::Krum { f: n / 4 };
    check(
        kind,
        Hostile,
        "11a0e4d29ce255cc02bb2c1aea3628c549f1f89d0714c2e08a4184f7811da597",
    );
    check(
        kind,
        Mixed,
        "7b87b48a4312aef64a0ddccfb6d9cd3b746da13b3b0cf545411227dc9542fc0a",
    );
    check(
        kind,
        Clean,
        "dec36de62bf399d630afc96b91aef97d169eef1c8c4c4860185d79697147525c",
    );
}

/// Without the hostile planting: when half the parties or more hold a
/// NaN, every distance to the reference is one, the filter accepts
/// nobody, and the old kernel indexed an empty list. What the kernel
/// answers there now is a unit test beside it.
#[test]
fn flame_lite() {
    let kind = |_| AggKind::FlameLite;
    check(
        kind,
        Mixed,
        "a5f8b5af0e20d9ea64cc6f1f4591d2ef390979505dd048734d38262f8abcfe56",
    );
    check(
        kind,
        Clean,
        "8cccc58037fb37fced7c5aca1c8ae162d2a668341f86bb38f3f908024f85cece",
    );
}
