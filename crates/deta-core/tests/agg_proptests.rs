//! The selecting aggregation kernels against the plain reference they
//! replaced: gather one coordinate's column, `sort_by(f32::total_cmp)`,
//! read or add up the rows. Inputs are raw bit patterns, so NaNs of both
//! signs, infinities, signed zeros and subnormals all occur.
//!
//! An output that is an input value (the median of an odd count) must
//! match bit for bit. One that is the result of arithmetic must match bit
//! for bit unless it is a NaN: the sign of a NaN sum is the compiler's
//! choice of operand order, which differs between two loops.

use deta_core::agg::{AggKind, AggregateError};
use deta_proptest::{cases, Gen};

fn sorted_column(inputs: &[Vec<f32>], c: usize) -> Vec<f32> {
    let mut column: Vec<f32> = inputs.iter().map(|input| input[c]).collect();
    column.sort_by(f32::total_cmp);
    column
}

fn reference_median(inputs: &[Vec<f32>]) -> Vec<f32> {
    let n = inputs.len();
    (0..inputs[0].len())
        .map(|c| {
            let column = sorted_column(inputs, c);
            if n % 2 == 1 {
                column[n / 2]
            } else {
                (column[n / 2 - 1] + column[n / 2]) / 2.0
            }
        })
        .collect()
}

fn reference_trimmed_mean(inputs: &[Vec<f32>], trim: usize) -> Vec<f32> {
    let n = inputs.len();
    (0..inputs[0].len())
        .map(|c| {
            let column = sorted_column(inputs, c);
            let sum: f64 = column[trim..n - trim].iter().map(|&v| v as f64).sum();
            (sum / (n - 2 * trim) as f64) as f32
        })
        .collect()
}

/// `n` updates of `len` values: mostly arbitrary bit patterns, some
/// columns drawn from four values so that ties are common.
fn updates(g: &mut Gen, n: usize, len: usize) -> Vec<Vec<f32>> {
    let palette: [f32; 4] = std::array::from_fn(|_| g.f32_any());
    let tied: Vec<bool> = (0..len).map(|_| g.u8() < 64).collect();
    (0..n)
        .map(|_| {
            tied.iter()
                .map(|&tied| {
                    if tied {
                        palette[g.usize_in(0, 4)]
                    } else {
                        g.f32_any()
                    }
                })
                .collect()
        })
        .collect()
}

fn assert_same(got: &[f32], want: &[f32], exact_nan: bool) {
    assert_eq!(got.len(), want.len());
    for (c, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g.to_bits() == w.to_bits() || (!exact_nan && g.is_nan() && w.is_nan());
        assert!(same, "coordinate {c}: {g:?} vs {w:?}");
    }
}

#[test]
fn median_equals_the_sorted_column_reference() {
    cases("median_equals_reference", 192, |g| {
        // Mostly deployment-sized party counts, sometimes past 128.
        let n = if g.u8() < 32 {
            g.usize_in(41, 131)
        } else {
            g.usize_in(1, 41)
        };
        let len = g.usize_in(0, 200);
        let inputs = updates(g, n, len);
        let got = AggKind::CoordinateMedian
            .build()
            .aggregate(&inputs, &vec![1.0; n])
            .unwrap();
        assert_same(&got, &reference_median(&inputs), n % 2 == 1);
    });
}

#[test]
fn trimmed_mean_equals_the_sorted_column_reference() {
    cases("trimmed_mean_equals_reference", 192, |g| {
        let n = g.usize_in(1, 41);
        let trim = g.usize_in(0, n.div_ceil(2));
        let len = g.usize_in(0, 200);
        let inputs = updates(g, n, len);
        let got = AggKind::TrimmedMean { trim }
            .build()
            .aggregate(&inputs, &vec![1.0; n])
            .unwrap();
        assert_same(&got, &reference_trimmed_mean(&inputs, trim), false);
    });
}

#[test]
fn over_trimming_is_an_error_at_every_count() {
    for n in 1..=9usize {
        let inputs = vec![vec![0.5f32; 3]; n];
        for trim in 0..=n {
            let got = AggKind::TrimmedMean { trim }
                .build()
                .aggregate(&inputs, &vec![1.0; n]);
            if 2 * trim < n {
                assert_eq!(got, Ok(vec![0.5; 3]), "n {n} trim {trim}");
            } else {
                assert_eq!(got, Err(AggregateError::OverTrim { trim, n }));
            }
        }
    }
}
