use super::*;

/// The largest distance, in units in the last place, allowed between a
/// kernel ([`ln`], [`cos`]) and libm's `f64::ln` / `f64::cos`, outside
/// the rejected `cos` arguments. Both measure 1 against glibc's.
const KERNEL_ULPS: u64 = 2;

/// Units in the last place between two `f64`s of one sign.
fn ulps(a: f64, b: f64) -> u64 {
    assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a:e} vs {b:e}");
    a.to_bits().abs_diff(b.to_bits())
}

/// The stream word whose 53 top bits are `m`.
fn word_of(m: u64) -> u64 {
    m << 11
}

fn stream(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = DetRng::from_u64(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

#[test]
fn unit_is_unit_f64() {
    let edges = [0, 1 << 11, 1 << 12, 3 << 11, u64::MAX, u64::MAX >> 1, 0x7ff];
    for w in stream(1, 100_000).into_iter().chain(edges) {
        assert_eq!(unit(w).to_bits(), unit_f64(w).to_bits(), "{w:#x}");
    }
}

/// Every `u1` the sampler can see: 10⁶ from the stream, and the first
/// 10⁵ above `2⁻⁵³` and below 1, where `f` and `k` are at their extremes.
fn ln_inputs() -> impl Iterator<Item = f64> {
    let drawn = stream(2, 1_000_000).into_iter();
    let near_one = 1..=100_000u64;
    let near_tiny = (1u64 << 53) - 100_000..(1 << 53);
    drawn
        .chain(near_one.map(word_of))
        .chain(near_tiny.map(word_of))
        .map(|w| 1.0 - unit_f64(w))
}

#[test]
fn ln_stays_within_kernel_ulps_of_libm() {
    let mut worst = (0, 0.0);
    for u1 in ln_inputs() {
        let d = ulps(ln(u1), u1.ln());
        if d > worst.0 {
            worst = (d, u1);
        }
    }
    assert!(worst.0 <= KERNEL_ULPS, "{} ulps at {:e}", worst.0, worst.1);
}

/// The `cos` arguments the sampler can see: `2π u2` for 10⁶ drawn `u2`,
/// and sweeps through ±2²³ steps of `u2` around every multiple of `π/2`
/// in `[0, 2π)`, which cross the rejected band around `π/2` and `3π/2`
/// (about ±1.3·10⁶ steps wide).
fn cos_inputs() -> impl Iterator<Item = f64> {
    let drawn = stream(3, 1_000_000).into_iter();
    let sweeps = (0..4u64).flat_map(|k| {
        let centre = k << 51;
        (-(1i64 << 23)..=1 << 23)
            .step_by(61)
            .filter_map(move |j| centre.checked_add_signed(j))
            .map(word_of)
    });
    drawn
        .chain(sweeps)
        .map(|w| 2.0 * std::f64::consts::PI * unit_f64(w))
}

#[test]
fn cos_stays_within_kernel_ulps_of_libm_outside_the_rejected_band() {
    let (mut worst, mut rejected) = ((0, 0.0), 0);
    for x in cos_inputs() {
        let (c, y, odd) = cos(x);
        if odd && y.abs() < NEAR_ZERO {
            rejected += 1;
            continue;
        }
        let d = ulps(c, x.cos());
        if d > worst.0 {
            worst = (d, x);
        }
    }
    assert!(worst.0 <= KERNEL_ULPS, "{} ulps at {:e}", worst.0, worst.1);
    // The sweeps reach into the band around π/2 and 3π/2.
    assert!(rejected > 2 * 40_000, "{rejected}");
}

/// `w2` words putting the `cos` factor at exactly `+1` (`u2 = 0`) and at
/// exactly `-1` (`u2 = 1/2`, `cos(fl(π))` rounds to `-1`).
const PLUS_ONE: u64 = 0;
const MINUS_ONE: u64 = 1 << 63;

/// Every lane of a group set to `(w1, w2)` draws the scalar value.
fn assert_group_is_scalar(w1: u64, w2: u64) {
    let mut bytes = [0u8; GROUP_BYTES];
    for draw in bytes.chunks_exact_mut(DRAW_BYTES) {
        draw[..8].copy_from_slice(&w1.to_le_bytes());
        draw[8..].copy_from_slice(&w2.to_le_bytes());
    }
    let want = (box_muller(w1, w2) as f32).to_bits();
    for got in draw8(&bytes) {
        assert_eq!(got.to_bits(), want, "w1={w1:#x} w2={w2:#x}");
    }
}

#[test]
fn a_draw_next_to_an_f32_midpoint_is_recomputed() {
    let mut constructed = 0;
    for v in [0.3f32, 0.5, 1.0, 1.7, 2.3, 3.1, 4.4] {
        // Halfway between `v` and the next `f32` up, in `f64`.
        let mid = (f64::from(v) + f64::from(f32::from_bits(v.to_bits() + 1))) / 2.0;
        let u1 = (-mid * mid / 2.0).exp();
        let m = ((1.0 - u1) * (1u64 << 53) as f64).round() as u64;
        for w1 in [m - 1, m, m + 1].map(word_of) {
            for (w2, sign) in [(PLUS_ONE, 1.0), (MINUS_ONE, -1.0)] {
                let scalar = box_muller(w1, w2);
                if ((scalar - sign * mid) / mid).abs() >= SLACK {
                    continue;
                }
                constructed += 1;
                assert!(!lane(w1, w2).1, "kept a lane at {scalar:e}");
                assert_group_is_scalar(w1, w2);
            }
        }
    }
    // At least one positive and one negative draw per target.
    assert!(constructed >= 14, "{constructed}");
}

#[test]
fn a_draw_the_kernels_alone_round_the_other_way_is_recomputed() {
    // Found by scanning words next to f32 midpoints: at these, the
    // kernels' f64 and libm's lie on either side of a midpoint, so an
    // unguarded lane would keep the neighbouring f32.
    for w1 in [
        0x056a_a17d_289f_b800,
        0x0c0b_6bb2_e56c_9800,
        0x0d3a_f495_b5fd_9800,
    ] {
        for w2 in [PLUS_ONE, MINUS_ONE] {
            let (kernel, keep) = lane(w1, w2);
            assert_ne!(kernel.to_bits(), (box_muller(w1, w2) as f32).to_bits());
            assert!(!keep, "w1={w1:#x}");
            assert_group_is_scalar(w1, w2);
        }
    }
}

#[test]
fn u1_of_one_is_recomputed() {
    for w1 in [0, 0x7ff, 0x400] {
        for w2 in [PLUS_ONE, MINUS_ONE, word_of(12345)] {
            assert!(!lane(w1, w2).1);
            assert_group_is_scalar(w1, w2);
        }
    }
    // A signed zero, as the scalar formula gives it.
    assert_eq!(box_muller(0, PLUS_ONE).to_bits(), (-0.0f64).to_bits());
}

#[test]
fn cos_arguments_next_to_its_zeros_are_recomputed() {
    // u2 steps are 2π·2⁻⁵³ apart, so the 2⁻³⁰ band is about ±1.3·10⁶
    // steps around the word for π/2 (2⁵¹) and for 3π/2 (3·2⁵¹).
    let w1 = stream(4, 1)[0];
    for centre in [1u64 << 51, 3 << 51] {
        for j in [0i64, 1, -1, 1000, -1000, 1_300_000, -1_300_000] {
            let w2 = word_of(centre.checked_add_signed(j).unwrap());
            assert!(!lane(w1, w2).1, "centre {centre:#x} + {j}");
            assert_group_is_scalar(w1, w2);
        }
        for j in [1_400_000i64, -1_400_000] {
            let w2 = word_of(centre.checked_add_signed(j).unwrap());
            let (_, y, odd) = cos(2.0 * std::f64::consts::PI * unit_f64(w2));
            assert!(odd && y.abs() >= NEAR_ZERO, "centre {centre:#x} + {j}");
            assert_group_is_scalar(w1, w2);
        }
    }
}

#[test]
fn drawn_groups_are_the_scalar_draws_and_rarely_recomputed() {
    let words = stream(5, 2_000_000);
    let mut rejected = 0;
    for group in words.chunks_exact(2 * LANES) {
        let bytes: Vec<u8> = group.iter().flat_map(|w| w.to_le_bytes()).collect();
        let got = draw8(bytes.as_slice().try_into().unwrap());
        for (g, pair) in got.iter().zip(group.chunks_exact(2)) {
            let (w1, w2) = (pair[0], pair[1]);
            rejected += usize::from(!lane(w1, w2).1);
            assert_eq!(g.to_bits(), (box_muller(w1, w2) as f32).to_bits());
        }
    }
    // 10⁶ draws: the guard's 2⁻⁴⁰ band around f32 midpoints takes about
    // 23 lanes in 10⁶ (29 here), the cos band about one in 2³¹.
    assert!(rejected < 60, "{rejected} of 10⁶ lanes recomputed");
}
