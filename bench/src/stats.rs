//! Order statistics behind every reported number: median, the quartile
//! rule the benchmark driver applies (Python's
//! `statistics.quantiles(values, n=4)`), and the tail-percentile rule
//! "the highest percentile with at least ten samples beyond it".

/// Sorted copy of `samples`.
///
/// # Panics
///
/// Panics on a NaN sample: every sample is a measured duration or count.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so a spread printed here is the spread the driver
/// sees. `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let v = sorted(samples);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // `delta` can be negative or exceed 4 at the clamped ends (the
        // reference implementation extrapolates there too).
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The highest whole percentile that still has at least ten samples
/// beyond it, with its nearest-rank value: `p80` at n=50, `p70` at n=34.
/// `None` below eleven samples, where no percentile qualifies.
pub fn tail_percentile(samples: &[f64]) -> Option<(u32, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let p = (100 * (n - 10) / n) as u32;
    let rank = (p as usize * n).div_ceil(100).max(1);
    Some((p, sorted(samples)[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 4.5)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v50: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail_percentile(&v50), Some((80, 40.0)));
        let v34: Vec<f64> = (1..=34).map(f64::from).collect();
        assert_eq!(tail_percentile(&v34), Some((70, 24.0)));
        for n in 11..200usize {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (p, value) = tail_percentile(&v).expect("n >= 11");
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n} p{p} leaves {beyond} beyond");
        }
        assert_eq!(tail_percentile(&[1.0; 10]), None);
    }
}
