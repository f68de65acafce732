//! Process-wide metrics registry: labelled counters and fixed-bucket
//! histograms, rendered as a Prometheus text snapshot.
//!
//! The registry is a single mutex-guarded `BTreeMap` (deterministic
//! export order). It never takes any other lock, so observing a metric
//! while holding e.g. the transport network lock cannot deadlock. Every
//! observation is gated on [`crate::enabled`]; while the sink is
//! disabled an observation is a branch plus one atomic load.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Upper bounds of the shared histogram buckets (an implicit `+Inf`
/// bucket follows). One decade per bucket covers both second-scale
/// durations and byte-scale sizes without per-metric configuration.
pub const BUCKET_BOUNDS: [f64; 14] = [
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7,
];

struct Histogram {
    buckets: [u64; BUCKET_BOUNDS.len() + 1],
    sum: f64,
    count: u64,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<(String, String), u64>,
    histograms: BTreeMap<(String, String), Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Adds `delta` to the counter `name{label}`. No-op while the global
/// sink is disabled.
pub fn counter_add(name: &'static str, label: &str, delta: u64) {
    if !crate::enabled() {
        return;
    }
    crate::note_emit();
    let mut reg = lock(registry());
    *reg.counters
        .entry((name.to_string(), label.to_string()))
        .or_insert(0) += delta;
}

/// Records `value` into the histogram `name{label}`. No-op while the
/// global sink is disabled.
pub fn histogram_observe(name: &'static str, label: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    crate::note_emit();
    let mut reg = lock(registry());
    let h = reg
        .histograms
        .entry((name.to_string(), label.to_string()))
        .or_insert_with(|| Histogram {
            buckets: [0; BUCKET_BOUNDS.len() + 1],
            sum: 0.0,
            count: 0,
        });
    let idx = BUCKET_BOUNDS
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(BUCKET_BOUNDS.len());
    h.buckets[idx] += 1;
    h.sum += value;
    h.count += 1;
}

/// Current value of the counter `name{label}` (0 when never touched).
pub fn counter_value(name: &str, label: &str) -> u64 {
    let reg = lock(registry());
    reg.counters
        .get(&(name.to_string(), label.to_string()))
        .copied()
        .unwrap_or(0)
}

/// Renders the registry in the Prometheus text exposition format, in
/// deterministic (sorted) order.
pub fn prometheus_snapshot() -> String {
    use std::fmt::Write as _;
    let reg = lock(registry());
    let mut out = String::new();
    let mut last_type: Option<&str> = None;
    for ((name, label), value) in &reg.counters {
        // One TYPE comment per metric name (series are sorted, so equal
        // names are adjacent).
        if last_type != Some(name) {
            let _ = writeln!(out, "# TYPE {name} counter");
            last_type = Some(name);
        }
        let _ = writeln!(out, "{name}{} {value}", label_part(label, ""));
    }
    let mut last_type: Option<&str> = None;
    for ((name, label), h) in &reg.histograms {
        if last_type != Some(name) {
            let _ = writeln!(out, "# TYPE {name} histogram");
            last_type = Some(name);
        }
        let mut cumulative = 0u64;
        for (i, &bucket) in h.buckets.iter().enumerate() {
            cumulative += bucket;
            let le = if i < BUCKET_BOUNDS.len() {
                format!("{}", BUCKET_BOUNDS[i])
            } else {
                "+Inf".to_string()
            };
            let _ = writeln!(
                out,
                "{name}_bucket{} {cumulative}",
                label_part(label, &format!("le=\"{le}\""))
            );
        }
        let _ = writeln!(out, "{name}_sum{} {}", label_part(label, ""), h.sum);
        let _ = writeln!(out, "{name}_count{} {}", label_part(label, ""), h.count);
        for (q, tag) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            let _ = writeln!(
                out,
                "{name}{} {}",
                label_part(label, &format!("quantile=\"{tag}\"")),
                quantile_estimate(&h.buckets, h.count, q)
            );
        }
    }
    out
}

/// Estimates quantile `q` from the fixed decade buckets by linear
/// interpolation within the containing bucket: the target rank
/// `q * count` is located in cumulative-count space, then mapped
/// linearly between the bucket's lower and upper bound. Observations in
/// the `+Inf` bucket clamp to the last finite bound; an empty histogram
/// reports 0.
pub fn quantile_estimate(buckets: &[u64; BUCKET_BOUNDS.len() + 1], count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let target = q * count as f64;
    let mut cumulative = 0u64;
    for (i, &bucket) in buckets.iter().enumerate() {
        let before = cumulative as f64;
        cumulative += bucket;
        if (cumulative as f64) >= target && bucket > 0 {
            if i >= BUCKET_BOUNDS.len() {
                // The +Inf bucket has no upper bound to interpolate to.
                return BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1];
            }
            let lo = if i == 0 { 0.0 } else { BUCKET_BOUNDS[i - 1] };
            let hi = BUCKET_BOUNDS[i];
            return lo + (hi - lo) * ((target - before) / bucket as f64);
        }
    }
    BUCKET_BOUNDS[BUCKET_BOUNDS.len() - 1]
}

/// Renders the `{label="...",extra}` suffix; empty labels and extras
/// collapse away. The label value is escaped as the Prometheus text
/// format asks: backslash, double quote and newline, and nothing else.
fn label_part(label: &str, extra: &str) -> String {
    let mut parts = Vec::new();
    if !label.is_empty() {
        let escaped = (label.replace('\\', "\\\\"))
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        parts.push(format!("label=\"{escaped}\""));
    }
    if !extra.is_empty() {
        parts.push(extra.to_string());
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total observation count of the histogram `name{label}`.
    fn histogram_count(name: &str, label: &str) -> u64 {
        let reg = lock(registry());
        reg.histograms
            .get(&(name.to_string(), label.to_string()))
            .map_or(0, |h| h.count)
    }

    /// Clears every counter and histogram.
    fn reset() {
        let mut reg = lock(registry());
        reg.counters.clear();
        reg.histograms.clear();
    }

    /// The registry is process-global and `reset` wipes it, so tests
    /// touching it must not interleave.
    fn test_guard() -> MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        lock(&GUARD)
    }

    #[test]
    fn counters_and_histograms_snapshot() {
        let _serial = test_guard();
        crate::enable();
        reset();
        counter_add("deta_test_frames_total", "a->b", 2);
        counter_add("deta_test_frames_total", "a->b", 3);
        histogram_observe("deta_test_gap_seconds", "party-0", 0.02);
        histogram_observe("deta_test_gap_seconds", "party-0", 5.0);
        assert_eq!(counter_value("deta_test_frames_total", "a->b"), 5);
        assert_eq!(histogram_count("deta_test_gap_seconds", "party-0"), 2);
        let snap = prometheus_snapshot();
        assert!(snap.contains("deta_test_frames_total{label=\"a->b\"} 5"));
        assert!(snap.contains("deta_test_gap_seconds_count{label=\"party-0\"} 2"));
        assert!(snap.contains("le=\"+Inf\"} 2"));
        // Cumulative buckets: the 0.02 observation lands at le=0.1 and
        // stays counted in every later bucket.
        assert!(snap.contains("le=\"0.1\"} 1"));
        reset();
        assert_eq!(counter_value("deta_test_frames_total", "a->b"), 0);
    }

    #[test]
    fn labels_escape_backslash_quote_and_newline_only() {
        assert_eq!(
            label_part("a\\b\"c\nd\te\r\u{1}", ""),
            "{label=\"a\\\\b\\\"c\\nd\te\r\u{1}\"}"
        );
        assert_eq!(
            label_part("party-0->agg-1", "le=\"1\""),
            "{label=\"party-0->agg-1\",le=\"1\"}"
        );
        assert_eq!(label_part("", ""), "");
    }

    #[test]
    fn quantile_interpolation_is_pinned() {
        // Ten observations, all in the (0.1, 1.0] decade bucket: the
        // estimate interpolates linearly between the bucket bounds.
        let mut buckets = [0u64; BUCKET_BOUNDS.len() + 1];
        buckets[6] = 10; // bounds[6] == 1.0, lower bound 0.1
        let q = |p: f64| quantile_estimate(&buckets, 10, p);
        assert!((q(0.50) - 0.55).abs() < 1e-12);
        assert!((q(0.95) - 0.955).abs() < 1e-12);
        assert!((q(0.99) - 0.991).abs() < 1e-12);

        // Split across the first and +Inf buckets: the low quantile
        // interpolates from 0, the high one clamps to the last finite
        // bound (the +Inf bucket has no upper edge).
        let mut split = [0u64; BUCKET_BOUNDS.len() + 1];
        split[0] = 2;
        split[BUCKET_BOUNDS.len()] = 2;
        assert!((quantile_estimate(&split, 4, 0.50) - 1e-6).abs() < 1e-18);
        assert_eq!(quantile_estimate(&split, 4, 0.99), 1e7);

        // Empty histograms report 0.
        assert_eq!(
            quantile_estimate(&[0; BUCKET_BOUNDS.len() + 1], 0, 0.5),
            0.0
        );
    }

    #[test]
    fn snapshot_carries_quantile_lines() {
        let _serial = test_guard();
        crate::enable();
        reset();
        for _ in 0..10 {
            histogram_observe("deta_test_latency_seconds", "agg-0", 0.5);
        }
        let snap = prometheus_snapshot();
        assert!(snap.contains("deta_test_latency_seconds{label=\"agg-0\",quantile=\"0.5\"} 0.55"));
        assert!(snap.contains("quantile=\"0.95\"}"));
        assert!(snap.contains("quantile=\"0.99\"}"));
        reset();
    }

    #[test]
    fn observations_land_in_decade_buckets() {
        let _serial = test_guard();
        crate::enable();
        reset();
        histogram_observe("deta_test_bytes", "", 1234.0);
        let snap = prometheus_snapshot();
        assert!(snap.contains("deta_test_bytes_bucket{le=\"1000\"} 0"));
        assert!(snap.contains("deta_test_bytes_bucket{le=\"10000\"} 1"));
        reset();
    }
}
