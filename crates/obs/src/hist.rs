//! Latency histograms: a log-bucketed [`Histogram`] (2 buckets per
//! octave, nanosecond domain) with percentile summaries, plus a
//! lock-free [`AtomicHistogram`] for concurrent recording on serving
//! paths.
//!
//! The plain `Histogram` is the single-owner/merge type (simulation
//! loops, snapshot assembly); `AtomicHistogram` is the shared type the
//! registry hands out, recorded into from many threads with relaxed
//! atomics and snapshotted into a `Histogram` for summarisation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BUCKETS_PER_OCTAVE: usize = 2;
/// Covers 1ns .. ~2^60ns with 2 buckets/octave.
const NUM_BUCKETS: usize = 60 * BUCKETS_PER_OCTAVE + 1;

/// Log-bucketed histogram over `u64` values (nanoseconds by convention).
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            return 0;
        }
        let octave = 63 - v.leading_zeros() as usize;
        // Sub-bucket: is v in the upper half of the octave?
        let half = if octave > 0 && v >= (1u64 << octave) + (1u64 << (octave - 1)) {
            1
        } else {
            0
        };
        (octave * BUCKETS_PER_OCTAVE + half).min(NUM_BUCKETS - 1)
    }

    fn bucket_value(i: usize) -> u64 {
        let octave = i / BUCKETS_PER_OCTAVE;
        let half = i % BUCKETS_PER_OCTAVE;
        let base = 1u64 << octave;
        // Representative value: midpoint of the half-octave.
        base + (base >> 1) * half as u64 + (base >> 2)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        // lint: allow(panic, bucket_index clamps to NUM_BUCKETS - 1)
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate percentile (`p` in 0..=100), exact at bucket
    /// resolution (±~30%).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp the representative value into observed range.
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Snapshot summary.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean_ns: self.mean(),
            p50_ns: self.percentile(50.0),
            p90_ns: self.percentile(90.0),
            p99_ns: self.percentile(99.0),
            min_ns: if self.count == 0 { 0 } else { self.min },
            max_ns: self.max,
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: u64,
    /// Mean (ns).
    pub mean_ns: f64,
    /// Median (ns, bucket resolution).
    pub p50_ns: u64,
    /// 90th percentile (ns).
    pub p90_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
    /// Minimum (ns).
    pub min_ns: u64,
    /// Maximum (ns).
    pub max_ns: u64,
}

/// Lock-free histogram shared between recording threads: the same
/// buckets as [`Histogram`], each an [`AtomicU64`] bumped with relaxed
/// ordering. `min`/`max` use `fetch_min`/`fetch_max`, so a
/// [`snapshot`](AtomicHistogram::snapshot) taken while writers are
/// active is a consistent-enough point-in-time view (each field
/// individually exact, fields mutually racy by at most in-flight
/// records).
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, AtomicU64::default);
        AtomicHistogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (lock-free, callable from any thread).
    pub fn record(&self, v: u64) {
        if let Some(b) = self.buckets.get(Histogram::bucket_index(v)) {
            b.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating like `Histogram::record`, so an atomic snapshot
        // and a plain histogram fed the same values agree exactly.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state into a plain [`Histogram`] for merging
    /// and summarisation.
    pub fn snapshot(&self) -> Histogram {
        Histogram {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_ns, 0);
        assert_eq!(s.mean_ns, 0.0);
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::new();
        h.record(1000);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.min_ns, 1000);
        assert_eq!(s.max_ns, 1000);
        assert_eq!(s.p50_ns, 1000, "clamped to observed range");
    }

    #[test]
    fn percentiles_ordered_and_bounded() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns);
        assert!(s.p50_ns >= s.min_ns && s.p99_ns <= s.max_ns);
        // p50 within a factor ~2 of the true median (bucket resolution).
        assert!(s.p50_ns >= 2_500 && s.p50_ns <= 10_000, "p50={}", s.p50_ns);
        assert!((s.mean_ns - 5000.5).abs() < 1.0);
    }

    #[test]
    fn merge_equals_combined() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [10u64, 100, 1000, 5, 7] {
            a.record(v);
            all.record(v);
        }
        for v in [20u64, 200, 2000] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.summary(), all.summary());
    }

    #[test]
    fn zero_and_huge_values_dont_panic() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.summary().min_ns, 0);
    }

    #[test]
    fn bucket_index_monotone() {
        let mut last = 0;
        for shift in 0..60 {
            let idx = Histogram::bucket_index(1u64 << shift);
            assert!(idx >= last);
            last = idx;
        }
    }

    #[test]
    fn atomic_matches_plain() {
        let a = AtomicHistogram::new();
        let mut p = Histogram::new();
        for v in [0u64, 3, 99, 1_000_000, u64::MAX] {
            a.record(v);
            p.record(v);
        }
        assert_eq!(a.snapshot().summary(), p.summary());
    }

    #[test]
    fn atomic_empty_snapshot_is_empty() {
        let a = AtomicHistogram::new();
        let s = a.snapshot().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.min_ns, 0);
        assert_eq!(s.max_ns, 0);
    }
}
