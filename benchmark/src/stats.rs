//! Order statistics the benchmark reports: medians over segments, and
//! percentiles that are only named when the sample supports them.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// Median of `values` (mean of the middle two when the count is even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank percentile (`0.0 < p <= 1.0`) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile a sample of `n` supports: the one that still
/// has [`TAIL_SUPPORT`] samples beyond it. `None` when even the median
/// of the sample would not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    if n < 2 * TAIL_SUPPORT {
        return None;
    }
    Some(1.0 - TAIL_SUPPORT as f64 / n as f64)
}

/// A tail reading together with what it is a reading of.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tail {
    /// The value at `percentile` (0 for an empty sample).
    pub value: u64,
    /// `wanted`; or the highest supported percentile when the sample is
    /// too small for `wanted`; or 1.0 — the value is then simply the
    /// largest sample — when it is too small to support any.
    pub percentile: f64,
}

/// The `wanted` percentile of an ascending slice, lowered to the highest
/// percentile the sample supports when `wanted` has fewer than
/// [`TAIL_SUPPORT`] samples beyond it.
pub fn tail(sorted: &[u64], wanted: f64) -> Tail {
    let percentile = highest_supported_percentile(sorted.len()).map_or(1.0, |p| p.min(wanted));
    percentile_sorted(sorted, percentile)
        .map_or(Tail::default(), |value| Tail { value, percentile })
}

/// Sorts in place and returns the median as `f64` (0 for an empty
/// sample, which only metrics of absent operations produce).
pub fn p50(samples: &mut [u64]) -> f64 {
    samples.sort_unstable();
    percentile_sorted(samples, 0.5).unwrap_or(0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // One burst among nine segments does not move the median.
        let mut segs = vec![100.0; 8];
        segs.push(10.0);
        assert_eq!(median(&segs), Some(100.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), Some(50));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        assert_eq!(percentile_sorted(&[7], 0.99), Some(7));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1,000 samples: exactly ten lie beyond p99, so p99 stands.
        let v: Vec<u64> = (1..=1000).collect();
        let t = tail(&v, 0.99);
        assert_eq!((t.percentile, t.value), (0.99, 990));
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_SUPPORT);

        // 200 samples cannot support p99; the reading drops to p95.
        let v: Vec<u64> = (1..=200).collect();
        let t = tail(&v, 0.99);
        assert_eq!(t.percentile, 0.95);
        assert_eq!(t.value, 190);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_SUPPORT);

        // Too few samples for any tail at all: the maximum, labelled so.
        let t = tail(&(1..=19).collect::<Vec<u64>>(), 0.99);
        assert_eq!((t.percentile, t.value), (1.0, 19));
        assert_eq!(tail(&[], 0.99), Tail::default());
        assert_eq!(highest_supported_percentile(20), Some(0.5));
    }

    #[test]
    fn p50_of_nothing_is_zero() {
        assert_eq!(p50(&mut []), 0.0);
        assert_eq!(p50(&mut [9, 1, 5]), 5.0);
    }
}
