//! Order statistics shared by every workload.

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of a sample that still has [`TAIL_BEYOND`]
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Share of the samples at or below the rank, in percent.
    pub percentile: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// The tail rule: sort ascending and take the sample with exactly
/// [`TAIL_BEYOND`] samples ranked after it. `None` when there are too few
/// samples for any percentile to qualify.
pub fn tail(v: &[f64]) -> Option<Tail> {
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = n - 1 - TAIL_BEYOND;
    Some(Tail {
        value: s[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        samples: n,
    })
}

/// Share of requests that met `limit`. A request that did not complete
/// (`None`: shed, rejected or failed) counts as a miss.
pub fn slo_frac(latencies: &[Option<f64>], limit: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    let met = latencies
        .iter()
        .filter(|l| l.is_some_and(|l| l <= limit))
        .count();
    met as f64 / latencies.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1..=100: the value with exactly ten samples above it is 90, the
        // 90th percentile.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&v).expect("100 samples qualify");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // 96 samples: rank 85 (0-based), the 89.58th percentile.
        let v: Vec<f64> = (0..96).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 85.0);
        assert!((t.percentile - 100.0 * 86.0 / 96.0).abs() < 1e-12);

        // Eleven samples is the smallest qualifying sample: the minimum.
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().value, 0.0);
        assert_eq!(tail(&v[..10]), None);
    }

    #[test]
    fn slo_counts_failures_and_sheds_as_misses() {
        let lat = [Some(1.0), Some(2.0), None, Some(0.5), None];
        assert_eq!(slo_frac(&lat, 1.0), 2.0 / 5.0);
        assert_eq!(slo_frac(&lat, 10.0), 3.0 / 5.0);
        assert_eq!(slo_frac(&[None, None], 10.0), 0.0);
        assert_eq!(slo_frac(&[], 10.0), 0.0);
    }
}
