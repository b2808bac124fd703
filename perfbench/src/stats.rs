//! Order statistics the benchmark reports.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it, so a short run
//! never claims a p99 it cannot support.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A tail percentile as the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, in `(0, 1)`.
    pub quantile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The requested percentile `q` of `values`, lowered when needed so that at
/// least [`TAIL_SAMPLES`] samples lie beyond the reported one. Uses the
/// nearest-rank definition on the sorted samples. `None` when there are too
/// few samples for any percentile with that many beyond it.
pub fn tail(values: &[f64], q: f64) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest rank of q, capped so that n - (index + 1) >= TAIL_SAMPLES.
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let index = wanted.min(n - 1 - TAIL_SAMPLES);
    Some(Tail { quantile: (index + 1) as f64 / n as f64, value: sorted[index], samples: n })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_reports_p99_when_the_sample_supports_it() {
        let values: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&values, 0.99).unwrap();
        assert_eq!(t.value, 1980.0);
        assert!((t.quantile - 0.99).abs() < 1e-12);
        assert_eq!(t.samples, 2000);
        assert!(values.iter().filter(|&&v| v > t.value).count() >= TAIL_SAMPLES);
    }

    #[test]
    fn tail_lowers_the_percentile_to_keep_ten_samples_beyond() {
        // 200 samples cannot support p99 (only 2 beyond it): the highest
        // percentile with 10 samples beyond is the 190th value, p95.
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&values, 0.99).unwrap();
        assert_eq!(t.value, 190.0);
        assert!((t.quantile - 0.95).abs() < 1e-12);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), TAIL_SAMPLES);
        // Order of the input does not matter.
        let mut shuffled = values.clone();
        shuffled.reverse();
        assert_eq!(tail(&shuffled, 0.99), Some(t));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&values, 0.99), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven, 0.99).unwrap().value, 1.0);
    }
}
