//! Percentiles under the sample-count rule: a percentile is reported only
//! when at least ten samples lie beyond it, and under forty samples the
//! median stands alone. Every summary carries its sample count.

/// A latency distribution reduced to what its sample count supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest of p75/p90/p99 with at least ten samples beyond it, as
    /// `(percentile, value)`; `None` under forty samples.
    pub tail: Option<(u32, f64)>,
}

/// Nearest-rank percentile of an ascending slice (`q` in `0..=100`).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Summarize `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let p50 = median(samples)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Ten samples beyond percentile q need n * (100 - q) / 100 >= 10.
    let tail = [99u32, 90, 75]
        .into_iter()
        .find(|&q| n * (100 - q as usize) >= 1000)
        .map(|q| (q, nearest_rank(&sorted, q as f64)));
    Some(Summary { n, p50, tail })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_alone_under_forty_samples() {
        let s = summarize(&ramp(39)).unwrap();
        assert_eq!((s.n, s.p50, s.tail), (39, 20.0, None));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(summarize(&ramp(40)).unwrap().tail, Some((75, 30.0)));
        assert_eq!(summarize(&ramp(999)).unwrap().tail.unwrap().0, 90);
        let s = summarize(&ramp(1000)).unwrap();
        assert_eq!(s.tail, Some((99, 990.0)));
        assert_eq!(s.n, 1000);
    }

    #[test]
    fn median_of_even_count_is_the_middle_mean() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert!(summarize(&[]).is_none());
    }
}
