//! Order statistics over latency samples.

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it (rank `ceil(p/100 * n)`, 1-based). `None`
/// for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the nearest-rank `p`-th percentile's rank: how
/// many observations the percentile rests on beyond itself.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// Median of unsorted values (nearest-rank, so always an observed value).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A latency sample set for one op kind, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, ms: f64) {
        self.values.push(ms);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Percentile `p` of the samples, `0.0` when there are none.
    pub fn pct(&self, p: f64) -> f64 {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, p).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        let five = [1.0, 2.0, 3.0, 4.0, 5.0];
        // rank ceil(0.5 * 5) = 3
        assert_eq!(percentile(&five, 50.0), Some(3.0));
        // rank ceil(0.95 * 5) = 5
        assert_eq!(percentile(&five, 95.0), Some(5.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert_eq!(samples_beyond(100, 50.0), 50);
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn median_is_an_observed_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.0));
        assert_eq!(median(&[5.0]), Some(5.0));
        assert_eq!(median(&[]), None);
    }
}
