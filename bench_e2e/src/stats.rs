//! Order statistics for small samples.
//!
//! A workload's timed iterations number in the single digits, so the
//! only statistics reported are the median, the quartiles, the extremes
//! and `n` — no percentile past the quartiles has enough samples behind
//! it to mean anything, and none is printed.

/// Five-number summary plus the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median — the spread the
    /// benchmark's acceptance rule is written in.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle samples for an even count); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartile cut points by the *exclusive* method, i.e. exactly what
/// Python's `statistics.quantiles(values, n=4)` returns, so a spread
/// computed here equals the one an external checker computes from the
/// same values. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Summarizes `values`; `None` when empty. With a single sample every
/// statistic is that sample.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let v = sorted(values);
    let (&min, &max) = (v.first()?, v.last()?);
    let [q1, _, q3] = quartiles(&v).unwrap_or([min; 3]);
    Some(Summary {
        n: v.len(),
        min,
        q1,
        median: median(&v),
        q3,
        max,
    })
}

/// Nearest-rank percentile (`p` in `0..=100`) — used only where the
/// sample is rounds × iterations, i.e. large enough for a p90.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7], n=4) == [2.0, 4.0, 6.0]
        assert_eq!(
            quartiles(&[7.0, 1.0, 5.0, 3.0, 2.0, 6.0, 4.0]),
            Some([2.0, 4.0, 6.0])
        );
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_and_spread() {
        let s = summarize(&[10.0, 12.0, 11.0, 13.0, 9.0, 8.0, 14.0]).unwrap();
        assert_eq!((s.n, s.min, s.max, s.median), (7, 8.0, 14.0, 11.0));
        assert_eq!((s.q1, s.q3), (9.0, 13.0));
        assert!((s.spread() - 4.0 / 11.0).abs() < 1e-12);
        let one = summarize(&[2.5]).unwrap();
        assert_eq!(
            (one.q1, one.median, one.q3, one.spread()),
            (2.5, 2.5, 2.5, 0.0)
        );
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }
}
