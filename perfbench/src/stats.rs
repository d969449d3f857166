//! Order statistics for the report: medians, and a tail percentile that the
//! sample actually supports.

/// Percentiles tried for the tail, highest first, in per mille so ranks
/// are exact integer arithmetic.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];
/// A tail percentile is reported only with at least this many samples
/// beyond it; a p99 over 200 samples would be two data points.
pub const MIN_BEYOND: usize = 10;

/// Median and supported tail of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// The highest ladder percentile with at least [`MIN_BEYOND`] samples
    /// beyond it, or 100 (the maximum) when the sample is too small for
    /// any of them.
    pub tail_pct: f64,
}

/// Median of `values` (mean of the middle two for an even count), `None`
/// for an empty slice. NaNs are a caller bug and sort last.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank rank (1-based) of the `per_mille` quantile in a sample of
/// `n`.
fn rank(per_mille: usize, n: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The tail percentile a sample of `n` supports: the highest of
/// [`TAIL_LADDER`] with at least [`MIN_BEYOND`] samples beyond it, or 100
/// (the maximum).
pub fn tail_pct(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .find(|&&pm| n - rank(pm, n) >= MIN_BEYOND)
        .map_or(100.0, |&pm| pm as f64 / 10.0)
}

/// Median plus the value at [`tail_pct`] (nearest rank).
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let p50 = median(values)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let tail_pct = tail_pct(n);
    let tail = v[rank((tail_pct * 10.0).round() as usize, n) - 1];
    Some(Summary {
        n,
        p50,
        tail,
        tail_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.n, s.tail_pct, s.tail), (1000, 99.0, 990.0));
        // p99.9 of 10,000 leaves exactly 10 beyond.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(summarize(&v).unwrap().tail_pct, 99.9);
        // 288 rounds: p99 leaves 2, p95 leaves 14.
        let v: Vec<f64> = (1..=288).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.tail_pct, s.tail), (95.0, 274.0));
        assert!(s.n - rank(950, s.n) >= MIN_BEYOND);
    }

    #[test]
    fn small_samples_fall_back_to_the_maximum() {
        let s = summarize(&[5.0, 9.0, 7.0]).unwrap();
        assert_eq!((s.p50, s.tail, s.tail_pct, s.n), (7.0, 9.0, 100.0, 3));
        // Twenty samples support the median as a tail, nineteen do not.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(summarize(&v).unwrap().tail_pct, 50.0);
        assert_eq!(summarize(&v[..19]).unwrap().tail_pct, 100.0);
    }

    #[test]
    fn order_does_not_matter() {
        let mut v: Vec<f64> = (0..500).map(|i| ((i * 7919) % 500) as f64).collect();
        let a = summarize(&v).unwrap();
        v.sort_by(f64::total_cmp);
        assert_eq!(summarize(&v).unwrap(), a);
    }
}
