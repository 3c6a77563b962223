//! Order statistics for the benchmark's own numbers.

/// Five-number view of a sample of host-time measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Inter-quartile spread as a share of the median — the steadiness
    /// figure the benchmark's bounds are set against.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// The value at 1-based fractional rank `pos`, interpolating linearly
/// between neighbours and clamping to the sample's ends.
fn at_rank(sorted: &[f64], pos: f64) -> f64 {
    let n = sorted.len();
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + frac * (sorted[hi - 1] - sorted[lo - 1])
}

/// Median and quartiles by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method: rank
/// `q·(n+1)`), so the spread printed here is the spread the acceptance
/// procedure computes from the same values.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "empty sample");
    let s = sorted(values);
    let n = s.len();
    let rank = |q: f64| at_rank(&s, q * (n as f64 + 1.0));
    Summary {
        n,
        min: s[0],
        q1: rank(0.25),
        median: rank(0.5),
        q3: rank(0.75),
        max: s[n - 1],
    }
}

/// Exact nearest-rank quantile of an ascending sample: the smallest
/// element with at least a share `q` of the sample at or below it. No
/// interpolation and no bucketing, so with n samples exactly
/// `n - ceil(q·n)` of them lie beyond the returned value.
///
/// # Panics
///
/// Panics on an empty sample or `q` outside `(0, 1]`.
pub fn exact_quantile(ascending: &[f64], q: f64) -> f64 {
    assert!(!ascending.is_empty(), "empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let rank = (q * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

/// Sorts a latency log ascending for [`exact_quantile`].
pub fn ascending(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    sorted(&values.into_iter().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // Even count: the median is the mean of the middle pair.
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
    }

    #[test]
    fn quartiles_clamp_on_tiny_samples() {
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; the
        // benchmark clamps to the observed range instead of extrapolating.
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 1.5, 2.0));
    }

    #[test]
    fn exact_quantile_is_nearest_rank() {
        let v = ascending((1..=1000).rev().map(f64::from));
        assert_eq!(exact_quantile(&v, 0.5), 500.0);
        assert_eq!(exact_quantile(&v, 0.999), 999.0);
        assert_eq!(exact_quantile(&v, 1.0), 1000.0);
        assert_eq!(exact_quantile(&v, 0.0001), 1.0);
        // Bimodal log: the quantile is an observed value, never a blend.
        let v = ascending([0.12, 0.12, 0.12, 2.4]);
        assert_eq!(exact_quantile(&v, 0.75), 0.12);
        assert_eq!(exact_quantile(&v, 0.76), 2.4);
    }
}
