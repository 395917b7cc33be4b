//! Order statistics for timing samples.

/// Percentiles a tail is reported at, lowest first.
const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Median of `xs` (mean of the middle pair for an even count); NaN when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads computed here agree with the ones a reader recomputes from
/// the printed values. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Sub-buckets per power of two: bucket width is under 0.4% of the
/// values it holds.
const SUB_BUCKETS: usize = 256;

/// A log-linear histogram of durations in nanoseconds. Memory stays
/// constant however many calls a run times (a run's peak RSS is a
/// metric), and percentiles interpolate within a bucket by rank.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; 64 * SUB_BUCKETS],
            total: 0,
        }
    }

    /// Bucket of `ns`, and the bucket's lower edge and width.
    fn bucket(ns: u64) -> usize {
        let ns = ns.max(1);
        let exp = 63 - ns.leading_zeros() as usize;
        let frac = if exp >= 8 {
            (ns >> (exp - 8)) as usize - SUB_BUCKETS
        } else {
            ((ns << (8 - exp)) as usize) - SUB_BUCKETS
        };
        exp * SUB_BUCKETS + frac
    }

    fn edges(bucket: usize) -> (f64, f64) {
        let exp = (bucket / SUB_BUCKETS) as i32;
        let frac = (bucket % SUB_BUCKETS) as f64;
        let width = 2f64.powi(exp) / SUB_BUCKETS as f64;
        (2f64.powi(exp) + frac * width, width)
    }

    /// Count one duration.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Durations counted.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `p`-th percentile (0–100], in ns; NaN when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0);
        let mut below = 0u64;
        for (bucket, &n) in self.counts.iter().enumerate() {
            if n > 0 && (below + n) as f64 >= rank {
                let (low, width) = Self::edges(bucket);
                return low + width * (rank - below as f64) / n as f64;
            }
            below += n;
        }
        f64::NAN
    }
}

/// The highest percentile of the reporting ladder (p50, p90, p99,
/// p99.9) that leaves at least ten of `n` samples beyond it, or `None`
/// when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Integer per-mille arithmetic: `1.0 - 0.9` is not exactly 0.1.
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as u64 * (1000 - (p * 10.0) as u64) >= 10_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn histogram_percentiles_are_within_a_bucket_of_exact() {
        let mut h = Histogram::new();
        assert!(h.percentile(50.0).is_nan());
        // 1 µs .. 10 ms, spread over many powers of two.
        let xs: Vec<u64> = (1..=10_000u64).map(|i| i * i * 100).collect();
        for &x in xs.iter().rev() {
            h.record(x);
        }
        assert_eq!(h.count(), 10_000);
        for (p, exact) in [(50.0, xs[4_999]), (99.0, xs[9_899]), (100.0, xs[9_999])] {
            let got = h.percentile(p);
            assert!(
                (got - exact as f64).abs() <= exact as f64 / 200.0,
                "p{p}: {got} vs {exact}"
            );
        }
        let mut small = Histogram::new();
        for ns in [0, 1, 3, 200] {
            small.record(ns);
        }
        assert!(small.percentile(100.0) >= 200.0 && small.percentile(100.0) < 202.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(4_000_000), Some(99.9));
    }
}
