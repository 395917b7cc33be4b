//! Fixed-bin histograms.
//!
//! Used by the reproduction harness to render textual versions of the
//! paper's distribution figures, and by [`crate::info`] when estimating
//! entropies of continuous variables.

/// A histogram over `[lo, hi)` with equally wide bins.
///
/// Values below `lo` land in the first bin, values at or above `hi` in the
/// last — the clamping convention keeps every finite observation counted,
/// which matters when summarizing heavy-tailed metrics like chunk sizes.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
    non_finite: u64,
}

impl Histogram {
    /// Create a histogram spanning `[lo, hi)` with `bins` bins.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(hi > lo, "hi must exceed lo");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
            non_finite: 0,
        }
    }

    /// Build a histogram from a sample, sizing the range to the sample's
    /// min/max. Returns `None` if the sample has no finite values.
    pub fn from_sample(sample: &[f64], bins: usize) -> Option<Self> {
        let finite: Vec<f64> = sample.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return None;
        }
        let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        // Degenerate constant sample: widen the range so `new` is happy.
        let (lo, hi) = if hi > lo { (lo, hi) } else { (lo, lo + 1.0) };
        let mut h = Histogram::new(lo, hi, bins);
        for v in finite {
            h.push(v);
        }
        Some(h)
    }

    /// Record one observation.
    ///
    /// Non-finite values never enter a bin (naively, `NaN.max(0.0)`
    /// inside [`bin_index`](Self::bin_index) would silently drop them
    /// into bin 0, inflating the left tail); they are tallied separately
    /// in [`non_finite`](Self::non_finite) so a polluted sample is
    /// detectable rather than invisible.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        let idx = self.bin_index(x);
        self.counts[idx] += 1;
        self.total += 1;
    }

    fn bin_index(&self, x: f64) -> usize {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let raw = ((x - self.lo) / width).floor();
        (raw.max(0.0) as usize).min(self.counts.len() - 1)
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of recorded (finite) observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of non-finite samples pushed at this histogram. These are
    /// excluded from [`total`](Self::total), the bin counts, and the
    /// fractions — they only show up here.
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Bin fractions (counts / total); all-zero when empty.
    pub fn fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// A one-line ASCII sparkline of the distribution, for harness output.
    pub fn sparkline(&self) -> String {
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.counts.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return " ".repeat(self.counts.len());
        }
        self.counts
            .iter()
            .map(|&c| {
                let level = (c as f64 / max as f64 * (LEVELS.len() - 1) as f64).round() as usize;
                LEVELS[level]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn values_fall_in_expected_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(0.0);
        h.push(0.5);
        h.push(9.99);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn out_of_range_values_clamp_to_edge_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.push(-100.0);
        h.push(100.0);
        h.push(10.0); // == hi goes to last bin
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[4], 2);
    }

    #[test]
    fn nan_is_ignored() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(f64::NAN);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn non_finite_samples_are_counted_but_never_binned() {
        // Regression: NaN must not land in bin 0 (NaN.max(0.0) == 0.0
        // would have put it there) and must stay out of every aggregate
        // except the dedicated non_finite tally.
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.push(f64::NAN);
        h.push(f64::INFINITY);
        h.push(f64::NEG_INFINITY);
        h.push(2.0);
        assert_eq!(h.non_finite(), 3);
        assert_eq!(h.total(), 1);
        assert_eq!(h.counts()[0], 0, "NaN leaked into bin 0");
        assert_eq!(h.counts().iter().sum::<u64>(), 1);
        let sum: f64 = h.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_sample_handles_constant_data() {
        let h = Histogram::from_sample(&[5.0, 5.0, 5.0], 4).unwrap();
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts().iter().sum::<u64>(), 3);
    }

    #[test]
    fn from_sample_of_empty_is_none() {
        assert!(Histogram::from_sample(&[], 4).is_none());
        assert!(Histogram::from_sample(&[f64::NAN], 4).is_none());
    }

    #[test]
    fn fractions_sum_to_one() {
        let h = Histogram::from_sample(&[1.0, 2.0, 3.0, 4.0], 3).unwrap();
        let sum: f64 = h.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn sparkline_has_one_char_per_bin() {
        let h = Histogram::from_sample(&[1.0, 2.0, 2.0, 3.0], 4).unwrap();
        assert_eq!(h.sparkline().chars().count(), 4);
    }

    proptest! {
        #[test]
        fn prop_every_finite_value_is_counted(
            data in proptest::collection::vec(-1e6f64..1e6, 1..200),
            bins in 1usize..32,
        ) {
            let h = Histogram::from_sample(&data, bins).unwrap();
            prop_assert_eq!(h.total() as usize, data.len());
            prop_assert_eq!(h.counts().iter().sum::<u64>() as usize, data.len());
        }
    }
}
