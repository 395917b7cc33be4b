//! Discretization of continuous features.
//!
//! The paper's feature-analysis machinery (information-gain ranking for
//! Tables 2 and 5, and the CFS subset selection of §4.1/§4.2) is defined
//! over *nominal* attributes, as in Weka. Weka discretizes continuous
//! attributes first (Fayyad–Irani MDL by default; equal-frequency as a
//! robust fallback). [`Discretizer`] bins by equal frequency: it is
//! parameter-light and behaves well on the heavy-tailed transport metrics
//! this dataset is full of.

/// A fitted discretizer: maps a continuous value to a bin index in
/// `0..n_bins()`.
#[derive(Debug, Clone)]
pub struct Discretizer {
    /// Ordered interior cut points; value `v` maps to the count of cuts
    /// `<= v`.
    cuts: Vec<f64>,
}

impl Discretizer {
    /// Fit an equal-frequency discretizer with `bins` bins to training
    /// `data`: each bin holds ~the same number of training observations,
    /// which is robust to heavy tails.
    ///
    /// Degenerate inputs (empty data, constant data, or `bins < 2`)
    /// produce a single-bin discretizer, which downstream code treats as a
    /// zero-information feature.
    pub fn fit(data: &[f64], bins: usize) -> Self {
        let mut finite: Vec<f64> = data.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return Discretizer { cuts: Vec::new() };
        }
        finite.sort_by(f64::total_cmp);
        let cuts = if bins < 2 {
            Vec::new()
        } else {
            let mut cuts: Vec<f64> = Vec::new();
            for i in 1..bins {
                let q = i as f64 / bins as f64;
                let c = crate::quantiles::quantile_sorted(&finite, q);
                // A cut at or below the sample minimum would create an
                // empty bottom bin (constant-data degenerate case).
                if c > finite[0] && cuts.last().map_or(true, |&last| c > last) {
                    cuts.push(c);
                }
            }
            cuts
        };
        Discretizer { cuts }
    }

    /// Map a value to its bin index. NaN maps to bin 0.
    pub fn bin(&self, v: f64) -> usize {
        if !v.is_finite() {
            return 0;
        }
        self.cuts.partition_point(|&c| c <= v)
    }

    /// Number of bins this discretizer produces.
    pub fn n_bins(&self) -> usize {
        self.cuts.len() + 1
    }

    /// Discretize a whole column.
    pub fn transform(&self, data: &[f64]) -> Vec<usize> {
        data.iter().map(|&v| self.bin(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_frequency_balances_counts() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let d = Discretizer::fit(&data, 4);
        let binned = d.transform(&data);
        let mut counts = [0usize; 4];
        for b in binned {
            counts[b] += 1;
        }
        for &c in &counts {
            assert!((20..=30).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn constant_data_yields_single_bin() {
        let d = Discretizer::fit(&[3.0; 50], 8);
        assert_eq!(d.n_bins(), 1);
        assert_eq!(d.bin(3.0), 0);
        assert_eq!(d.bin(-10.0), 0);
    }

    #[test]
    fn empty_data_yields_single_bin() {
        let d = Discretizer::fit(&[], 8);
        assert_eq!(d.n_bins(), 1);
    }

    #[test]
    fn nan_maps_to_bin_zero() {
        let d = Discretizer::fit(&[1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(d.bin(f64::NAN), 0);
    }

    proptest! {
        #[test]
        fn prop_bin_is_monotone_in_value(
            data in proptest::collection::vec(-1e4f64..1e4, 2..100),
            v1 in -1e4f64..1e4,
            v2 in -1e4f64..1e4,
            bins in 2usize..10,
        ) {
            let d = Discretizer::fit(&data, bins);
            let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
            prop_assert!(d.bin(lo) <= d.bin(hi));
        }

        #[test]
        fn prop_bin_index_in_range(
            data in proptest::collection::vec(-1e4f64..1e4, 2..100),
            v in -1e5f64..1e5,
            bins in 2usize..10,
        ) {
            let d = Discretizer::fit(&data, bins);
            prop_assert!(d.bin(v) < d.n_bins());
        }
    }
}
