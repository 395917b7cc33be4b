//! # vqoe-stats
//!
//! Numerical foundations for the vqoe workspace: descriptive statistics,
//! quantiles, empirical distribution functions, discretization and
//! information-theoretic measures.
//!
//! Every other crate in the reproduction of *Measuring Video QoE from
//! Encrypted Traffic* (IMC 2016) builds on this one:
//!
//! * `vqoe-features` uses [`mean`], [`population_std`] and
//!   [`try_quantile_sorted`] (exact) and [`OnlineMoments`] +
//!   [`QuantileSketch`] (streaming) to expand raw per-chunk metrics into
//!   the paper's summary-statistic feature sets (min / max / mean /
//!   std-dev / percentiles, §4.1 and §4.2).
//! * `vqoe-ml` uses [`info`] (entropy, information gain, symmetrical
//!   uncertainty) for the information-gain rankings of Tables 2 and 5 and
//!   for the CFS merit function, and [`binning`] to discretize continuous
//!   features first.
//! * `vqoe-changedet` uses [`Ecdf`] to reproduce the CDF separation plot of
//!   Figure 4, and [`moments`] for the σ(CUSUM) session score.
//!
//! The crate is deliberately dependency-light and fully deterministic: all
//! functions are pure, operate on slices, and make their NaN policy explicit
//! (see [`quantile`] and [`Summary::from_slice`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod ecdf;
pub mod info;
pub mod moments;
pub mod quantiles;
pub mod sketch;

pub use binning::{BinningStrategy, Discretizer};
pub use ecdf::Ecdf;
pub use info::{conditional_entropy, entropy_of_labels, info_gain, symmetrical_uncertainty};
pub use moments::{mean, population_std, variance, OnlineMoments};
pub use quantiles::{
    median, quantile, quantile_sorted, quantiles, try_quantile, try_quantile_sorted, try_quantiles,
};
pub use sketch::{QuantileSketch, SKETCH_CAPACITY};

/// A compact descriptive summary of a numeric sample.
///
/// This is the unit from which the paper's feature-construction step builds
/// its expanded feature sets: for every raw metric (RTT, BDP, bytes in
/// flight, chunk size, ...) §4.1 derives *max, min, mean, standard deviation
/// and the 25th/50th/75th percentiles*, and §4.2 extends the percentile list
/// further. `Summary` computes all of those in one pass over the data plus
/// one sort.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    /// Number of (finite) observations summarized.
    pub count: usize,
    /// Smallest observation; `0.0` for an empty sample.
    pub min: f64,
    /// Largest observation; `0.0` for an empty sample.
    pub max: f64,
    /// Arithmetic mean; `0.0` for an empty sample.
    pub mean: f64,
    /// Population standard deviation; `0.0` for samples of size < 2.
    pub std_dev: f64,
    /// 25th percentile (linear interpolation).
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile (linear interpolation).
    pub p75: f64,
}

impl Summary {
    /// Summarize a slice of observations.
    ///
    /// Non-finite values (NaN, ±∞) are ignored; an empty (or all-non-finite)
    /// slice yields the all-zero summary with `count == 0`. This mirrors how
    /// the paper's pipeline treats sessions with missing transport
    /// annotations: the feature is present but carries no information,
    /// rather than poisoning downstream models with NaN.
    pub fn from_slice(data: &[f64]) -> Self {
        let mut finite: Vec<f64> = data.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return Summary {
                count: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                std_dev: 0.0,
                p25: 0.0,
                p50: 0.0,
                p75: 0.0,
            };
        }
        finite.sort_by(f64::total_cmp);
        let count = finite.len();
        let mean = moments::mean(&finite);
        let std_dev = moments::population_std(&finite);
        Summary {
            count,
            min: finite[0],
            max: finite[count - 1],
            mean,
            std_dev,
            p25: quantiles::quantile_sorted(&finite, 0.25),
            p50: quantiles::quantile_sorted(&finite, 0.50),
            p75: quantiles::quantile_sorted(&finite, 0.75),
        }
    }

    /// The seven canonical summary statistics of §4.1, in the order
    /// `[min, max, mean, std, p25, p50, p75]`.
    pub fn as_feature_row(&self) -> [f64; 7] {
        [
            self.min,
            self.max,
            self.mean,
            self.std_dev,
            self.p25,
            self.p50,
            self.p75,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_slice_is_zeroed() {
        let s = Summary::from_slice(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn summary_ignores_non_finite() {
        let s = Summary::from_slice(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.p50, 4.5);
    }

    #[test]
    fn feature_row_order_is_stable() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0]);
        let row = s.as_feature_row();
        assert_eq!(row[0], s.min);
        assert_eq!(row[1], s.max);
        assert_eq!(row[2], s.mean);
        assert_eq!(row[3], s.std_dev);
        assert_eq!(row[6], s.p75);
    }
}
