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
//!   for the CFS merit function, and [`binning`]'s equal-frequency
//!   [`Discretizer`] to discretize continuous features first.
//! * `vqoe-changedet` uses [`Ecdf`] to reproduce the CDF separation plot of
//!   Figure 4, and [`moments`] for the σ(CUSUM) session score.
//!
//! The crate is deliberately dependency-light and fully deterministic: all
//! functions are pure, operate on slices, and make their NaN policy explicit
//! (see [`try_quantile`] and the [`quantiles`] module docs).

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod binning;
pub mod ecdf;
pub mod info;
pub mod moments;
pub mod quantiles;
pub mod rng;
pub mod sketch;

pub use binning::Discretizer;
pub use ecdf::Ecdf;
pub use info::{
    conditional_entropy, entropy_of_labels, info_gain, symmetrical_uncertainty,
    symmetrical_uncertainty_in,
};
pub use moments::{mean, population_std, variance, OnlineMoments};
pub use quantiles::{quantile_sorted, try_quantile, try_quantile_sorted};
pub use rng::splitmix64;
pub use sketch::{QuantileSketch, SKETCH_CAPACITY};
