//! Means, variances and an online (Welford) moment accumulator.
//!
//! The variance convention matters for the reproduction: the paper's
//! feature tables (Tables 2 and 5) use the *standard deviation over the
//! chunks of one session* as a feature. We follow the population
//! convention (`1/n`) throughout: a session's chunks are the whole
//! population of interest, not a sample from a larger one.

use serde::{Deserialize, Serialize};

/// Arithmetic mean of `data`. Returns `0.0` for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Population variance (normalized by `n`). Returns `0.0` for `n < 1`.
pub fn variance(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / data.len() as f64
}

/// Population standard deviation (normalized by `n`).
pub fn population_std(data: &[f64]) -> f64 {
    variance(data).sqrt()
}

/// Numerically stable streaming mean/variance accumulator
/// (Welford's algorithm).
///
/// Used where the dataset is produced incrementally — e.g. the per-round
/// bytes-in-flight samples emitted by the TCP model — so we never need to
/// buffer a whole session's packet-level history just to compute a summary
/// statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineMoments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

// Hand-written: `Default` must agree with [`OnlineMoments::new`] — the
// derive would zero the `min`/`max` sentinels, so the first real
// observation could never beat a phantom `0.0`.
impl Default for OnlineMoments {
    fn default() -> Self {
        OnlineMoments::new()
    }
}

// Hand-written: before the first observation `min`/`max` hold the
// `±inf` fold sentinels, which JSON cannot represent. They are
// serialized as `Option`s — `null` while empty — and the sentinels are
// restored on the way back in.
impl Serialize for OnlineMoments {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(Vec::from([
            ("n".to_string(), self.n.to_value()),
            ("mean".to_string(), self.mean.to_value()),
            ("m2".to_string(), self.m2.to_value()),
            ("min".to_string(), self.try_min().to_value()),
            ("max".to_string(), self.try_max().to_value()),
        ]))
    }
}

impl Deserialize for OnlineMoments {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name: &'static str| {
            value
                .get(name)
                .ok_or_else(|| serde::DeError::missing_field("OnlineMoments", name))
        };
        let min: Option<f64> = Deserialize::from_value(field("min")?)?;
        let max: Option<f64> = Deserialize::from_value(field("max")?)?;
        Ok(OnlineMoments {
            n: Deserialize::from_value(field("n")?)?,
            mean: Deserialize::from_value(field("mean")?)?,
            m2: Deserialize::from_value(field("m2")?)?,
            min: min.unwrap_or(f64::INFINITY),
            max: max.unwrap_or(f64::NEG_INFINITY),
        })
    }
}

impl OnlineMoments {
    /// Fresh accumulator with no observations.
    pub fn new() -> Self {
        OnlineMoments {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold in one observation. Non-finite values are ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations folded in so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean; `0.0` before the first observation.
    ///
    /// Display-only convenience: `0.0` is a possible real mean, so
    /// feature builders must use [`OnlineMoments::try_mean`] and map the
    /// undefined case to their own sentinel (see
    /// `vqoe_features::MISSING_STAT`).
    pub fn mean(&self) -> f64 {
        self.try_mean().unwrap_or(0.0)
    }

    /// Running mean, or `None` before the first observation — the
    /// honest core `mean()` collapses to a `0.0` sentinel.
    pub fn try_mean(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.mean)
        }
    }

    /// Running population variance; `0.0` before the second observation.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Running population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation so far; `0.0` before the first observation
    /// (display-only — see [`OnlineMoments::try_min`]).
    pub fn min(&self) -> f64 {
        self.try_min().unwrap_or(0.0)
    }

    /// Smallest observation so far, or `None` before the first
    /// observation. Without the `Option`, a metric column whose every
    /// sample is non-finite would report `min == 0.0` — indistinguishable
    /// from a genuine zero, the exact bug class the `try_*` quantile
    /// sweep purged (ISSUE 10).
    pub fn try_min(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observation so far; `0.0` before the first observation
    /// (display-only — see [`OnlineMoments::try_max`]).
    pub fn max(&self) -> f64 {
        self.try_max().unwrap_or(0.0)
    }

    /// Largest observation so far, or `None` before the first
    /// observation.
    pub fn try_max(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn population_vs_sample_std() {
        let data = [1.0, 2.0, 3.0, 4.0];
        // population: ss = 5.0, /4 => 1.25
        assert!((variance(&data) - 1.25).abs() < 1e-12);
        assert!((population_std(&data) - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn online_matches_batch() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut acc = OnlineMoments::new();
        for &x in &data {
            acc.push(x);
        }
        assert!((acc.mean() - mean(&data)).abs() < 1e-12);
        assert!((acc.variance() - variance(&data)).abs() < 1e-12);
        assert_eq!(acc.min(), 1.0);
        assert_eq!(acc.max(), 9.0);
        assert_eq!(acc.count(), 8);
    }

    #[test]
    fn online_ignores_nan() {
        let mut acc = OnlineMoments::new();
        acc.push(1.0);
        acc.push(f64::NAN);
        acc.push(3.0);
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.mean(), 2.0);
    }

    #[test]
    fn try_forms_distinguish_undefined_from_zero() {
        // Regression (ISSUE 10): an accumulator that has seen nothing —
        // or only non-finite samples — must not report a zero min/max/
        // mean, because 0.0 is a possible real value for every Table-1
        // metric.
        let empty = OnlineMoments::new();
        assert_eq!(empty.try_min(), None);
        assert_eq!(empty.try_max(), None);
        assert_eq!(empty.try_mean(), None);
        assert_eq!(empty.min(), 0.0, "plain forms keep the display sentinel");

        let mut broken_column = OnlineMoments::new();
        broken_column.push(f64::NAN);
        broken_column.push(f64::INFINITY);
        broken_column.push(f64::NEG_INFINITY);
        assert_eq!(broken_column.count(), 0);
        assert_eq!(broken_column.try_min(), None);
        assert_eq!(broken_column.try_max(), None);
        assert_eq!(broken_column.try_mean(), None);

        let mut zero = OnlineMoments::new();
        zero.push(0.0);
        assert_eq!(zero.try_min(), Some(0.0));
        assert_eq!(zero.try_max(), Some(0.0));
        assert_eq!(zero.try_mean(), Some(0.0));
    }

    #[test]
    fn serde_round_trip_is_exact() {
        let mut acc = OnlineMoments::new();
        for x in [3.0, 1.0, 4.0, 1.5, 9.2] {
            acc.push(x);
        }
        let json = serde_json::to_string(&acc).unwrap();
        let back: OnlineMoments = serde_json::from_str(&json).unwrap();
        assert_eq!(back, acc);
    }

    #[test]
    fn empty_accumulator_serializes_and_defaults_keep_sentinels() {
        // Regression (ISSUE 10): an empty accumulator holds ±inf fold
        // sentinels, which JSON cannot represent — serialization must
        // not fail (it snapshots as nulls), and the round trip must
        // restore the sentinels so the next `push` still wins the
        // min/max folds.
        let empty = OnlineMoments::new();
        let json = serde_json::to_string(&empty).expect("empty accumulator must snapshot");
        let mut back: OnlineMoments = serde_json::from_str(&json).unwrap();
        assert_eq!(back, empty);
        back.push(-3.0);
        assert_eq!(back.try_min(), Some(-3.0));
        assert_eq!(back.try_max(), Some(-3.0));

        // `Default` must agree with `new()` for the same reason.
        assert_eq!(OnlineMoments::default(), OnlineMoments::new());
    }

    proptest! {
        #[test]
        fn prop_online_matches_batch(data in proptest::collection::vec(-1e6f64..1e6, 0..200)) {
            let mut acc = OnlineMoments::new();
            for &x in &data {
                acc.push(x);
            }
            prop_assert!((acc.mean() - mean(&data)).abs() < 1e-6);
            if data.len() >= 2 {
                prop_assert!((acc.variance() - variance(&data)).abs() < 1e-3);
            }
        }

        #[test]
        fn prop_variance_nonnegative(data in proptest::collection::vec(-1e9f64..1e9, 0..100)) {
            prop_assert!(variance(&data) >= 0.0);
        }
    }
}
