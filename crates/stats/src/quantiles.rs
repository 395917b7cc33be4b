//! Quantile estimation with linear interpolation (type-7, the R/NumPy
//! default).
//!
//! §4.2 of the paper expands every raw metric into a dense percentile grid
//! (5th, 10th, 15th, 20th, 25th, 50th, 75th, 80th, 85th, 90th, 95th). The
//! exact interpolation rule is immaterial to the classifiers as long as it
//! is consistent between training and evaluation, so we fix one — the
//! ubiquitous type-7 rule `h = (n - 1) q` — and use it everywhere.

//! ## Undefined quantiles
//!
//! A quantile of an empty (or all-non-finite) sample is mathematically
//! undefined. The `try_*` functions are the honest core: they return
//! `None` in that case and `Some(v)` otherwise. The plain functions are
//! **display-only** convenience wrappers that collapse `None` to `0.0` —
//! report tables, log lines, human-facing summaries. Callers for whom
//! `0.0` is a *possible real value* (the feature-matrix builders, every
//! assessment path) must use the `try_*` forms and choose their own
//! sentinel, otherwise a missing metric is indistinguishable from a
//! genuinely zero one (see `vqoe_features::MISSING_STAT`). As of the
//! ISSUE-10 sweep the only plain-form callers left inside the workspace
//! either run on provably non-empty finite slices
//! ([`crate::Summary::from_slice`], the discretizer's cut picker) or are
//! display formatting.

/// Quantile `q ∈ [0, 1]` of `data` (unsorted; non-finite values
/// ignored), or `None` when no finite value exists. `q` is clamped to
/// `[0, 1]`.
pub fn try_quantile(data: &[f64], q: f64) -> Option<f64> {
    let mut finite: Vec<f64> = data.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    finite.sort_by(f64::total_cmp);
    try_quantile_sorted(&finite, q)
}

/// Quantile of an **already sorted** slice of finite values, or `None`
/// when the slice is empty.
///
/// This is the hot path used by feature construction, which sorts each
/// metric once and then reads a dozen percentiles off it.
pub fn try_quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(if lo == hi {
        sorted[lo]
    } else {
        let frac = h - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    })
}

/// Evaluate several quantiles in one sort, or `None` when no finite
/// value exists. `qs` are fractions in `[0, 1]`; the result is aligned
/// with `qs`.
pub fn try_quantiles(data: &[f64], qs: &[f64]) -> Option<Vec<f64>> {
    let mut finite: Vec<f64> = data.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    finite.sort_by(f64::total_cmp);
    Some(
        qs.iter()
            .filter_map(|&q| try_quantile_sorted(&finite, q))
            .collect(),
    )
}

/// [`try_quantile`] with the undefined case collapsed to the `0.0`
/// sentinel (see the module docs — do not use where `0.0` is a possible
/// real value).
pub fn quantile(data: &[f64], q: f64) -> f64 {
    try_quantile(data, q).unwrap_or(0.0)
}

/// [`try_quantile_sorted`] with the undefined case collapsed to the
/// `0.0` sentinel (see the module docs).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    try_quantile_sorted(sorted, q).unwrap_or(0.0)
}

/// Median (50th percentile) of `data`, the undefined case collapsed to
/// the `0.0` sentinel (see the module docs).
pub fn median(data: &[f64]) -> f64 {
    quantile(data, 0.5)
}

/// [`try_quantiles`] with the undefined case collapsed to `0.0`
/// sentinels (see the module docs).
pub fn quantiles(data: &[f64], qs: &[f64]) -> Vec<f64> {
    try_quantiles(data, qs).unwrap_or_else(|| vec![0.0; qs.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantile_of_empty_is_zero() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantiles(&[], &[0.1, 0.9]), vec![0.0, 0.0]);
    }

    #[test]
    fn try_forms_distinguish_undefined_from_zero() {
        // The sentinel wrappers collapse both cases to 0.0; the try_*
        // core must not.
        assert_eq!(try_quantile(&[], 0.5), None);
        assert_eq!(try_quantile(&[f64::NAN, f64::INFINITY], 0.5), None);
        assert_eq!(try_quantile(&[0.0], 0.5), Some(0.0));
        assert_eq!(try_quantiles(&[], &[0.1, 0.9]), None);
        assert_eq!(
            try_quantiles(&[0.0, 0.0], &[0.1, 0.9]),
            Some(vec![0.0, 0.0])
        );
        assert_eq!(try_quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn quantile_of_singleton_is_that_value() {
        assert_eq!(quantile(&[7.0], 0.0), 7.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        assert_eq!(quantile(&[7.0], 1.0), 7.0);
    }

    #[test]
    fn median_of_even_sample_interpolates() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn type7_interpolation_matches_numpy() {
        // numpy.percentile([1,2,3,4], 25) == 1.75
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.25) - 1.75).abs() < 1e-12);
        // numpy.percentile([15, 20, 35, 40, 50], 40) == 29.0
        assert!((quantile(&[15.0, 20.0, 35.0, 40.0, 50.0], 0.40) - 29.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_q_is_clamped() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0], -0.5), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 1.5), 3.0);
    }

    #[test]
    fn nan_values_are_ignored() {
        assert_eq!(median(&[f64::NAN, 1.0, 2.0, 3.0, f64::NAN]), 2.0);
    }

    #[test]
    fn unsorted_input_is_handled() {
        assert_eq!(quantile(&[9.0, 1.0, 5.0], 0.5), 5.0);
    }

    proptest! {
        #[test]
        fn prop_quantile_monotone_in_q(
            data in proptest::collection::vec(-1e6f64..1e6, 1..100),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            prop_assert!(quantile(&data, lo) <= quantile(&data, hi) + 1e-9);
        }

        #[test]
        fn prop_quantile_within_range(
            data in proptest::collection::vec(-1e6f64..1e6, 1..100),
            q in 0.0f64..1.0,
        ) {
            let v = quantile(&data, q);
            let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
        }

        #[test]
        fn prop_extremes_are_min_max(data in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(quantile(&data, 0.0), min);
            prop_assert_eq!(quantile(&data, 1.0), max);
        }
    }
}
