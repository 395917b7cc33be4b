//! The Cumulative Sum Control Chart (E. S. Page, *Continuous inspection
//! schemes*, Biometrika 1954) — the paper's cited change detector.
//!
//! Two one-sided charts accumulate positive and negative deviations from
//! a reference mean:
//!
//! ```text
//! S⁺_i = max(0, S⁺_{i−1} + (x_i − μ − κ))
//! S⁻_i = max(0, S⁻_{i−1} − (x_i − μ + κ))
//! ```
//!
//! where μ is the reference level and κ the *allowance* (slack), usually
//! half the shift magnitude one wants to detect. The classic decision
//! rule raises an alarm when either side exceeds a threshold *h*; the
//! paper instead keeps the whole output series and summarizes it by its
//! standard deviation ("instead of thresholds we use the standard
//! deviation of the output of the change detection algorithm"), which we
//! expose in [`crate::detector::session_score`].

use serde::{Deserialize, Serialize};

/// CUSUM parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CusumConfig {
    /// Reference mean μ. `None` uses the series' own mean (the paper's
    /// setting: shifts *from the mean of the sample*).
    pub reference: Option<f64>,
    /// Allowance κ as a fraction of the series' standard deviation.
    /// Classic choice is 0.5 (detects ~1σ shifts fastest).
    pub allowance_sigmas: f64,
}

impl Default for CusumConfig {
    fn default() -> Self {
        CusumConfig {
            reference: None,
            allowance_sigmas: 0.5,
        }
    }
}

/// Run the two-sided CUSUM over `series`, returning the combined output
/// `S⁺_i + S⁻_i` per point (non-negative; zero while the process sits at
/// its reference level).
///
/// Empty input yields an empty output. Non-finite samples are treated as
/// the reference level (they contribute no deviation).
pub fn cusum_series(series: &[f64], config: CusumConfig) -> Vec<f64> {
    if series.is_empty() {
        return Vec::new();
    }
    let finite: Vec<f64> = series.iter().copied().filter(|v| v.is_finite()).collect();
    let mu = config
        .reference
        .unwrap_or_else(|| vqoe_stats::moments::mean(&finite));
    let sigma = vqoe_stats::moments::population_std(&finite);
    let kappa = config.allowance_sigmas * sigma;

    let mut s_pos = 0.0f64;
    let mut s_neg = 0.0f64;
    let mut out = Vec::with_capacity(series.len());
    for &x in series {
        let dev = if x.is_finite() { x - mu } else { 0.0 };
        s_pos = (s_pos + dev - kappa).max(0.0);
        s_neg = (s_neg - dev - kappa).max(0.0);
        out.push(s_pos + s_neg);
    }
    out
}

/// Indices where the classic alarm rule `S_i > h` fires, with `h`
/// expressed in σ units of the input series. Provided for completeness
/// (the paper's pipeline does not alarm per point) and used by the
/// ablation benches.
///
/// A series with no finite samples, or whose finite samples have zero
/// (or non-finite) standard deviation, is *degenerate*: `h = h_sigmas ·
/// σ` collapses to 0, and any positive CUSUM output — e.g. a constant
/// series measured against an explicit off-level `reference` — would
/// alarm at every index. No threshold can be calibrated from such a
/// series, so it raises no alarms.
pub fn alarms(series: &[f64], config: CusumConfig, h_sigmas: f64) -> Vec<usize> {
    let finite: Vec<f64> = series.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return Vec::new();
    }
    let sigma = vqoe_stats::moments::population_std(&finite);
    if !sigma.is_finite() || sigma <= 0.0 {
        return Vec::new();
    }
    let h = h_sigmas * sigma;
    cusum_series(series, config)
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s > h)
        .map(|(i, _)| i)
        .collect()
}

/// First index at which the classic CUSUM alarm rule fires over
/// `series` under the default [`CusumConfig`], with the threshold in σ
/// units — or `None` when the chart never crosses it (including the
/// degenerate zero-variance cases [`alarms`] refuses to alarm on).
///
/// The streaming assessor's `drift` alert rules call it directly
/// (`vqoe_core::AlertSampler`): a per-window shed-rate, anomaly-rate or
/// queue-depth series goes in, the first drifting window index comes
/// out.
pub fn drift_alarm(series: &[f64], h_sigmas: f64) -> Option<usize> {
    alarms(series, CusumConfig::default(), h_sigmas)
        .first()
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_series_is_empty() {
        assert!(cusum_series(&[], CusumConfig::default()).is_empty());
    }

    #[test]
    fn flat_series_stays_at_zero() {
        let out = cusum_series(&[5.0; 50], CusumConfig::default());
        assert!(out.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn small_noise_is_absorbed_by_the_allowance() {
        // ±ε noise around a constant: with κ = 0.5σ the chart resets
        // continually and never accumulates far.
        let series: Vec<f64> = (0..100)
            .map(|i| 10.0 + if i % 2 == 0 { 0.1 } else { -0.1 })
            .collect();
        let out = cusum_series(&series, CusumConfig::default());
        let max = out.iter().cloned().fold(0.0f64, f64::max);
        assert!(max < 1.0, "max {max}");
    }

    #[test]
    fn level_shift_accumulates_linearly() {
        // 50 points at 0, then 50 at 10. With the sample mean (5) as the
        // reference and κ = 0.5σ = 2.5, *both* halves deviate: the chart
        // grows by 2.5 per step throughout, reaching 125 on each side.
        let series: Vec<f64> = (0..100).map(|i| if i < 50 { 0.0 } else { 10.0 }).collect();
        let out = cusum_series(&series, CusumConfig::default());
        assert!(out[0] < 5.0, "first point {}", out[0]);
        assert!((out[49] - 125.0).abs() < 1e-9, "pre-shift peak {}", out[49]);
        assert!((out[99] - 125.0).abs() < 1e-9, "final value {}", out[99]);
        // A flat series of the same length stays at zero — the shift is
        // what produced the accumulation.
        let flat = cusum_series(&[5.0; 100], CusumConfig::default());
        assert!(flat.iter().all(|&s| s.abs() < 1e-9));
    }

    #[test]
    fn downward_shift_is_caught_by_the_negative_chart() {
        let series: Vec<f64> = (0..100).map(|i| if i < 50 { 10.0 } else { 0.0 }).collect();
        let out = cusum_series(&series, CusumConfig::default());
        assert!(out[99] > 50.0);
    }

    #[test]
    fn explicit_reference_overrides_sample_mean() {
        // With reference 0, a constant-5 series is all deviation.
        let out = cusum_series(
            &[5.0; 20],
            CusumConfig {
                reference: Some(0.0),
                allowance_sigmas: 0.5,
            },
        );
        // σ of a constant series is 0 ⇒ κ = 0 ⇒ S grows by 5 per step.
        assert!((out[19] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn nan_points_contribute_nothing() {
        let mut series = vec![1.0; 20];
        series[10] = f64::NAN;
        let out = cusum_series(&series, CusumConfig::default());
        assert_eq!(out.len(), 20);
        assert!(out.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn degenerate_series_raises_no_alarms() {
        // All-non-finite: σ over the (empty) finite subset is 0, so the
        // threshold h = 2σ = 0 — the old code compared every output
        // point against 0.
        let cfg = CusumConfig::default();
        assert!(alarms(&[f64::NAN; 10], cfg, 2.0).is_empty());
        assert!(alarms(&[], cfg, 2.0).is_empty());
        // Constant series vs an explicit off-level reference: the CUSUM
        // output is strictly positive everywhere while h = 0, which used
        // to alarm at EVERY index. No threshold is calibratable from a
        // zero-variance series, so there must be no alarms.
        let anchored = CusumConfig {
            reference: Some(0.0),
            allowance_sigmas: 0.5,
        };
        assert!(alarms(&[5.0; 20], anchored, 2.0).is_empty());
    }

    #[test]
    fn drift_alarm_returns_the_first_alarm_index() {
        // A sustained level shift against the sample mean drifts; a
        // flat series never does.
        let series: Vec<f64> = (0..60).map(|i| if i < 30 { 0.0 } else { 8.0 }).collect();
        let first = drift_alarm(&series, 2.0).expect("shifted series drifts");
        assert_eq!(
            Some(first),
            alarms(&series, CusumConfig::default(), 2.0)
                .first()
                .copied()
        );
        assert_eq!(drift_alarm(&[1.0; 40], 2.0), None);
        assert_eq!(drift_alarm(&[], 2.0), None);
    }

    #[test]
    fn alarms_fire_only_after_the_change() {
        // Anchor the reference at the known pre-change level: the classic
        // in-control → out-of-control monitoring setup.
        let series: Vec<f64> = (0..60).map(|i| if i < 30 { 0.0 } else { 8.0 }).collect();
        let cfg = CusumConfig {
            reference: Some(0.0),
            allowance_sigmas: 0.5,
        };
        let idx = alarms(&series, cfg, 2.0);
        assert!(!idx.is_empty());
        assert!(idx.iter().all(|&i| i >= 30), "false alarm before change");
    }

    proptest! {
        #[test]
        fn prop_output_is_nonnegative_and_finite(
            series in proptest::collection::vec(-1e6f64..1e6, 0..300)
        ) {
            let out = cusum_series(&series, CusumConfig::default());
            prop_assert_eq!(out.len(), series.len());
            for s in out {
                prop_assert!(s >= 0.0);
                prop_assert!(s.is_finite());
            }
        }

        #[test]
        fn prop_constant_series_silent(v in -1e6f64..1e6, n in 1usize..100) {
            let out = cusum_series(&vec![v; n], CusumConfig::default());
            // Tolerance scales with |v|: the sample mean can be off by an
            // ulp, and that rounding residue accumulates over n steps.
            let tol = 1e-9 * (1.0 + v.abs()) * n as f64;
            prop_assert!(out.iter().all(|&s| s.abs() < tol));
        }
    }
}
