//! Alerting glue: wire the std-only [`vqoe_obs::AlertEngine`] to the
//! CUSUM drift backend in `vqoe-changedet`, and provide the default
//! rule set for the online assessor's built-in series.
//!
//! The obs crate stays dependency-free by accepting drift detection as
//! an injected function pointer ([`vqoe_obs::DriftFn`]); this module is
//! where the injection happens. The three series the assessor samples —
//! `shed_rate`, `anomaly_rate`, `queue_depth` (the number of tracked
//! subscribers) — are documented on
//! [`crate::OnlineAssessor::with_alerts`].

use vqoe_changedet::drift_alarm;
use vqoe_obs::{AlertEngine, AlertRule, AlertSeverity, RuleKind};

/// Default sampling cadence for the alert series: one sample per this
/// many ingested records. Chosen so the overload-sweep corpora produce
/// dozens of windows — enough for the CUSUM chart to establish a
/// baseline before a flood shifts the mean.
pub const ALERT_WINDOW_RECORDS: u64 = 256;

/// An [`AlertEngine`] over `rules` with the CUSUM drift backend
/// ([`drift_alarm`]) installed. Use this over `AlertEngine::new`
/// whenever any rule is [`RuleKind::Drift`].
pub fn standard_alert_engine(rules: Vec<AlertRule>) -> AlertEngine {
    AlertEngine::new(rules).with_drift(drift_alarm)
}

/// The built-in rule set: a critical drift rule per assessor series.
/// `h_sigmas = 4.0` keeps the clean corpora silent while the overload
/// floods (an order-of-magnitude shift in shed rate) alarm reliably.
pub fn default_alert_rules() -> Vec<AlertRule> {
    ["shed_rate", "anomaly_rate", "queue_depth"]
        .into_iter()
        .map(|series| AlertRule {
            name: format!("{series}-drift"),
            series: series.to_string(),
            severity: AlertSeverity::Critical,
            kind: RuleKind::Drift { h_sigmas: 4.0 },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_alarm_fires_on_a_mean_shift() {
        let mut series = vec![1.0, 2.0, 1.0, 2.0, 1.5, 1.0, 2.0, 1.0, 2.0, 1.5];
        series.extend(std::iter::repeat(60.0).take(8));
        assert!(drift_alarm(&series, 4.0).is_some());
        assert_eq!(drift_alarm(&[1.0; 32], 4.0), None);
    }

    #[test]
    fn default_rules_cover_every_builtin_series() {
        let rules = default_alert_rules();
        let series: Vec<&str> = rules.iter().map(|r| r.series.as_str()).collect();
        assert_eq!(series, ["shed_rate", "anomaly_rate", "queue_depth"]);
        assert!(rules
            .iter()
            .all(|r| matches!(r.kind, RuleKind::Drift { .. })));
    }

    #[test]
    fn standard_engine_fires_the_drift_rule() {
        let mut engine = standard_alert_engine(default_alert_rules());
        for i in 0..40 {
            let v = if i < 30 {
                f64::from(i % 3)
            } else {
                200.0 + f64::from(i % 2)
            };
            engine.push_sample("shed_rate", v);
        }
        let alerts = engine.finish();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "shed_rate-drift");
    }
}
