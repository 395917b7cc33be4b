//! Alerting glue: wire the std-only [`vqoe_obs::AlertEngine`] to the
//! CUSUM drift backend in `vqoe-changedet`, provide the default rule
//! set, and sample the streaming assessor's built-in series.
//!
//! The obs crate stays dependency-free by accepting drift detection as
//! an injected function pointer ([`vqoe_obs::DriftFn`]); this module is
//! where the injection happens. [`AlertSampler`] rides beside an
//! [`OnlineAssessor`] and turns its monotone tallies into the three
//! per-window series — `shed_rate`, `anomaly_rate`, `queue_depth` (the
//! number of tracked subscribers) — so the assessor itself holds no
//! alert state.

use vqoe_changedet::drift_alarm;
use vqoe_obs::{Alert, AlertEngine, AlertRule, AlertSeverity, RuleKind};

use crate::online::OnlineAssessor;

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

/// Samples an [`OnlineAssessor`]'s built-in series into an
/// [`AlertEngine`] once per `window_records` ingested records:
/// `shed_rate` (shed events this window), `anomaly_rate` (quarantines
/// this window) and `queue_depth` (the subscribers tracked at the
/// boundary; the name stays because rule files use it). Windows are
/// measured on the assessor's record clock, so the samples, and thus
/// the alerts, are deterministic; every window gets its sample, also
/// when the record that closes it is screened out or refused.
///
/// Call [`AlertSampler::observe`] after every
/// [`OnlineAssessor::ingest`] and [`AlertSampler::finish`] before
/// [`OnlineAssessor::into_report`]. The assessor is only read, so its
/// assessments are bit-identical with or without a sampler.
#[derive(Debug, Clone)]
pub struct AlertSampler {
    engine: AlertEngine,
    window_records: u64,
    /// Shed-log total at the last window boundary.
    last_shed_total: u64,
    /// Anomaly-log total at the last window boundary.
    last_anomaly_total: u64,
}

impl AlertSampler {
    /// A sampler for `online`, whose first window counts from the
    /// tallies `online` holds now: a restored assessor's sheds and
    /// quarantines from before the cut stay out of it.
    pub fn new(engine: AlertEngine, window_records: u64, online: &OnlineAssessor) -> Self {
        AlertSampler {
            engine,
            window_records: window_records.max(1),
            last_shed_total: online.shed_log().total(),
            last_anomaly_total: online.anomalies().total(),
        }
    }

    /// Sample the window that `online`'s last ingested record closed,
    /// if it closed one.
    pub fn observe(&mut self, online: &OnlineAssessor) {
        if online.records_ingested() % self.window_records == 0 {
            self.sample(online);
        }
    }

    /// Sample the trailing partial window, so sheds after the last
    /// boundary still feed the rules, and evaluate the rules over the
    /// completed series.
    pub fn finish(mut self, online: &OnlineAssessor) -> Vec<Alert> {
        if online.records_ingested() % self.window_records != 0 {
            self.sample(online);
        }
        self.engine.finish()
    }

    fn sample(&mut self, online: &OnlineAssessor) {
        let shed_total = online.shed_log().total();
        let anomaly_total = online.anomalies().total();
        self.engine.push_sample(
            "shed_rate",
            shed_total.saturating_sub(self.last_shed_total) as f64,
        );
        self.engine.push_sample(
            "anomaly_rate",
            anomaly_total.saturating_sub(self.last_anomaly_total) as f64,
        );
        self.engine
            .push_sample("queue_depth", online.tracked_subscribers() as f64);
        self.last_shed_total = shed_total;
        self.last_anomaly_total = anomaly_total;
    }
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
