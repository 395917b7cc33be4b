//! Declarative alerting over the streaming assessor's load series.
//!
//! An [`AlertSampler`] rides beside an [`OnlineAssessor`] and turns its
//! monotone tallies into three per-window series ([`AlertSeries`]):
//! `shed_rate`, `anomaly_rate` and `queue_depth` (the number of
//! tracked subscribers), so the assessor itself holds no alert state.
//! It evaluates the [`AlertRule`]s over them. Three rule kinds:
//!
//! - **threshold** — fires on the first window whose sample exceeds a
//!   fixed maximum.
//! - **rate** — fires on the first window whose sample *increase* over
//!   the previous window exceeds a maximum delta.
//! - **drift** — fires where the CUSUM chart of §4.3
//!   ([`drift_alarm`], the machinery the switch detector uses) first
//!   alarms on the series.
//!
//! Everything here is deterministic: windows are counted on the
//! assessor's record clock, rules are evaluated in declaration order,
//! and no clock is consulted. The sampler is the one place alert state
//! lives, and it is serde-able. Rules parse from a small TOML subset
//! ([`parse_rules`]) so `vqoe assess --alerts rules.toml` needs no
//! external parser.

use std::fmt;

use serde::{Deserialize, Serialize};
use vqoe_changedet::drift_alarm;

use crate::online::OnlineAssessor;

/// Default sampling cadence for the alert series: one sample per this
/// many ingested records. Chosen so the overload-sweep corpora produce
/// dozens of windows — enough for the CUSUM chart to establish a
/// baseline before a flood shifts the mean.
pub const ALERT_WINDOW_RECORDS: u64 = 256;

/// How many of the latest windows the sampler keeps, and so how far
/// back a drift rule looks. Threshold and rate rules are checked as
/// each window is sampled, so the bound never hides their firings.
const MAX_SAMPLES_PER_SERIES: usize = 4096;

/// How loud an alert is (maps to the levelled stderr reporter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AlertSeverity {
    /// Worth a look; reported at verbose level.
    Warning,
    /// Action needed; reported at normal level.
    Critical,
}

impl AlertSeverity {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            AlertSeverity::Warning => "warning",
            AlertSeverity::Critical => "critical",
        }
    }
}

/// The per-window series a rule can watch: the only ones the sampler
/// produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlertSeries {
    /// Shed events in the window.
    ShedRate,
    /// Quarantined records in the window.
    AnomalyRate,
    /// Subscribers tracked at the window's end.
    QueueDepth,
}

impl AlertSeries {
    /// Every series, in sample order.
    pub const ALL: [AlertSeries; 3] = [
        AlertSeries::ShedRate,
        AlertSeries::AnomalyRate,
        AlertSeries::QueueDepth,
    ];

    /// Stable snake_case label (the TOML `series` value).
    pub fn label(&self) -> &'static str {
        match self {
            AlertSeries::ShedRate => "shed_rate",
            AlertSeries::AnomalyRate => "anomaly_rate",
            AlertSeries::QueueDepth => "queue_depth",
        }
    }
}

/// What condition a rule checks against its series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RuleKind {
    /// Sample value above `max`.
    Threshold {
        /// Maximum allowed sample value.
        max: f64,
    },
    /// Sample increase over the previous window above `max_delta`.
    RateOverWindow {
        /// Maximum allowed window-over-window increase.
        max_delta: f64,
    },
    /// CUSUM drift with alarm threshold `h_sigmas`, in σ units of the
    /// series ([`drift_alarm`]).
    Drift {
        /// Alarm threshold handed to [`drift_alarm`].
        h_sigmas: f64,
    },
}

impl RuleKind {
    /// Stable lowercase label (the TOML `kind` value).
    pub fn label(&self) -> &'static str {
        match self {
            RuleKind::Threshold { .. } => "threshold",
            RuleKind::RateOverWindow { .. } => "rate",
            RuleKind::Drift { .. } => "drift",
        }
    }
}

/// One declarative alerting rule bound to a sample series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRule {
    /// Rule name (unique per rule set by convention; reported verbatim).
    pub name: String,
    /// The sample series the rule watches.
    pub series: AlertSeries,
    /// How loud a firing is.
    pub severity: AlertSeverity,
    /// The condition.
    pub kind: RuleKind,
}

/// One fired alert. Values are fixed-point milli-units so alerts can be
/// compared exactly (`Eq`) and rendered without float formatting drift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// The rule that fired.
    pub rule: String,
    /// Its severity.
    pub severity: AlertSeverity,
    /// The series it watched.
    pub series: AlertSeries,
    /// 0-based index of the window where the condition first held, on
    /// the record clock: window `w` holds records `w·N + 1 ..= (w+1)·N`
    /// for a sampler of `N` records a window.
    pub window: u64,
    /// The offending sample (or delta) in milli-units, rounded to
    /// nearest.
    pub value_milli: i64,
    /// Human-readable one-liner.
    pub message: String,
}

/// The built-in rule set: a critical drift rule per assessor series.
/// `h_sigmas = 4.0` keeps the clean corpora silent while the overload
/// floods (an order-of-magnitude shift in shed rate) alarm reliably.
pub fn default_alert_rules() -> Vec<AlertRule> {
    AlertSeries::ALL
        .into_iter()
        .map(|series| AlertRule {
            name: format!("{}-drift", series.label()),
            series,
            severity: AlertSeverity::Critical,
            kind: RuleKind::Drift { h_sigmas: 4.0 },
        })
        .collect()
}

/// Samples an [`OnlineAssessor`]'s series once per `window_records`
/// ingested records and evaluates its rules over them: `shed_rate`
/// (shed events this window), `anomaly_rate` (quarantines this window)
/// and `queue_depth` (the subscribers tracked at the boundary; the name
/// stays because rule files use it). Windows are measured on the
/// assessor's record clock, so the samples, and thus the alerts, are
/// deterministic; every window gets its sample, also when the record
/// that closes it is screened out or refused.
///
/// Threshold and rate rules are checked as each window is sampled;
/// drift rules run the CUSUM chart over the latest 4,096 windows at
/// [`AlertSampler::finish`]. Each rule fires at most once, at the first
/// window where its condition held.
///
/// Call [`AlertSampler::observe`] after every
/// [`OnlineAssessor::ingest`] and [`AlertSampler::finish`] before
/// [`OnlineAssessor::into_report`]. The assessor is only read, so its
/// assessments are bit-identical with or without a sampler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlertSampler {
    rules: Vec<AlertRule>,
    /// Each rule's first firing so far: its window and value.
    fired: Vec<Option<(u64, f64)>>,
    window_records: u64,
    /// Record-clock index of the next window to be sampled.
    next_window: u64,
    /// The latest windows' samples, oldest first, one value per
    /// [`AlertSeries`] in [`AlertSeries::ALL`] order.
    samples: Vec<[f64; 3]>,
    /// Shed-log total at the last window boundary.
    last_shed_total: u64,
    /// Anomaly-log total at the last window boundary.
    last_anomaly_total: u64,
}

impl AlertSampler {
    /// A sampler of `rules` for `online`, one window per
    /// `window_records` records. Its first window is the one holding
    /// `online`'s next record, numbered on the record clock, and it
    /// counts from the tallies `online` holds now: a restored
    /// assessor's windows keep the uninterrupted run's numbers, and its
    /// sheds and quarantines from before the cut stay out of them.
    pub fn new(rules: Vec<AlertRule>, window_records: u64, online: &OnlineAssessor) -> Self {
        let window_records = window_records.max(1);
        AlertSampler {
            fired: vec![None; rules.len()],
            rules,
            window_records,
            next_window: online.records_ingested() / window_records,
            samples: Vec::new(),
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
    /// boundary still feed the rules, run the drift rules, and return
    /// the fired alerts in rule declaration order.
    pub fn finish(mut self, online: &OnlineAssessor) -> Vec<Alert> {
        if online.records_ingested() % self.window_records != 0 {
            self.sample(online);
        }
        self.alerts()
    }

    /// The alerts of every rule over the windows sampled so far, in
    /// rule declaration order.
    fn alerts(&self) -> Vec<Alert> {
        let first_kept = self.next_window - self.samples.len() as u64;
        let mut alerts = Vec::new();
        for (rule, fired) in self.rules.iter().zip(&self.fired) {
            let fired = match rule.kind {
                RuleKind::Drift { h_sigmas } => {
                    let series: Vec<f64> = self
                        .samples
                        .iter()
                        .map(|row| row[rule.series as usize])
                        .collect();
                    drift_alarm(&series, h_sigmas).map(|i| (first_kept + i as u64, series[i]))
                }
                _ => *fired,
            };
            let Some((window, value)) = fired else {
                continue;
            };
            let value_milli = (value * 1000.0).round() as i64;
            alerts.push(Alert {
                rule: rule.name.clone(),
                severity: rule.severity,
                series: rule.series,
                window,
                value_milli,
                message: format!(
                    "{} [{}]: {} condition met on series {} at window {} (value {}.{:03})",
                    rule.name,
                    rule.severity.label(),
                    rule.kind.label(),
                    rule.series.label(),
                    window,
                    value_milli / 1000,
                    (value_milli % 1000).unsigned_abs(),
                ),
            });
        }
        alerts
    }

    fn sample(&mut self, online: &OnlineAssessor) {
        let shed_total = online.shed_log().total();
        let anomaly_total = online.anomalies().total();
        self.push([
            shed_total.saturating_sub(self.last_shed_total) as f64,
            anomaly_total.saturating_sub(self.last_anomaly_total) as f64,
            online.tracked_subscribers() as f64,
        ]);
        self.last_shed_total = shed_total;
        self.last_anomaly_total = anomaly_total;
    }

    /// Record the next window's samples, checking the threshold and
    /// rate rules that have not fired yet against them.
    fn push(&mut self, row: [f64; 3]) {
        let previous = self.samples.last();
        for (rule, fired) in self.rules.iter().zip(&mut self.fired) {
            if fired.is_some() {
                continue;
            }
            let value = row[rule.series as usize];
            let hit = match rule.kind {
                RuleKind::Threshold { max } => (value > max).then_some(value),
                RuleKind::RateOverWindow { max_delta } => previous
                    .map(|p| value - p[rule.series as usize])
                    .filter(|&delta| delta > max_delta),
                RuleKind::Drift { .. } => None,
            };
            *fired = hit.map(|v| (self.next_window, v));
        }
        if self.samples.len() == MAX_SAMPLES_PER_SERIES {
            self.samples.remove(0);
        }
        self.samples.push(row);
        self.next_window += 1;
    }
}

/// A malformed rules file: what went wrong and on which 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleParseError {
    /// What was wrong.
    pub what: String,
    /// 1-based line number.
    pub line: usize,
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rules line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for RuleParseError {}

/// Parse alerting rules from a TOML subset: `[[rule]]` tables with
/// `name`, `series` (`"shed_rate"` | `"anomaly_rate"` |
/// `"queue_depth"`), `kind` (`"threshold"` | `"rate"` | `"drift"`),
/// `severity` (`"warning"` | `"critical"`, default `"warning"`), and
/// the kind's parameter (`max`, `max_delta`, or `h_sigmas`). Comments
/// (`#`) and blank lines are ignored.
///
/// ```
/// let rules = vqoe_core::parse_rules(
///     "[[rule]]\nname = \"shed-drift\"\nseries = \"shed_rate\"\n\
///      kind = \"drift\"\nh_sigmas = 4.0\nseverity = \"critical\"\n",
/// )
/// .unwrap();
/// assert_eq!(rules.len(), 1);
/// ```
pub fn parse_rules(text: &str) -> Result<Vec<AlertRule>, RuleParseError> {
    #[derive(Default)]
    struct Pending {
        line: usize,
        name: Option<String>,
        series: Option<AlertSeries>,
        kind: Option<String>,
        severity: Option<String>,
        max: Option<f64>,
        max_delta: Option<f64>,
        h_sigmas: Option<f64>,
    }
    fn close(p: Pending) -> Result<AlertRule, RuleParseError> {
        let err = |what: &str| RuleParseError {
            what: what.to_string(),
            line: p.line,
        };
        let name = p.name.ok_or_else(|| err("rule is missing `name`"))?;
        let series = p.series.ok_or_else(|| err("rule is missing `series`"))?;
        let severity = match p.severity.as_deref() {
            None | Some("warning") => AlertSeverity::Warning,
            Some("critical") => AlertSeverity::Critical,
            Some(_) => return Err(err("`severity` must be \"warning\" or \"critical\"")),
        };
        let kind = match p.kind.as_deref() {
            Some("threshold") => RuleKind::Threshold {
                max: p.max.ok_or_else(|| err("threshold rule needs `max`"))?,
            },
            Some("rate") => RuleKind::RateOverWindow {
                max_delta: p
                    .max_delta
                    .or(p.max)
                    .ok_or_else(|| err("rate rule needs `max_delta`"))?,
            },
            Some("drift") => RuleKind::Drift {
                h_sigmas: p
                    .h_sigmas
                    .ok_or_else(|| err("drift rule needs `h_sigmas`"))?,
            },
            _ => {
                return Err(err(
                    "rule needs `kind` = \"threshold\" | \"rate\" | \"drift\"",
                ))
            }
        };
        Ok(AlertRule {
            name,
            series,
            severity,
            kind,
        })
    }

    let mut rules = Vec::new();
    let mut pending: Option<Pending> = None;
    for (i, raw) in text.lines().enumerate() {
        let err = |what: String| RuleParseError { what, line: i + 1 };
        let line = match raw.split_once('#') {
            Some((head, _)) => head.trim(),
            None => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        if line == "[[rule]]" {
            if let Some(p) = pending.take() {
                rules.push(close(p)?);
            }
            pending = Some(Pending {
                line: i + 1,
                ..Pending::default()
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(format!(
                "expected `key = value` or [[rule]], got {line:?}"
            )));
        };
        let Some(p) = pending.as_mut() else {
            return Err(err("key outside any [[rule]] table".to_string()));
        };
        let key = key.trim();
        let value = value.trim();
        let string = |v: &str| {
            v.strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .map(str::to_string)
                .ok_or_else(|| err(format!("`{key}` expects a quoted string")))
        };
        // A non-finite bound would make its rule silently dead: every
        // comparison against NaN is false.
        let number = |v: &str| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| err(format!("`{key}` expects a finite number, got {v:?}")))
        };
        match key {
            "name" => p.name = Some(string(value)?),
            // So would a series nothing samples.
            "series" => {
                let label = string(value)?;
                let series = AlertSeries::ALL.into_iter().find(|s| s.label() == label);
                p.series = Some(series.ok_or_else(|| {
                    err(format!(
                        "`series` must be \"shed_rate\", \"anomaly_rate\" or \
                         \"queue_depth\", got {label:?}"
                    ))
                })?);
            }
            "kind" => p.kind = Some(string(value)?),
            "severity" => p.severity = Some(string(value)?),
            "max" => p.max = Some(number(value)?),
            "max_delta" => p.max_delta = Some(number(value)?),
            "h_sigmas" => p.h_sigmas = Some(number(value)?),
            other => return Err(err(format!("unknown key `{other}`"))),
        }
    }
    if let Some(p) = pending.take() {
        rules.push(close(p)?);
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(series: AlertSeries, kind: RuleKind) -> AlertRule {
        AlertRule {
            name: format!("{}-{}", series.label(), kind.label()),
            series,
            severity: AlertSeverity::Critical,
            kind,
        }
    }

    /// A sampler of `rules` at one record a window, starting at window
    /// 0. The tests push each window's samples themselves.
    fn sampler(rules: Vec<AlertRule>) -> AlertSampler {
        AlertSampler {
            fired: vec![None; rules.len()],
            rules,
            window_records: 1,
            next_window: 0,
            samples: Vec::new(),
            last_shed_total: 0,
            last_anomaly_total: 0,
        }
    }

    /// The alerts of `rules` after one window per `shed_rate` value
    /// (the other series read 0).
    fn shed_alerts(rules: Vec<AlertRule>, values: impl IntoIterator<Item = f64>) -> Vec<Alert> {
        let mut s = sampler(rules);
        for v in values {
            s.push([v, 0.0, 0.0]);
        }
        s.alerts()
    }

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
        let series: Vec<AlertSeries> = rules.iter().map(|r| r.series).collect();
        assert_eq!(series, AlertSeries::ALL);
        assert!(rules
            .iter()
            .all(|r| matches!(r.kind, RuleKind::Drift { .. })));
    }

    #[test]
    fn threshold_fires_on_first_crossing() {
        let alerts = shed_alerts(
            vec![rule(
                AlertSeries::ShedRate,
                RuleKind::Threshold { max: 5.0 },
            )],
            [1.0, 2.0, 7.0, 9.0],
        );
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].window, 2);
        assert_eq!(alerts[0].value_milli, 7000);
        assert_eq!(alerts[0].severity, AlertSeverity::Critical);
    }

    #[test]
    fn rate_rule_watches_window_deltas() {
        let alerts = shed_alerts(
            vec![rule(
                AlertSeries::ShedRate,
                RuleKind::RateOverWindow { max_delta: 3.0 },
            )],
            [0.0, 2.0, 3.0, 10.0],
        );
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].window, 3);
        assert_eq!(alerts[0].value_milli, 7000);
    }

    /// Thirty quiet windows, then ten flooded ones.
    fn flood_series() -> Vec<f64> {
        (0..40)
            .map(|i| {
                if i < 30 {
                    f64::from(i % 3)
                } else {
                    200.0 + f64::from(i % 2)
                }
            })
            .collect()
    }

    #[test]
    fn standard_engine_fires_the_drift_rule() {
        let alerts = shed_alerts(default_alert_rules(), flood_series());
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "shed_rate-drift");
    }

    #[test]
    fn drift_rule_fires_where_the_cusum_chart_alarms() {
        let series = flood_series();
        let alerts = shed_alerts(
            vec![rule(
                AlertSeries::ShedRate,
                RuleKind::Drift { h_sigmas: 2.0 },
            )],
            series.iter().copied(),
        );
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "shed_rate-drift");
        let window = drift_alarm(&series, 2.0).expect("the chart alarms on the flood");
        assert_eq!(
            alerts[0].window as usize, window,
            "the window the chart names"
        );
    }

    #[test]
    fn sample_bank_is_bounded() {
        let mut s = sampler(Vec::new());
        for i in 0..(MAX_SAMPLES_PER_SERIES + 10) {
            s.push([i as f64, 0.0, 0.0]);
        }
        assert_eq!(s.samples.len(), MAX_SAMPLES_PER_SERIES);
        assert_eq!(s.samples[0][0], 10.0, "oldest evicted");
    }

    #[test]
    fn windows_past_the_bound_keep_their_absolute_numbers() {
        // 5,000 windows, more than the sampler keeps, with one crossing
        // of each kind: late (kept) and early (evicted by the end).
        let rules = || {
            vec![
                rule(AlertSeries::ShedRate, RuleKind::Threshold { max: 5.0 }),
                rule(
                    AlertSeries::ShedRate,
                    RuleKind::RateOverWindow { max_delta: 5.0 },
                ),
            ]
        };
        for crossing in [4_500, 100] {
            let values = (0..5_000).map(|w| if w == crossing { 9.0 } else { 1.0 });
            let alerts = shed_alerts(rules(), values);
            let windows: Vec<u64> = alerts.iter().map(|a| a.window).collect();
            assert_eq!(windows, [crossing, crossing], "{alerts:?}");
        }
        // A drift past the bound is reported on the same clock.
        let values = (0..5_000).map(|w| if w < 4_600 { f64::from(w % 2) } else { 50.0 });
        let alerts = shed_alerts(default_alert_rules(), values);
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert!((4_600..4_700).contains(&alerts[0].window), "{alerts:?}");
    }

    #[test]
    fn sampler_state_survives_a_json_round_trip() {
        let mut rules = default_alert_rules();
        rules.push(rule(
            AlertSeries::QueueDepth,
            RuleKind::Threshold { max: 30.0 },
        ));
        rules.push(rule(
            AlertSeries::AnomalyRate,
            RuleKind::RateOverWindow { max_delta: 2.5 },
        ));
        let row = |w: u32| {
            let shed = if w < 40 { f64::from(w % 2) } else { 80.0 };
            let anomalies = if w == 50 { 9.0 } else { 0.0 };
            [shed, anomalies, f64::from(w)]
        };
        let mut whole = sampler(rules);
        for w in 0..25 {
            whole.push(row(w));
        }
        let json = serde_json::to_string(&whole).expect("serialize");
        let mut resumed: AlertSampler = serde_json::from_str(&json).expect("deserialize");
        for w in 25..60 {
            whole.push(row(w));
            resumed.push(row(w));
        }
        let alerts = whole.alerts();
        assert_eq!(alerts.len(), 5, "every rule fires: {alerts:?}");
        assert_eq!(resumed.alerts(), alerts);
    }

    #[test]
    fn parse_rules_round_trips_every_kind() {
        let text = r#"
# drift on the shed-rate series
[[rule]]
name = "shed-drift"
series = "shed_rate"
kind = "drift"
h_sigmas = 4.0
severity = "critical"

[[rule]]
name = "queue-cap"      # inline comment
series = "queue_depth"
kind = "threshold"
max = 100

[[rule]]
name = "anomaly-surge"
series = "anomaly_rate"
kind = "rate"
max_delta = 12.5
severity = "warning"
"#;
        let rules = parse_rules(text).unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].kind, RuleKind::Drift { h_sigmas: 4.0 });
        assert_eq!(rules[0].severity, AlertSeverity::Critical);
        assert_eq!(rules[1].kind, RuleKind::Threshold { max: 100.0 });
        assert_eq!(rules[1].severity, AlertSeverity::Warning);
        assert_eq!(rules[2].kind, RuleKind::RateOverWindow { max_delta: 12.5 });
        let series: Vec<AlertSeries> = rules.iter().map(|r| r.series).collect();
        assert_eq!(
            series,
            [
                AlertSeries::ShedRate,
                AlertSeries::QueueDepth,
                AlertSeries::AnomalyRate
            ]
        );
    }

    #[test]
    fn parse_rules_reports_line_numbers() {
        let err = parse_rules("[[rule]]\nseries = \"shed_rate\"\nkind = \"drift\"\nh_sigmas = 1\n")
            .unwrap_err();
        assert_eq!(err.line, 1, "close error anchors at the table header");
        assert!(err.what.contains("name"));
        let err = parse_rules("name = \"x\"\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.what.contains("outside"));
        let err = parse_rules("[[rule]]\nbogus = 3\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn parse_rules_rejects_an_unknown_series() {
        let text = "[[rule]]\nname = \"r\"\nkind = \"threshold\"\nmax = 8\n\
                    series = \"shed_rat\"\n";
        let err = parse_rules(text).unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.what.contains("\"shed_rat\""), "{err}");
        assert!(err
            .to_string()
            .starts_with("rules line 5: `series` must be"));
    }

    #[test]
    fn parse_rules_rejects_non_finite_bounds() {
        for (key, value) in [
            ("max", "nan"),
            ("max", "inf"),
            ("max_delta", "-inf"),
            ("h_sigmas", "NaN"),
            ("h_sigmas", "infinity"),
        ] {
            let text = format!("[[rule]]\nname = \"r\"\nseries = \"shed_rate\"\n{key} = {value}\n");
            let err = parse_rules(&text).unwrap_err();
            assert_eq!(err.line, 4, "{key} = {value}");
            assert!(
                err.what.contains(key) && err.what.contains("finite"),
                "{err}"
            );
        }
    }

    /// Characters a rule name may hold in the rules file: everything
    /// but `#` (a comment), `"` and line breaks.
    const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-.:/ =";

    fn name_from(picks: &[u8]) -> String {
        let chars = picks
            .iter()
            .map(|&p| NAME_CHARS[usize::from(p) % NAME_CHARS.len()]);
        let name: String = chars.map(char::from).collect();
        format!("r{}x", name.trim())
    }

    /// The rules file that declares `rules`.
    fn render(rules: &[AlertRule]) -> String {
        let mut text = String::new();
        for r in rules {
            let (key, value) = match r.kind {
                RuleKind::Threshold { max } => ("max", max),
                RuleKind::RateOverWindow { max_delta } => ("max_delta", max_delta),
                RuleKind::Drift { h_sigmas } => ("h_sigmas", h_sigmas),
            };
            text += &format!(
                "[[rule]]\nname = \"{}\"\nseries = \"{}\"\nkind = \"{}\"\n\
                 {key} = {value:?}\nseverity = \"{}\"\n",
                r.name,
                r.series.label(),
                r.kind.label(),
                r.severity.label()
            );
        }
        text
    }

    fn rules_from(specs: &[(u8, u64, bool, Vec<u8>)]) -> Vec<AlertRule> {
        specs
            .iter()
            .map(|(kind, bits, critical, name)| {
                let mut bound = f64::from_bits(*bits);
                if !bound.is_finite() {
                    bound = f64::from_bits(bits >> 12);
                }
                AlertRule {
                    name: name_from(name),
                    series: AlertSeries::ALL[name.len() % 3],
                    severity: if *critical {
                        AlertSeverity::Critical
                    } else {
                        AlertSeverity::Warning
                    },
                    kind: match kind % 3 {
                        0 => RuleKind::Threshold { max: bound },
                        1 => RuleKind::RateOverWindow { max_delta: bound },
                        _ => RuleKind::Drift { h_sigmas: bound },
                    },
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Every rule set survives rendering and parsing unchanged, its
        /// bounds bit for bit.
        #[test]
        fn rendered_rules_parse_back_unchanged(
            specs in proptest::collection::vec(
                (
                    0u8..3,
                    0u64..u64::MAX,
                    proptest::bool::ANY,
                    proptest::collection::vec(0u8..255, 0..12),
                ),
                0..6,
            ),
        ) {
            let rules = rules_from(&specs);
            let parsed = parse_rules(&render(&rules));
            proptest::prop_assert_eq!(parsed, Ok(rules));
        }

        /// Parsing is total over damaged files: truncated, bit-flipped,
        /// arbitrary or spliced bytes give rules or a typed error that
        /// names a line of the file, never a panic.
        #[test]
        fn damaged_rule_files_never_panic(
            specs in proptest::collection::vec(
                (
                    0u8..3,
                    0u64..u64::MAX,
                    proptest::bool::ANY,
                    proptest::collection::vec(0u8..255, 0..12),
                ),
                1..4,
            ),
            mode in 0u8..4,
            at in 0usize..usize::MAX,
            bit in 0u8..8,
            junk in proptest::collection::vec(0u16..256, 0..48),
        ) {
            let mut bytes = render(&rules_from(&specs)).into_bytes();
            let junk: Vec<u8> = junk.into_iter().map(|b| b as u8).collect();
            let pos = at % bytes.len();
            match mode {
                0 => bytes.truncate(pos),
                1 => bytes[pos] ^= 1 << bit,
                2 => bytes = junk,
                _ => {
                    bytes.splice(pos..pos, junk);
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            if let Err(e) = parse_rules(&text) {
                proptest::prop_assert!(
                    (1..=text.lines().count()).contains(&e.line),
                    "line {} of {}",
                    e.line,
                    text.lines().count()
                );
            }
        }
    }
}
