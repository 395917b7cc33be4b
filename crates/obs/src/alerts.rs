//! Declarative alerting over per-window metric sample series.
//!
//! An [`AlertEngine`] holds a set of [`AlertRule`]s and a bank of named
//! sample series. The pipeline pushes one sample per series per tick
//! window (e.g. the shed-event delta over the last N ingested records);
//! [`AlertEngine::finish`] evaluates every rule over the complete
//! series and returns typed [`Alert`]s.
//!
//! Three rule kinds:
//!
//! - **threshold** — fires on the first window whose sample exceeds a
//!   fixed maximum.
//! - **rate** — fires on the first window whose sample *increase* over
//!   the previous window exceeds a maximum delta.
//! - **drift** — fires when a change detector flags the series. The
//!   detector itself is injected as a plain function pointer
//!   ([`DriftFn`]) so this crate stays dependency-free; the workspace
//!   wires in the `vqoe-changedet` CUSUM chart.
//!
//! Everything here is deterministic: series are ordered vectors keyed
//! by a `BTreeMap`, evaluation walks rules in declaration order, and no
//! clock is consulted. Rules parse from a small TOML subset
//! ([`parse_rules`]) so `--alerts rules.toml` needs no external parser.

use std::collections::BTreeMap;
use std::fmt;

/// How loud an alert is (maps to the levelled stderr reporter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

/// What condition a rule checks against its series.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Change-detector drift with threshold `h_sigmas` (in σ units of
    /// the series, as the backend defines it).
    Drift {
        /// Alarm threshold handed to the [`DriftFn`] backend.
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

/// One declarative alerting rule bound to a named sample series.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name (unique per engine by convention; reported verbatim).
    pub name: String,
    /// The sample series the rule watches.
    pub series: String,
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
    pub series: String,
    /// 0-based index of the tick window where the condition first held.
    pub window: u64,
    /// The offending sample (or delta) in milli-units, rounded to
    /// nearest.
    pub value_milli: i64,
    /// Human-readable one-liner.
    pub message: String,
}

/// Injected drift detector: given the full sample series and a
/// threshold, return the first alarming window index (or `None`).
pub type DriftFn = fn(&[f64], f64) -> Option<usize>;

/// Hard cap on retained samples per series; the oldest sample is
/// discarded beyond it (deterministically), keeping a long-running
/// engine bounded.
pub const MAX_SAMPLES_PER_SERIES: usize = 4096;

/// Rule evaluator over named per-window sample series.
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    series: BTreeMap<String, Vec<f64>>,
    drift: Option<DriftFn>,
    windows: u64,
}

impl AlertEngine {
    /// Engine over `rules` with no drift backend (drift rules are
    /// skipped until [`AlertEngine::with_drift`] installs one).
    pub fn new(rules: Vec<AlertRule>) -> Self {
        AlertEngine {
            rules,
            series: BTreeMap::new(),
            drift: None,
            windows: 0,
        }
    }

    /// Install the drift-detection backend.
    pub fn with_drift(mut self, drift: DriftFn) -> Self {
        self.drift = Some(drift);
        self
    }

    /// The configured rules.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Number of completed sample windows so far (the maximum series
    /// length).
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Append one sample to `series` for the current window. Series a
    /// rule never references are still accepted (and bounded).
    pub fn push_sample(&mut self, series: &str, value: f64) {
        let samples = self.series.entry(series.to_string()).or_default();
        if samples.len() >= MAX_SAMPLES_PER_SERIES {
            samples.remove(0);
        }
        samples.push(value);
        self.windows = self.windows.max(samples.len() as u64);
    }

    /// Evaluate every rule over its full series, clear the sample bank,
    /// and return the fired alerts in rule declaration order (at most
    /// one alert per rule: the first window where the condition held).
    pub fn finish(&mut self) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for rule in &self.rules {
            let samples = self
                .series
                .get(&rule.series)
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            let fired = match rule.kind {
                RuleKind::Threshold { max } => samples
                    .iter()
                    .position(|&v| v > max)
                    .map(|i| (i, samples[i])),
                RuleKind::RateOverWindow { max_delta } => samples
                    .windows(2)
                    .position(|w| w[1] - w[0] > max_delta)
                    .map(|i| (i + 1, samples[i + 1] - samples[i])),
                RuleKind::Drift { h_sigmas } => self
                    .drift
                    .and_then(|f| f(samples, h_sigmas))
                    .map(|i| (i, samples.get(i).copied().unwrap_or(0.0))),
            };
            if let Some((window, value)) = fired {
                let value_milli = (value * 1000.0).round() as i64;
                alerts.push(Alert {
                    rule: rule.name.clone(),
                    severity: rule.severity,
                    series: rule.series.clone(),
                    window: window as u64,
                    value_milli,
                    message: format!(
                        "{} [{}]: {} {} on series {} at window {} (value {}.{:03})",
                        rule.name,
                        rule.severity.label(),
                        rule.kind.label(),
                        "condition met",
                        rule.series,
                        window,
                        value_milli / 1000,
                        (value_milli % 1000).unsigned_abs(),
                    ),
                });
            }
        }
        self.series.clear();
        self.windows = 0;
        alerts
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
/// `name`, `series`, `kind` (`"threshold"` | `"rate"` | `"drift"`),
/// `severity` (`"warning"` | `"critical"`, default `"warning"`), and
/// the kind's parameter (`max`, `max_delta`, or `h_sigmas`). Comments
/// (`#`) and blank lines are ignored.
///
/// ```
/// let rules = vqoe_obs::parse_rules(
///     "[[rule]]\nname = \"shed-drift\"\nseries = \"shed_rate\"\n\
///      kind = \"drift\"\nh_sigmas = 4.0\nseverity = \"critical\"\n",
/// )
/// .unwrap();
/// assert_eq!(rules.len(), 1);
/// ```
pub fn parse_rules(text: &str) -> Result<Vec<AlertRule>, RuleParseError> {
    struct Pending {
        line: usize,
        name: Option<String>,
        series: Option<String>,
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
        let name = p
            .name
            .clone()
            .ok_or_else(|| err("rule is missing `name`"))?;
        let series = p
            .series
            .clone()
            .ok_or_else(|| err("rule is missing `series`"))?;
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
        let lineno = i + 1;
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
                line: lineno,
                name: None,
                series: None,
                kind: None,
                severity: None,
                max: None,
                max_delta: None,
                h_sigmas: None,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(RuleParseError {
                what: format!("expected `key = value` or [[rule]], got {line:?}"),
                line: lineno,
            });
        };
        let Some(p) = pending.as_mut() else {
            return Err(RuleParseError {
                what: "key outside any [[rule]] table".to_string(),
                line: lineno,
            });
        };
        let key = key.trim();
        let value = value.trim();
        let string = |v: &str| -> Result<String, RuleParseError> {
            let v = v
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or(RuleParseError {
                    what: format!("`{key}` expects a quoted string"),
                    line: lineno,
                })?;
            Ok(v.to_string())
        };
        // A non-finite bound would make its rule silently dead: every
        // comparison against NaN is false.
        let number = |v: &str| -> Result<f64, RuleParseError> {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or(RuleParseError {
                    what: format!("`{key}` expects a finite number, got {v:?}"),
                    line: lineno,
                })
        };
        match key {
            "name" => p.name = Some(string(value)?),
            "series" => p.series = Some(string(value)?),
            "kind" => p.kind = Some(string(value)?),
            "severity" => p.severity = Some(string(value)?),
            "max" => p.max = Some(number(value)?),
            "max_delta" => p.max_delta = Some(number(value)?),
            "h_sigmas" => p.h_sigmas = Some(number(value)?),
            other => {
                return Err(RuleParseError {
                    what: format!("unknown key `{other}`"),
                    line: lineno,
                })
            }
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

    fn threshold(name: &str, series: &str, max: f64) -> AlertRule {
        AlertRule {
            name: name.to_string(),
            series: series.to_string(),
            severity: AlertSeverity::Critical,
            kind: RuleKind::Threshold { max },
        }
    }

    #[test]
    fn threshold_fires_on_first_crossing() {
        let mut engine = AlertEngine::new(vec![threshold("t", "q", 5.0)]);
        for v in [1.0, 2.0, 7.0, 9.0] {
            engine.push_sample("q", v);
        }
        let alerts = engine.finish();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].window, 2);
        assert_eq!(alerts[0].value_milli, 7000);
        assert_eq!(alerts[0].severity, AlertSeverity::Critical);
    }

    #[test]
    fn rate_rule_watches_window_deltas() {
        let mut engine = AlertEngine::new(vec![AlertRule {
            name: "surge".to_string(),
            series: "s".to_string(),
            severity: AlertSeverity::Warning,
            kind: RuleKind::RateOverWindow { max_delta: 3.0 },
        }]);
        for v in [0.0, 2.0, 3.0, 10.0] {
            engine.push_sample("s", v);
        }
        let alerts = engine.finish();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].window, 3);
        assert_eq!(alerts[0].value_milli, 7000);
    }

    #[test]
    fn drift_rule_is_silent_without_a_backend() {
        let mut engine = AlertEngine::new(vec![AlertRule {
            name: "d".to_string(),
            series: "s".to_string(),
            severity: AlertSeverity::Critical,
            kind: RuleKind::Drift { h_sigmas: 2.0 },
        }]);
        for v in 0..50 {
            engine.push_sample("s", if v < 25 { 0.0 } else { 100.0 });
        }
        assert!(engine.finish().is_empty());
    }

    #[test]
    fn drift_rule_uses_the_injected_backend() {
        fn jump(series: &[f64], _h: f64) -> Option<usize> {
            series
                .windows(2)
                .position(|w| w[1] > w[0] + 50.0)
                .map(|i| i + 1)
        }
        let mut engine = AlertEngine::new(vec![AlertRule {
            name: "d".to_string(),
            series: "s".to_string(),
            severity: AlertSeverity::Critical,
            kind: RuleKind::Drift { h_sigmas: 2.0 },
        }])
        .with_drift(jump);
        for v in [0.0, 1.0, 99.0] {
            engine.push_sample("s", v);
        }
        let alerts = engine.finish();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].window, 2);
    }

    #[test]
    fn finish_clears_the_sample_bank() {
        let mut engine = AlertEngine::new(vec![threshold("t", "q", 5.0)]);
        engine.push_sample("q", 9.0);
        assert_eq!(engine.finish().len(), 1);
        assert!(engine.finish().is_empty(), "second finish sees no samples");
        assert_eq!(engine.windows(), 0);
    }

    #[test]
    fn sample_bank_is_bounded() {
        let mut engine = AlertEngine::new(Vec::new());
        for i in 0..(MAX_SAMPLES_PER_SERIES + 10) {
            engine.push_sample("s", i as f64);
        }
        assert_eq!(
            engine.series.get("s").unwrap().len(),
            MAX_SAMPLES_PER_SERIES
        );
        assert_eq!(engine.series.get("s").unwrap()[0], 10.0, "oldest evicted");
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
    }

    #[test]
    fn parse_rules_reports_line_numbers() {
        let err =
            parse_rules("[[rule]]\nseries = \"s\"\nkind = \"drift\"\nh_sigmas = 1\n").unwrap_err();
        assert_eq!(err.line, 1, "close error anchors at the table header");
        assert!(err.what.contains("name"));
        let err = parse_rules("name = \"x\"\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.what.contains("outside"));
        let err = parse_rules("[[rule]]\nbogus = 3\n").unwrap_err();
        assert_eq!(err.line, 2);
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
            let text = format!("[[rule]]\nname = \"r\"\nseries = \"s\"\n{key} = {value}\n");
            let err = parse_rules(&text).unwrap_err();
            assert_eq!(err.line, 4, "{key} = {value}");
            assert!(
                err.what.contains(key) && err.what.contains("finite"),
                "{err}"
            );
        }
    }

    /// Characters a rule name or series may hold in the rules file:
    /// everything but `#` (a comment), `"` and line breaks.
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
                r.series,
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
                    series: name_from(&name[name.len() / 2..]),
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
