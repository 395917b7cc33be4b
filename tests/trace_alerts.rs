//! PR 9 acceptance tests: deterministic session tracing, exemplar-linked
//! histograms, and the CUSUM alerting engine.
//!
//! The contract under test:
//!
//! * turning tracing, exemplars and alerting on never perturbs the
//!   pipeline — the [`IngestReport`] is equal (and the Stable snapshot
//!   byte-identical modulo the exemplar annotations) with the features
//!   enabled vs disabled, at workers 1/2/7, with and without chaos;
//! * the Chrome trace export is byte-stable across repeated runs and
//!   across worker counts, and parses as JSON (so Perfetto /
//!   chrome://tracing can load it); the JSONL export parses line by
//!   line;
//! * the alert engine fires deterministic CUSUM drift alerts during a
//!   subscriber-flood overload and stays silent on a clean corpus.

mod common;

use common::multi_subscriber_tap;

use std::sync::OnceLock;

use vqoe_core::{
    default_alert_rules, encode_snapshot, AdmissionPolicy, Alert, AlertRule, AlertSampler,
    AlertSeries, AlertSeverity, BudgetConfig, EngineConfig, IngestReport, OnlineAssessor,
    PipelineMetrics, QoeMonitor, RuleKind, TrainingConfig,
};
use vqoe_obs::{Registry, Trace, TraceConfig};
use vqoe_simnet::time::Instant;
use vqoe_telemetry::capture::generate_noise;
use vqoe_telemetry::{
    apply_chaos, generate_subscriber_flood, merge_streams, ChaosConfig, FloodSpec, IngestConfig,
    WeblogEntry,
};

fn monitor() -> &'static QoeMonitor {
    static MONITOR: OnceLock<QoeMonitor> = OnceLock::new();
    MONITOR.get_or_init(|| {
        QoeMonitor::train(&TrainingConfig {
            cleartext_sessions: 250,
            adaptive_sessions: 150,
            seed: 97,
            ..TrainingConfig::default()
        })
    })
}

/// Remove the exemplar annotations from a JSON snapshot, leaving the
/// numeric histogram state: what the byte-identity contract covers.
fn strip_exemplars(snapshot: &str) -> String {
    let mut out = String::with_capacity(snapshot.len());
    let mut rest = snapshot;
    while let Some(i) = rest.find(", \"exemplars\": [") {
        out.push_str(&rest[..i]);
        let tail = &rest[i + ", \"exemplars\": ".len()..];
        let mut depth = 0usize;
        let mut end = 0usize;
        for (j, b) in tail.bytes().enumerate() {
            match b {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        end = j + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        assert!(end > 0, "unterminated exemplar array in snapshot");
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// One engine pass over `entries`; exemplars and tracing switched by
/// `observed`. Returns the report, the Stable snapshot, and the trace
/// (when observed).
fn engine_run(
    workers: usize,
    entries: &[WeblogEntry],
    observed: bool,
) -> (IngestReport, String, Option<Trace>) {
    let cfg = EngineConfig {
        workers,
        shards: 16,
    };
    let registry = Registry::new();
    let metrics = if observed {
        PipelineMetrics::register_with_exemplars(&registry)
    } else {
        PipelineMetrics::register(&registry)
    };
    let engine = monitor().pipeline().with_engine(cfg).with_metrics(metrics);
    let (report, trace) = if observed {
        let (report, trace) = engine.assess_traced(entries, TraceConfig::default());
        (report, Some(trace))
    } else {
        (engine.assess(entries), None)
    };
    (report, encode_snapshot(&registry.snapshot()), trace)
}

#[test]
fn observability_never_perturbs_the_report_or_snapshot() {
    let clean = multi_subscriber_tap(4, 2, 5100);
    let (chaotic, _) = apply_chaos(&clean, &ChaosConfig::uniform(0.15), 5101);
    for entries in [&clean, &chaotic] {
        let mut bare_reference: Option<(IngestReport, String)> = None;
        let mut observed_reference: Option<String> = None;
        for workers in [1usize, 2, 7] {
            let (bare_report, bare_snap, _) = engine_run(workers, entries, false);
            let (obs_report, obs_snap, trace) = engine_run(workers, entries, true);
            // Feature-on equals feature-off, including the (empty on
            // the engine path) alerts field.
            assert_eq!(
                obs_report, bare_report,
                "tracing+exemplars changed the report at {workers} workers"
            );
            assert_eq!(
                strip_exemplars(&obs_snap),
                bare_snap,
                "snapshot numeric state changed at {workers} workers"
            );
            assert!(
                obs_snap.contains("\"exemplars\""),
                "exemplar capture produced no annotations"
            );
            assert!(
                trace.as_ref().is_some_and(|t| !t.events().is_empty()),
                "traced run recorded no spans"
            );
            // And both artifacts are worker-count-invariant.
            match &bare_reference {
                None => bare_reference = Some((bare_report, bare_snap)),
                Some((r, s)) => {
                    assert_eq!(&bare_report, r, "bare report diverged at {workers} workers");
                    assert_eq!(&bare_snap, s, "bare snapshot diverged at {workers} workers");
                }
            }
            match &observed_reference {
                None => observed_reference = Some(obs_snap),
                Some(s) => assert_eq!(
                    &obs_snap, s,
                    "exemplar snapshot diverged at {workers} workers"
                ),
            }
        }
    }
}

#[test]
fn chrome_trace_export_is_byte_stable_and_loads_as_json() {
    let entries = multi_subscriber_tap(3, 2, 5300);
    let mut reference: Option<(String, String)> = None;
    for workers in [1usize, 2, 7, 1] {
        let (_, _, trace) = engine_run(workers, &entries, true);
        let trace = trace.expect("traced run yields a trace");
        let chrome = trace.to_chrome_json();
        let jsonl = trace.to_jsonl();
        match &reference {
            None => reference = Some((chrome.clone(), jsonl.clone())),
            Some((c, j)) => {
                assert_eq!(&chrome, c, "chrome export diverged at {workers} workers");
                assert_eq!(&jsonl, j, "jsonl export diverged at {workers} workers");
            }
        }
        // The export must be loadable JSON with the trace-event keys
        // Perfetto expects.
        let value: serde::Value =
            serde_json::from_str(&chrome).expect("chrome trace parses as JSON");
        let events = value
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), trace.events().len());
        for e in events {
            for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
                assert!(e.get(key).is_some(), "trace event missing {key}");
            }
        }
        // JSONL: a self-describing header line, then one object per
        // event.
        let mut lines = jsonl.lines();
        let header: serde::Value =
            serde_json::from_str(lines.next().expect("header line")).expect("header parses");
        assert_eq!(
            header.get("events").and_then(|v| v.as_u64()),
            Some(trace.events().len() as u64)
        );
        for line in lines {
            let _: serde::Value = serde_json::from_str(line).expect("jsonl event parses");
        }
    }
}

/// Clean tap followed by a subscriber flood, and the budget the flood
/// overruns.
fn flooded_tap() -> (Vec<WeblogEntry>, BudgetConfig) {
    let legit = multi_subscriber_tap(2, 2, 5500);
    let start = legit.first().map(|e| e.timestamp).expect("entries");
    let flood = generate_subscriber_flood(
        &FloodSpec {
            subscribers: 24,
            ..FloodSpec::default()
        },
        start,
        5501,
    );
    let entries = merge_streams(vec![legit, flood]);
    let per_record = entries
        .iter()
        .map(|e| e.tracked_cost())
        .max()
        .unwrap_or(256);
    let budget = BudgetConfig {
        per_subscriber_bytes: 16 * per_record,
        global_bytes: 48 * per_record,
        admission: AdmissionPolicy::ShedColdest,
    };
    (entries, budget)
}

/// The budgeted streaming assessor over `entries`, sampled every
/// `window` records into `rules`: the report and the alerts.
fn sampled_run(
    entries: &[WeblogEntry],
    budget: BudgetConfig,
    rules: Vec<AlertRule>,
    window: u64,
) -> (IngestReport, Vec<Alert>) {
    let mut online =
        OnlineAssessor::with_config(monitor().clone(), IngestConfig::default()).with_budget(budget);
    let mut sampler = AlertSampler::new(rules, window, &online);
    for e in entries {
        online.ingest(e);
        sampler.observe(&online);
    }
    let alerts = sampler.finish(&online);
    (online.into_report(), alerts)
}

/// The flood with the default CUSUM drift rules.
fn flooded_run(window: u64) -> (IngestReport, Vec<Alert>) {
    let (entries, budget) = flooded_tap();
    sampled_run(&entries, budget, default_alert_rules(), window)
}

/// A critical rule that fires on the first window shedding more than
/// `max` subscribers.
fn shed_cap(max: f64) -> AlertRule {
    AlertRule {
        name: "shed-cap".to_string(),
        series: AlertSeries::ShedRate,
        severity: AlertSeverity::Critical,
        kind: RuleKind::Threshold { max },
    }
}

#[test]
fn drift_alerts_fire_on_the_flood_and_stay_silent_on_a_clean_corpus() {
    // The flood shifts the per-window shed rate from a flat zero
    // baseline to a sustained plateau: exactly the mean shift CUSUM
    // exists to catch.
    let (report, alerts) = flooded_run(16);
    assert!(
        report.shed.total() > 0,
        "the flood must force shedding for the drift rule to see"
    );
    assert!(
        alerts.iter().any(|a| a.rule == "shed_rate-drift"),
        "no shed-rate drift alert fired; got {alerts:?}"
    );
    // Deterministic: the identical run fires the identical alerts.
    assert_eq!(alerts, flooded_run(16).1);

    // A clean, unbudgeted corpus never sheds and never drifts.
    let entries = multi_subscriber_tap(3, 2, 5700);
    let (_, clean) = sampled_run(&entries, BudgetConfig::default(), default_alert_rules(), 16);
    assert!(clean.is_empty(), "clean corpus raised alerts: {clean:?}");
}

#[test]
fn a_restored_run_counts_its_first_alert_window_from_the_cut() {
    // Cut the flood on a window boundary: the resumed sampler's windows
    // are the uninterrupted run's last ones, so a cap no window of the
    // uninterrupted run exceeds stays silent after the restore too.
    let (window, cut) = (16, 464);
    let (entries, budget) = flooded_tap();
    let max = 11.0;
    let (_, whole) = sampled_run(&entries, budget, vec![shed_cap(max)], window);
    assert!(
        whole.is_empty(),
        "no window sheds more than {max}: {whole:?}"
    );

    let mut online =
        OnlineAssessor::with_config(monitor().clone(), IngestConfig::default()).with_budget(budget);
    for e in &entries[..cut] {
        online.ingest(e);
    }
    let ck = online.checkpoint();
    assert!(ck.shed.total() as f64 > max, "the cut must follow a shed");
    let mut online = OnlineAssessor::restore(monitor().clone(), &ck).expect("restore");
    let mut sampler = AlertSampler::new(vec![shed_cap(max)], window, &online);
    for e in &entries[cut..] {
        online.ingest(e);
        sampler.observe(&online);
    }
    let resumed = sampler.finish(&online);
    assert!(
        resumed.is_empty(),
        "sheds from before the cut leaked into the first window: {resumed:?}"
    );
}

#[test]
fn a_restored_run_numbers_its_windows_on_the_record_clock() {
    // Cut the flood on a window boundary before the one window that
    // sheds more than `max`: the resumed run raises the uninterrupted
    // run's alert, window included.
    let (window, cut) = (16, 256);
    let (entries, budget) = flooded_tap();
    let max = 10.0;
    let (_, whole) = sampled_run(&entries, budget, vec![shed_cap(max)], window);
    assert_eq!(whole.len(), 1, "{whole:?}");
    assert!(whole[0].window > cut / window, "{whole:?}");

    let mut online =
        OnlineAssessor::with_config(monitor().clone(), IngestConfig::default()).with_budget(budget);
    for e in &entries[..cut as usize] {
        online.ingest(e);
    }
    let mut online =
        OnlineAssessor::restore(monitor().clone(), &online.checkpoint()).expect("restore");
    let mut sampler = AlertSampler::new(vec![shed_cap(max)], window, &online);
    for e in &entries[cut as usize..] {
        online.ingest(e);
        sampler.observe(&online);
    }
    assert_eq!(sampler.finish(&online), whole);
}

#[test]
fn a_window_closed_by_a_record_dropped_at_the_door_keeps_its_sample() {
    // Noise from an untracked subscriber is screened out before any
    // machine sees it. The windows it closes are still windows, so the
    // first shedding window is the one that holds the first shed.
    let (flood, budget) = flooded_tap();
    let mut rng = rand::SeedableRng::seed_from_u64(5502);
    let noise = generate_noise(9_999, Instant::ZERO, Instant::from_secs(60), 40, &mut rng);
    let entries = [noise, flood].concat();
    let window = 16;
    let (report, alerts) = sampled_run(&entries, budget, vec![shed_cap(0.0)], window);
    let first_shed = report
        .shed
        .kept()
        .first()
        .expect("the flood sheds")
        .at_record;
    assert_eq!(alerts.len(), 1, "{alerts:?}");
    assert_eq!(alerts[0].window, (first_shed - 1) / window);
}
