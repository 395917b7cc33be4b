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

use std::sync::OnceLock;

use vqoe_core::{
    default_alert_rules, standard_alert_engine, AdmissionPolicy, BudgetConfig, EncryptedEvalConfig,
    EncryptedWorld, EngineConfig, IngestReport, OnlineAssessor, PipelineMetrics, QoeMonitor,
    TrainingConfig,
};
use vqoe_obs::{Registry, Trace, TraceConfig};
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

fn multi_subscriber_tap(subscribers: u64, sessions: usize, seed: u64) -> Vec<WeblogEntry> {
    let mut entries = Vec::new();
    for s in 0..subscribers {
        let mut cfg = EncryptedEvalConfig::paper_default(seed + s);
        cfg.spec.n_sessions = sessions;
        let mut world = EncryptedWorld::build(&cfg).expect("simulated world builds");
        for e in &mut world.entries {
            e.subscriber_id = s;
        }
        entries.extend(world.entries);
    }
    entries.sort_by_key(|e| e.timestamp);
    entries
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
        ..EngineConfig::default()
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
    (report, registry.snapshot_json(), trace)
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

/// Clean tap followed by a budgeted subscriber flood: the streaming
/// assessor with the default CUSUM drift rules.
fn flooded_run(window: u64) -> IngestReport {
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
    let mut online = OnlineAssessor::with_config(monitor().clone(), IngestConfig::default())
        .with_budget(budget)
        .with_alerts(standard_alert_engine(default_alert_rules()), window);
    for e in &entries {
        online.ingest(e);
    }
    online.into_report()
}

#[test]
fn drift_alerts_fire_on_the_flood_and_stay_silent_on_a_clean_corpus() {
    // The flood shifts the per-window shed rate from a flat zero
    // baseline to a sustained plateau: exactly the mean shift CUSUM
    // exists to catch.
    let report = flooded_run(16);
    assert!(
        report.shed.total() > 0,
        "the flood must force shedding for the drift rule to see"
    );
    assert!(
        report.alerts.iter().any(|a| a.rule == "shed_rate-drift"),
        "no shed-rate drift alert fired; got {:?}",
        report.alerts
    );
    // Deterministic: the identical run fires the identical alerts.
    assert_eq!(report.alerts, flooded_run(16).alerts);

    // A clean, unbudgeted corpus never sheds and never drifts.
    let entries = multi_subscriber_tap(3, 2, 5700);
    let mut online = OnlineAssessor::with_config(monitor().clone(), IngestConfig::default())
        .with_alerts(standard_alert_engine(default_alert_rules()), 16);
    for e in &entries {
        online.ingest(e);
    }
    let clean = online.into_report();
    assert!(
        clean.alerts.is_empty(),
        "clean corpus raised alerts: {:?}",
        clean.alerts
    );
}

#[test]
fn alerts_stay_out_of_the_serialized_report() {
    let report = flooded_run(16);
    assert!(!report.alerts.is_empty(), "flood run must alert");
    let json = serde_json::to_string(&report).expect("report serializes");
    assert!(
        !json.contains("alerts"),
        "derived alerts leaked into the wire format"
    );
    let back: IngestReport = serde_json::from_str(&json).expect("report round-trips");
    assert!(back.alerts.is_empty());
    assert_eq!(back.health, report.health);
    assert_eq!(back.shed, report.shed);
}
