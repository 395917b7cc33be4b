//! Observability-layer integration tests (ISSUE 4 acceptance criteria):
//!
//! * attaching [`PipelineMetrics`] to the sharded engine never perturbs
//!   its output — full [`IngestReport`] equality at workers 1, 2 and 7;
//! * the stable-class JSON snapshot is **byte-identical** across
//!   repeated runs and across worker counts;
//! * [`StreamHealth`] and the per-kind anomaly counts can be
//!   reconstructed from the registry alone (the counters are the
//!   report, not a parallel bookkeeping path) — on the streaming path
//!   after every `ingest` call, shed reasons included, and across a
//!   checkpoint/restore cut;
//! * the `vqoe` CLI emits both exposition formats via `--metrics`,
//!   keeps its `--verbose` stderr stable, and goes silent on `--quiet`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

use vqoe_core::{
    decode_snapshot, encode_snapshot, AdmissionPolicy, BudgetConfig, EncryptedEvalConfig,
    EncryptedWorld, EngineConfig, IngestReport, OnlineAssessor, OnlineCheckpoint, PipelineMetrics,
    QoeMonitor, TrainingConfig,
};
use vqoe_obs::Registry;
use vqoe_telemetry::{apply_chaos, AnomalyKindCounts, ChaosProfile, IngestConfig, WeblogEntry};

fn monitor() -> &'static QoeMonitor {
    static MONITOR: OnceLock<QoeMonitor> = OnceLock::new();
    MONITOR.get_or_init(|| {
        let config = TrainingConfig {
            cleartext_sessions: 250,
            adaptive_sessions: 150,
            seed: 83,
            ..TrainingConfig::default()
        };
        QoeMonitor::train(&config)
    })
}

fn multi_subscriber_tap(subscribers: u64, sessions: usize, seed: u64) -> Vec<WeblogEntry> {
    let mut entries = Vec::new();
    for s in 0..subscribers {
        let mut cfg = EncryptedEvalConfig::paper_default(seed + s);
        cfg.spec.n_sessions = sessions;
        let mut world = EncryptedWorld::build(&cfg).expect("simulated world builds");
        for e in &mut world.entries {
            e.subscriber_id = s * 5 + 1;
        }
        entries.extend(world.entries);
    }
    entries.sort_by_key(|e| e.timestamp);
    entries
}

/// One instrumented engine pass with a fresh registry; returns the
/// report, the snapshot, and the metric handles for reconstruction.
fn instrumented_run(
    workers: usize,
    entries: &[WeblogEntry],
) -> (IngestReport, String, PipelineMetrics) {
    let cfg = EngineConfig {
        workers,
        shards: 16,
    };
    let registry = Registry::new();
    let metrics = PipelineMetrics::register(&registry);
    let report = monitor()
        .pipeline()
        .with_engine(cfg)
        .with_metrics(metrics.clone())
        .assess(entries);
    (report, encode_snapshot(&registry.snapshot()), metrics)
}

#[test]
fn metrics_never_perturb_engine_output_at_any_worker_count() {
    let entries = multi_subscriber_tap(4, 2, 1300);
    for workers in [1usize, 2, 7] {
        let cfg = EngineConfig {
            workers,
            shards: 16,
        };
        let bare = monitor().pipeline().with_engine(cfg).assess(&entries);
        let (instrumented, _, _) = instrumented_run(workers, &entries);
        assert_eq!(
            instrumented, bare,
            "metrics changed engine output at {workers} workers"
        );
        assert!(!bare.assessments.is_empty(), "tap produced no sessions");
    }
}

#[test]
fn snapshot_is_byte_identical_across_runs_and_worker_counts() {
    let entries = multi_subscriber_tap(4, 2, 1300);
    let (_, reference, _) = instrumented_run(1, &entries);
    assert!(
        reference.contains("vqoe_core_monitor_sessions_assessed_total"),
        "snapshot missing expected counter:\n{reference}"
    );
    assert!(
        reference.contains("vqoe_telemetry_ingest_chunk_bytes"),
        "snapshot missing expected histogram:\n{reference}"
    );
    // Runtime-class metrics (scheduling-dependent) must stay out.
    assert!(
        !reference.contains("queue"),
        "runtime-class metric leaked into the snapshot:\n{reference}"
    );
    for workers in [1usize, 2, 7] {
        for rep in 0..2 {
            let (_, snapshot, _) = instrumented_run(workers, &entries);
            assert_eq!(
                snapshot, reference,
                "snapshot diverged at {workers} workers, rep {rep}"
            );
        }
    }
}

#[test]
fn stream_health_and_anomaly_kinds_reconstruct_from_the_registry() {
    let entries = multi_subscriber_tap(3, 2, 4200);
    let (report, _, metrics) = instrumented_run(2, &entries);
    assert_eq!(metrics.tallies().health, report.health);
    assert_eq!(metrics.tallies().kinds, report.anomalies.kinds());
    // The kind counts decompose the log's running total.
    assert_eq!(report.anomalies.kinds().total(), report.anomalies.total());
    // And the same identities hold on the streaming path.
    let registry = Registry::new();
    let online_metrics = PipelineMetrics::register(&registry);
    let mut online = OnlineAssessor::new(monitor().clone()).with_metrics(online_metrics.clone());
    let mut assessments = Vec::new();
    for e in &entries {
        assessments.extend(online.ingest(e));
    }
    let mut online_report = online.into_report();
    assessments.append(&mut online_report.assessments);
    online_report.assessments = assessments;
    assert_eq!(online_metrics.tallies().health, online_report.health);
    assert_eq!(
        online_metrics.tallies().kinds,
        online_report.anomalies.kinds()
    );
    assert_ne!(online_metrics.tallies().health.entries_seen, 0);
}

/// The tallies read back from the registry agree with the assessor's own.
fn assert_mirrors(metrics: &PipelineMetrics, online: &OnlineAssessor, at: &str) {
    assert_eq!(metrics.tallies().health, online.health(), "health {at}");
    assert_eq!(
        metrics.tallies().kinds,
        online.anomalies().kinds(),
        "anomaly kinds {at}"
    );
    assert_eq!(
        metrics.tallies().reasons,
        online.shed_log().reasons(),
        "shed reasons {at}"
    );
}

#[test]
fn registry_mirrors_the_tallies_after_every_ingest_call() {
    let clean = multi_subscriber_tap(6, 1, 4300);
    let (entries, _) = apply_chaos(&clean, &ChaosProfile::Harsh.chaos(), 4301);
    let per_record = clean.iter().map(|e| e.tracked_cost()).max().unwrap_or(256);
    let budgets = [
        (
            IngestConfig::default(),
            BudgetConfig {
                per_subscriber_bytes: 16 * per_record,
                global_bytes: 48 * per_record,
                admission: AdmissionPolicy::ShedColdest,
            },
        ),
        (
            IngestConfig {
                max_open_subscribers: 3,
                ..IngestConfig::default()
            },
            BudgetConfig {
                per_subscriber_bytes: 0,
                global_bytes: 24 * per_record,
                admission: AdmissionPolicy::Refuse,
            },
        ),
    ];
    let cut = entries.len() / 2;
    for (ingest, budget) in budgets {
        let registry = Registry::new();
        let metrics = PipelineMetrics::register(&registry);
        let mut online = OnlineAssessor::with_config(monitor().clone(), ingest)
            .with_budget(budget)
            .with_metrics(metrics.clone());
        for (i, e) in entries.iter().take(cut).enumerate() {
            online.ingest(e);
            assert_mirrors(&metrics, &online, &format!("at record {i}"));
        }
        // Kill, checkpoint through JSON, absorb, restore.
        let json = online
            .checkpoint_with_metrics(&registry)
            .to_json()
            .expect("checkpoint serializes");
        drop(online);
        let ck = OnlineCheckpoint::from_json(&json).expect("checkpoint parses");
        let registry = Registry::new();
        let metrics = PipelineMetrics::register(&registry);
        assert!(ck.metrics_snapshot.is_some(), "snapshot embedded");
        ck.absorb_metrics(&registry).expect("snapshot absorbs");
        let mut online = OnlineAssessor::restore(monitor().clone(), &ck)
            .expect("checkpoint restores")
            .with_metrics(metrics.clone());
        assert_mirrors(&metrics, &online, "after restore");
        for (i, e) in entries.iter().enumerate().skip(cut) {
            online.ingest(e);
            assert_mirrors(&metrics, &online, &format!("at record {i}"));
        }
        let reasons = online.shed_log().reasons();
        let report = online.into_report();
        assert_eq!(metrics.tallies().health, report.health);
        // Each budget must actually exercise the paths it names.
        match budget.admission {
            AdmissionPolicy::ShedColdest => {
                assert!(reasons.subscriber_budget > 0, "{reasons:?}");
                assert!(reasons.global_budget > 0, "{reasons:?}");
            }
            AdmissionPolicy::Refuse => {
                assert!(reasons.admission_refused > 0, "{reasons:?}");
                assert!(reasons.lru_capacity > 0, "{reasons:?}");
            }
        }
    }
}

#[test]
fn anomaly_kind_counts_merge_by_summation() {
    let mut a = AnomalyKindCounts::default();
    let mut b = AnomalyKindCounts::default();
    a.empty_host = 2;
    a.late_arrival = 1;
    b.empty_host = 3;
    b.oversized_object = 7;
    a.absorb(&b);
    assert_eq!(a.empty_host, 5);
    assert_eq!(a.oversized_object, 7);
    assert_eq!(a.late_arrival, 1);
    assert_eq!(a.total(), 13);
}

#[test]
fn absorb_restores_stable_metrics_and_resets_runtime_ones() {
    use vqoe_obs::MetricClass;
    // A checkpointed process had both classes populated ...
    let registry = Registry::new();
    let stable = registry.counter("it_stable_total", "stable counter", MetricClass::Stable);
    let runtime = registry.counter("it_runtime_total", "runtime counter", MetricClass::Runtime);
    stable.add(42);
    runtime.add(7);
    let snapshot = encode_snapshot(&registry.snapshot());

    // ... but the snapshot carries Stable state only, so a restoring
    // process gets its Stable counters back and its Runtime counters
    // fresh — scheduling-dependent readings never survive a restart.
    let restored = Registry::new();
    let stable2 = restored.counter("it_stable_total", "stable counter", MetricClass::Stable);
    let runtime2 = restored.counter("it_runtime_total", "runtime counter", MetricClass::Runtime);
    runtime2.add(3);
    let decoded = decode_snapshot(&snapshot).expect("snapshot decodes");
    restored.absorb(&decoded).expect("snapshot absorbs");
    assert_eq!(stable2.get(), 42, "stable counter not restored");
    assert_eq!(runtime2.get(), 3, "absorb touched a runtime-class counter");
    // Round-trip check: the restored registry snapshots byte-identically.
    assert_eq!(encode_snapshot(&restored.snapshot()), snapshot);
}

// ------------------------------------------------------------ CLI side

fn vqoe() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vqoe"))
}

struct CliOutput {
    stdout: String,
    stderr: String,
}

fn run(dir: &Path, args: &[&str]) -> CliOutput {
    let out = vqoe()
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn vqoe");
    assert!(
        out.status.success(),
        "vqoe {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    CliOutput {
        stdout: String::from_utf8_lossy(&out.stdout).to_string(),
        stderr: String::from_utf8_lossy(&out.stderr).to_string(),
    }
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vqoe_obs_it_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create workdir");
    dir
}

/// generate → capture → train once; returns the prepared directory.
fn prepared_pipeline(tag: &str) -> PathBuf {
    let dir = workdir(tag);
    run(
        &dir,
        &[
            "generate",
            "--kind",
            "encrypted",
            "--sessions",
            "5",
            "--seed",
            "11",
            "--out",
            "traces.jsonl",
        ],
    );
    run(
        &dir,
        &[
            "capture",
            "--traces",
            "traces.jsonl",
            "--encrypted",
            "--subscriber",
            "1",
            "--out",
            "weblogs.jsonl",
        ],
    );
    run(
        &dir,
        &[
            "train",
            "--cleartext",
            "300",
            "--adaptive",
            "150",
            "--seed",
            "3",
            "--out",
            "model.json",
        ],
    );
    dir
}

#[test]
fn cli_verbose_stderr_is_stable_and_quiet_is_silent() {
    let dir = prepared_pipeline("verbose");
    let assess = |extra: &[&str]| {
        let mut args = vec![
            "assess",
            "--model",
            "model.json",
            "--weblogs",
            "weblogs.jsonl",
            "--out",
            "assessments.jsonl",
        ];
        args.extend_from_slice(extra);
        run(&dir, &args)
    };
    // The verbose stderr is a stable artifact: identical across runs,
    // and carrying the exact health line the pre-reporter CLI printed.
    let first = assess(&["--verbose"]).stderr;
    let second = assess(&["--verbose"]).stderr;
    assert_eq!(first, second, "verbose stderr is not deterministic");
    assert!(first.contains("assessed "), "stderr: {first}");
    assert!(
        first.contains(" sessions (") && first.contains(" poor-QoE, "),
        "summary line drifted: {first}"
    );
    assert!(
        first.contains("stream health: ") && first.contains(" entries seen, "),
        "health line drifted: {first}"
    );
    assert!(
        first.contains(" reordered, ")
            && first.contains(" quarantined, ")
            && first.contains(" subscribers evicted, "),
        "health line drifted: {first}"
    );
    // Normal mode keeps the summary but drops the health details.
    let normal = assess(&[]).stderr;
    assert!(normal.contains("assessed "));
    assert!(!normal.contains("stream health: "));
    // Quiet mode says nothing at all, even combined with --verbose.
    assert!(assess(&["--quiet"]).stderr.is_empty());
    assert!(assess(&["--quiet", "--verbose"]).stderr.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_metrics_flag_emits_both_formats_and_is_worker_invariant() {
    let dir = prepared_pipeline("metrics");
    let with_metrics = |command: &str, target: &str, extra: &[&str]| {
        let mut args = vec![
            command,
            "--model",
            "model.json",
            "--weblogs",
            "weblogs.jsonl",
            "--out",
            "assessments.jsonl",
            "--metrics",
            target,
        ];
        args.extend_from_slice(extra);
        run(&dir, &args)
    };

    // File target: Prometheus text at PATH, JSON snapshot at PATH.json.
    let out = with_metrics("assess", "metrics.prom", &[]);
    assert!(
        out.stderr.contains("metrics written to metrics.prom"),
        "stderr: {}",
        out.stderr
    );
    let prom = std::fs::read_to_string(dir.join("metrics.prom")).expect("prometheus file");
    assert!(prom.contains("# TYPE vqoe_core_monitor_sessions_assessed_total counter"));
    assert!(prom.contains("# HELP vqoe_telemetry_ingest_chunk_bytes"));
    assert!(prom.contains("vqoe_telemetry_ingest_chunk_bytes_bucket{le=\"+Inf\"}"));
    // Wall-clock stage spans are runtime-class: present here...
    assert!(prom.contains("vqoe_core_cli_assess_wall_micros"));
    let snap = std::fs::read_to_string(dir.join("metrics.prom.json")).expect("snapshot file");
    // ... and absent from the deterministic snapshot.
    assert!(!snap.contains("wall_micros"), "snapshot: {snap}");
    assert!(snap.contains("\"counters\""));
    assert!(snap.ends_with('\n'));

    // The `replay` snapshot is byte-identical across worker counts.
    // (It differs from the `assess` one only in the engine-only
    // counters — shard jobs, busy ticks — which the streaming assessor
    // legitimately never touches.)
    let mut reference: Option<String> = None;
    for workers in ["1", "2", "7"] {
        with_metrics("replay", "w.prom", &["--workers", workers]);
        let w = std::fs::read_to_string(dir.join("w.prom.json")).expect("snapshot file");
        match &reference {
            None => reference = Some(w),
            Some(r) => assert_eq!(&w, r, "snapshot diverged at --workers {workers}"),
        }
    }

    // `--metrics -` streams both formats through the stderr reporter;
    // stdout stays reserved for data, so piping it to another tool
    // never interleaves scrape text into the data stream.
    let dashed = with_metrics("assess", "-", &[]);
    assert!(dashed.stdout.is_empty(), "stdout: {}", dashed.stdout);
    assert!(dashed.stderr.contains("# TYPE"));
    assert!(dashed.stderr.contains("\"counters\""));
    assert!(!dashed.stderr.contains("metrics written to"));
    let _ = std::fs::remove_dir_all(&dir);
}
