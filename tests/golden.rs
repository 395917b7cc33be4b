//! Golden fingerprints of simulator, training, feature, checkpoint and
//! metrics output.
//!
//! The bit-identity suites elsewhere compare two runs of the *current*
//! code against each other (worker counts, chaos, kill/restore). These
//! tests pin the output itself, so a speed-up that changes a single
//! random draw or float rounding anywhere in the simulator, the feature
//! builders or the training stack fails here. The fingerprints are
//! 64-bit FNV-1a hashes: of the JSON that traces, models and
//! checkpoints serialize to, of the metrics registry's Prometheus text
//! and JSON snapshot, of feature vectors value by value, and of
//! assessments field by field, so a change to the report's JSON shape
//! alone does not move the assessment fingerprint.

use vqoe_core::{
    encode_snapshot, generate_traces, AdmissionPolicy, BudgetConfig, DatasetSpec,
    EncryptedEvalConfig, EncryptedWorld, Fidelity, IngestReport, OnlineAssessor, PipelineMetrics,
    QoeMonitor, SessionAssessment, TrainConfig, TrainingConfig,
};
use vqoe_features::{
    representation_features, stall_features, ChunkObs, SessionObs, StreamingSessionState,
};
use vqoe_obs::Registry;
use vqoe_simnet::time::{Duration, Instant};
use vqoe_telemetry::{
    generate_pathological_session, merge_streams, ChaosProfile, ChaosTap, IngestConfig,
    WeblogEntry, EXACT_ENTRY_CAP,
};

/// The 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over `bytes`, continuing from state `h`.
fn fnv1a_from(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Cleartext traces scattered over the whole 30-day start window, so
/// 29 in 30 radio channels start from the stationary law rather than
/// walking there.
#[test]
fn cleartext_traces_match_the_golden_fingerprint() {
    let traces = generate_traces(
        &DatasetSpec::cleartext_default(64, 2016),
        TrainConfig::auto(),
    );
    let json = serde_json::to_string(&traces).expect("traces serialize");
    let got = fnv1a(json.as_bytes());
    assert_eq!(got, 0x4e81_dfa6_f45d_f038, "trace fingerprint {got:#018x}");
}

/// A trained monitor (both corpora, feature selection, final forests).
#[test]
fn trained_monitor_matches_the_golden_fingerprint() {
    let config = TrainingConfig {
        cleartext_sessions: 120,
        adaptive_sessions: 60,
        seed: 2016,
        train: TrainConfig::with_workers(2),
        ..TrainingConfig::default()
    };
    let json = QoeMonitor::train(&config)
        .to_json()
        .expect("monitor serializes");
    let got = fnv1a(json.as_bytes());
    assert_eq!(
        got, 0x79d8_191b_02b5_bd70,
        "monitor fingerprint {got:#018x}"
    );
}

/// Folds one assessment into an FNV-1a state field by field, so the
/// hash pins what was assessed, not how the report serializes.
fn fold_assessment(h: u64, a: &SessionAssessment) -> u64 {
    let words = [
        a.start.0,
        a.end.0,
        a.chunk_count as u64,
        a.stall as u64,
        a.representation as u64,
        u64::from(a.has_quality_switches),
        a.switch_score.to_bits(),
        a.qoe.mos.to_bits(),
        a.qoe.base.to_bits(),
        a.qoe.stall_penalty.to_bits(),
        a.qoe.switch_penalty.to_bits(),
        a.fidelity as u64,
    ];
    words.iter().fold(h, |h, w| fnv1a_from(h, &w.to_le_bytes()))
}

/// A small tap that reaches every tier, and the monitor that assesses
/// it: three ordinary subscribers, and one whose session never pauses
/// and runs past the exactness cap (sketched).
fn tiered_tap() -> (QoeMonitor, Vec<WeblogEntry>) {
    let monitor = QoeMonitor::train(&TrainingConfig {
        cleartext_sessions: 120,
        adaptive_sessions: 60,
        seed: 2016,
        train: TrainConfig::with_workers(2),
        ..TrainingConfig::default()
    });
    let mut streams = Vec::new();
    for s in 0..3u64 {
        let mut cfg = EncryptedEvalConfig::paper_default(2016 + s);
        cfg.spec.n_sessions = 2;
        let mut world = EncryptedWorld::build(&cfg).expect("simulated world builds");
        for e in &mut world.entries {
            e.subscriber_id = s;
        }
        streams.push(world.entries);
    }
    streams.push(generate_pathological_session(
        7,
        Instant::from_secs(30),
        EXACT_ENTRY_CAP + 256,
        Duration::from_secs(1),
        2016,
    ));
    (monitor, merge_streams(streams))
}

/// The report of [`tiered_tap`]. The assessor tracks fewer subscribers
/// than the tap opens, so some are evicted mid-session (partial), and
/// its global budget sheds one more (shed). Its assessments are in
/// emission order: mid-stream first, then the drain.
fn tiered_report() -> IngestReport {
    let (monitor, tap) = tiered_tap();
    let ingest = IngestConfig {
        max_open_subscribers: 3,
        ..IngestConfig::default()
    };
    let per_record = tap.iter().map(|e| e.tracked_cost()).max().unwrap_or(256);
    let budget = BudgetConfig {
        global_bytes: (EXACT_ENTRY_CAP as u64 + 400) * per_record,
        ..BudgetConfig::default()
    };
    let mut online = OnlineAssessor::with_config(monitor, ingest).with_budget(budget);
    let mut assessments = Vec::new();
    for e in &tap {
        assessments.extend(online.ingest(e));
    }
    let mut report = online.into_report();
    assessments.append(&mut report.assessments);
    report.assessments = assessments;
    report
}

/// The assessments of [`tiered_report`], field by field.
#[test]
fn ingest_report_matches_the_golden_fingerprint() {
    let assessments = tiered_report().assessments;
    for tier in [
        Fidelity::Full,
        Fidelity::Sketched,
        Fidelity::Partial,
        Fidelity::Shed,
    ] {
        assert!(
            assessments.iter().any(|a| a.fidelity == tier),
            "no {tier:?} assessment"
        );
    }
    let got = assessments.iter().fold(FNV_OFFSET, fold_assessment);
    assert_eq!(got, 0xfc81_e61d_f316_bf6f, "report fingerprint {got:#018x}");
}

/// The whole serialized [`tiered_report`]: assessments, health, the
/// anomaly log and the shed log, byte for byte.
#[test]
fn serialized_ingest_report_matches_the_golden_fingerprint() {
    let json = serde_json::to_string(&tiered_report()).expect("report serializes");
    let got = fnv1a(json.as_bytes());
    assert_eq!(
        got, 0x8518_c8f1_597e_8f0a,
        "serialized report fingerprint {got:#018x}"
    );
}

/// The registry counters that project the report's tallies: its stream
/// health, anomaly kinds and shed reasons.
const TALLY_COUNTERS: [&str; 17] = [
    "vqoe_telemetry_ingest_entries_seen_total",
    "vqoe_telemetry_ingest_entries_reordered_total",
    "vqoe_telemetry_ingest_entries_duplicated_total",
    "vqoe_telemetry_ingest_entries_quarantined_total",
    "vqoe_telemetry_ingest_sessions_evicted_total",
    "vqoe_telemetry_ingest_sessions_shed_total",
    "vqoe_telemetry_ingest_subscribers_refused_total",
    "vqoe_telemetry_ingest_sessions_partial_total",
    "vqoe_telemetry_ingest_anomaly_empty_host_total",
    "vqoe_telemetry_ingest_anomaly_oversized_object_total",
    "vqoe_telemetry_ingest_anomaly_zero_sized_object_total",
    "vqoe_telemetry_ingest_anomaly_overlong_transaction_total",
    "vqoe_telemetry_ingest_anomaly_late_arrival_total",
    "vqoe_core_online_shed_lru_capacity_total",
    "vqoe_core_online_shed_subscriber_budget_total",
    "vqoe_core_online_shed_global_budget_total",
    "vqoe_core_online_shed_admission_refused_total",
];

/// [`tiered_tap`] through a harsh, fixed-seed [`ChaosTap`] into an
/// assessor tracking three subscribers under `admission`, with
/// exemplar-capturing metrics attached. Returns the registry.
fn metered_run(admission: AdmissionPolicy) -> Registry {
    let (monitor, tap) = tiered_tap();
    let per_record = tap.iter().map(|e| e.tracked_cost()).max().unwrap_or(256);
    let budget = match admission {
        AdmissionPolicy::ShedColdest => BudgetConfig {
            per_subscriber_bytes: 64 * per_record,
            global_bytes: 160 * per_record,
            admission,
        },
        AdmissionPolicy::Refuse => BudgetConfig {
            per_subscriber_bytes: 0,
            global_bytes: 96 * per_record,
            admission,
        },
    };
    let ingest = IngestConfig {
        max_open_subscribers: 3,
        ..IngestConfig::default()
    };
    let registry = Registry::new();
    let mut online = OnlineAssessor::with_config(monitor, ingest)
        .with_budget(budget)
        .with_metrics(PipelineMetrics::register_with_exemplars(&registry));
    for e in ChaosTap::new(tap.into_iter(), ChaosProfile::Harsh.chaos(), 2016) {
        online.ingest(&e);
    }
    online.into_report();
    registry
}

/// The metrics exposition of [`metered_run`] under both admission
/// policies: between them every tally counter moves, and the
/// Prometheus text and the JSON snapshot are pinned byte for byte.
#[test]
fn metrics_exposition_matches_the_golden_fingerprints() {
    let runs = [AdmissionPolicy::ShedColdest, AdmissionPolicy::Refuse].map(metered_run);
    let snapshots = runs.each_ref().map(Registry::snapshot);
    for name in TALLY_COUNTERS {
        let moved = snapshots.iter().any(|s| {
            s.counters
                .iter()
                .any(|(counter, value)| counter == name && *value > 0)
        });
        assert!(moved, "{name} stayed 0 in both runs");
    }
    let got: Vec<u64> = runs
        .iter()
        .zip(&snapshots)
        .flat_map(|(registry, snapshot)| {
            [
                fnv1a(registry.render_prometheus().as_bytes()),
                fnv1a(encode_snapshot(snapshot).as_bytes()),
            ]
        })
        .collect();
    let want: [u64; 4] = [
        0x18a7_bde3_324f_5d9b,
        0x1618_bc86_f708_3cdd,
        0xcd98_9743_92de_b5c9,
        0x2962_4ed9_e3ca_bc4a,
    ];
    assert_eq!(got, want, "metrics fingerprints {got:#018x?}");
}

/// One chunk of the feature fixtures. Every metric varies with `i`, the
/// arrivals sometimes step backwards (a clamped Δt) and every seventh
/// chunk has zero duration (a zero throughput).
fn fixture_chunk(i: usize) -> ChunkObs {
    let k = i as f64;
    let request = k * 2.0;
    let arrival = if i % 7 == 3 {
        request
    } else {
        request + 0.4 + ((i * 13) % 11) as f64 * 0.35
    };
    ChunkObs {
        request_secs: request,
        arrival_secs: arrival,
        bytes: 50_000.0 + ((i * 37) % 90) as f64 * 1_700.0,
        rtt_min: 0.02 + ((i * 7) % 5) as f64 * 0.003,
        rtt_mean: 0.04 + ((i * 11) % 9) as f64 * 0.004,
        rtt_max: 0.09 + ((i * 5) % 13) as f64 * 0.01,
        bdp: 60_000.0 + ((i * 29) % 17) as f64 * 2_500.0,
        bif_mean: 20_000.0 + ((i * 3) % 8) as f64 * 1_250.0,
        bif_max: 45_000.0 + ((i * 19) % 6) as f64 * 4_000.0,
        loss: ((i * 23) % 10) as f64 * 0.0007,
        retx: ((i * 31) % 12) as f64 * 0.0011,
    }
}

/// The feature fixtures: empty, one chunk, two chunks, an all-NaN loss
/// column, a partly-NaN RTT column, and a session long enough to
/// compact the quantile sketches.
fn feature_fixtures() -> Vec<SessionObs> {
    let session = |n: usize| SessionObs {
        chunks: (0..n).map(fixture_chunk).collect(),
    };
    let mut all_nan = session(9);
    for c in &mut all_nan.chunks {
        c.loss = f64::NAN;
    }
    let mut part_nan = session(12);
    for c in part_nan.chunks.iter_mut().step_by(3) {
        c.rtt_mean = f64::NAN;
        c.bytes = f64::INFINITY;
    }
    vec![
        session(0),
        session(1),
        session(2),
        all_nan,
        part_nan,
        session(500),
    ]
}

/// FNV-1a over the bit patterns of `rows`, one feature at a time.
fn fingerprint_rows(rows: impl Iterator<Item = Vec<f64>>) -> u64 {
    rows.flatten()
        .fold(FNV_OFFSET, |h, x| fnv1a_from(h, &x.to_bits().to_le_bytes()))
}

/// The exact builders and the sketched digest over the fixtures.
#[test]
fn feature_vectors_match_the_golden_fingerprints() {
    let sessions = feature_fixtures();
    let digests: Vec<StreamingSessionState> = sessions
        .iter()
        .map(|o| {
            let mut s = StreamingSessionState::new();
            for c in &o.chunks {
                s.fold(c);
            }
            s
        })
        .collect();
    let got = [
        fingerprint_rows(sessions.iter().map(stall_features)),
        fingerprint_rows(sessions.iter().map(representation_features)),
        fingerprint_rows(digests.iter().map(|s| s.stall_features_approx())),
        fingerprint_rows(digests.iter().map(|s| s.representation_features_approx())),
    ];
    let want: [u64; 4] = [
        0x4e22_b844_9012_9ce9,
        0xec7e_4312_9d52_ab80,
        0x3d47_13ab_b55a_b9bf,
        0x6968_986f_ec5e_edea,
    ];
    assert_eq!(got, want, "feature fingerprints {got:#018x?}");
}

/// A checkpoint taken while one subscriber's session runs past a
/// lowered exactness cap, so it carries a serialized digest. It holds
/// one shard: the assessor keeps every subscriber in one table.
#[test]
fn digest_checkpoint_matches_the_golden_fingerprint() {
    let mut monitor = QoeMonitor::train(&TrainingConfig {
        cleartext_sessions: 120,
        adaptive_sessions: 60,
        seed: 2016,
        train: TrainConfig::with_workers(2),
        ..TrainingConfig::default()
    });
    monitor.reassembly.exact_entry_cap = 8;
    let tap =
        generate_pathological_session(3, Instant::from_secs(30), 200, Duration::from_secs(1), 2016);
    let mut online = OnlineAssessor::with_config(monitor, IngestConfig::default());
    for e in &tap {
        assert!(online.ingest(e).is_empty(), "the session must stay open");
    }
    let json = online
        .checkpoint()
        .to_json()
        .expect("checkpoint serializes");
    assert!(
        json.contains(r#"\"features\":{"#),
        "no digest in the checkpoint"
    );
    let got = fnv1a(json.as_bytes());
    assert_eq!(
        got, 0x0a07_4558_3113_ea5d,
        "checkpoint fingerprint {got:#018x}"
    );
}
