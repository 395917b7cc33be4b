//! Parallel-engine integration tests (ISSUE 3 acceptance criteria):
//!
//! * the sharded engine behind [`IngestPipeline::assess`] is
//!   **bit-identical** to the sequential streaming path — full
//!   [`IngestReport`] equality, not just the assessments — at worker
//!   counts 1, 2 and 7 and at 1, 8 and 32 shards;
//! * the identity holds even when the tap is hostile (`ChaosTap`
//!   faults), where ordering bugs would surface first;
//! * all three detectors survive a JSON round trip with identical
//!   predictions and projections.

use std::sync::OnceLock;

use vqoe_core::{
    generate_traces, DatasetSpec, EncryptedEvalConfig, EncryptedWorld, EngineConfig, IngestReport,
    OnlineAssessor, QoeMonitor, TrainConfig, TrainingConfig,
};
use vqoe_features::{representation_features, stall_features, SessionObs};
use vqoe_telemetry::{apply_chaos, ChaosConfig, IngestConfig, WeblogEntry};

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

/// A tap shared by `subscribers` independent streams, interleaved by
/// timestamp as the proxy would deliver them.
fn multi_subscriber_tap(subscribers: u64, sessions: usize, seed: u64) -> Vec<WeblogEntry> {
    let mut entries = Vec::new();
    for s in 0..subscribers {
        let mut cfg = EncryptedEvalConfig::paper_default(seed + s);
        cfg.spec.n_sessions = sessions;
        let mut world = EncryptedWorld::build(&cfg).expect("simulated world builds");
        for e in &mut world.entries {
            e.subscriber_id = s * 7 + 3; // non-contiguous ids exercise the hash
        }
        entries.extend(world.entries);
    }
    entries.sort_by_key(|e| e.timestamp);
    entries
}

/// The sequential reference: every entry through an [`OnlineAssessor`],
/// with mid-stream emissions spliced before the end-of-stream drain —
/// exactly what `vqoe assess` reports.
fn sequential_report(ingest: IngestConfig, entries: &[WeblogEntry]) -> IngestReport {
    let mut online = OnlineAssessor::with_config(monitor().clone(), ingest);
    let mut assessments = Vec::new();
    for e in entries {
        assessments.extend(online.ingest(e));
    }
    let mut report = online.into_report();
    assessments.append(&mut report.assessments);
    report.assessments = assessments;
    report
}

fn engine_report(engine: EngineConfig, entries: &[WeblogEntry]) -> IngestReport {
    monitor().pipeline().with_engine(engine).assess(entries)
}

#[test]
fn engine_is_bit_identical_to_the_streaming_path_at_every_worker_count() {
    let entries = multi_subscriber_tap(4, 2, 1300);
    let ingest = IngestConfig::default();
    let sequential = sequential_report(ingest, &entries);
    assert!(
        !sequential.assessments.is_empty(),
        "tap produced no sessions"
    );
    for workers in [1usize, 2, 7] {
        for shards in [1usize, 8, 32] {
            let parallel = engine_report(EngineConfig { workers, shards }, &entries);
            assert_eq!(
                parallel, sequential,
                "engine at {workers} workers, {shards} shards diverged from the sequential path"
            );
        }
    }
}

#[test]
fn worker_count_never_changes_the_report() {
    let entries = multi_subscriber_tap(5, 2, 1400);
    let base = EngineConfig {
        workers: 1,
        shards: 8,
    };
    let reference = engine_report(base, &entries);
    for workers in [2usize, 7] {
        let report = engine_report(EngineConfig { workers, ..base }, &entries);
        assert_eq!(report, reference, "{workers} workers diverged from 1");
    }
}

#[test]
fn bit_identity_survives_a_hostile_tap() {
    let entries = multi_subscriber_tap(4, 2, 1500);
    let ingest = IngestConfig::default();
    for seed in [21u64, 22] {
        let (faulted, _) = apply_chaos(&entries, &ChaosConfig::uniform(0.3), seed);
        let sequential = sequential_report(ingest, &faulted);
        assert_eq!(sequential.health.entries_seen, faulted.len() as u64);
        for workers in [1usize, 7] {
            for shards in [1usize, 8, 32] {
                let parallel = engine_report(EngineConfig { workers, shards }, &faulted);
                assert_eq!(
                    parallel, sequential,
                    "chaos seed {seed}, {workers} workers, {shards} shards: engine diverged"
                );
            }
        }
    }
}

/// Freeze → serialize → thaw.
fn thaw<T: serde::Serialize + serde::de::DeserializeOwned>(model: &T) -> T {
    let json = serde_json::to_string(model).expect("model serializes");
    serde_json::from_str(&json).expect("model deserializes")
}

#[test]
fn detectors_round_trip_through_json_with_identical_predictions() {
    let m = monitor();
    let eval = generate_traces(
        &DatasetSpec::adaptive_default(40, 1700),
        TrainConfig::auto(),
    );
    let obs: Vec<SessionObs> = eval.iter().map(SessionObs::from_trace).collect();
    let (stall, representation, switch) = (
        thaw(&m.stall_model),
        thaw(&m.representation_model),
        thaw(&m.switch_model),
    );
    for (i, o) in obs.iter().enumerate() {
        let full = stall_features(o);
        assert_eq!(m.stall_model.predict(o), stall.predict(o), "stall {i}");
        assert_eq!(
            m.stall_model.project(&full),
            stall.project(&full),
            "stall {i}"
        );
        let full = representation_features(o);
        assert_eq!(
            m.representation_model.predict(o),
            representation.predict(o),
            "representation {i}"
        );
        assert_eq!(
            m.representation_model.project(&full),
            representation.project(&full),
            "representation {i}"
        );
        assert_eq!(m.switch_model.detect(o), switch.detect(o), "switch {i}");
        assert_eq!(
            m.switch_model.score(o).to_bits(),
            switch.score(o).to_bits(),
            "switch {i}"
        );
    }
}
