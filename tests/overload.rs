//! Overload-hardening integration tests: memory budgets, typed load
//! shedding, degraded-mode fidelity tiers, and deterministic
//! checkpoint/restore.
//!
//! The contract under test (ISSUE 7 acceptance criteria):
//!
//! * kill at record N + restore + replay tail is bit-identical to the
//!   uninterrupted run — the `IngestReport` and the stable metrics
//!   snapshot — at several shard layouts, with and without chaos;
//! * the unbudgeted streaming path equals the batch engine at workers
//!   1/2/7;
//! * LRU eviction tie-breaking under equal activity ticks is by
//!   subscriber id, at every shard count;
//! * `Fidelity::Partial`/`Shed` outputs are built from feature blocks
//!   that use `MISSING_STAT` (never 0.0) for unavailable statistics;
//! * a 10x subscriber flood stays within budget, every shed is typed,
//!   and refused admissions are counted.

use std::sync::OnceLock;

use vqoe_core::{
    AdmissionPolicy, BudgetConfig, EncryptedEvalConfig, EncryptedWorld, EngineConfig, Fidelity,
    IngestReport, OnlineAssessor, OnlineCheckpoint, PipelineMetrics, QoeMonitor, RestoreError,
    ShedReason, TrainingConfig,
};
use vqoe_features::{
    representation_feature_names, representation_features, stall_feature_names, stall_features,
    SessionObs, MISSING_STAT,
};
use vqoe_obs::Registry;
use vqoe_player::TransportSummary;
use vqoe_simnet::time::{Duration, Instant};
use vqoe_telemetry::{
    apply_chaos, generate_subscriber_flood, merge_streams, ChaosConfig, EntryKind, FloodSpec,
    IngestConfig, RobustReassembler, WeblogEntry,
};

fn monitor() -> &'static QoeMonitor {
    static MONITOR: OnceLock<QoeMonitor> = OnceLock::new();
    MONITOR.get_or_init(|| {
        QoeMonitor::train(&TrainingConfig {
            cleartext_sessions: 250,
            adaptive_sessions: 150,
            seed: 91,
            ..TrainingConfig::default()
        })
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
            e.subscriber_id = s;
        }
        entries.extend(world.entries);
    }
    entries.sort_by_key(|e| e.timestamp);
    entries
}

fn media_entry(subscriber_id: u64, t: Instant, bytes: u64, rtt_min: f64) -> WeblogEntry {
    WeblogEntry {
        timestamp: t,
        subscriber_id,
        host: "r3---sn-test01.googlevideo.com".to_string(),
        uri: None,
        bytes,
        duration: Duration::from_millis(800),
        transport: TransportSummary {
            rtt_min,
            rtt_mean: 0.05,
            rtt_max: 0.09,
            bdp_mean: 60_000.0,
            bif_mean: 30_000.0,
            bif_max: 80_000.0,
            loss_frac: 0.001,
            retx_frac: 0.002,
        },
        encrypted: true,
        kind: EntryKind::MediaChunk,
    }
}

/// Stream `entries` through a budgeted assessor and return the merged
/// report plus the stable metrics snapshot.
fn run_streaming(
    entries: &[WeblogEntry],
    shards: usize,
    budget: BudgetConfig,
) -> (IngestReport, String) {
    let registry = Registry::new();
    let metrics = PipelineMetrics::register(&registry);
    let mut online = OnlineAssessor::with_engine(
        monitor().clone(),
        IngestConfig::default(),
        EngineConfig {
            shards,
            ..EngineConfig::default()
        },
    )
    .with_budget(budget)
    .with_metrics(metrics);
    let mut assessments = Vec::new();
    for e in entries {
        assessments.extend(online.ingest(e));
    }
    let mut report = online.into_report();
    assessments.extend(std::mem::take(&mut report.assessments));
    report.assessments = assessments;
    (report, registry.snapshot_json())
}

/// Same stream, but killed at `cut`: checkpoint (with metrics), round
/// trip the checkpoint through JSON, restore into a fresh assessor and
/// a fresh registry, replay the tail.
fn run_interrupted(
    entries: &[WeblogEntry],
    shards: usize,
    budget: BudgetConfig,
    cut: usize,
) -> (IngestReport, String) {
    let registry1 = Registry::new();
    let metrics1 = PipelineMetrics::register(&registry1);
    let mut first = OnlineAssessor::with_engine(
        monitor().clone(),
        IngestConfig::default(),
        EngineConfig {
            shards,
            ..EngineConfig::default()
        },
    )
    .with_budget(budget)
    .with_metrics(metrics1);
    let mut assessments = Vec::new();
    for e in entries.iter().take(cut) {
        assessments.extend(first.ingest(e));
    }
    let ck_json = first
        .checkpoint_with_metrics(&registry1)
        .to_json()
        .expect("checkpoint serializes");
    drop(first); // the "kill": nothing survives but the checkpoint

    let ck = OnlineCheckpoint::from_json(&ck_json).expect("checkpoint parses");
    assert_eq!(
        ck.to_json().expect("checkpoint re-serializes"),
        ck_json,
        "checkpoint JSON round-trip is byte-stable"
    );
    let registry2 = Registry::new();
    let metrics2 = PipelineMetrics::register(&registry2);
    registry2
        .absorb_snapshot(ck.metrics_snapshot.as_deref().expect("snapshot embedded"))
        .expect("snapshot absorbs");
    let mut second = OnlineAssessor::restore(monitor().clone(), &ck)
        .expect("checkpoint restores")
        .with_metrics(metrics2);
    for e in entries.iter().skip(ck.records_ingested as usize) {
        assessments.extend(second.ingest(e));
    }
    let mut report = second.into_report();
    assessments.extend(std::mem::take(&mut report.assessments));
    report.assessments = assessments;
    (report, registry2.snapshot_json())
}

#[test]
fn kill_restore_replay_is_bit_identical() {
    let clean = multi_subscriber_tap(5, 1, 911);
    let (chaotic, _) = apply_chaos(&clean, &ChaosConfig::uniform(0.2), 912);
    // A budget small enough that both halves of the cut shed.
    let per_record = clean.iter().map(|e| e.tracked_cost()).max().unwrap_or(256);
    let budget = BudgetConfig {
        per_subscriber_bytes: 24 * per_record,
        global_bytes: 64 * per_record,
        admission: AdmissionPolicy::ShedColdest,
    };
    for entries in [&clean, &chaotic] {
        for shards in [1usize, 2, 7] {
            let cut = entries.len() / 3;
            let (uninterrupted, snap_a) = run_streaming(entries, shards, budget);
            let (resumed, snap_b) = run_interrupted(entries, shards, budget, cut);
            assert!(
                uninterrupted.shed.total() > 0,
                "the budget must actually shed for this test to bite"
            );
            assert_eq!(
                uninterrupted, resumed,
                "IngestReport diverged after restore (shards={shards})"
            );
            // Byte-level identity, not just structural equality.
            assert_eq!(
                serde_json::to_string(&uninterrupted).expect("report serializes"),
                serde_json::to_string(&resumed).expect("report serializes"),
                "serialized reports diverged (shards={shards})"
            );
            assert_eq!(
                snap_a, snap_b,
                "stable metrics snapshots diverged (shards={shards})"
            );
        }
    }
}

#[test]
fn unbudgeted_streaming_equals_engine_at_workers_1_2_7() {
    let clean = multi_subscriber_tap(4, 1, 913);
    let (chaotic, _) = apply_chaos(&clean, &ChaosConfig::uniform(0.15), 914);
    for entries in [&clean, &chaotic] {
        let shards = EngineConfig::default().shards;
        let cut = entries.len() / 2;
        let (streamed, _) = run_interrupted(entries, shards, BudgetConfig::default(), cut);
        for workers in [1usize, 2, 7] {
            let engine = monitor().pipeline().with_engine(EngineConfig {
                workers,
                ..EngineConfig::default()
            });
            let batch = engine.assess(entries);
            assert_eq!(
                batch, streamed,
                "engine at {workers} workers diverged from restored streaming run"
            );
        }
    }
}

#[test]
fn lru_eviction_tie_break_is_by_subscriber_id() {
    let t = Instant::from_secs(10);
    // Arrival order deliberately scrambled relative to id order; all
    // watermarks equal, so only the id can (and must) break ties.
    let entries: Vec<WeblogEntry> = [10u64, 7, 3, 1]
        .iter()
        .map(|&id| media_entry(id, t, 500_000, 0.04))
        .collect();
    let mut reference: Option<Vec<(u64, ShedReason)>> = None;
    for shards in [1usize, 2, 7] {
        let mut online = OnlineAssessor::with_engine(
            monitor().clone(),
            IngestConfig {
                max_open_subscribers: 2,
                ..IngestConfig::default()
            },
            EngineConfig {
                shards,
                ..EngineConfig::default()
            },
        );
        for e in &entries {
            online.ingest(e);
        }
        let events: Vec<(u64, ShedReason)> = online
            .shed_log()
            .kept()
            .iter()
            .map(|e| (e.subscriber_id, e.reason))
            .collect();
        assert_eq!(
            events,
            vec![(7, ShedReason::LruCapacity), (3, ShedReason::LruCapacity)],
            "equal ticks must evict the lowest subscriber id first (shards={shards})"
        );
        match &reference {
            None => reference = Some(events),
            Some(r) => assert_eq!(r, &events, "eviction order changed with shard count"),
        }
    }
}

#[test]
fn degraded_tiers_use_missing_stat_never_zero() {
    // One subscriber whose rtt_min annotation is broken (NaN on every
    // chunk): the stat exists as a series but has zero finite samples,
    // so every summary over it must be the MISSING_STAT sentinel.
    let t0 = Instant::from_secs(5);
    let poisoned: Vec<WeblogEntry> = (0..10)
        .map(|i| {
            media_entry(
                42,
                t0.checked_add(Duration::from_secs(2 * i)).expect("time"),
                400_000 + 10_000 * i,
                f64::NAN,
            )
        })
        .collect();

    // Feature-level check on the force-closed (flushed) stream.
    let mut machine = RobustReassembler::new(Default::default(), IngestConfig::default());
    let mut health = Default::default();
    let mut anomalies = vqoe_telemetry::AnomalyLog::new(16);
    for e in &poisoned {
        machine.push(e, &mut health, &mut anomalies);
    }
    let sessions = machine.flush();
    assert!(!sessions.is_empty(), "flush yields the partial session");
    for session in &sessions {
        let obs = SessionObs::from_reassembled(session);
        let stall = stall_features(&obs);
        for (name, v) in stall_feature_names().iter().zip(stall.iter()) {
            if name.starts_with("RTT minimum") {
                assert_eq!(*v, MISSING_STAT, "{name} must be the sentinel");
                assert_ne!(*v, 0.0, "{name} must never collapse to 0.0");
            } else {
                assert!(v.is_finite(), "{name} must stay finite");
            }
        }
        let rep = representation_features(&obs);
        for (name, v) in representation_feature_names().iter().zip(rep.iter()) {
            if name.starts_with("RTT minimum") {
                assert_eq!(*v, MISSING_STAT, "{name} must be the sentinel");
                assert_ne!(*v, 0.0, "{name} must never collapse to 0.0");
            } else {
                assert!(v.is_finite(), "{name} must stay finite");
            }
        }
        // The switch detector's input series (arrival, bytes) stays
        // finite regardless of broken transport annotations.
        assert!(session.chunks.iter().all(|c| (c.bytes as f64).is_finite()));
    }

    // End-to-end: evict the poisoned subscriber mid-stream and check
    // all three detector outputs on the Partial-tier assessments.
    let mut online = OnlineAssessor::with_config(
        monitor().clone(),
        IngestConfig {
            max_open_subscribers: 1,
            ..IngestConfig::default()
        },
    );
    let mut out = Vec::new();
    for e in &poisoned {
        out.extend(online.ingest(e));
    }
    // A second subscriber forces the eviction of the first.
    out.extend(online.ingest(&media_entry(
        99,
        t0.checked_add(Duration::from_secs(40)).expect("time"),
        600_000,
        0.04,
    )));
    let partials: Vec<_> = out
        .iter()
        .filter(|a| a.fidelity == Fidelity::Partial)
        .collect();
    assert!(!partials.is_empty(), "the eviction emits Partial output");
    for a in &partials {
        assert!(a.partial, "partial flag agrees with the fidelity tier");
        assert!(a.switch_score.is_finite(), "switch detector stayed sane");
        assert!(a.chunk_count > 0, "assessed from a real chunk block");
    }
}

#[test]
fn flood_survives_within_budget_with_typed_shedding() {
    let legit = multi_subscriber_tap(2, 1, 915);
    let start = legit.first().map(|e| e.timestamp).unwrap_or(Instant(0));
    let flood = generate_subscriber_flood(
        &FloodSpec {
            subscribers: 20,
            ..FloodSpec::default()
        },
        start,
        916,
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
    let mut online = OnlineAssessor::new(monitor().clone()).with_budget(budget);
    let mut out = Vec::new();
    for e in &entries {
        out.extend(online.ingest(e));
        // The budget is enforced after every record: tracked bytes may
        // overshoot by at most the record that just landed before the
        // shed loop pulls them back under.
        assert!(
            online.tracked_bytes() <= budget.global_bytes,
            "global budget violated mid-stream"
        );
    }
    // One push can release several reorder-buffered records into the
    // dedup ring + open session group (each then counted twice), so the
    // transient overshoot is bounded by one subscriber's own budget
    // plus the record that just landed — never unbounded.
    assert!(
        online.peak_tracked_bytes()
            <= budget.global_bytes + budget.per_subscriber_bytes + per_record,
        "peak overshot the cap by more than one subscriber's worth"
    );
    let shed_total = online.shed_log().total();
    let reasons = online.shed_log().reasons();
    assert!(shed_total > 0, "the flood must force shedding");
    assert_eq!(
        shed_total,
        reasons.total(),
        "every shed event carries a typed reason"
    );
    let mut report = online.into_report();
    out.extend(std::mem::take(&mut report.assessments));
    let health = report.health;
    assert_eq!(
        health.sessions_shed,
        reasons.subscriber_budget + reasons.global_budget,
        "health counter mirrors the budget-shed reasons"
    );
    let partial_flags = out.iter().filter(|a| a.partial).count() as u64;
    assert_eq!(
        partial_flags, health.sessions_partial,
        "partial flags equal the force-closed session count"
    );
    for a in &out {
        assert_eq!(
            a.partial,
            a.fidelity != Fidelity::Full,
            "partial flag always agrees with the fidelity tier"
        );
    }
}

#[test]
fn shed_reason_counts_round_trip_through_the_metrics_registry() {
    // Every typed shed reason the flood provokes must be mirrored
    // one-for-one by its per-reason Stable counter, at several shard
    // layouts — the counters are the shed log, not a parallel tally.
    let legit = multi_subscriber_tap(2, 1, 2718);
    let start = legit.first().map(|e| e.timestamp).unwrap_or(Instant(0));
    let flood = generate_subscriber_flood(
        &FloodSpec {
            subscribers: 20,
            ..FloodSpec::default()
        },
        start,
        2719,
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
    let mut reference = None;
    for shards in [1usize, 2, 7] {
        let registry = Registry::new();
        let metrics = PipelineMetrics::register(&registry);
        let mut online = OnlineAssessor::with_engine(
            monitor().clone(),
            IngestConfig::default(),
            EngineConfig {
                shards,
                ..EngineConfig::default()
            },
        )
        .with_budget(budget)
        .with_metrics(metrics.clone());
        for e in &entries {
            online.ingest(e);
        }
        let reasons_from_metrics = metrics.shed_reasons_view();
        let report = online.into_report();
        assert!(report.shed.total() > 0, "the flood must force shedding");
        assert_eq!(
            reasons_from_metrics,
            report.shed.reasons(),
            "per-reason counters diverged from the shed log at {shards} shards"
        );
        // The shed pattern itself is shard-layout-invariant, so the
        // counters must be too.
        match &reference {
            None => reference = Some(reasons_from_metrics),
            Some(r) => assert_eq!(
                &reasons_from_metrics, r,
                "shed reasons diverged at {shards} shards"
            ),
        }
    }
}

#[test]
fn admission_refuse_blocks_newcomers_but_counts_them() {
    let t0 = Instant::from_secs(1);
    let cost = media_entry(1, t0, 500_000, 0.04).tracked_cost();
    let budget = BudgetConfig {
        per_subscriber_bytes: 0,
        global_bytes: cost + cost / 2, // room for one buffered record
        admission: AdmissionPolicy::Refuse,
    };
    let mut online = OnlineAssessor::new(monitor().clone()).with_budget(budget);
    online.ingest(&media_entry(1, t0, 500_000, 0.04));
    assert_eq!(online.open_subscribers(), 1);
    // Subscriber 2 arrives while subscriber 1's record fills the cap.
    online.ingest(&media_entry(
        2,
        t0.checked_add(Duration::from_secs(1)).expect("time"),
        500_000,
        0.04,
    ));
    assert_eq!(online.open_subscribers(), 1, "newcomer was not admitted");
    let log = online.shed_log();
    assert_eq!(log.reasons().admission_refused, 1);
    assert_eq!(log.kept()[0].subscriber_id, 2);
    assert_eq!(log.kept()[0].reason, ShedReason::AdmissionRefused);
    assert_eq!(online.health().subscribers_refused, 1);
    // The refused subscriber is welcome again once the budget clears.
    let report = online.into_report();
    assert_eq!(report.health.subscribers_refused, 1);
    assert_eq!(report.shed.total(), 1);
}

#[test]
fn restore_rejects_corrupt_checkpoints() {
    let entries = multi_subscriber_tap(3, 1, 917);
    let mut online = OnlineAssessor::new(monitor().clone());
    for e in entries.iter().take(entries.len() / 2) {
        online.ingest(e);
    }
    let good = online.checkpoint();
    assert!(OnlineAssessor::restore(monitor().clone(), &good).is_ok());

    let mut wrong_version = good.clone();
    wrong_version.version += 1;
    assert!(matches!(
        OnlineAssessor::restore(monitor().clone(), &wrong_version),
        Err(RestoreError::Version(_))
    ));

    let mut missing_lru = good.clone();
    missing_lru.lru.pop();
    assert!(matches!(
        OnlineAssessor::restore(monitor().clone(), &missing_lru),
        Err(RestoreError::Corrupt(_))
    ));

    let mut wrong_shard = good.clone();
    // Move one subscriber into a shard its id does not hash to.
    let donor = wrong_shard
        .shards
        .iter()
        .position(|s| !s.subscribers.is_empty())
        .expect("a populated shard");
    let moved = wrong_shard.shards[donor].subscribers.remove(0);
    let target = (donor + 1) % wrong_shard.shards.len();
    wrong_shard.shards[target].subscribers.push(moved);
    assert!(matches!(
        OnlineAssessor::restore(monitor().clone(), &wrong_shard),
        Err(RestoreError::Corrupt(_))
    ));
}

/// Long-running overload soak (run by `scripts/soak.sh` under
/// `VQOE_SOAK=1`): repeated flood waves with rotating seeds through one
/// budgeted assessor, asserting the budget and accounting invariants
/// after every wave.
#[test]
#[ignore]
fn overload_soak() {
    let legit = multi_subscriber_tap(3, 1, 918);
    let start = legit.first().map(|e| e.timestamp).unwrap_or(Instant(0));
    let per_record = legit.iter().map(|e| e.tracked_cost()).max().unwrap_or(256);
    let budget = BudgetConfig {
        per_subscriber_bytes: 24 * per_record,
        global_bytes: 96 * per_record,
        admission: AdmissionPolicy::ShedColdest,
    };
    let mut online = OnlineAssessor::new(monitor().clone()).with_budget(budget);
    let mut emitted = 0usize;
    for wave in 0..25u64 {
        let flood = generate_subscriber_flood(
            &FloodSpec {
                subscribers: 30,
                id_base: 0x1000 * (wave + 1),
                ..FloodSpec::default()
            },
            start,
            919 ^ wave,
        );
        let entries = merge_streams(vec![legit.clone(), flood]);
        for e in &entries {
            emitted += online.ingest(e).len();
            assert!(online.tracked_bytes() <= budget.global_bytes);
        }
        let reasons = online.shed_log().reasons();
        assert_eq!(online.shed_log().total(), reasons.total());
        let health = online.health();
        assert_eq!(
            health.sessions_shed,
            reasons.subscriber_budget + reasons.global_budget
        );
    }
    assert!(emitted > 0, "waves kept producing assessments");
    assert!(online.shed_log().total() > 0, "waves kept shedding");
}
