//! Overload-hardening integration tests: memory budgets, typed load
//! shedding, degraded-mode fidelity tiers, and deterministic
//! checkpoint/restore.
//!
//! The contract under test (ISSUE 7 acceptance criteria):
//!
//! * kill at record N + restore + replay tail is bit-identical to the
//!   uninterrupted run — the `IngestReport` and the stable metrics
//!   snapshot — at several cut points, with and without chaos, and
//!   from a 32-shard checkpoint an earlier build wrote;
//! * the unbudgeted streaming path equals the batch engine at workers
//!   1/2/7;
//! * LRU eviction tie-breaking under equal activity ticks is by
//!   subscriber id;
//! * `Fidelity::Partial`/`Shed` outputs are built from feature blocks
//!   that use `MISSING_STAT` (never 0.0) for unavailable statistics;
//! * a 10x subscriber flood stays within budget, every shed is typed,
//!   and refused admissions are counted;
//! * checkpoint decoding is total: arbitrary bytes, truncations and
//!   bit flips of a real checkpoint decode and restore to `Ok` or a
//!   typed error, never a panic (nor a stack overflow on deep nesting),
//!   and a damaged spill digest, a misrouted or duplicated subscriber
//!   and an LRU mismatch are refused.

mod common;

use common::multi_subscriber_tap;

use std::sync::OnceLock;

use proptest::prelude::*;
use vqoe_core::{
    encode_snapshot, shard_of, AdmissionPolicy, BudgetConfig, EngineConfig, Fidelity, IngestReport,
    OnlineAssessor, OnlineCheckpoint, PipelineMetrics, QoeMonitor, RestoreError, ShardCheckpoint,
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
    apply_chaos, generate_pathological_session, generate_subscriber_flood, merge_streams,
    ChaosConfig, EntryKind, FloodSpec, IngestConfig, ReassemblyConfig, RobustReassembler,
    StreamHealth, WeblogEntry, EXACT_ENTRY_CAP, SPILL_STATE_COST_BYTES,
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
fn run_streaming(entries: &[WeblogEntry], budget: BudgetConfig) -> (IngestReport, String) {
    let registry = Registry::new();
    let metrics = PipelineMetrics::register(&registry);
    let mut online = OnlineAssessor::with_config(monitor().clone(), IngestConfig::default())
        .with_budget(budget)
        .with_metrics(metrics);
    let mut assessments = Vec::new();
    for e in entries {
        assessments.extend(online.ingest(e));
    }
    let mut report = online.into_report();
    assessments.extend(std::mem::take(&mut report.assessments));
    report.assessments = assessments;
    (report, encode_snapshot(&registry.snapshot()))
}

/// Same stream, but killed at `cut`: checkpoint (with metrics), round
/// trip the checkpoint through JSON, restore into a fresh assessor and
/// a fresh registry, replay the tail.
fn run_interrupted(
    entries: &[WeblogEntry],
    budget: BudgetConfig,
    cut: usize,
) -> (IngestReport, String) {
    let registry1 = Registry::new();
    let metrics1 = PipelineMetrics::register(&registry1);
    let mut first = OnlineAssessor::with_config(monitor().clone(), IngestConfig::default())
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
    assert!(ck.metrics_snapshot.is_some(), "snapshot embedded");
    ck.absorb_metrics(&registry2).expect("snapshot absorbs");
    let mut second = OnlineAssessor::restore(monitor().clone(), &ck)
        .expect("checkpoint restores")
        .with_metrics(metrics2);
    for e in entries.iter().skip(ck.records_ingested as usize) {
        assessments.extend(second.ingest(e));
    }
    let mut report = second.into_report();
    assessments.extend(std::mem::take(&mut report.assessments));
    report.assessments = assessments;
    (report, encode_snapshot(&registry2.snapshot()))
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
        let (uninterrupted, snap_a) = run_streaming(entries, budget);
        assert!(
            uninterrupted.shed.total() > 0,
            "the budget must actually shed for this test to bite"
        );
        let len = entries.len();
        for cut in [0, 1, len / 3, len / 2, 2 * len / 3, len - 1, len] {
            let (resumed, snap_b) = run_interrupted(entries, budget, cut);
            assert_eq!(
                uninterrupted, resumed,
                "IngestReport diverged after restore (cut={cut})"
            );
            // Byte-level identity, not just structural equality.
            assert_eq!(
                serde_json::to_string(&uninterrupted).expect("report serializes"),
                serde_json::to_string(&resumed).expect("report serializes"),
                "serialized reports diverged (cut={cut})"
            );
            assert_eq!(
                snap_a, snap_b,
                "stable metrics snapshots diverged (cut={cut})"
            );
        }
    }
}

#[test]
fn unbudgeted_streaming_equals_engine_at_workers_1_2_7() {
    let clean = multi_subscriber_tap(4, 1, 913);
    let (chaotic, _) = apply_chaos(&clean, &ChaosConfig::uniform(0.15), 914);
    for entries in [&clean, &chaotic] {
        let cut = entries.len() / 2;
        let (streamed, _) = run_interrupted(entries, BudgetConfig::default(), cut);
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
    let mut online = OnlineAssessor::with_config(
        monitor().clone(),
        IngestConfig {
            max_open_subscribers: 2,
            ..IngestConfig::default()
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
        "equal ticks must evict the lowest subscriber id first"
    );
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
        assert!(
            a.fidelity >= Fidelity::Partial,
            "an evicted session is force-closed"
        );
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
    let force_closed = out
        .iter()
        .filter(|a| a.fidelity >= Fidelity::Partial)
        .count() as u64;
    assert_eq!(
        force_closed, health.sessions_partial,
        "force-closed tiers equal the force-closed session count"
    );
    for a in &out {
        assert_ne!(
            a.fidelity,
            Fidelity::Sketched,
            "no flood session outgrows the exactness cap"
        );
    }
}

#[test]
fn shed_reason_counts_round_trip_through_the_metrics_registry() {
    // Every typed shed reason the flood provokes must be mirrored
    // one-for-one by its per-reason Stable counter — the counters are
    // the shed log, not a parallel tally.
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
    let registry = Registry::new();
    let metrics = PipelineMetrics::register(&registry);
    let mut online = OnlineAssessor::new(monitor().clone())
        .with_budget(budget)
        .with_metrics(metrics.clone());
    for e in &entries {
        online.ingest(e);
    }
    let reasons_from_metrics = metrics.tallies().reasons;
    let report = online.into_report();
    assert!(report.shed.total() > 0, "the flood must force shedding");
    assert_eq!(
        reasons_from_metrics,
        report.shed.reasons(),
        "per-reason counters diverged from the shed log"
    );
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

    // This build writes one shard; split its subscribers over two the
    // way `shard_of` routes them (as a two-shard build would) or the
    // opposite way.
    assert_eq!(good.shards.len(), 1);
    let split = |misroute: bool| {
        let mut ck = good.clone();
        let all = std::mem::take(&mut ck.shards[0].subscribers);
        ck.shards.push(ShardCheckpoint {
            health: Default::default(),
            subscribers: Vec::new(),
        });
        for (id, state) in all {
            let home = shard_of(id, 2) ^ usize::from(misroute);
            ck.shards[home].subscribers.push((id, state));
        }
        assert!(ck.shards.iter().all(|s| !s.subscribers.is_empty()));
        ck
    };
    let merged = OnlineAssessor::restore(monitor().clone(), &split(false))
        .expect("a correctly routed split restores");
    assert_eq!(merged.checkpoint(), good, "the split merges back into one");
    assert!(matches!(
        OnlineAssessor::restore(monitor().clone(), &split(true)),
        Err(RestoreError::Corrupt(_))
    ));

    let mut duplicated = good.clone();
    let copy = duplicated.shards[0].subscribers[0].clone();
    duplicated.shards[0].subscribers.push(copy);
    assert!(matches!(
        OnlineAssessor::restore(monitor().clone(), &duplicated),
        Err(RestoreError::Corrupt(_))
    ));

    let mut no_shards = good.clone();
    no_shards.shards.clear();
    assert!(matches!(
        OnlineAssessor::restore(monitor().clone(), &no_shards),
        Err(RestoreError::Corrupt(_))
    ));
}

/// The trained monitor with a per-session exactness cap low enough
/// that mid-stream subscribers have spilled into their digest sinks.
fn spilling_monitor() -> QoeMonitor {
    let mut m = monitor().clone();
    m.reassembly = ReassemblyConfig {
        exact_entry_cap: 8,
        ..m.reassembly
    };
    m
}

/// A mid-stream checkpoint of a budgeted, chaos-faulted run on the
/// spilling monitor, metrics snapshot embedded: spill digests, shed
/// and anomaly logs and the LRU index are all populated.
fn spilled_checkpoint() -> &'static OnlineCheckpoint {
    static CHECKPOINT: OnceLock<OnlineCheckpoint> = OnceLock::new();
    CHECKPOINT.get_or_init(|| {
        let clean = multi_subscriber_tap(3, 1, 921);
        let (entries, _) = apply_chaos(&clean, &ChaosConfig::uniform(0.2), 922);
        let per_record = clean.iter().map(|e| e.tracked_cost()).max().unwrap_or(256);
        let registry = Registry::new();
        let mut online = OnlineAssessor::with_config(spilling_monitor(), IngestConfig::default())
            .with_budget(BudgetConfig {
                per_subscriber_bytes: 0,
                global_bytes: 2 * SPILL_STATE_COST_BYTES + 16 * per_record,
                admission: AdmissionPolicy::ShedColdest,
            })
            .with_metrics(PipelineMetrics::register(&registry));
        for e in entries.iter().take(entries.len() / 2) {
            online.ingest(e);
        }
        online.checkpoint_with_metrics(&registry)
    })
}

/// A checkpoint an earlier build's 32-shard assessor wrote on
/// [`spilling_monitor`] at record 199 of this tap: three subscribers on
/// shards 1, 14 and 15, two of them spilled into their digests.
const CHECKPOINT_32_SHARDS: &str = include_str!("fixtures/checkpoint_32_shards.json");

/// The tap behind [`CHECKPOINT_32_SHARDS`]: three subscribers, two
/// sessions each, mildly faulted.
fn fixture_tap() -> Vec<WeblogEntry> {
    let clean = multi_subscriber_tap(3, 2, 930);
    apply_chaos(&clean, &ChaosConfig::uniform(0.1), 931).0
}

#[test]
fn a_32_shard_checkpoint_resumes_from_one_table() {
    let old = OnlineCheckpoint::from_json(CHECKPOINT_32_SHARDS).expect("fixture parses");
    assert_eq!(old.shards.len(), 32);
    let populated = old.shards.iter().filter(|s| s.health.entries_seen > 0);
    assert_eq!(populated.count(), 3, "three shards carry health");
    let mut subscribers: Vec<_> = old
        .shards
        .iter()
        .flat_map(|s| s.subscribers.clone())
        .collect();
    subscribers.sort_by_key(|&(id, _)| id);
    assert_eq!(subscribers.len(), 3);
    assert!(subscribers
        .iter()
        .any(|(_, state)| state.inner.spill_json.is_some()));

    // Restored into one table, it checkpoints again as one shard
    // holding every subscriber and the summed health.
    let restored = OnlineAssessor::restore(spilling_monitor(), &old).expect("fixture restores");
    let json = restored
        .checkpoint()
        .to_json()
        .expect("checkpoint serializes");
    let ck = OnlineCheckpoint::from_json(&json).expect("checkpoint parses");
    let mut summed = StreamHealth::default();
    for s in &old.shards {
        summed.absorb(&s.health);
    }
    assert_eq!(ck.shards.len(), 1);
    assert_eq!(ck.shards[0].health, summed);
    assert_eq!(ck.shards[0].subscribers, subscribers);
    assert_eq!((ck.lru.clone(), ck.records_ingested), (old.lru, 199));

    // Resumed from that one shard, the tail completes the
    // uninterrupted run's report, which the engine also produces at
    // one shard and at 32.
    let monitor = spilling_monitor();
    let entries = fixture_tap();
    let (head, tail) = entries.split_at(199);
    let mut uninterrupted = OnlineAssessor::new(monitor.clone());
    let mut resumed = OnlineAssessor::restore(monitor.clone(), &ck).expect("checkpoint restores");
    let mut expected: Vec<_> = head.iter().flat_map(|e| uninterrupted.ingest(e)).collect();
    let mut got = expected.clone();
    for e in tail {
        expected.extend(uninterrupted.ingest(e));
        got.extend(resumed.ingest(e));
    }
    let (mut expected_report, mut got_report) =
        (uninterrupted.into_report(), resumed.into_report());
    expected.append(&mut expected_report.assessments);
    expected_report.assessments = expected;
    got.append(&mut got_report.assessments);
    got_report.assessments = got;
    assert_eq!(got_report, expected_report);
    assert!(expected_report.assessments.len() >= 6);
    for shards in [1, 32] {
        let engine = EngineConfig {
            shards,
            ..EngineConfig::default()
        };
        let batch = monitor.pipeline().with_engine(engine).assess(&entries);
        assert_eq!(batch, expected_report, "engine at {shards} shards");
    }
}

/// A checkpoint an earlier build wrote at record 145 of
/// `multi_subscriber_tap(3, 1, 940)` under a cap of two open
/// subscribers, with its metrics snapshot embedded and exemplar
/// capture on: the evictions had already assessed 16 sessions, so both
/// exemplar histograms hold samples. It embeds the detector counters of
/// the test monitor, so a deliberate model change rewrites it with
/// [`write_checkpoint_with_metrics_fixture`].
const CHECKPOINT_WITH_METRICS: &str = include_str!("fixtures/checkpoint_with_metrics.json");

/// Rewrites `fixtures/checkpoint_with_metrics.json` by the procedure
/// above: `cargo test -p vqoe-core --test overload -- --ignored --exact
/// write_checkpoint_with_metrics_fixture`. On an unchanged model the
/// file comes out byte for byte as committed. `scripts/soak.sh` skips it.
#[test]
#[ignore]
fn write_checkpoint_with_metrics_fixture() {
    let cap = IngestConfig {
        max_open_subscribers: 2,
        ..IngestConfig::default()
    };
    let registry = Registry::new();
    let mut online = OnlineAssessor::with_config(monitor().clone(), cap)
        .with_metrics(PipelineMetrics::register_with_exemplars(&registry));
    for e in multi_subscriber_tap(3, 1, 940).iter().take(145) {
        online.ingest(e);
    }
    let json = online
        .checkpoint_with_metrics(&registry)
        .to_json()
        .expect("checkpoint serializes");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/checkpoint_with_metrics.json"
    );
    std::fs::write(path, json).expect("write the fixture");
}

#[test]
fn a_checkpoint_with_metrics_restores_its_snapshot_byte_for_byte() {
    let ck = OnlineCheckpoint::from_json(CHECKPOINT_WITH_METRICS).expect("fixture parses");
    let embedded = ck.metrics_snapshot.clone().expect("snapshot embedded");
    assert!(embedded.contains("\"exemplars\": [["), "{embedded}");
    // Registered without exemplars: the snapshot turns capture back on.
    let registry = Registry::new();
    let metrics = PipelineMetrics::register(&registry);
    ck.absorb_metrics(&registry).expect("snapshot absorbs");
    assert_eq!(encode_snapshot(&registry.snapshot()), embedded);

    // Resumed, the tail brings the registry to the uninterrupted run's.
    let entries = multi_subscriber_tap(3, 1, 940);
    let mut resumed = OnlineAssessor::restore(monitor().clone(), &ck)
        .expect("fixture restores")
        .with_metrics(metrics);
    for e in entries.iter().skip(ck.records_ingested as usize) {
        resumed.ingest(e);
    }
    resumed.into_report();
    let whole = Registry::new();
    let cap = IngestConfig {
        max_open_subscribers: 2,
        ..IngestConfig::default()
    };
    let mut uninterrupted = OnlineAssessor::with_config(monitor().clone(), cap)
        .with_metrics(PipelineMetrics::register_with_exemplars(&whole));
    for e in &entries {
        uninterrupted.ingest(e);
    }
    uninterrupted.into_report();
    assert_eq!(
        encode_snapshot(&registry.snapshot()),
        encode_snapshot(&whole.snapshot())
    );
}

#[test]
fn restore_rejects_an_unreadable_spill_digest() {
    let good = spilled_checkpoint();
    assert!(OnlineAssessor::restore(spilling_monitor(), good).is_ok());
    let mut damaged = good.clone();
    let json = damaged
        .shards
        .iter_mut()
        .flat_map(|s| s.subscribers.iter_mut())
        .find_map(|(_, state)| state.inner.spill_json.as_mut())
        .expect("a subscriber is spilled at the cut");
    json.truncate(json.len() / 2);
    assert!(matches!(
        OnlineAssessor::restore(spilling_monitor(), &damaged),
        Err(RestoreError::Corrupt(_))
    ));
}

/// The value under `key` in a JSON object.
fn field<'a>(value: &'a mut serde_json::Value, key: &str) -> &'a mut serde_json::Value {
    match value {
        serde_json::Value::Map(fields) => fields
            .iter_mut()
            .find_map(|(k, v)| (k == key).then_some(v))
            .unwrap_or_else(|| panic!("no key {key}")),
        _ => panic!("not an object at {key}"),
    }
}

/// The length of a log's `kept` list.
fn kept_len(log: &mut serde_json::Value) -> u64 {
    match field(log, "kept") {
        serde_json::Value::Seq(items) => items.len() as u64,
        other => panic!("kept is not a list: {other:?}"),
    }
}

#[test]
fn restore_rejects_inconsistent_anomaly_and_shed_logs() {
    let good = spilled_checkpoint();
    assert!(!good.anomalies.kept().is_empty() && !good.shed.kept().is_empty());
    let json = good.to_json().expect("checkpoint serializes");
    for (log, counts) in [("anomalies", "kinds"), ("shed", "reasons")] {
        // Each edit leaves the other two checks satisfied.
        type Edit = fn(&mut serde_json::Value, &str);
        let edits: [(&str, Edit); 3] = [
            ("kept longer than cap", |log, _| {
                let kept = kept_len(log);
                *field(log, "cap") = serde_json::Value::U64(kept - 1);
            }),
            ("kept longer than total", |log, counts| {
                let kept = kept_len(log);
                *field(log, "total") = serde_json::Value::U64(kept - 1);
                let serde_json::Value::Map(fields) = field(log, counts) else {
                    panic!("{counts} is not an object");
                };
                for (i, (_, n)) in fields.iter_mut().enumerate() {
                    *n = serde_json::Value::U64(if i == 0 { kept - 1 } else { 0 });
                }
            }),
            ("counts short of total", |log, _| {
                if let serde_json::Value::U64(total) = field(log, "total") {
                    *total += 1;
                }
            }),
        ];
        for (what, edit) in edits {
            let mut value: serde_json::Value = serde_json::from_str(&json).expect("JSON parses");
            edit(field(&mut value, log), counts);
            let text = serde_json::to_string(&value).expect("JSON serializes");
            let bad = OnlineCheckpoint::from_json(&text).expect("the derived parser accepts it");
            assert!(
                matches!(
                    OnlineAssessor::restore(spilling_monitor(), &bad),
                    Err(RestoreError::Corrupt(_))
                ),
                "{log}: {what}"
            );
        }
    }
    assert!(OnlineAssessor::restore(spilling_monitor(), good).is_ok());
}

#[test]
fn a_valid_checkpoint_round_trips_byte_for_byte() {
    let json = spilled_checkpoint()
        .to_json()
        .expect("checkpoint serializes");
    let decoded = OnlineCheckpoint::from_json(&json).expect("checkpoint parses");
    assert_eq!(&decoded, spilled_checkpoint());
    assert_eq!(decoded.to_json().expect("re-serializes"), json);
}

/// Delete every object key named in `keys`, at any depth of `value`.
fn strip_keys(value: &mut serde_json::Value, keys: &[&str]) {
    match value {
        serde_json::Value::Map(entries) => {
            entries.retain(|(k, _)| !keys.contains(&k.as_str()));
            for (_, child) in entries {
                strip_keys(child, keys);
            }
        }
        serde_json::Value::Seq(items) => {
            for item in items {
                strip_keys(item, keys);
            }
        }
        _ => {}
    }
}

#[test]
fn a_version_1_checkpoint_restores_and_resumes_bit_identically() {
    let entries = multi_subscriber_tap(5, 1, 941);
    let cut = entries.len() / 2;
    let mut first = OnlineAssessor::new(monitor().clone());
    let mut got: Vec<_> = entries[..cut]
        .iter()
        .flat_map(|e| first.ingest(e))
        .collect();
    let ck = first.checkpoint();
    let machines: Vec<_> = ck
        .shards
        .iter()
        .flat_map(|s| &s.subscribers)
        .map(|(_, state)| &state.inner)
        .collect();
    assert!(
        machines.iter().any(|m| !m.current.is_empty()),
        "a session is open at the cut"
    );
    assert!(
        machines
            .iter()
            .all(|m| !m.spill_active && m.spilled_chunks == 0 && m.spill_json.is_none()),
        "nothing has spilled at the cut"
    );

    // Rewrite it as a version-1 build wrote it: no per-machine spill
    // state and no exactness cap in the machines' configs.
    let mut value: serde_json::Value =
        serde_json::from_str(&ck.to_json().expect("checkpoint serializes")).expect("JSON parses");
    strip_keys(
        &mut value,
        &[
            "spill_active",
            "spilled_chunks",
            "spilled_other",
            "spilled_end",
            "spill_json",
            "exact_entry_cap",
        ],
    );
    if let serde_json::Value::Map(fields) = &mut value {
        for (key, v) in fields.iter_mut() {
            if key == "version" {
                *v = serde_json::Value::U64(1);
            }
        }
    }
    let v1_json = serde_json::to_string(&value).expect("JSON serializes");
    assert!(!v1_json.contains("spill") && !v1_json.contains("exact_entry_cap"));
    let v1 = OnlineCheckpoint::from_json(&v1_json).expect("version-1 checkpoint parses");
    assert_eq!(v1.version, 1);

    let mut resumed =
        OnlineAssessor::restore(monitor().clone(), &v1).expect("version-1 checkpoint restores");
    got.extend(entries[cut..].iter().flat_map(|e| resumed.ingest(e)));
    let mut report = resumed.into_report();
    got.append(&mut report.assessments);
    report.assessments = got;
    let (uninterrupted, _) = run_streaming(&entries, BudgetConfig::default());
    assert_eq!(report, uninterrupted);
}

#[test]
fn a_model_file_without_the_exactness_cap_loads_with_the_default() {
    let json = monitor().to_json().expect("model serializes");
    let mut value: serde_json::Value = serde_json::from_str(&json).expect("JSON parses");
    strip_keys(&mut value, &["exact_entry_cap"]);
    let old_json = serde_json::to_string(&value).expect("JSON serializes");
    assert!(!old_json.contains("exact_entry_cap"));
    let old = QoeMonitor::from_json(&old_json).expect("a model without the cap loads");
    assert_eq!(old.reassembly.exact_entry_cap, EXACT_ENTRY_CAP);

    // One session runs past the cap, so the cap shapes the report.
    let mut tap = multi_subscriber_tap(2, 1, 951);
    tap.extend(generate_pathological_session(
        7,
        Instant::from_secs(30),
        EXACT_ENTRY_CAP + 64,
        Duration::from_secs(1),
        952,
    ));
    tap.sort_by_key(|e| e.timestamp);
    let expected = monitor().pipeline().assess(&tap);
    assert!(expected
        .assessments
        .iter()
        .any(|a| a.fidelity == Fidelity::Sketched));
    assert_eq!(old.pipeline().assess(&tap), expected);
}

#[test]
fn a_deeply_nested_checkpoint_is_an_error_not_a_stack_overflow() {
    let deep = "{\"shards\":".repeat(100_000) + "[]" + &"}".repeat(100_000);
    assert!(OnlineCheckpoint::from_json(&deep).is_err());
    assert!(OnlineCheckpoint::from_json(&"[".repeat(100_000)).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Decode, metrics absorb and restore are total over damaged input:
    /// whatever the bytes, the result is `Ok` or a typed error, never a
    /// panic.
    #[test]
    fn checkpoint_decoding_never_panics(
        mode in 0u8..4,
        at in 0usize..usize::MAX,
        bit in 0u8..8,
        junk in proptest::collection::vec(0u16..256, 0..48),
    ) {
        let json = spilled_checkpoint().to_json().expect("checkpoint serializes");
        let mut bytes = json.into_bytes();
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
        if let Ok(ck) = OnlineCheckpoint::from_json(&text) {
            // As `vqoe assess --restore` does: absorb the embedded
            // metrics into a freshly registered registry, then restore.
            let registry = Registry::new();
            let _metrics = PipelineMetrics::register(&registry);
            let _ = ck.absorb_metrics(&registry);
            let _ = OnlineAssessor::restore(spilling_monitor(), &ck);
        }
    }
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
