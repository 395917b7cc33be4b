//! Batch-vs-streaming equivalence suite (ISSUE 10 acceptance criteria):
//!
//! * sessions **under the exactness cap** produce bit-identical
//!   `SessionAssessment`s on the buffered batch path, the sequential
//!   streaming path, and the sharded engine at workers 1/2/7 — with and
//!   without chaos faults;
//! * sessions **past the cap** carry `Fidelity::Sketched` (below the
//!   force-closed `Partial` tier), keep exact session boundaries, and their
//!   predictions match the fully-buffered reference within pinned
//!   tolerances — identically at every worker count;
//! * on the paper's simulated worlds, a cap most sessions outgrow
//!   keeps most stall, representation and switch verdicts of the exact
//!   path;
//! * edge sessions (empty, single-chunk, all-NaN metric column) behave
//!   identically on both paths;
//! * the single-stream batch path never truncates: a session past the
//!   cap is assessed from every chunk, exactly, at `Fidelity::Full`.

mod common;

use common::multi_subscriber_tap;

use std::collections::BTreeMap;
use std::sync::OnceLock;

use vqoe_core::{
    EncryptedEvalConfig, EncryptedWorld, EngineConfig, Fidelity, IngestReport, OnlineAssessor,
    QoeMonitor, SessionAssessment, TrainingConfig,
};
use vqoe_player::TransportSummary;
use vqoe_simnet::time::{Duration as SimDuration, Instant as SimInstant};
use vqoe_telemetry::{
    apply_chaos, generate_pathological_session, ChaosConfig, EntryKind, ReassemblyConfig,
    WeblogEntry,
};

fn monitor() -> &'static QoeMonitor {
    static MONITOR: OnceLock<QoeMonitor> = OnceLock::new();
    MONITOR.get_or_init(|| {
        QoeMonitor::train(&TrainingConfig {
            cleartext_sessions: 250,
            adaptive_sessions: 150,
            seed: 85,
            ..TrainingConfig::default()
        })
    })
}

/// The trained monitor with a different per-session exactness cap; the
/// models are identical, so any output difference is the spill path.
fn monitor_with_cap(cap: usize) -> QoeMonitor {
    let mut m = monitor().clone();
    m.reassembly = ReassemblyConfig {
        exact_entry_cap: cap,
        ..m.reassembly
    };
    m
}

/// One synthetic media chunk with fully-controlled transport metrics.
fn chunk(at_micros: u64, transport: TransportSummary) -> WeblogEntry {
    WeblogEntry {
        timestamp: SimInstant(at_micros),
        subscriber_id: 0,
        host: "r1---sn-eq.googlevideo.com".to_string(),
        uri: None,
        bytes: 250_000,
        duration: SimDuration::from_millis(450),
        transport,
        encrypted: true,
        kind: EntryKind::MediaChunk,
    }
}

fn finite_transport(k: usize) -> TransportSummary {
    TransportSummary {
        rtt_min: 0.018,
        rtt_mean: 0.030 + (k % 5) as f64 * 0.002,
        rtt_max: 0.070,
        bdp_mean: 90_000.0,
        bif_mean: 25_000.0 + (k % 3) as f64 * 5_000.0,
        bif_max: 55_000.0,
        loss_frac: 0.001,
        retx_frac: 0.003,
    }
}

fn nan_transport() -> TransportSummary {
    TransportSummary {
        rtt_min: f64::NAN,
        rtt_mean: f64::NAN,
        rtt_max: f64::NAN,
        bdp_mean: f64::NAN,
        bif_mean: f64::NAN,
        bif_max: f64::NAN,
        loss_frac: f64::NAN,
        retx_frac: f64::NAN,
    }
}

/// `sessions` back-to-back synthetic sessions of `chunks` chunks each,
/// 2 s chunk cadence, separated by a 40 s idle gap (> the 30 s
/// reassembly threshold).
fn synthetic_sessions(
    sessions: usize,
    chunks: usize,
    transport: impl Fn(usize) -> TransportSummary,
) -> Vec<WeblogEntry> {
    let mut out = Vec::new();
    let mut t = 1_000_000u64;
    for _ in 0..sessions {
        for k in 0..chunks {
            out.push(chunk(t, transport(k)));
            t += 2_000_000;
        }
        t += 40_000_000;
    }
    out
}

fn engine_report(monitor: &QoeMonitor, workers: usize, entries: &[WeblogEntry]) -> IngestReport {
    let cfg = EngineConfig { workers, shards: 8 };
    monitor.pipeline().with_engine(cfg).assess(entries)
}

fn streamed(monitor: &QoeMonitor, entries: &[WeblogEntry]) -> Vec<SessionAssessment> {
    let mut online = OnlineAssessor::new(monitor.clone());
    let mut out = Vec::new();
    for e in entries {
        out.extend(online.ingest(e));
    }
    out.extend(online.into_report().assessments);
    out
}

#[test]
fn under_cap_streaming_is_bit_identical_to_the_batch_path() {
    let entries = multi_subscriber_tap(3, 2, 2100);
    // Batch reference: each subscriber's stream assessed on the
    // buffered pipeline, independently.
    let mut batch = Vec::new();
    for s in 0..3u64 {
        let own: Vec<WeblogEntry> = entries
            .iter()
            .filter(|e| e.subscriber_id == s)
            .cloned()
            .collect();
        batch.extend(monitor().pipeline().assess_subscriber(&own));
    }
    batch.sort_by_key(|a| (a.start, a.end));
    assert!(!batch.is_empty(), "tap produced no sessions");
    assert!(batch.iter().all(|a| a.fidelity == Fidelity::Full));

    // No session approaches the default 4096-entry cap, so the
    // streaming path (at any worker count) must match bit for bit.
    for workers in [1usize, 2, 7] {
        let mut got = engine_report(monitor(), workers, &entries).assessments;
        got.sort_by_key(|a| (a.start, a.end));
        assert_eq!(got, batch, "{workers} workers diverged from batch");
    }
}

#[test]
fn under_cap_a_lowered_cap_is_invisible_with_and_without_chaos() {
    let entries = multi_subscriber_tap(3, 2, 2200);
    // 1024 is far above any session in this tap but well below the
    // default: if the spill machinery mis-fires early, this catches it.
    let low = monitor_with_cap(1024);
    for (name, tap) in [
        ("clean", entries.clone()),
        (
            "chaos",
            apply_chaos(&entries, &ChaosConfig::uniform(0.3), 23).0,
        ),
    ] {
        for workers in [1usize, 2, 7] {
            let reference = engine_report(monitor(), workers, &tap);
            let lowered = engine_report(&low, workers, &tap);
            assert_eq!(
                lowered, reference,
                "[{name}] cap 1024 at {workers} workers must be invisible under the cap"
            );
            assert!(lowered
                .assessments
                .iter()
                .all(|a| a.fidelity != Fidelity::Sketched));
        }
    }
}

#[test]
fn sketched_sessions_carry_the_tier_and_pinned_tolerance_predictions() {
    // Three 96-chunk sessions against a 32-entry cap: every session
    // spills. The reference is the same tap under the default cap.
    let entries = synthetic_sessions(3, 96, finite_transport);
    let full = streamed(monitor(), &entries);
    let sketched = streamed(&monitor_with_cap(32), &entries);
    assert_eq!(full.len(), 3);
    assert_eq!(sketched.len(), full.len());

    for (f, s) in full.iter().zip(&sketched) {
        assert_eq!(f.fidelity, Fidelity::Full);
        assert_eq!(s.fidelity, Fidelity::Sketched);
        // Sketched sessions saw every chunk — nothing is missing, only
        // summarized — so they rank below the force-closed tiers.
        assert!(s.fidelity < Fidelity::Partial);
        // Session recovery is exact either way: boundaries and chunk
        // counts never degrade.
        assert_eq!(s.start, f.start);
        assert_eq!(s.end, f.end);
        assert_eq!(s.chunk_count, f.chunk_count);
        // Pinned prediction tolerances: the sketch replaces exact
        // percentiles with (capacity 64) approximations, so scores may
        // move a little, classes and scores must stay close.
        assert_eq!(s.stall, f.stall, "stall class drifted under the sketch");
        assert_eq!(
            s.representation, f.representation,
            "representation class drifted under the sketch"
        );
        assert!(
            (s.switch_score - f.switch_score).abs() <= 0.05,
            "switch score drifted past tolerance: {} vs {}",
            s.switch_score,
            f.switch_score
        );
        assert!(
            (s.qoe.mos - f.qoe.mos).abs() <= 0.25,
            "MOS drifted past tolerance: {} vs {}",
            s.qoe.mos,
            f.qoe.mos
        );
    }

    // The sketched tier is itself bit-stable across worker counts.
    let low = monitor_with_cap(32);
    let reference = engine_report(&low, 1, &entries);
    assert!(reference
        .assessments
        .iter()
        .all(|a| a.fidelity == Fidelity::Sketched));
    for workers in [2usize, 7] {
        assert_eq!(
            engine_report(&low, workers, &entries),
            reference,
            "sketched path diverged at {workers} workers"
        );
    }
}

#[test]
fn sketched_tier_agrees_with_the_exact_path_on_paper_worlds() {
    // Two worlds of the §5 evaluation traffic, assessed at the default
    // cap and at a cap of 16 entries, which most sessions outgrow.
    let sketching = monitor_with_cap(16);
    let (mut sessions, mut sketched) = (0usize, 0usize);
    let mut agree = [0usize; 3];
    for seed in [2400u64, 2401] {
        let mut cfg = EncryptedEvalConfig::paper_default(seed);
        cfg.spec.n_sessions = 100;
        let world = EncryptedWorld::build(&cfg).expect("simulated world builds");
        let exact: BTreeMap<_, _> = streamed(monitor(), &world.entries)
            .into_iter()
            .map(|a| ((a.start, a.end), a))
            .collect();
        let capped = streamed(&sketching, &world.entries);
        assert_eq!(capped.len(), exact.len(), "the cap changed the sessions");
        for s in &capped {
            let f = &exact[&(s.start, s.end)];
            sessions += 1;
            sketched += usize::from(s.fidelity == Fidelity::Sketched);
            agree[0] += usize::from(s.stall == f.stall);
            agree[1] += usize::from(s.representation == f.representation);
            agree[2] += usize::from(s.has_quality_switches == f.has_quality_switches);
        }
    }
    let share = |k: usize| k as f64 / sessions as f64;
    let [stall, representation, switch] = agree.map(share);
    let measured = format!(
        "{sessions} sessions, {:.3} sketched; agreement: stall {stall:.3}, \
         representation {representation:.3}, switch {switch:.3}",
        share(sketched)
    );
    eprintln!("{measured}");
    // Floors sit a little under the measured shares (0.98 sketched;
    // stall 0.985, representation and switch 1.0).
    assert!(share(sketched) >= 0.9, "{measured}");
    assert!(stall >= 0.95, "{measured}");
    assert!(representation >= 0.97, "{measured}");
    assert!(switch >= 0.97, "{measured}");
}

#[test]
fn edge_sessions_behave_identically_on_both_paths() {
    // Empty: nothing media-shaped ever arrives.
    let noise: Vec<WeblogEntry> = synthetic_sessions(1, 4, finite_transport)
        .into_iter()
        .map(|mut e| {
            e.host = "www.example.com".to_string();
            e.kind = EntryKind::Noise;
            e
        })
        .collect();
    // Single chunk: below the min_chunks=3 reassembly floor.
    let single = synthetic_sessions(1, 1, finite_transport);
    for (name, tap) in [("empty", noise), ("single-chunk", single)] {
        for m in [monitor().clone(), monitor_with_cap(4)] {
            assert!(
                streamed(&m, &tap).is_empty(),
                "[{name}] must produce no session on the streaming path"
            );
            assert!(
                m.pipeline().assess_subscriber(&tap).is_empty(),
                "[{name}] must produce no session on the batch path"
            );
        }
    }

    // All-NaN metric column, under the cap: the missing-value policy
    // (MISSING_STAT, never a fake 0.0) applies identically to both
    // paths, so they stay bit-identical.
    let nan_tap = synthetic_sessions(2, 8, |_| nan_transport());
    let batch = monitor().pipeline().assess_subscriber(&nan_tap);
    assert_eq!(batch.len(), 2, "all-NaN transport must still sessionize");
    assert_eq!(streamed(monitor(), &nan_tap), batch);
    for a in &batch {
        assert!(a.switch_score.is_finite());
        assert!(a.qoe.mos.is_finite());
    }

    // All-NaN past the cap: the streaming digest ignores non-finite
    // pushes, so the sketched session still assesses with finite
    // scores and exact boundaries.
    let long_nan = synthetic_sessions(1, 24, |_| nan_transport());
    let full = streamed(monitor(), &long_nan);
    let sketched = streamed(&monitor_with_cap(8), &long_nan);
    assert_eq!(full.len(), 1);
    assert_eq!(sketched.len(), 1);
    assert_eq!(sketched[0].fidelity, Fidelity::Sketched);
    assert_eq!(sketched[0].start, full[0].start);
    assert_eq!(sketched[0].end, full[0].end);
    assert_eq!(sketched[0].chunk_count, full[0].chunk_count);
    assert!(sketched[0].switch_score.is_finite());
    assert!(sketched[0].qoe.mos.is_finite());
}

#[test]
fn batch_subscriber_path_assesses_long_sessions_in_full() {
    // One 300-chunk session that never pauses, against a 64-entry cap:
    // the streaming paths sketch it, the batch path holds the whole
    // slice and must assess every chunk exactly.
    let tap = generate_pathological_session(
        0,
        SimInstant::from_secs(10),
        300,
        SimDuration::from_millis(250),
        12,
    );
    let chunks = tap
        .iter()
        .filter(|e| e.kind == EntryKind::MediaChunk)
        .count();
    assert_eq!(chunks, 300);
    let capped = monitor_with_cap(64);
    let batch = capped.pipeline().assess_subscriber(&tap);
    assert_eq!(batch.len(), 1);
    assert_eq!(
        batch[0].chunk_count, chunks,
        "batch path truncated the session"
    );
    assert_eq!(batch[0].fidelity, Fidelity::Full);
    // Exactly what a monitor without a cap assesses on the engine.
    let uncapped = engine_report(&monitor_with_cap(0), 1, &tap).assessments;
    assert_eq!(batch, uncapped);
    // The capped engine sees the same session through the sketched tier.
    let sketched = engine_report(&capped, 1, &tap).assessments;
    assert_eq!(sketched.len(), 1);
    assert_eq!(sketched[0].fidelity, Fidelity::Sketched);
    assert_eq!(sketched[0].chunk_count, chunks);
}
