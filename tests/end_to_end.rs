//! End-to-end integration: the full train-on-cleartext /
//! assess-encrypted pipeline across every crate in the workspace.

use vqoe_core::{EncryptedEvalConfig, EncryptedWorld, QoeMonitor, SubscriptionSet, TrainingConfig};
use vqoe_features::{rq_label, stall_label, SessionObs, SessionView, StallClass};

fn small_training() -> TrainingConfig {
    TrainingConfig {
        cleartext_sessions: 600,
        adaptive_sessions: 300,
        seed: 1001,
        ..TrainingConfig::default()
    }
}

fn small_world(n: usize, seed: u64) -> EncryptedWorld {
    let mut config = EncryptedEvalConfig::paper_default(seed);
    config.spec.n_sessions = n;
    EncryptedWorld::build(&config).expect("simulated world builds")
}

#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let monitor = QoeMonitor::train(&small_training());
        let world = small_world(6, 77);
        monitor.pipeline().assess_subscriber(&world.entries)
    };
    assert_eq!(run(), run());
}

#[test]
fn trained_monitor_beats_chance_on_encrypted_traffic() {
    let monitor = QoeMonitor::train(&small_training());
    let subs = SubscriptionSet::standard(&monitor);
    let world = small_world(80, 88);
    let mut stall_ok = 0usize;
    let mut rq_ok = 0usize;
    let mut n = 0usize;
    for j in &world.joined {
        let obs = SessionObs::from_reassembled(&world.sessions[j.reassembled_idx]);
        let gt = &world.traces[j.trace_idx].ground_truth;
        let session = &world.sessions[j.reassembled_idx];
        let a = subs.assess_session(SessionView::new(&obs, session.start, session.end));
        if a.stall == stall_label(gt) {
            stall_ok += 1;
        }
        if a.representation == rq_label(gt) {
            rq_ok += 1;
        }
        n += 1;
    }
    assert!(n >= 70, "too few joined sessions: {n}");
    let stall_acc = stall_ok as f64 / n as f64;
    let rq_acc = rq_ok as f64 / n as f64;
    // Chance for 3 unbalanced classes would be well under 0.5.
    assert!(stall_acc > 0.5, "stall accuracy {stall_acc}");
    assert!(rq_acc > 0.5, "representation accuracy {rq_acc}");
}

#[test]
fn monitor_survives_a_serde_roundtrip_and_still_agrees() {
    let monitor = QoeMonitor::train(&small_training());
    let json = monitor.to_json().expect("serialize");
    let restored = QoeMonitor::from_json(&json).expect("deserialize");
    let world = small_world(10, 99);
    assert_eq!(
        monitor.pipeline().assess_subscriber(&world.entries),
        restored.pipeline().assess_subscriber(&world.entries)
    );
}

#[test]
fn assessments_cover_reassembled_sessions() {
    let monitor = QoeMonitor::train(&small_training());
    let world = small_world(12, 55);
    let assessments = monitor.pipeline().assess_subscriber(&world.entries);
    assert_eq!(assessments.len(), world.sessions.len());
    for (a, s) in assessments.iter().zip(world.sessions.iter()) {
        assert_eq!(a.start, s.start);
        assert_eq!(a.end, s.end);
        assert_eq!(a.chunk_count, s.chunk_count());
    }
}

#[test]
fn severe_sessions_are_rarely_called_healthy() {
    // The paper's key confusion-matrix property (Tables 4/9): the
    // severe <-> healthy corner stays near-empty even when mild/severe
    // boundaries blur.
    let monitor = QoeMonitor::train(&small_training());
    let subs = SubscriptionSet::standard(&monitor);
    let world = small_world(150, 66);
    let mut severe_total = 0usize;
    let mut severe_called_healthy = 0usize;
    for j in &world.joined {
        let gt = &world.traces[j.trace_idx].ground_truth;
        if stall_label(gt) != StallClass::Severe {
            continue;
        }
        severe_total += 1;
        let obs = SessionObs::from_reassembled(&world.sessions[j.reassembled_idx]);
        let session = &world.sessions[j.reassembled_idx];
        if subs
            .assess_session(SessionView::new(&obs, session.start, session.end))
            .stall
            == StallClass::NoStalls
        {
            severe_called_healthy += 1;
        }
    }
    assert!(
        severe_total >= 10,
        "not enough severe sessions: {severe_total}"
    );
    assert!(
        (severe_called_healthy as f64) < severe_total as f64 * 0.25,
        "{severe_called_healthy}/{severe_total} severe sessions called healthy"
    );
}
