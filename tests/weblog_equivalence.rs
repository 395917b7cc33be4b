//! The §3.2/§3.3 guarantee: training data built by reverse-engineering
//! cleartext weblogs is equivalent to training data built from the
//! simulator's own ground truth. This is what licenses the rest of the
//! reproduction to use the direct path.

use vqoe_core::weblog_training::{
    capture_cleartext_corpus, labelled_weblogs, sessions_from_weblogs,
};
use vqoe_core::{generate_traces, DatasetSpec, TrainConfig};
use vqoe_features::{
    build_dataset, labelled_traces, rq_label, stall_label, FeatureSpace, RepresentationSpace,
    StallSpace,
};
use vqoe_telemetry::extract_sessions;

#[test]
fn every_session_is_recovered_with_its_label() {
    let traces = generate_traces(
        &DatasetSpec::cleartext_default(120, 3001),
        TrainConfig::auto(),
    );
    let entries = capture_cleartext_corpus(&traces, 1).expect("capture");
    let sessions = sessions_from_weblogs(&entries);
    assert_eq!(sessions.len(), traces.len());
    for s in &sessions {
        let t = traces
            .iter()
            .find(|t| t.session_id == s.extracted.session_id)
            .expect("recovered session matches a trace");
        assert_eq!(
            stall_label(&s.extracted),
            stall_label(&t.ground_truth),
            "stall label diverged for session {}",
            t.session_id
        );
        if s.adaptive {
            assert_eq!(rq_label(&s.extracted), rq_label(&t.ground_truth));
        }
    }
}

#[test]
fn weblog_datasets_have_identical_class_structure() {
    let traces = generate_traces(
        &DatasetSpec::cleartext_default(100, 3002),
        TrainConfig::auto(),
    );
    let entries = capture_cleartext_corpus(&traces, 2).expect("capture");

    let stall_w = build_dataset::<StallSpace>(
        labelled_weblogs(&entries, StallSpace::label),
        TrainConfig::auto(),
    );
    let stall_t = build_dataset::<StallSpace>(
        labelled_traces(&traces, StallSpace::label),
        TrainConfig::auto(),
    );
    assert_eq!(stall_w.n_rows(), stall_t.n_rows());
    assert_eq!(stall_w.class_counts(), stall_t.class_counts());
    assert_eq!(stall_w.feature_names, stall_t.feature_names);

    let rep_w = build_dataset::<RepresentationSpace>(
        labelled_weblogs(&entries, RepresentationSpace::label),
        TrainConfig::auto(),
    );
    let rep_t = build_dataset::<RepresentationSpace>(
        labelled_traces(&traces, RepresentationSpace::label),
        TrainConfig::auto(),
    );
    assert_eq!(rep_w.n_rows(), rep_t.n_rows());
    assert_eq!(rep_w.class_counts(), rep_t.class_counts());
}

#[test]
fn feature_rows_match_between_paths() {
    // Not just the same shape: per-session feature vectors must agree,
    // because the weblog path reads transport annotations off the same
    // proxy records the direct path summarizes.
    let traces = generate_traces(
        &DatasetSpec::cleartext_default(40, 3003),
        TrainConfig::auto(),
    );
    let entries = capture_cleartext_corpus(&traces, 3).expect("capture");
    let sessions = sessions_from_weblogs(&entries);
    for s in &sessions {
        let t = traces
            .iter()
            .find(|t| t.session_id == s.extracted.session_id)
            .unwrap();
        let direct = vqoe_features::stall_features(&vqoe_features::SessionObs::from_trace(t));
        let via_weblog = vqoe_features::stall_features(&s.obs);
        for (a, b) in direct.iter().zip(via_weblog.iter()) {
            assert!(
                (a - b).abs() < 1e-9,
                "feature diverged for {}: {a} vs {b}",
                t.session_id
            );
        }
    }
}

#[test]
fn extraction_orders_chunks_by_time() {
    let traces = generate_traces(
        &DatasetSpec::cleartext_default(30, 3004),
        TrainConfig::auto(),
    );
    let entries = capture_cleartext_corpus(&traces, 4).expect("capture");
    for s in extract_sessions(&entries) {
        for w in s.chunks.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
    }
}
