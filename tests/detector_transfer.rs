//! Model-transfer integration tests: detectors trained on one corpus
//! must generalize to freshly generated data — across seeds (new users,
//! new videos) and, as in §5, across the cleartext→encrypted boundary.

use vqoe_changedet::SwitchScoreConfig;
use vqoe_core::{
    generate_traces, train_detector, DatasetSpec, RepresentationSpace, StallSpace, SwitchModel,
    TrainConfig,
};
use vqoe_features::labels::has_switches;
use vqoe_features::{build_dataset, labelled_traces, FeatureSpace, SessionObs};
use vqoe_ml::Dataset;
use vqoe_player::SessionTrace;

fn stall_data(traces: &[SessionTrace]) -> Dataset {
    build_dataset::<StallSpace>(
        labelled_traces(traces, StallSpace::label),
        TrainConfig::auto(),
    )
}

fn representation_data(traces: &[SessionTrace]) -> Dataset {
    build_dataset::<RepresentationSpace>(
        labelled_traces(traces, RepresentationSpace::label),
        TrainConfig::auto(),
    )
}

#[test]
fn stall_model_transfers_across_seeds() {
    let mut train_corpus = generate_traces(
        &DatasetSpec::cleartext_default(1200, 41),
        TrainConfig::auto(),
    );
    train_corpus.extend(generate_traces(
        &DatasetSpec::adaptive_default(400, 42),
        TrainConfig::auto(),
    ));
    let report = train_detector::<StallSpace>(&stall_data(&train_corpus), 1, TrainConfig::auto());

    let fresh = generate_traces(
        &DatasetSpec::cleartext_default(600, 4242),
        TrainConfig::auto(),
    );
    let eval = report.model.evaluate(&stall_data(&fresh));
    assert_eq!(eval.total() as usize, fresh.len());
    assert!(
        eval.accuracy() > 0.7,
        "cross-seed stall accuracy {}",
        eval.accuracy()
    );
    // The paper's signature asymmetry: the healthy<->severe corner is
    // nearly empty.
    let pct = eval.row_percentages();
    assert!(pct[0][2] < 10.0, "healthy->severe {}%", pct[0][2]);
}

#[test]
fn representation_model_transfers_across_seeds() {
    let train_corpus =
        generate_traces(&DatasetSpec::adaptive_default(800, 43), TrainConfig::auto());
    let report = train_detector::<RepresentationSpace>(
        &representation_data(&train_corpus),
        2,
        TrainConfig::auto(),
    );

    let fresh = generate_traces(
        &DatasetSpec::adaptive_default(400, 4343),
        TrainConfig::auto(),
    );
    let eval = report.model.evaluate(&representation_data(&fresh));
    assert!(
        eval.accuracy() > 0.65,
        "cross-seed representation accuracy {}",
        eval.accuracy()
    );
    // LD recall leads, as in Tables 6/10.
    assert!(eval.tp_rate(0) > 0.6, "LD recall {}", eval.tp_rate(0));
}

#[test]
fn switch_threshold_transfers_across_seeds() {
    let train_corpus =
        generate_traces(&DatasetSpec::adaptive_default(800, 44), TrainConfig::auto());
    let calib = SwitchModel::calibrate(&train_corpus, SwitchScoreConfig::default());

    let fresh = generate_traces(
        &DatasetSpec::adaptive_default(400, 4444),
        TrainConfig::auto(),
    );
    let sessions: Vec<(SessionObs, bool)> = fresh
        .iter()
        .map(|t| (SessionObs::from_trace(t), has_switches(&t.ground_truth)))
        .collect();
    let eval = calib.model.evaluate_labelled(&sessions);
    assert!(eval.n_with > 20, "need switching sessions");
    assert!(eval.n_without > 20, "need steady sessions");
    let balanced = (eval.acc_with + eval.acc_without) / 2.0;
    assert!(balanced > 0.6, "balanced switch accuracy {balanced}");
}

#[test]
fn detectors_never_see_ground_truth_fields() {
    // A type-level property worth an executable witness: predictions are
    // a function of SessionObs alone. Two traces with identical chunks
    // but different ground truth must predict identically.
    let corpus = generate_traces(
        &DatasetSpec::cleartext_default(400, 45),
        TrainConfig::auto(),
    );
    let report = train_detector::<StallSpace>(&stall_data(&corpus), 3, TrainConfig::auto());
    let mut trace = corpus[0].clone();
    let obs_before = SessionObs::from_trace(&trace);
    let pred_before = report.model.predict(&obs_before);
    // Corrupt the ground truth wildly; the prediction cannot change.
    trace.ground_truth.stalls.clear();
    trace.ground_truth.segment_resolutions = vec![1080; 10];
    let obs_after = SessionObs::from_trace(&trace);
    assert_eq!(pred_before, report.model.predict(&obs_after));
}
