//! The paper's qualitative findings — the ✅ orderings of EXPERIMENTS.md
//! — as assertions at a CI-sized scale (800 cleartext + 400 adaptive
//! sessions), plus one ordering that only holds across seeds at a
//! larger scale. The golden fingerprints catch any drift in a refactor
//! that should be bit-identical; this test is what guards a deliberate
//! model change: whatever the new numbers, these shapes must survive.
//!
//! It fits the models through `ModelFit::run`, the path
//! `QoeMonitor::train` and the `repro` context share, and reports on
//! them the way `repro` does (`ModelFit::reports`, evaluation on the
//! §5 encrypted world).

use vqoe_core::{
    EncryptedEvalConfig, EncryptedWorld, ModelFit, TrainConfig, TrainingConfig, TrainingReport,
};
use vqoe_features::{build_dataset, FeatureSpace, RepresentationSpace, StallClass};
use vqoe_ml::{cross_validate, Dataset, ForestConfig};

/// One seed's measurements, each an ordering the paper reports.
struct Shape {
    /// Stall CV recall per class: no stalls, mild, severe (Table 3).
    stall_recall: [f64; 3],
    /// 3-class stall CV accuracy (Table 3).
    stall_accuracy: f64,
    /// Stall / no-stall CV accuracy with all 70 features, the
    /// Prometheus-style baseline (`repro baseline-binary`).
    binary_accuracy: f64,
    /// Size-derived features in the representation subset, and the
    /// subset's size (Table 5).
    size_derived: (usize, usize),
    /// Calibrated σ(CUSUM) accuracy without and with switches (Fig. 4).
    switch_accuracy: (f64, f64),
    /// Representation accuracy: cleartext 10-fold CV (Table 6) and the
    /// frozen model on encrypted traffic (Table 10).
    representation: (f64, f64),
}

/// Fit the models on `cleartext` + `adaptive` sessions of `seed`.
fn fit(cleartext: usize, adaptive: usize, seed: u64) -> ModelFit {
    let config = TrainingConfig {
        cleartext_sessions: cleartext,
        adaptive_sessions: adaptive,
        seed,
        train: TrainConfig::auto(),
        ..TrainingConfig::default()
    };
    ModelFit::run(&config, |_| {})
}

fn measure(seed: u64) -> Shape {
    let fit = fit(800, 400, seed);
    let (stall, representation) = fit.reports();
    let world = EncryptedWorld::build(&EncryptedEvalConfig::paper_default(seed ^ 0x5EC5))
        .expect("simulated world builds");
    let encrypted =
        fit.monitor
            .representation_model
            .evaluate(&build_dataset::<RepresentationSpace>(
                world.labelled(RepresentationSpace::label),
                TrainConfig::auto(),
            ));

    let full = &fit.stall_data;
    let binary = Dataset::new(
        full.feature_names.clone(),
        vec!["no stalls".to_string(), "stalls".to_string()],
        full.x.clone(),
        full.y
            .iter()
            .map(|&y| usize::from(y != StallClass::NoStalls.index()))
            .collect(),
    );
    let binary_cv = cross_validate(
        &binary,
        10,
        ForestConfig::default(),
        true,
        7,
        TrainConfig::sequential(),
    );

    let selected = &representation.selected;
    Shape {
        stall_recall: [0, 1, 2].map(|c| stall.cv_matrix.tp_rate(c)),
        stall_accuracy: stall.cv_matrix.accuracy(),
        binary_accuracy: binary_cv.matrix.accuracy(),
        size_derived: (
            selected.iter().filter(|r| r.name.contains("size")).count(),
            selected.len(),
        ),
        switch_accuracy: (fit.switch.acc_without, fit.switch.acc_with),
        representation: (representation.cv_matrix.accuracy(), encrypted.accuracy()),
    }
}

/// Assert the orderings that hold on each seed.
fn assert_paper_shape(seed: u64) {
    let s = measure(seed);
    let [no, mild, severe] = s.stall_recall;
    assert!(
        no > mild && no > severe,
        "seed {seed}: healthy sessions must have the best stall CV recall \
         (§4.1): no {no:.3}, mild {mild:.3}, severe {severe:.3}"
    );
    assert!(
        s.binary_accuracy > s.stall_accuracy,
        "seed {seed}: stall/no-stall must be easier than 3 classes: \
         binary {:.3}, 3-class {:.3}",
        s.binary_accuracy,
        s.stall_accuracy
    );
    let (size_derived, of) = s.size_derived;
    assert!(
        3 * size_derived >= 2 * of,
        "seed {seed}: size-derived features must dominate the representation \
         subset (Table 5: 11 of 15): {size_derived} of {of}"
    );
    let (without, with) = s.switch_accuracy;
    assert!(
        without > 0.5 && with > 0.5,
        "seed {seed}: σ(CUSUM) must separate switching from steady sessions \
         (Fig. 4): without {without:.3}, with {with:.3}"
    );
    let (cleartext, encrypted) = s.representation;
    assert!(
        (encrypted - cleartext).abs() < 0.05,
        "seed {seed}: encrypted representation accuracy must stay within 5 \
         points of cleartext CV (§5.5: −2.5): cleartext {cleartext:.3}, \
         encrypted {encrypted:.3}"
    );
}

#[test]
fn paper_orderings_hold_at_the_smoke_scale() {
    assert_paper_shape(2016);
}

#[test]
fn paper_orderings_hold_on_a_second_seed() {
    assert_paper_shape(2017);
}

/// Stall CV recall falls with severity (§4.1): mild above severe. At
/// 800/400 sessions that ordering is a coin flip (it held on 10 of the
/// 20 seeds 2016–2035), so it is asserted here as the median gap over
/// the seeds 2016–2023 at 2400/1200, where it held on 6 of the 8. Only
/// the stall model's CV runs: the other reports do not feed this gap.
#[test]
fn stall_recall_falls_with_severity_across_seeds() {
    let mut gaps: Vec<f64> = (2016..=2023)
        .map(|seed| {
            let fit = fit(2400, 1200, seed);
            let stall = TrainingReport::cross_validate(
                &fit.stall_data,
                fit.stall_selected,
                (),
                seed,
                fit.config.train,
            );
            stall.cv_matrix.tp_rate(1) - stall.cv_matrix.tp_rate(2)
        })
        .collect();
    gaps.sort_by(f64::total_cmp);
    let median = (gaps[3] + gaps[4]) / 2.0;
    assert!(
        median > 0.0,
        "median mild − severe stall CV recall over seeds 2016–2023 must be \
         positive (§4.1): {median:.3}, sorted gaps {gaps:.3?}"
    );
}
