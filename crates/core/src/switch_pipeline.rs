//! The §4.3 representation-switch pipeline: score every adaptive
//! session, calibrate the σ(CUSUM) threshold on cleartext ground truth
//! (Figure 4), freeze it, and evaluate on new data (§5.6).
//!
//! The calibrated artifact is a [`SwitchModel`] — the same
//! train-once / apply-frozen shape as the two Random-Forest detectors.

use serde::{Deserialize, Serialize};
use vqoe_changedet::detector::{calibrate_threshold, session_score, SwitchDetector};
use vqoe_changedet::SwitchScoreConfig;
use vqoe_features::labels::has_switches;
use vqoe_features::{labelled_traces, SessionObs};
use vqoe_player::SessionTrace;

/// A calibrated, deployable switch detector: the frozen σ(CUSUM)
/// threshold plus the scoring parameters it was calibrated with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchModel {
    /// The frozen threshold/scoring pair (the paper's "500").
    pub detector: SwitchDetector,
}

impl SwitchModel {
    /// Wrap an already-calibrated detector.
    pub fn new(detector: SwitchDetector) -> Self {
        SwitchModel { detector }
    }

    /// The frozen score threshold.
    pub fn threshold(&self) -> f64 {
        self.detector.threshold
    }

    /// The scoring parameters the threshold was calibrated with.
    pub fn scoring(&self) -> &SwitchScoreConfig {
        &self.detector.config
    }

    /// The session score `σ(CUSUM(Δsize × Δt))` of eq. 3 for one
    /// session's network-visible observations.
    pub fn score(&self, obs: &SessionObs) -> f64 {
        session_score(&obs.chunk_points(), &self.detector.config)
    }

    /// Score one session and compare against the frozen threshold.
    pub fn detect(&self, obs: &SessionObs) -> bool {
        self.score(obs) > self.detector.threshold
    }

    /// Score the adaptive sessions of a corpus and calibrate the
    /// threshold (the Figure-4 procedure).
    pub fn calibrate(
        traces: &[SessionTrace],
        config: SwitchScoreConfig,
    ) -> SwitchCalibrationReport {
        let mut scores_without = Vec::new();
        let mut scores_with = Vec::new();
        for (obs, switching) in
            labelled_traces(traces, |gt, adaptive| adaptive.then(|| has_switches(gt)))
        {
            let score = session_score(&obs.chunk_points(), &config);
            if switching {
                scores_with.push(score);
            } else {
                scores_without.push(score);
            }
        }
        let (detector, acc_without, acc_with) =
            calibrate_threshold(&scores_without, &scores_with, config);
        SwitchCalibrationReport {
            model: SwitchModel::new(detector),
            acc_without,
            acc_with,
            scores_without,
            scores_with,
        }
    }

    /// Apply the frozen model to labelled sessions (§5.6).
    pub fn evaluate_labelled(&self, sessions: &[(SessionObs, bool)]) -> SwitchEvalReport {
        let mut ok_without = 0usize;
        let mut n_without = 0usize;
        let mut ok_with = 0usize;
        let mut n_with = 0usize;
        for (obs, truly_switching) in sessions {
            let detected = self.detect(obs);
            if *truly_switching {
                n_with += 1;
                if detected {
                    ok_with += 1;
                }
            } else {
                n_without += 1;
                if !detected {
                    ok_without += 1;
                }
            }
        }
        SwitchEvalReport {
            acc_without: if n_without > 0 {
                ok_without as f64 / n_without as f64
            } else {
                0.0
            },
            acc_with: if n_with > 0 {
                ok_with as f64 / n_with as f64
            } else {
                0.0
            },
            n_without,
            n_with,
        }
    }
}

/// Calibration outputs: the frozen model plus the two score
/// populations behind Figure 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchCalibrationReport {
    /// The calibrated, frozen model.
    pub model: SwitchModel,
    /// Fraction of no-switch sessions below the threshold (paper: 78 %).
    pub acc_without: f64,
    /// Fraction of with-switch sessions above the threshold (paper: 76 %).
    pub acc_with: f64,
    /// σ(CUSUM) scores of sessions without switches (Fig. 4 lower CDF).
    pub scores_without: Vec<f64>,
    /// σ(CUSUM) scores of sessions with switches (Fig. 4 upper CDF).
    pub scores_with: Vec<f64>,
}

/// Evaluation of a frozen model on labelled sessions (§5.6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchEvalReport {
    /// Fraction of no-switch sessions correctly kept below threshold.
    pub acc_without: f64,
    /// Fraction of with-switch sessions correctly pushed above threshold.
    pub acc_with: f64,
    /// Number of no-switch sessions evaluated.
    pub n_without: usize,
    /// Number of with-switch sessions evaluated.
    pub n_with: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_traces;
    use crate::spec::DatasetSpec;
    use vqoe_ml::TrainConfig;

    fn corpus(n: usize, seed: u64) -> Vec<SessionTrace> {
        generate_traces(&DatasetSpec::adaptive_default(n, seed), TrainConfig::auto())
    }

    #[test]
    fn calibration_separates_the_two_populations() {
        let traces = corpus(400, 31);
        let report = SwitchModel::calibrate(&traces, SwitchScoreConfig::default());
        assert!(!report.scores_with.is_empty(), "no switching sessions");
        assert!(!report.scores_without.is_empty(), "no steady sessions");
        // The paper achieves 78 % / 76 %; require clear separation.
        assert!(
            report.acc_without > 0.6,
            "acc without {}",
            report.acc_without
        );
        assert!(report.acc_with > 0.6, "acc with {}", report.acc_with);
        assert!(report.model.threshold().is_finite());
    }

    #[test]
    fn frozen_model_transfers_to_fresh_data() {
        let train = corpus(400, 32);
        let report = SwitchModel::calibrate(&train, SwitchScoreConfig::default());
        let fresh = corpus(200, 33);
        let sessions: Vec<(SessionObs, bool)> = fresh
            .iter()
            .map(|t| (SessionObs::from_trace(t), has_switches(&t.ground_truth)))
            .collect();
        let eval = report.model.evaluate_labelled(&sessions);
        assert!(eval.n_with + eval.n_without == 200);
        let balanced = (eval.acc_with + eval.acc_without) / 2.0;
        assert!(balanced > 0.55, "balanced accuracy {balanced}");
    }

    #[test]
    fn empty_evaluation_degenerates() {
        let report = SwitchModel::calibrate(&[], SwitchScoreConfig::default());
        let eval = report.model.evaluate_labelled(&[]);
        assert_eq!(eval.n_with, 0);
        assert_eq!(eval.n_without, 0);
        assert_eq!(eval.acc_with, 0.0);
    }

    #[test]
    fn calibration_is_deterministic() {
        let traces = corpus(150, 34);
        let a = SwitchModel::calibrate(&traces, SwitchScoreConfig::default());
        let b = SwitchModel::calibrate(&traces, SwitchScoreConfig::default());
        assert_eq!(a, b);
    }
}
