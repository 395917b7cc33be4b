//! The §4.2 average-representation pipeline: 210-feature construction,
//! CFS selection to the Table-5 subset, training and evaluation.

use crate::metrics::PipelineMetrics;
use crate::stall_pipeline::CV_FOLDS;
use crate::subset::FeatureSubset;
use serde::{Deserialize, Serialize};
use vqoe_features::representation::{representation_feature_names, representation_features};
use vqoe_features::{RqClass, SessionObs};
use vqoe_ml::selection::RankedFeature;
use vqoe_ml::{
    cross_validate_with, ConfusionMatrix, Dataset, ForestConfig, RandomForest, TrainConfig,
};
use vqoe_player::SessionTrace;

/// Target size of the selected subset (the paper lands on 15 features,
/// Table 5); used as an info-gain fallback floor when CFS returns fewer.
pub const TARGET_SUBSET_SIZE: usize = 15;

/// A trained, deployable average-representation detector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepresentationModel {
    /// The classifier over the selected features.
    pub forest: RandomForest,
    /// Indices of the selected features in the 210-dim space.
    pub selected_indices: Vec<usize>,
    /// Names of the selected features.
    pub selected_names: Vec<String>,
}

impl RepresentationModel {
    /// The fit step's second half: the deployable forest over
    /// `subset`'s features of the 210-dim `full` dataset.
    pub fn fit(
        subset: &mut FeatureSubset,
        full: &Dataset,
        forest_config: ForestConfig,
        train: TrainConfig,
    ) -> RepresentationModel {
        let forest = subset.fit_forest(full, forest_config, train);
        let names = representation_feature_names();
        let selected_indices = subset.indices();
        RepresentationModel {
            forest,
            selected_names: selected_indices.iter().map(|&i| names[i].clone()).collect(),
            selected_indices,
        }
    }

    /// Project a full 210-dim feature vector onto the selected subspace.
    pub fn project(&self, full: &[f64]) -> Vec<f64> {
        self.selected_indices.iter().map(|&i| full[i]).collect()
    }

    /// Classify one session's average representation from its
    /// network-visible observations.
    pub fn predict(&self, obs: &SessionObs) -> RqClass {
        self.predict_from_features(&representation_features(obs))
    }

    /// Classify from an already-built 210-dim feature vector — exact
    /// ([`representation_features`]) or approximate (the streaming
    /// `Fidelity::Sketched` path).
    pub fn predict_from_features(&self, full: &[f64]) -> RqClass {
        let row = self.project(full);
        match self.forest.predict(&row) {
            0 => RqClass::Ld,
            1 => RqClass::Sd,
            _ => RqClass::Hd,
        }
    }

    /// Evaluate the frozen model on a labelled 210-dim dataset.
    pub fn evaluate(&self, full_dataset: &Dataset) -> ConfusionMatrix {
        let reduced = full_dataset.select_features(&self.selected_indices);
        let preds = self.forest.predict_all(&reduced);
        ConfusionMatrix::from_predictions(full_dataset.class_names.clone(), &full_dataset.y, &preds)
    }
}

/// Training outputs: the Table-5 feature list, Tables 6–7, the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepresentationTrainingReport {
    /// Selected features with information gains, ranked (Table 5).
    pub selected: Vec<RankedFeature>,
    /// Aggregated 10-fold CV confusion matrix (Tables 6 and 7).
    pub cv_matrix: ConfusionMatrix,
    /// LD/SD/HD counts of the raw corpus (paper: 57 % / 38 % / 5 %).
    pub class_counts: Vec<usize>,
    /// CV folds that contributed no predictions (empty test or training
    /// side); `0` on any reasonably sized corpus.
    pub cv_skipped_folds: usize,
    /// The deployable model.
    pub model: RepresentationModel,
}

/// Train the average-representation detector on adaptive sessions and
/// report on it: the fit step ([`FeatureSubset::select`] with a floor
/// of [`TARGET_SUBSET_SIZE`], then [`RepresentationModel::fit`]) plus
/// 10-fold CV.
pub fn train_representation_detector(
    traces: &[SessionTrace],
    forest_config: ForestConfig,
    seed: u64,
) -> RepresentationTrainingReport {
    train_representation_detector_with(traces, forest_config, seed, TrainConfig::sequential(), None)
}

/// [`train_representation_detector`] with an explicit worker policy and
/// optional metric recording; output is byte-identical at any worker
/// count.
pub fn train_representation_detector_with(
    traces: &[SessionTrace],
    forest_config: ForestConfig,
    seed: u64,
    train: TrainConfig,
    metrics: Option<&PipelineMetrics>,
) -> RepresentationTrainingReport {
    let full = vqoe_features::build_representation_dataset(traces);
    train_representation_detector_on_with(&full, forest_config, seed, train, metrics)
}

/// Train from a pre-built 210-dim dataset.
pub fn train_representation_detector_on(
    full: &Dataset,
    forest_config: ForestConfig,
    seed: u64,
) -> RepresentationTrainingReport {
    train_representation_detector_on_with(
        full,
        forest_config,
        seed,
        TrainConfig::sequential(),
        None,
    )
}

/// [`train_representation_detector_on`] with an explicit worker policy
/// and optional metric recording.
pub fn train_representation_detector_on_with(
    full: &Dataset,
    forest_config: ForestConfig,
    seed: u64,
    train: TrainConfig,
    metrics: Option<&PipelineMetrics>,
) -> RepresentationTrainingReport {
    let mut subset = FeatureSubset::select(full, TARGET_SUBSET_SIZE, seed, train);
    let model = RepresentationModel::fit(&mut subset, full, forest_config, train);
    let reduced = full.select_features(&model.selected_indices);
    let cv = cross_validate_with(&reduced, CV_FOLDS, forest_config, true, seed, train);
    if let Some(m) = metrics {
        m.observe_cv(&cv);
        m.observe_fit(forest_config.n_trees);
    }
    RepresentationTrainingReport {
        selected: subset.ranked,
        cv_matrix: cv.matrix,
        class_counts: full.class_counts(),
        cv_skipped_folds: cv.skipped_folds,
        model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_traces;
    use crate::spec::DatasetSpec;

    fn adaptive_corpus(n: usize, seed: u64) -> Vec<SessionTrace> {
        generate_traces(&DatasetSpec::adaptive_default(n, seed), TrainConfig::auto())
    }

    #[test]
    fn training_produces_a_usable_model() {
        let traces = adaptive_corpus(300, 21);
        let report = train_representation_detector(&traces, ForestConfig::default(), 1);
        assert!(report.selected.len() >= 10);
        assert_eq!(report.cv_matrix.total() as usize, traces.len());
        let obs = SessionObs::from_trace(&traces[0]);
        let _ = report.model.predict(&obs);
    }

    #[test]
    fn cv_accuracy_beats_chance_comfortably() {
        let traces = adaptive_corpus(400, 22);
        let report = train_representation_detector(&traces, ForestConfig::default(), 2);
        assert!(
            report.cv_matrix.accuracy() > 0.6,
            "cv accuracy {}",
            report.cv_matrix.accuracy()
        );
    }

    #[test]
    fn chunk_size_statistics_lead_the_table5_ranking() {
        // §4.2: "statistics derived from the chunk size are the ones with
        // the highest rank and represent the vast majority of the 15".
        let traces = adaptive_corpus(500, 23);
        let report = train_representation_detector(&traces, ForestConfig::default(), 3);
        let top5: Vec<&str> = report
            .selected
            .iter()
            .take(5)
            .map(|r| r.name.as_str())
            .collect();
        // "Size-derived" per the paper's own Table 5, which mixes chunk
        // size percentiles, chunk avg size and chunk Δsize entries.
        let chunk_size_in_top5 = top5
            .iter()
            .filter(|n| {
                n.contains("chunk size")
                    || n.contains("chunk avg size")
                    || n.contains("chunk Δsize")
            })
            .count();
        assert!(
            chunk_size_in_top5 >= 3,
            "chunk-size features not dominant: {top5:?}"
        );
    }

    #[test]
    fn class_counts_skew_toward_low_definition() {
        // Paper priors: 57 % LD / 38 % SD / 5 % HD. Direction matters:
        // LD+SD must dominate HD by an order of magnitude.
        let traces = adaptive_corpus(500, 24);
        let report = train_representation_detector(&traces, ForestConfig::default(), 4);
        let [ld, sd, hd] = [
            report.class_counts[0],
            report.class_counts[1],
            report.class_counts[2],
        ];
        assert!(ld + sd > hd * 5, "LD {ld} SD {sd} HD {hd}");
        assert!(hd > 0, "need at least some HD sessions to train on");
    }

    #[test]
    fn training_is_deterministic() {
        let traces = adaptive_corpus(200, 25);
        let a = train_representation_detector(&traces, ForestConfig::default(), 5);
        let b = train_representation_detector(&traces, ForestConfig::default(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_training_is_byte_identical_to_sequential() {
        let traces = adaptive_corpus(200, 26);
        let reference = train_representation_detector(&traces, ForestConfig::default(), 5);
        for workers in [2usize, 7] {
            let got = train_representation_detector_with(
                &traces,
                ForestConfig::default(),
                5,
                TrainConfig::with_workers(workers),
                None,
            );
            assert_eq!(reference, got, "workers {workers}");
        }
    }
}
