//! The §4.2 average-representation pipeline: 210-feature construction,
//! CFS selection to the Table-5 subset, training and evaluation.

use crate::subset::{FeatureSubset, TrainingReport};
use serde::{Deserialize, Serialize};
use vqoe_features::representation::{representation_feature_names, representation_features};
use vqoe_features::{RqClass, SessionObs};
use vqoe_ml::{ConfusionMatrix, Dataset, RandomForest, TrainConfig};

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
        train: TrainConfig,
    ) -> RepresentationModel {
        let forest = subset.fit_forest(full, train);
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

/// The representation detector's report (Tables 5–7) and its model.
pub type RepresentationTrainingReport = TrainingReport<RepresentationModel>;

/// Train the average-representation detector on a built 210-dim
/// dataset of adaptive sessions and report on it: the fit step
/// ([`FeatureSubset::select`] with a floor of [`TARGET_SUBSET_SIZE`],
/// then [`RepresentationModel::fit`]) plus the 10-fold CV of
/// [`TrainingReport::cross_validate`]. Output is byte-identical at any
/// worker count.
pub fn train_representation_detector(
    full: &Dataset,
    seed: u64,
    train: TrainConfig,
) -> RepresentationTrainingReport {
    let mut subset = FeatureSubset::select(full, TARGET_SUBSET_SIZE, seed, train);
    let model = RepresentationModel::fit(&mut subset, full, train);
    TrainingReport::cross_validate(full, subset.ranked, model, seed, train)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_traces;
    use crate::spec::DatasetSpec;
    use vqoe_features::build_representation_dataset;
    use vqoe_player::SessionTrace;

    fn fit_report(traces: &[SessionTrace], seed: u64) -> RepresentationTrainingReport {
        let full = build_representation_dataset(traces);
        train_representation_detector(&full, seed, TrainConfig::auto())
    }

    fn adaptive_corpus(n: usize, seed: u64) -> Vec<SessionTrace> {
        generate_traces(&DatasetSpec::adaptive_default(n, seed), TrainConfig::auto())
    }

    #[test]
    fn training_produces_a_usable_model() {
        let traces = adaptive_corpus(300, 21);
        let report = fit_report(&traces, 1);
        assert!(report.selected.len() >= 10);
        assert_eq!(report.cv_matrix.total() as usize, traces.len());
        let obs = SessionObs::from_trace(&traces[0]);
        let _ = report.model.predict(&obs);
    }

    #[test]
    fn cv_accuracy_beats_chance_comfortably() {
        let traces = adaptive_corpus(400, 22);
        let report = fit_report(&traces, 2);
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
        let report = fit_report(&traces, 3);
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
        let report = fit_report(&traces, 4);
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
        let a = fit_report(&traces, 5);
        let b = fit_report(&traces, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_training_is_byte_identical_to_sequential() {
        let full = build_representation_dataset(&adaptive_corpus(200, 26));
        let reference = train_representation_detector(&full, 5, TrainConfig::sequential());
        for workers in [2usize, 7] {
            let got = train_representation_detector(&full, 5, TrainConfig::with_workers(workers));
            assert_eq!(reference, got, "workers {workers}");
        }
    }
}
