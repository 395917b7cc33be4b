//! The §4.2 average-representation detector: the [`ForestModel`] over
//! the 210-feature [`RepresentationSpace`], with the paper's 15-feature
//! target (Table 5) as its floor.

use crate::forest_model::{ForestModel, TrainingReport};
use vqoe_features::RepresentationSpace;

/// A trained, deployable average-representation detector.
pub type RepresentationModel = ForestModel<RepresentationSpace>;

/// The representation detector's report (Tables 5–7) and its model.
pub type RepresentationTrainingReport = TrainingReport<RepresentationModel>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest_model::train_detector;
    use crate::generate::generate_traces;
    use crate::spec::DatasetSpec;
    use vqoe_features::{build_dataset, labelled_traces, FeatureSpace, SessionObs};
    use vqoe_ml::{Dataset, TrainConfig};
    use vqoe_player::SessionTrace;

    fn representation_data(traces: &[SessionTrace]) -> Dataset {
        build_dataset::<RepresentationSpace>(
            labelled_traces(traces, RepresentationSpace::label),
            TrainConfig::auto(),
        )
    }

    fn fit_report(traces: &[SessionTrace], seed: u64) -> RepresentationTrainingReport {
        let full = representation_data(traces);
        train_detector::<RepresentationSpace>(&full, seed, TrainConfig::auto())
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
        let full = representation_data(&adaptive_corpus(200, 26));
        let reference = train_detector::<RepresentationSpace>(&full, 5, TrainConfig::sequential());
        for workers in [2usize, 7] {
            let got =
                train_detector::<RepresentationSpace>(&full, 5, TrainConfig::with_workers(workers));
            assert_eq!(reference, got, "workers {workers}");
        }
    }
}
