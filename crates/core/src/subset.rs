//! The fit step both §4 classifiers share: class-balance the corpus,
//! select a feature subset on it, then fit the deployable forest on
//! the subset.
//!
//! The stall and representation pipelines differ only in the subset
//! floor and the feature names; their [`TrainingReport`]s add the
//! 10-fold cross-validation on top, which seeds its own RNG stream and
//! so never changes what this step selects or fits.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vqoe_ml::selection::{cfs_best_first_with, info_gain_ranking_with, RankedFeature};
use vqoe_ml::{
    cross_validate_with, ConfusionMatrix, Dataset, ForestConfig, RandomForest, TrainConfig,
};

/// Number of CV folds (§4: 10-fold cross-validation).
pub const CV_FOLDS: usize = 10;

/// A detector's feature subset, chosen on the class-balanced corpus.
#[derive(Debug, Clone)]
pub struct FeatureSubset {
    /// Selected features with their information gains, ranked by gain,
    /// descending (Tables 2 and 5).
    pub ranked: Vec<RankedFeature>,
    /// The fit stream after the selection's balancing draw; the final
    /// fit's balancing draw continues it.
    rng: StdRng,
}

impl FeatureSubset {
    /// Balance `full`, run CFS best-first search on it, and pad the
    /// result with the top info-gain features up to `floor` (CFS can
    /// return very small subsets on easy corpora). Selection runs on
    /// the balanced corpus because on the raw one the majority class
    /// would dominate it.
    pub fn select(full: &Dataset, floor: usize, seed: u64, train: TrainConfig) -> FeatureSubset {
        let mut rng = StdRng::seed_from_u64(seed);
        let balanced = full.balanced_downsample(&mut rng);
        let mut selected_idx = cfs_best_first_with(&balanced, 5, train);
        let ranking = info_gain_ranking_with(&balanced, train);
        for r in &ranking {
            if selected_idx.len() >= floor {
                break;
            }
            if !selected_idx.contains(&r.index) {
                selected_idx.push(r.index);
            }
        }
        let mut ranked: Vec<RankedFeature> = ranking
            .into_iter()
            .filter(|r| selected_idx.contains(&r.index))
            .collect();
        ranked.sort_by(|a, b| b.gain.total_cmp(&a.gain));
        FeatureSubset { ranked, rng }
    }

    /// Indices of the selected features in the full feature space, in
    /// ranked order.
    pub fn indices(&self) -> Vec<usize> {
        self.ranked.iter().map(|r| r.index).collect()
    }

    /// Fit the deployable forest on `full` projected onto the subset
    /// and re-balanced.
    pub fn fit_forest(&mut self, full: &Dataset, train: TrainConfig) -> RandomForest {
        let reduced = full.select_features(&self.indices());
        let final_train = reduced.balanced_downsample(&mut self.rng);
        RandomForest::fit_with(&final_train, ForestConfig::default(), train)
    }
}

/// A fitted classifier with its §4 report: the ranked subset (Tables 2
/// and 5), the 10-fold CV confusion matrix (Tables 3–4 and 6–7) and the
/// corpus's class counts.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport<M> {
    /// Selected features with their information gains, ranked.
    pub selected: Vec<RankedFeature>,
    /// Aggregated 10-fold CV confusion matrix.
    pub cv_matrix: ConfusionMatrix,
    /// Class counts of the raw training corpus (the paper's priors).
    pub class_counts: Vec<usize>,
    /// CV folds that contributed no predictions (empty test or training
    /// side); `0` on any reasonably sized corpus.
    pub cv_skipped_folds: usize,
    /// The deployable model, fitted on the whole balanced corpus.
    pub model: M,
}

impl<M> TrainingReport<M> {
    /// Report on a model fitted on `full` with the `selected` subset:
    /// 10-fold CV of a forest over the selected columns, with
    /// class-balanced training folds and natural test folds (§4.1). The
    /// CV seeds its own stream from `seed`, so the model does not
    /// depend on it.
    pub fn cross_validate(
        full: &Dataset,
        selected: Vec<RankedFeature>,
        model: M,
        seed: u64,
        train: TrainConfig,
    ) -> Self {
        let indices: Vec<usize> = selected.iter().map(|r| r.index).collect();
        let reduced = full.select_features(&indices);
        let cv = cross_validate_with(
            &reduced,
            CV_FOLDS,
            ForestConfig::default(),
            true,
            seed,
            train,
        );
        TrainingReport {
            selected,
            cv_matrix: cv.matrix,
            class_counts: full.class_counts(),
            cv_skipped_folds: cv.skipped_folds,
            model,
        }
    }
}
