//! The §4 forest detector both classifiers are (§4.1, §4.2): CFS
//! best-first selection on the class-balanced corpus, a Random Forest
//! over the selected subset, and 10-fold cross-validation.
//!
//! The stall and average-representation detectors differ only in their
//! [`FeatureSpace`] (defined in `vqoe-features`, beside the builders,
//! classes and label rules it names), so [`ForestModel`] and
//! [`train_detector`] are written once, generic over it. A
//! [`TrainingReport`] adds the CV on top of the fit; the CV seeds its
//! own stream, so never changes the model.

use std::marker::PhantomData;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{DeError, Deserialize, Serialize, Value};
use vqoe_features::{FeatureSpace, SessionObs};
use vqoe_ml::selection::{Discretized, RankedFeature};
use vqoe_ml::{cross_validate, ConfusionMatrix, Dataset, ForestConfig, RandomForest, TrainConfig};

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
    /// Balance `full` (on the raw corpus the majority class would
    /// dominate), run CFS best-first search on it, and pad the result
    /// with the top info-gain features up to `S`'s floor (CFS can
    /// return very small subsets on easy corpora).
    pub fn select<S: FeatureSpace>(full: &Dataset, seed: u64, train: TrainConfig) -> FeatureSubset {
        let mut rng = StdRng::seed_from_u64(seed);
        let balanced = full.balanced_downsample(&mut rng);
        let discretized = Discretized::new(&balanced, train);
        let mut selected_idx = discretized.cfs_best_first(5);
        let ranking = discretized.info_gain_ranking();
        for r in &ranking {
            if selected_idx.len() < S::SUBSET_FLOOR && !selected_idx.contains(&r.index) {
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
}

/// A trained, deployable detector over the space `S`: the Random Forest
/// and the projection of the full space onto the selected subset.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestModel<S> {
    /// The classifier over the selected features.
    pub forest: RandomForest,
    /// Indices of the selected features in the full space.
    pub selected_indices: Vec<usize>,
    /// Names of the selected features (aligned with `selected_indices`).
    pub selected_names: Vec<String>,
    space: PhantomData<S>,
}

impl<S: FeatureSpace> ForestModel<S> {
    /// The fit step's second half: the forest over `subset`'s features
    /// of `full`, re-balanced with the subset's continued stream.
    pub fn fit(subset: &mut FeatureSubset, full: &Dataset, train: TrainConfig) -> Self {
        let selected_indices: Vec<usize> = subset.ranked.iter().map(|r| r.index).collect();
        let reduced = full.select_features(&selected_indices);
        let final_train = reduced.balanced_downsample(&mut subset.rng);
        let names = (S::NAMES)();
        ForestModel {
            forest: RandomForest::fit(&final_train, ForestConfig::default(), train),
            selected_names: selected_indices.iter().map(|&i| names[i].clone()).collect(),
            selected_indices,
            space: PhantomData,
        }
    }

    /// Project a full-space feature vector onto the selected subspace.
    pub fn project(&self, full: &[f64]) -> Vec<f64> {
        self.selected_indices.iter().map(|&i| full[i]).collect()
    }

    /// Classify one session from its network-visible observations.
    pub fn predict(&self, obs: &SessionObs) -> S::Class {
        self.predict_from_features(&(S::EXACT)(obs))
    }

    /// Classify from an already-built full-space vector — exact
    /// ([`FeatureSpace::EXACT`]) or approximate
    /// ([`FeatureSpace::APPROXIMATE`]).
    pub fn predict_from_features(&self, full: &[f64]) -> S::Class {
        let label = self.forest.predict(&self.project(full));
        S::CLASSES[label.min(S::CLASSES.len() - 1)]
    }

    /// Evaluate the frozen model on a labelled full-space dataset,
    /// returning the confusion matrix (the §5.4 protocol: "the trained
    /// model ... is directly tested with encrypted traffic").
    pub fn evaluate(&self, full_dataset: &Dataset) -> ConfusionMatrix {
        let reduced = full_dataset.select_features(&self.selected_indices);
        let preds = self.forest.predict_all(&reduced);
        ConfusionMatrix::from_predictions(full_dataset.class_names.clone(), &full_dataset.y, &preds)
    }
}

// Hand-written, as the derive takes no generic type: the three fields.
impl<S> Serialize for ForestModel<S> {
    fn to_value(&self) -> Value {
        let fields = [
            ("forest", self.forest.to_value()),
            ("selected_indices", self.selected_indices.to_value()),
            ("selected_names", self.selected_names.to_value()),
        ];
        Value::Map(fields.map(|(name, v)| (name.to_string(), v)).into())
    }
}

/// A model file is input from outside the program, so the indices
/// `project` and the trees follow are checked here, once: every
/// selected index is inside `S`'s space and named as `S` names it, the
/// forest is as wide as the subset, and [`RandomForest::check`] holds.
impl<S: FeatureSpace> Deserialize for ForestModel<S> {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let field = |name: &'static str| {
            value
                .get(name)
                .ok_or_else(|| DeError::missing_field("ForestModel", name))
        };
        let model = ForestModel {
            forest: Deserialize::from_value(field("forest")?)?,
            selected_indices: Deserialize::from_value(field("selected_indices")?)?,
            selected_names: Deserialize::from_value(field("selected_names")?)?,
            space: PhantomData,
        };
        let names = (S::NAMES)();
        if let Some(i) = model.selected_indices.iter().find(|&&i| i >= names.len()) {
            return Err(DeError::custom(format!(
                "selected feature {i} is outside the {}-feature space",
                names.len()
            )));
        }
        let aligned = model
            .selected_indices
            .iter()
            .map(|&i| &names[i])
            .eq(&model.selected_names);
        if !aligned || model.forest.feature_names.len() != model.selected_indices.len() {
            return Err(DeError::custom(
                "selected feature names and forest width do not match the selected indices",
            ));
        }
        model.forest.check().map_err(DeError::custom)?;
        Ok(model)
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
        let cv = cross_validate(
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

/// Train a detector over `S` on a built full-space dataset and report
/// on it: [`FeatureSubset::select`], then
/// [`ForestModel::fit`] on the whole balanced corpus, then the 10-fold
/// CV of [`TrainingReport::cross_validate`]. Output is byte-identical
/// at any worker count.
pub fn train_detector<S: FeatureSpace>(
    full: &Dataset,
    seed: u64,
    train: TrainConfig,
) -> TrainingReport<ForestModel<S>> {
    let mut subset = FeatureSubset::select::<S>(full, seed, train);
    let model = ForestModel::fit(&mut subset, full, train);
    TrainingReport::cross_validate(full, subset.ranked, model, seed, train)
}
