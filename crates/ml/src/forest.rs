//! Random Forest: bagged, feature-subsampled CART trees.
//!
//! The paper's classifier of choice for both the stall model (§4.1) and
//! the average-representation model (§4.2). Standard Breiman recipe:
//! each tree trains on a bootstrap resample of the training rows with
//! √(n_features) candidate features per split; prediction averages the
//! trees' class-probability votes.

use crate::dataset::Dataset;
use crate::par::{run_indexed, TrainConfig, SEED_STRIDE};
use crate::tree::{argmax, DecisionTree, ModelError, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One tree-fit job's output: the fitted tree plus its out-of-bag
/// probability votes as `(row, class probabilities)` pairs.
type FittedTree = (DecisionTree, Vec<(usize, Vec<f64>)>);

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth limits. `tree.mtry == 0` selects √(n_features)
    /// automatically at fit time.
    pub tree: TreeConfig,
    /// Seed for bootstrap resampling and feature subsampling.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 60,
            tree: TreeConfig {
                max_depth: 30,
                min_samples_split: 4,
                mtry: 0,
            },
            seed: 0xF0_4E57,
        }
    }
}

/// A trained Random Forest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    /// Feature names the forest was trained on — kept so a caller can
    /// verify it is scoring a matrix with the same schema.
    pub feature_names: Vec<String>,
    /// Out-of-bag accuracy estimate over the rows that received at
    /// least one OOB vote, or `None` when no row did (e.g. a single
    /// bootstrap that happened to cover every row). The free
    /// generalization estimate bagging gives you — no held-out set
    /// needed; check [`RandomForest::oob_coverage`] for how much of the
    /// corpus backs it.
    pub oob_accuracy: Option<f64>,
    /// Fraction of training rows with at least one out-of-bag vote.
    /// 1.0 at the paper's 60 trees; drops toward 0 as `n_trees`
    /// shrinks (a row is in-bag per tree with probability ≈ 1 − e⁻¹).
    pub oob_coverage: f64,
}

impl RandomForest {
    /// Fit a forest to `data`, fanning trees out over
    /// `train.effective_workers` threads.
    ///
    /// Byte-identical at any worker count: each tree derives its own
    /// RNG stream from its index (`seed + t ·` [`SEED_STRIDE`]), and OOB
    /// votes are accumulated strictly in tree-index order so every float
    /// addition happens in the sequential order.
    ///
    /// # Panics
    /// Panics if `data` is empty or `n_trees == 0`.
    pub fn fit(data: &Dataset, config: ForestConfig, train: TrainConfig) -> Self {
        assert!(data.n_rows() > 0, "cannot fit an empty dataset");
        assert!(config.n_trees > 0, "need at least one tree");
        let mut tree_config = config.tree;
        if tree_config.mtry == 0 {
            tree_config.mtry = (data.n_features() as f64).sqrt().round().max(1.0) as usize;
        }
        let n = data.n_rows();
        // Per-tree job: bootstrap, fit, and this tree's OOB probability
        // votes. Trees are mutually independent once each owns its RNG
        // stream, so the fan-out is embarrassingly parallel.
        let fitted: Vec<FittedTree> = run_indexed(config.n_trees, train, |t| {
            let mut rng = StdRng::seed_from_u64(
                config
                    .seed
                    .wrapping_add((t as u64).wrapping_mul(SEED_STRIDE)),
            );
            // Bootstrap resample (with replacement).
            let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let mut in_bag = vec![false; n];
            for &r in &rows {
                in_bag[r] = true;
            }
            let tree = DecisionTree::fit(data, &rows, tree_config, &mut rng);
            let votes: Vec<(usize, Vec<f64>)> = (0..n)
                .filter(|&r| !in_bag[r])
                .map(|r| (r, tree.predict_proba(&data.x[r]).to_vec()))
                .collect();
            (tree, votes)
        });
        // Reduce in tree-index order: float addition is not associative,
        // so the accumulation order below IS the determinism contract.
        let mut trees = Vec::with_capacity(config.n_trees);
        let mut oob_votes = vec![vec![0.0f64; data.n_classes()]; n];
        let mut oob_counted = vec![false; n];
        for (tree, votes) in fitted {
            for (r, probs) in votes {
                for (acc, p) in oob_votes[r].iter_mut().zip(probs) {
                    *acc += p;
                }
                oob_counted[r] = true;
            }
            trees.push(tree);
        }
        // OOB accuracy over the rows that actually received a vote:
        // scoring only covered rows keeps the estimate meaningful at
        // small n_trees instead of vanishing the moment one row stays
        // in-bag everywhere.
        let covered = oob_counted.iter().filter(|&&c| c).count();
        let oob_coverage = covered as f64 / n as f64;
        let oob_accuracy = if covered > 0 {
            let correct = (0..n)
                .filter(|&r| oob_counted[r] && argmax(&oob_votes[r]) == data.y[r])
                .count();
            Some(correct as f64 / covered as f64)
        } else {
            None
        };
        RandomForest {
            trees,
            n_classes: data.n_classes(),
            feature_names: data.feature_names.clone(),
            oob_accuracy,
            oob_coverage,
        }
    }

    /// Mean-decrease-in-impurity feature importance, normalized to sum
    /// to 1 (all-zero when the forest made no splits). Complements the
    /// information-gain ranking of `selection`: this is what the trained
    /// model *actually used*, rather than a model-free univariate score.
    pub fn feature_importance(&self) -> Vec<f64> {
        let mut totals = vec![0.0f64; self.feature_names.len()];
        for tree in &self.trees {
            for (feature, weight) in tree.split_weights() {
                totals[feature] += weight;
            }
        }
        let sum: f64 = totals.iter().sum();
        if sum > 0.0 {
            for t in totals.iter_mut() {
                *t /= sum;
            }
        }
        totals
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Averaged class-probability vector for one row.
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut acc = vec![0.0; self.n_classes];
        for tree in &self.trees {
            for (a, &p) in acc.iter_mut().zip(tree.predict_proba(row)) {
                *a += p;
            }
        }
        let k = self.trees.len() as f64;
        for a in acc.iter_mut() {
            *a /= k;
        }
        acc
    }

    /// Check a forest read from outside the program before it predicts:
    /// every tree has a root, its splits read features inside
    /// `feature_names` and name children after themselves and in range
    /// (as fitting grows them, so no walk can cycle), and its leaves
    /// hold `n_classes` probabilities. Every fitted forest passes.
    pub fn check(&self) -> Result<(), ModelError> {
        let width = self.feature_names.len();
        for (tree, t) in self.trees.iter().enumerate() {
            t.check(width, self.n_classes)
                .map_err(|(node, fault)| ModelError { tree, node, fault })?;
        }
        Ok(())
    }

    /// Hard prediction for one row.
    pub fn predict(&self, row: &[f64]) -> usize {
        argmax(&self.predict_proba(row))
    }

    /// Predictions for a whole dataset (labels ignored).
    pub fn predict_all(&self, data: &Dataset) -> Vec<usize> {
        assert_eq!(
            data.feature_names, self.feature_names,
            "scoring schema differs from training schema"
        );
        data.x.iter().map(|row| self.predict(row)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Two interleaved noisy blobs: separable but not trivially.
    fn blobs(n_per_class: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for c in 0..2usize {
            let cx = if c == 0 { 0.0 } else { 2.0 };
            for _ in 0..n_per_class {
                x.push(vec![
                    cx + rng.gen_range(-1.0..1.0),
                    cx + rng.gen_range(-1.0..1.0),
                ]);
                y.push(c);
            }
        }
        Dataset::new(
            vec!["x1".into(), "x2".into()],
            vec!["a".into(), "b".into()],
            x,
            y,
        )
    }

    #[test]
    fn forest_beats_chance_clearly() {
        let train = blobs(150, 1);
        let test = blobs(100, 2);
        let forest = RandomForest::fit(&train, ForestConfig::default(), TrainConfig::sequential());
        let preds = forest.predict_all(&test);
        let correct = preds
            .iter()
            .zip(test.y.iter())
            .filter(|(p, y)| p == y)
            .count();
        let acc = correct as f64 / test.n_rows() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let d = blobs(50, 3);
        let forest = RandomForest::fit(&d, ForestConfig::default(), TrainConfig::sequential());
        let p = forest.predict_proba(&[1.0, 1.0]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fit_is_deterministic_under_seed() {
        let d = blobs(60, 4);
        let f1 = RandomForest::fit(&d, ForestConfig::default(), TrainConfig::sequential());
        let f2 = RandomForest::fit(&d, ForestConfig::default(), TrainConfig::sequential());
        assert_eq!(f1, f2);
    }

    #[test]
    fn different_seeds_give_different_forests() {
        let d = blobs(60, 5);
        let cfg2 = ForestConfig {
            seed: 123,
            ..ForestConfig::default()
        };
        let f1 = RandomForest::fit(&d, ForestConfig::default(), TrainConfig::sequential());
        let f2 = RandomForest::fit(&d, cfg2, TrainConfig::sequential());
        assert_ne!(f1, f2);
    }

    #[test]
    #[should_panic(expected = "schema differs")]
    fn schema_mismatch_is_rejected() {
        let d = blobs(30, 6);
        let forest = RandomForest::fit(&d, ForestConfig::default(), TrainConfig::sequential());
        let other = Dataset::new(
            vec!["wrong".into(), "names".into()],
            vec!["a".into(), "b".into()],
            vec![vec![0.0, 0.0]],
            vec![0],
        );
        let _ = forest.predict_all(&other);
    }

    #[test]
    fn single_tree_forest_works() {
        let d = blobs(50, 7);
        let cfg = ForestConfig {
            n_trees: 1,
            ..ForestConfig::default()
        };
        let f = RandomForest::fit(&d, cfg, TrainConfig::sequential());
        assert_eq!(f.n_trees(), 1);
        let _ = f.predict(&[0.0, 0.0]);
    }

    #[test]
    fn oob_accuracy_tracks_generalization() {
        let d = blobs(150, 9);
        let forest = RandomForest::fit(&d, ForestConfig::default(), TrainConfig::sequential());
        let oob = forest.oob_accuracy.expect("60 trees cover every row OOB");
        // The blobs are ~90%+ separable; OOB should land near the
        // cross-seed test accuracy, far from both chance and 1.0.
        assert!(oob > 0.8, "oob {oob}");
        let test = blobs(100, 10);
        let preds = forest.predict_all(&test);
        let test_acc = preds
            .iter()
            .zip(test.y.iter())
            .filter(|(p, y)| p == y)
            .count() as f64
            / test.n_rows() as f64;
        assert!((oob - test_acc).abs() < 0.1, "oob {oob} vs test {test_acc}");
    }

    #[test]
    fn oob_is_none_only_when_no_row_is_ever_out_of_bag() {
        // With 2 rows and 1 tree the bootstrap covers both rows with
        // probability 1/2 — pick a seed where it does: zero OOB votes
        // exist, so there is nothing to score (None, coverage 0).
        let d = Dataset::new(
            vec!["f".into()],
            vec!["a".into(), "b".into()],
            vec![vec![0.0], vec![1.0]],
            vec![0, 1],
        );
        let mut found_none = false;
        for seed in 0..50 {
            let cfg = ForestConfig {
                n_trees: 1,
                seed,
                ..ForestConfig::default()
            };
            let f = RandomForest::fit(&d, cfg, TrainConfig::sequential());
            if f.oob_accuracy.is_none() {
                assert_eq!(f.oob_coverage, 0.0, "None must mean zero coverage");
                found_none = true;
                break;
            }
        }
        assert!(found_none, "some bootstrap must cover all rows");
    }

    #[test]
    fn single_tree_oob_scores_the_covered_rows() {
        // Regression for the old behavior, where one never-OOB row
        // silently nulled the whole estimate: a single tree on a real
        // corpus leaves ~e⁻¹ of the rows out of bag — the estimate must
        // exist and be scored over exactly those rows.
        let d = blobs(100, 12);
        let cfg = ForestConfig {
            n_trees: 1,
            ..ForestConfig::default()
        };
        let f = RandomForest::fit(&d, cfg, TrainConfig::sequential());
        assert!(
            f.oob_accuracy.is_some(),
            "partial coverage must still yield an estimate"
        );
        assert!(
            f.oob_coverage > 0.0 && f.oob_coverage < 1.0,
            "one bootstrap neither covers nothing nor everything: {}",
            f.oob_coverage
        );
        // ≈ e⁻¹ of rows are out of bag for a single bootstrap.
        assert!(
            (f.oob_coverage - (-1.0f64).exp()).abs() < 0.15,
            "coverage {} far from e^-1",
            f.oob_coverage
        );
    }

    #[test]
    fn full_forest_reaches_full_oob_coverage() {
        let d = blobs(150, 9);
        let f = RandomForest::fit(&d, ForestConfig::default(), TrainConfig::sequential());
        assert_eq!(f.oob_coverage, 1.0, "60 trees must cover every row");
    }

    #[test]
    fn parallel_fit_is_byte_identical_to_sequential() {
        let d = blobs(80, 13);
        let reference = RandomForest::fit(&d, ForestConfig::default(), TrainConfig::sequential());
        for workers in [2usize, 7] {
            let parallel = RandomForest::fit(
                &d,
                ForestConfig::default(),
                TrainConfig::with_workers(workers),
            );
            assert_eq!(reference, parallel, "workers {workers}");
            // Bit-level equality of the float surfaces, not just
            // structural: OOB accuracy and importances are float sums
            // whose order the reducer pins down.
            assert_eq!(
                reference.oob_accuracy.map(f64::to_bits),
                parallel.oob_accuracy.map(f64::to_bits)
            );
            let (a, b) = (
                reference.feature_importance(),
                parallel.feature_importance(),
            );
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn feature_importance_finds_the_signal() {
        // Feature 0 carries the class; feature 1 is noise.
        let mut rng = StdRng::seed_from_u64(11);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for c in 0..2usize {
            for _ in 0..100 {
                x.push(vec![
                    c as f64 * 4.0 + rng.gen_range(-1.0..1.0),
                    rng.gen_range(-10.0..10.0),
                ]);
                y.push(c);
            }
        }
        let d = Dataset::new(
            vec!["signal".into(), "noise".into()],
            vec!["a".into(), "b".into()],
            x,
            y,
        );
        let forest = RandomForest::fit(&d, ForestConfig::default(), TrainConfig::sequential());
        let imp = forest.feature_importance();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > imp[1] * 2.0, "importance {imp:?}");
    }

    #[test]
    fn three_class_problem() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for c in 0..3usize {
            for _ in 0..80 {
                x.push(vec![c as f64 * 3.0 + rng.gen_range(-1.0..1.0)]);
                y.push(c);
            }
        }
        let d = Dataset::new(
            vec!["f".into()],
            vec!["l".into(), "m".into(), "h".into()],
            x,
            y,
        );
        let f = RandomForest::fit(&d, ForestConfig::default(), TrainConfig::sequential());
        assert_eq!(f.predict(&[0.0]), 0);
        assert_eq!(f.predict(&[3.0]), 1);
        assert_eq!(f.predict(&[6.0]), 2);
    }
}
