//! Stratified k-fold cross-validation.
//!
//! §4: "we use ... the Random Forest algorithm and 10-fold
//! cross-validation". Folds are stratified (each fold preserves the
//! class mix) and, per §4.1's protocol, the *training* side of each fold
//! is class-balanced by downsampling while the *test* side keeps its
//! natural distribution — "the instances in the classes are then
//! restored to their original numbers for testing".
//!
//! Folds are mutually independent once assigned, so
//! [`cross_validate`] fans them out over [`run_indexed`] and merges
//! the per-fold prediction lists back in fold order: the aggregate
//! confusion matrix is byte-identical to the sequential path at any
//! worker count. Each fold derives its seeds through [`splitmix64`]
//! (DESIGN.md §10) so a fold's tree family cannot collide with another
//! fold's, or with the fold-assignment stream.

use crate::dataset::Dataset;
use crate::forest::{ForestConfig, RandomForest};
use crate::metrics::ConfusionMatrix;
use crate::par::{run_indexed, TrainConfig, SEED_STRIDE};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vqoe_stats::splitmix64;

/// Domain-separation tag mixed into a fold's seed before deriving its
/// balanced-downsample RNG, so the balance stream and the forest's tree
/// streams start from unrelated points.
const BALANCE_STREAM: u64 = 0xBA1A_4CED_0000_0001;

/// Stratified fold assignment: returns `k` disjoint row-index lists
/// whose union is `0..y.len()`, each approximating the global class mix.
///
/// # Panics
/// Panics if `k == 0`.
pub fn stratified_kfold(y: &[usize], k: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    assert!(k > 0, "need at least one fold");
    let n_classes = y.iter().copied().max().map_or(0, |m| m + 1);
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for (i, &label) in y.iter().enumerate() {
        per_class[label].push(i);
    }
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    for rows in per_class.iter_mut() {
        rows.shuffle(rng);
        for (j, &row) in rows.iter().enumerate() {
            folds[j % k].push(row);
        }
    }
    folds
}

/// A cross-validation run: the matrix plus how many folds were
/// silently unusable, so callers can tell a 10-fold estimate from a
/// "10-fold" run that really scored 3 folds.
#[derive(Debug, Clone, PartialEq)]
pub struct CvReport {
    /// Aggregate confusion matrix over every scored fold.
    pub matrix: ConfusionMatrix,
    /// Folds that produced no predictions: empty test fold (`k` larger
    /// than a class's row count), empty training side (`k == 1`), or a
    /// balanced-training set that downsampled to nothing.
    pub skipped_folds: usize,
}

/// Run k-fold cross-validation of a Random Forest over `data`,
/// aggregating one confusion matrix across folds, with folds fanned out
/// over `train.effective_workers` threads.
///
/// `balance_training` applies the paper's balanced-train /
/// natural-test protocol. Fold assignment consumes the `seed` stream;
/// each fold then derives `fs = splitmix64(seed + fold · SEED_STRIDE)`
/// for its forest (`cfg.seed = fs`) and
/// `splitmix64(fs ^ BALANCE_STREAM)` for its balanced-downsample RNG,
/// making folds self-contained jobs. The report is byte-identical for
/// every value of `train.workers`.
pub fn cross_validate(
    data: &Dataset,
    k: usize,
    forest_config: ForestConfig,
    balance_training: bool,
    seed: u64,
    train: TrainConfig,
) -> CvReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let folds = stratified_kfold(&data.y, k, &mut rng);
    // One fold = one job: predictions for its natural-distribution test
    // side, or None when the fold is unusable. Inner forest fits stay
    // sequential — the fold fan-out already saturates the workers.
    let per_fold: Vec<Option<Vec<(usize, usize)>>> = run_indexed(k, train, |test_fold| {
        let test_rows = &folds[test_fold];
        if test_rows.is_empty() {
            return None;
        }
        let train_rows: Vec<usize> = folds
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != test_fold)
            .flat_map(|(_, rows)| rows.iter().copied())
            .collect();
        if train_rows.is_empty() {
            return None;
        }
        let fs = splitmix64(seed.wrapping_add((test_fold as u64).wrapping_mul(SEED_STRIDE)));
        let mut train_set = data.subset(&train_rows);
        if balance_training {
            let mut balance_rng = StdRng::seed_from_u64(splitmix64(fs ^ BALANCE_STREAM));
            train_set = train_set.balanced_downsample(&mut balance_rng);
        }
        if train_set.n_rows() == 0 {
            return None;
        }
        let mut cfg = forest_config;
        cfg.seed = fs;
        let forest = RandomForest::fit(&train_set, cfg, TrainConfig::sequential());
        let test = data.subset(test_rows);
        let preds = forest.predict_all(&test);
        Some(test.y.iter().copied().zip(preds).collect())
    });
    // Merge in fold order — the order predictions enter the matrix is
    // part of the determinism contract.
    let mut matrix = ConfusionMatrix::new(data.class_names.clone());
    for &(actual, pred) in per_fold.iter().flatten().flatten() {
        matrix.record(actual, pred);
    }
    CvReport {
        matrix,
        skipped_folds: per_fold.iter().filter(|pairs| pairs.is_none()).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let c = if rng.gen_bool(0.7) { 0 } else { 1 };
            let base = c as f64 * 2.0;
            x.push(vec![base + rng.gen_range(-0.8..0.8)]);
            y.push(c);
        }
        Dataset::new(vec!["f".into()], vec!["common".into(), "rare".into()], x, y)
    }

    #[test]
    fn folds_partition_all_rows() {
        let d = dataset(103, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let folds = stratified_kfold(&d.y, 10, &mut rng);
        assert_eq!(folds.len(), 10);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn folds_preserve_class_mix() {
        let d = dataset(500, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let folds = stratified_kfold(&d.y, 5, &mut rng);
        let global_frac = d.y.iter().filter(|&&c| c == 0).count() as f64 / d.n_rows() as f64;
        for fold in &folds {
            let frac = fold.iter().filter(|&&r| d.y[r] == 0).count() as f64 / fold.len() as f64;
            assert!(
                (frac - global_frac).abs() < 0.08,
                "fold mix {frac} vs global {global_frac}"
            );
        }
    }

    #[test]
    fn fold_sizes_are_balanced() {
        let d = dataset(101, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let folds = stratified_kfold(&d.y, 10, &mut rng);
        let sizes: Vec<usize> = folds.iter().map(|f| f.len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 2, "sizes {sizes:?}");
    }

    #[test]
    fn cross_validation_covers_every_row_once() {
        let d = dataset(120, 7);
        let m = cross_validate(
            &d,
            10,
            ForestConfig::default(),
            true,
            42,
            TrainConfig::sequential(),
        )
        .matrix;
        assert_eq!(m.total() as usize, d.n_rows());
    }

    #[test]
    fn cross_validation_learns_a_separable_problem() {
        let d = dataset(300, 8);
        let m = cross_validate(
            &d,
            10,
            ForestConfig::default(),
            true,
            42,
            TrainConfig::sequential(),
        )
        .matrix;
        assert!(m.accuracy() > 0.85, "accuracy {}", m.accuracy());
    }

    #[test]
    fn cv_is_deterministic() {
        let d = dataset(150, 9);
        let a = cross_validate(
            &d,
            5,
            ForestConfig::default(),
            true,
            11,
            TrainConfig::sequential(),
        )
        .matrix;
        let b = cross_validate(
            &d,
            5,
            ForestConfig::default(),
            true,
            11,
            TrainConfig::sequential(),
        )
        .matrix;
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_cv_is_byte_identical_to_sequential() {
        let d = dataset(140, 13);
        let reference = cross_validate(
            &d,
            10,
            ForestConfig::default(),
            true,
            42,
            TrainConfig::sequential(),
        );
        for workers in [2usize, 7] {
            let got = cross_validate(
                &d,
                10,
                ForestConfig::default(),
                true,
                42,
                TrainConfig::with_workers(workers),
            );
            assert_eq!(reference, got, "workers {workers}");
        }
        assert_eq!(reference.skipped_folds, 0);
    }

    #[test]
    fn single_fold_degenerates_without_panicking() {
        let d = dataset(20, 10);
        // k=1: the only fold is the test fold, training side is empty →
        // nothing is recorded, but the skip is now visible.
        let r = cross_validate(
            &d,
            1,
            ForestConfig::default(),
            true,
            12,
            TrainConfig::sequential(),
        );
        assert_eq!(r.matrix.total(), 0);
        assert_eq!(r.skipped_folds, 1);
    }

    #[test]
    fn more_folds_than_rows_surfaces_the_skips() {
        // 6 rows, k=12: at least 6 folds are empty on the test side and
        // must be counted, while every row still gets scored once.
        let d = dataset(6, 14);
        let r = cross_validate(
            &d,
            12,
            ForestConfig::default(),
            true,
            15,
            TrainConfig::sequential(),
        );
        assert!(r.skipped_folds >= 6, "skipped {}", r.skipped_folds);
        assert_eq!(r.matrix.total() as usize, d.n_rows());
    }

    #[test]
    fn single_class_folds_still_score_every_row() {
        // All rows share one class: the balanced training side is the
        // whole training fold, predictions are trivially that class, and
        // no fold is skipped.
        let n = 30;
        let d = Dataset::new(
            vec!["f".into()],
            vec!["only".into()],
            (0..n).map(|i| vec![i as f64]).collect(),
            vec![0; n],
        );
        let r = cross_validate(
            &d,
            5,
            ForestConfig::default(),
            true,
            16,
            TrainConfig::sequential(),
        );
        assert_eq!(r.skipped_folds, 0);
        assert_eq!(r.matrix.total() as usize, n);
        assert!((r.matrix.accuracy() - 1.0).abs() < 1e-12);
    }
}
