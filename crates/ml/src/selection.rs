//! Feature ranking and subset selection.
//!
//! Two Weka-equivalent tools the paper uses:
//!
//! * **Information-gain ranking** (`InfoGainAttributeEval`): each
//!   continuous feature is discretized and scored by `IG(class;
//!   feature)`. This produces the gain columns of Tables 2 and 5.
//! * **Correlation-based Feature Subset Selection** (`CfsSubsetEval` +
//!   `BestFirst`): greedy best-first search over feature subsets scored
//!   by the CFS merit
//!   `k·r̄_cf / sqrt(k + k(k−1)·r̄_ff)`,
//!   where `r̄_cf` is the mean feature–class symmetrical uncertainty and
//!   `r̄_ff` the mean feature–feature symmetrical uncertainty — subsets
//!   of features individually predictive of the class yet mutually
//!   uncorrelated. This is the §4.1/§4.2 step that reduces 70 → 4 and
//!   210 → 15 features.

use crate::dataset::Dataset;
use crate::par::{run_indexed, TrainConfig};
use serde::{Deserialize, Serialize};
use vqoe_stats::binning::Discretizer;
use vqoe_stats::info::{info_gain, symmetrical_uncertainty};

/// Bins used when discretizing continuous features for the
/// information-theoretic scores.
const DISCRETIZATION_BINS: usize = 10;

/// A feature with its information-gain score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedFeature {
    /// Column index in the source dataset.
    pub index: usize,
    /// Column name.
    pub name: String,
    /// Information gain (bits) of the discretized feature vs the class.
    pub gain: f64,
}

/// Discretize every feature column (equal-frequency bins) for the
/// information-theoretic machinery. Columns are independent, so this
/// fans out per feature.
fn discretize_all(data: &Dataset, train: TrainConfig) -> Vec<Vec<usize>> {
    run_indexed(data.n_features(), train, |f| {
        let col = data.column(f);
        let disc = Discretizer::fit(&col, DISCRETIZATION_BINS);
        disc.transform(&col)
    })
}

/// Rank all features by information gain, descending (ties broken by
/// column order for determinism). Per-feature scores fan out over
/// `train`'s workers; output is byte-identical at any worker count.
pub fn info_gain_ranking(data: &Dataset, train: TrainConfig) -> Vec<RankedFeature> {
    let discretized = discretize_all(data, train);
    let gains = run_indexed(discretized.len(), train, |i| {
        info_gain(&data.y, &discretized[i])
    });
    let mut ranked: Vec<RankedFeature> = gains
        .into_iter()
        .enumerate()
        .map(|(i, gain)| RankedFeature {
            index: i,
            name: data.feature_names[i].clone(),
            gain,
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.gain
            .partial_cmp(&a.gain)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
    ranked
}

/// CFS merit of a feature subset given precomputed correlations. Every
/// feature pair of `subset` must already be present in `pair_su`
/// (normalized `(min, max)` keys); the caller precomputes them before
/// fanning merits out, so merit jobs stay lock-free.
fn merit(
    subset: &[usize],
    class_corr: &[f64],
    pair_su: &std::collections::BTreeMap<(usize, usize), f64>,
) -> f64 {
    let k = subset.len() as f64;
    if subset.is_empty() {
        return 0.0;
    }
    let mean_cf: f64 = subset.iter().map(|&f| class_corr[f]).sum::<f64>() / k;
    let mut sum_ff = 0.0;
    let mut pairs = 0.0;
    for (i, &a) in subset.iter().enumerate() {
        for &b in subset.iter().skip(i + 1) {
            let key = if a < b { (a, b) } else { (b, a) };
            sum_ff += pair_su.get(&key).copied().unwrap_or(0.0);
            pairs += 1.0;
        }
    }
    let mean_ff = if pairs > 0.0 { sum_ff / pairs } else { 0.0 };
    let denom = (k + k * (k - 1.0) * mean_ff).sqrt();
    if denom <= 0.0 {
        return 0.0;
    }
    k * mean_cf / denom
}

/// CfsSubsetEval with best-first forward search.
///
/// `max_stale` is the Weka stopping criterion: abandon the search after
/// this many consecutive expansions without improvement (Weka default 5).
/// Returns the selected column indices, sorted by their class
/// correlation (strongest first).
///
/// The best-first walk itself is inherently sequential (each expansion
/// depends on the frontier the last one produced), but the expensive
/// part of one expansion — scoring every candidate subset — is not:
/// candidates are generated in feature order, their merits fan out over
/// [`run_indexed`], and the results are folded back in the same feature
/// order, so the search trajectory (and therefore the selected subset)
/// is byte-identical at any worker count.
pub fn cfs_best_first(data: &Dataset, max_stale: usize, train: TrainConfig) -> Vec<usize> {
    let n = data.n_features();
    if n == 0 {
        return Vec::new();
    }
    let discretized = discretize_all(data, train);
    let class_corr: Vec<f64> = run_indexed(n, train, |f| {
        symmetrical_uncertainty(&discretized[f], &data.y)
    });

    // Feature–feature SU is computed on demand and memoized: the search
    // touches only a small corner of the O(n²) matrix. Each expansion
    // first collects the pairs its candidates need but the memo lacks,
    // computes those in their own deterministic fan-out (SU is a pure
    // function of the pair), and inserts them sequentially — so the
    // merit fan-out below reads a plain `&BTreeMap` without ever taking
    // a lock inside a job.
    let mut pair_su = std::collections::BTreeMap::<(usize, usize), f64>::new();

    // Best-first: frontier ordered by merit; expand the best open node by
    // adding each unused feature.
    let mut best_subset: Vec<usize> = Vec::new();
    let mut best_merit = 0.0f64;
    let mut frontier: Vec<(f64, Vec<usize>)> = vec![(0.0, Vec::new())];
    let mut visited = std::collections::HashSet::<Vec<usize>>::new();
    let mut stale = 0usize;

    while let Some(pos) = frontier
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1 .0
                .partial_cmp(&b.1 .0)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i)
    {
        let (_, subset) = frontier.swap_remove(pos);
        // Generate the expansion's candidate subsets in feature order
        // (dedup against `visited` sequentially), then score them in a
        // single fan-out.
        let mut candidates: Vec<Vec<usize>> = Vec::new();
        for f in 0..n {
            if subset.contains(&f) {
                continue;
            }
            let mut candidate = subset.clone();
            candidate.push(f);
            candidate.sort_unstable();
            if visited.insert(candidate.clone()) {
                candidates.push(candidate);
            }
        }
        let mut missing: Vec<(usize, usize)> = Vec::new();
        for candidate in &candidates {
            for (i, &a) in candidate.iter().enumerate() {
                for &b in candidate.iter().skip(i + 1) {
                    // Candidates are sorted, so (a, b) is normalized.
                    if !pair_su.contains_key(&(a, b)) {
                        missing.push((a, b));
                    }
                }
            }
        }
        missing.sort_unstable();
        missing.dedup();
        let su_vals = run_indexed(missing.len(), train, |i| {
            let (a, b) = missing[i];
            symmetrical_uncertainty(&discretized[a], &discretized[b])
        });
        for (&key, v) in missing.iter().zip(su_vals) {
            pair_su.insert(key, v);
        }
        let merits = run_indexed(candidates.len(), train, |i| {
            merit(&candidates[i], &class_corr, &pair_su)
        });
        let mut improved = false;
        for (candidate, m) in candidates.into_iter().zip(merits) {
            if m > best_merit + 1e-9 {
                best_merit = m;
                best_subset = candidate.clone();
                improved = true;
            }
            frontier.push((m, candidate));
        }
        if improved {
            stale = 0;
        } else {
            stale += 1;
            if stale >= max_stale {
                break;
            }
        }
        // Safety valve on pathological frontiers.
        if frontier.len() > 20_000 {
            frontier.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            frontier.truncate(5_000);
        }
    }

    best_subset.sort_by(|&a, &b| {
        class_corr[b]
            .partial_cmp(&class_corr[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    best_subset
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Dataset where feature 0 determines the class, feature 1 is a
    /// noisy copy of feature 0, and feature 2 is pure noise.
    fn redundant_dataset(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..400 {
            let c: usize = rng.gen_range(0..2);
            let signal = c as f64 * 4.0 + rng.gen_range(-1.0..1.0);
            x.push(vec![
                signal,
                signal + rng.gen_range(-0.5..0.5),
                rng.gen_range(-10.0..10.0),
            ]);
            y.push(c);
        }
        Dataset::new(
            vec!["signal".into(), "echo".into(), "noise".into()],
            vec!["a".into(), "b".into()],
            x,
            y,
        )
    }

    #[test]
    fn info_gain_ranks_signal_above_noise() {
        let d = redundant_dataset(1);
        let ranked = info_gain_ranking(&d, TrainConfig::sequential());
        assert_eq!(ranked.len(), 3);
        assert!(ranked[0].name == "signal" || ranked[0].name == "echo");
        assert_eq!(ranked[2].name, "noise");
        assert!(ranked[0].gain > 0.5, "gain {}", ranked[0].gain);
        assert!(ranked[2].gain < 0.1, "noise gain {}", ranked[2].gain);
        // Descending order.
        for w in ranked.windows(2) {
            assert!(w[0].gain >= w[1].gain);
        }
    }

    #[test]
    fn cfs_keeps_signal_drops_noise_and_redundancy() {
        let d = redundant_dataset(2);
        let selected = cfs_best_first(&d, 5, TrainConfig::sequential());
        assert!(!selected.is_empty());
        // The noise feature must not be selected.
        assert!(
            !selected.iter().any(|&f| d.feature_names[f] == "noise"),
            "noise selected: {selected:?}"
        );
        // Redundancy penalty: the echo adds almost no merit beyond the
        // signal, so CFS keeps at most the pair — never the noise, and
        // never a bloated subset.
        assert!(
            selected.len() <= 2,
            "subset bloated: {:?}",
            selected
                .iter()
                .map(|&f| &d.feature_names[f])
                .collect::<Vec<_>>()
        );
        assert!(selected
            .iter()
            .any(|&f| d.feature_names[f] == "signal" || d.feature_names[f] == "echo"));
    }

    #[test]
    fn cfs_selects_complementary_features() {
        // Class = quadrant: needs BOTH features; neither alone suffices
        // fully, and they are mutually uncorrelated.
        let mut rng = StdRng::seed_from_u64(3);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..600 {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            let c = match (a > 0.0, b > 0.0) {
                (false, false) => 0,
                (false, true) => 1,
                (true, false) => 2,
                (true, true) => 3,
            };
            x.push(vec![a, b, rng.gen_range(-1.0..1.0)]);
            y.push(c);
        }
        let d = Dataset::new(
            vec!["fa".into(), "fb".into(), "junk".into()],
            vec!["q0".into(), "q1".into(), "q2".into(), "q3".into()],
            x,
            y,
        );
        let selected = cfs_best_first(&d, 5, TrainConfig::sequential());
        let names: Vec<&str> = selected
            .iter()
            .map(|&f| d.feature_names[f].as_str())
            .collect();
        assert!(names.contains(&"fa"), "{names:?}");
        assert!(names.contains(&"fb"), "{names:?}");
        assert!(!names.contains(&"junk"), "{names:?}");
    }

    #[test]
    fn empty_dataset_yields_empty_selection() {
        let d = Dataset::new(vec![], vec!["a".into()], vec![vec![]; 3], vec![0, 0, 0]);
        assert!(cfs_best_first(&d, 5, TrainConfig::sequential()).is_empty());
        assert!(info_gain_ranking(&d, TrainConfig::sequential()).is_empty());
    }

    #[test]
    fn selection_is_deterministic() {
        let d = redundant_dataset(4);
        assert_eq!(
            cfs_best_first(&d, 5, TrainConfig::sequential()),
            cfs_best_first(&d, 5, TrainConfig::sequential())
        );
        let r1 = info_gain_ranking(&d, TrainConfig::sequential());
        let r2 = info_gain_ranking(&d, TrainConfig::sequential());
        assert_eq!(r1, r2);
    }

    #[test]
    fn parallel_selection_matches_sequential_at_any_worker_count() {
        let d = redundant_dataset(6);
        let seq_sel = cfs_best_first(&d, 5, TrainConfig::sequential());
        let seq_rank = info_gain_ranking(&d, TrainConfig::sequential());
        for workers in [2usize, 7] {
            let cfg = TrainConfig::with_workers(workers);
            assert_eq!(cfs_best_first(&d, 5, cfg), seq_sel, "workers {workers}");
            assert_eq!(info_gain_ranking(&d, cfg), seq_rank, "workers {workers}");
        }
    }

    #[test]
    fn constant_feature_has_zero_gain() {
        let d = Dataset::new(
            vec!["const".into(), "useful".into()],
            vec!["a".into(), "b".into()],
            (0..40)
                .map(|i| vec![7.0, if i < 20 { 0.0 } else { 1.0 }])
                .collect(),
            (0..40).map(|i| usize::from(i >= 20)).collect(),
        );
        let ranked = info_gain_ranking(&d, TrainConfig::sequential());
        let const_rank = ranked.iter().find(|r| r.name == "const").unwrap();
        assert_eq!(const_rank.gain, 0.0);
        assert_eq!(ranked[0].name, "useful");
        assert!((ranked[0].gain - 1.0).abs() < 1e-9);
    }
}
