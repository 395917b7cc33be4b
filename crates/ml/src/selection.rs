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
use std::cmp::Ordering;
use vqoe_stats::binning::Discretizer;
use vqoe_stats::info::{entropy_of_labels, info_gain, symmetrical_uncertainty_in};

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

/// Every feature column of a dataset discretized (equal-frequency bins)
/// for the information-theoretic scores, with each column's entropy:
/// built once, read by both selection tools.
#[derive(Debug, Clone)]
pub struct Discretized<'a> {
    data: &'a Dataset,
    columns: Vec<Vec<usize>>,
    entropies: Vec<f64>,
}

impl<'a> Discretized<'a> {
    /// Discretize `data`'s columns. Columns are independent, so this
    /// fans out per feature over `train`'s workers; the columns are the
    /// same at any worker count.
    pub fn new(data: &'a Dataset, train: TrainConfig) -> Self {
        let (entropies, columns) = run_indexed(data.n_features(), train, |f| {
            let col = data.column(f);
            let bins = Discretizer::fit(&col, DISCRETIZATION_BINS).transform(&col);
            (entropy_of_labels(&bins), bins)
        })
        .into_iter()
        .unzip();
        Discretized {
            data,
            columns,
            entropies,
        }
    }

    /// Rank all features by information gain, descending (ties broken
    /// by column order for determinism).
    pub fn info_gain_ranking(&self) -> Vec<RankedFeature> {
        let mut ranked: Vec<RankedFeature> = (self.columns.iter().enumerate())
            .map(|(i, col)| RankedFeature {
                index: i,
                name: self.data.feature_names[i].clone(),
                gain: info_gain(&self.data.y, col),
            })
            .collect();
        ranked.sort_by(|a, b| {
            b.gain
                .partial_cmp(&a.gain)
                .unwrap_or(Ordering::Equal)
                .then(a.index.cmp(&b.index))
        });
        ranked
    }

    /// CfsSubsetEval with best-first forward search.
    ///
    /// `max_stale` is the Weka stopping criterion: abandon the search
    /// after this many consecutive expansions without improvement (Weka
    /// default 5). Returns the selected column indices, sorted by their
    /// class correlation (strongest first).
    ///
    /// The walk is sequential and starts no thread: each expansion
    /// scores its candidates (the open subset plus one unused feature)
    /// in feature order, against a dense feature–feature SU memo filled
    /// on first use through one reused contingency table, so a
    /// candidate costs no allocation and every SU is computed once.
    pub fn cfs_best_first(&self, max_stale: usize) -> Vec<usize> {
        let n = self.columns.len();
        let y = &self.data.y;
        let class_entropy = entropy_of_labels(y);
        let mut table = Vec::new();
        let class_corr: Vec<f64> = (self.columns.iter().zip(&self.entropies))
            .map(|(col, &h)| symmetrical_uncertainty_in(col, h, y, class_entropy, &mut table))
            .collect();
        // SU is finite, so NaN marks a pair not computed yet; pairs are
        // keyed `a * n + b` with `a < b`.
        let mut pair_su = vec![f64::NAN; n * n];

        // Every expanded subset, sorted, in expansion order. A frontier
        // node is an expanded subset plus one feature, or the empty root.
        let mut expanded: Vec<Vec<usize>> = Vec::new();
        let mut frontier: Vec<(f64, Option<(usize, usize)>)> = vec![(0.0, None)];
        let mut best: (f64, Option<(usize, usize)>) = (0.0, None);
        let mut stale = 0usize;
        let mut skip = vec![false; n];
        let mut candidate: Vec<usize> = Vec::new();

        let by_merit =
            |a: &(f64, _), b: &(f64, _)| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal);
        while let Some(pos) =
            (0..frontier.len()).max_by(|&a, &b| by_merit(&frontier[a], &frontier[b]))
        {
            let (_, node) = frontier.swap_remove(pos);
            let subset = node.map_or_else(Vec::new, |(p, f)| with_feature(&expanded[p], f));
            // Skip each feature whose candidate an earlier expansion
            // scored: a subset of the same size that differs from this
            // one in that feature alone.
            skip.fill(false);
            for earlier in expanded.iter().filter(|e| e.len() == subset.len()) {
                let mut extra = earlier.iter().filter(|f| subset.binary_search(f).is_err());
                if let (Some(&f), None) = (extra.next(), extra.next()) {
                    skip[f] = true;
                }
            }
            let id = expanded.len();
            expanded.push(subset);
            let subset = &expanded[id];

            let mut improved = false;
            for f in (0..n).filter(|&f| !skip[f] && subset.binary_search(&f).is_err()) {
                candidate.clear();
                candidate.extend_from_slice(subset);
                candidate.insert(subset.partition_point(|&g| g < f), f);
                let m = self.merit(&candidate, &class_corr, &mut pair_su, &mut table);
                if m > best.0 + 1e-9 {
                    best = (m, Some((id, f)));
                    improved = true;
                }
                frontier.push((m, Some((id, f))));
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
                frontier.sort_by(|a, b| by_merit(b, a));
                frontier.truncate(5_000);
            }
        }

        let mut best_subset = best
            .1
            .map_or_else(Vec::new, |(p, f)| with_feature(&expanded[p], f));
        best_subset.sort_by(|&a, &b| {
            class_corr[b]
                .partial_cmp(&class_corr[a])
                .unwrap_or(Ordering::Equal)
                .then(a.cmp(&b))
        });
        best_subset
    }

    /// CFS merit of a non-empty, sorted `subset` given each feature's
    /// class SU `corr`, summed in subset order, reading feature–feature
    /// SU from `memo` and filling the pairs it lacks.
    fn merit(&self, subset: &[usize], corr: &[f64], memo: &mut [f64], table: &mut Vec<u64>) -> f64 {
        let n = self.columns.len();
        let k = subset.len() as f64;
        let mean_cf: f64 = subset.iter().map(|&f| corr[f]).sum::<f64>() / k;
        let mut sum_ff = 0.0;
        let mut pairs = 0.0;
        for (i, &a) in subset.iter().enumerate() {
            for &b in &subset[i + 1..] {
                let su = &mut memo[a * n + b];
                if su.is_nan() {
                    let (cols, hs) = (&self.columns, &self.entropies);
                    *su = symmetrical_uncertainty_in(&cols[a], hs[a], &cols[b], hs[b], table);
                }
                sum_ff += *su;
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
}

/// The sorted `subset` with `f` inserted in order.
fn with_feature(subset: &[usize], f: usize) -> Vec<usize> {
    let mut out = subset.to_vec();
    out.insert(subset.partition_point(|&g| g < f), f);
    out
}

/// [`Discretized::info_gain_ranking`] of `data`.
pub fn info_gain_ranking(data: &Dataset, train: TrainConfig) -> Vec<RankedFeature> {
    Discretized::new(data, train).info_gain_ranking()
}

/// [`Discretized::cfs_best_first`] of `data`.
pub fn cfs_best_first(data: &Dataset, max_stale: usize, train: TrainConfig) -> Vec<usize> {
    Discretized::new(data, train).cfs_best_first(max_stale)
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
