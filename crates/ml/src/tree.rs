//! CART decision trees with entropy splits.
//!
//! The base learner under the paper's Random Forest. Continuous features
//! are split on thresholds found by a sorted sweep with incremental
//! class counts (O(n log n) per feature per node); split quality is
//! information gain. Per-split feature subsampling (`mtry`) turns the
//! same code into a forest-ready randomized tree.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use vqoe_stats::info::entropy_of_counts;

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum rows a node must hold to be split further.
    pub min_samples_split: usize,
    /// Number of candidate features per split; `0` means all
    /// (deterministic CART), forests use √(n_features).
    pub mtry: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 30,
            min_samples_split: 4,
            mtry: 0,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        /// Class-probability vector at the leaf.
        probs: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Impurity decrease weighted by the fraction of training rows
        /// reaching this node — the per-split term of mean-decrease-in-
        /// impurity feature importance.
        weight: f64,
        /// Arena index of the `<= threshold` child.
        left: usize,
        /// Arena index of the `> threshold` child.
        right: usize,
    },
}

/// Why a tree read from outside the program cannot be walked: the
/// first broken node found, and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError {
    /// The tree's index in its forest.
    pub tree: usize,
    /// The node's arena index in the tree.
    pub node: usize,
    /// What is wrong with the node.
    pub fault: &'static str,
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tree {} node {}: {}", self.tree, self.node, self.fault)
    }
}

impl std::error::Error for ModelError {}

/// A trained decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    n_classes: usize,
}

impl DecisionTree {
    /// Fit a tree to `data`, optionally restricted to `rows` (bootstrap
    /// sample indices; duplicates allowed). `rng` drives feature
    /// subsampling and is unused when `mtry == 0`.
    pub fn fit(data: &Dataset, rows: &[usize], config: TreeConfig, rng: &mut StdRng) -> Self {
        assert!(data.n_rows() > 0, "cannot fit an empty dataset");
        assert!(!rows.is_empty(), "cannot fit on an empty row sample");
        let mut tree = DecisionTree {
            nodes: Vec::new(),
            n_classes: data.n_classes(),
        };
        let mut row_buf: Vec<usize> = rows.to_vec();
        let root_total = rows.len() as f64;
        tree.grow(data, &mut row_buf, 0, config, rng, root_total);
        tree
    }

    /// Number of nodes in the tree (diagnostic).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree (diagnostic; leaf-only tree has depth 0).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], idx: usize) -> usize {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(nodes, *left).max(walk(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    /// Grow the subtree over `rows`; returns the arena index.
    fn grow(
        &mut self,
        data: &Dataset,
        rows: &mut [usize],
        depth: usize,
        config: TreeConfig,
        rng: &mut StdRng,
        root_total: f64,
    ) -> usize {
        let counts = class_counts(data, rows, self.n_classes);
        let total = rows.len() as f64;
        let node_entropy = entropy_of_counts(&counts);

        let stop = depth >= config.max_depth
            || rows.len() < config.min_samples_split
            || node_entropy <= 0.0;
        if !stop {
            if let Some((feature, threshold, gain)) =
                self.best_split(data, rows, &counts, config, rng)
            {
                let (mut left_rows, mut right_rows): (Vec<usize>, Vec<usize>) =
                    rows.iter().partition(|&&r| data.x[r][feature] <= threshold);
                if !left_rows.is_empty() && !right_rows.is_empty() {
                    let idx = self.nodes.len();
                    let weight = gain * rows.len() as f64 / root_total.max(1.0);
                    // Placeholder; children filled in below.
                    self.nodes.push(Node::Split {
                        feature,
                        threshold,
                        weight,
                        left: 0,
                        right: 0,
                    });
                    let left = self.grow(data, &mut left_rows, depth + 1, config, rng, root_total);
                    let right =
                        self.grow(data, &mut right_rows, depth + 1, config, rng, root_total);
                    self.nodes[idx] = Node::Split {
                        feature,
                        threshold,
                        weight,
                        left,
                        right,
                    };
                    return idx;
                }
            }
        }

        let probs: Vec<f64> = counts.iter().map(|&c| c as f64 / total).collect();
        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf { probs });
        idx
    }

    /// Best (feature, threshold) by information gain over the candidate
    /// feature set.
    fn best_split(
        &self,
        data: &Dataset,
        rows: &[usize],
        parent_counts: &[u64],
        config: TreeConfig,
        rng: &mut StdRng,
    ) -> Option<(usize, f64, f64)> {
        let n_features = data.n_features();
        let mut features: Vec<usize> = (0..n_features).collect();
        if config.mtry > 0 && config.mtry < n_features {
            features.shuffle(rng);
            features.truncate(config.mtry);
        }

        let total = rows.len() as f64;
        let parent_entropy = entropy_of_counts(parent_counts);
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)

        for &feature in &features {
            // Sort row indices by this feature's value.
            let mut order: Vec<usize> = rows.to_vec();
            order.sort_by(|&a, &b| {
                data.x[a][feature]
                    .partial_cmp(&data.x[b][feature])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut left_counts = vec![0u64; self.n_classes];
            let mut right_counts = parent_counts.to_vec();
            for i in 0..order.len() - 1 {
                let r = order[i];
                left_counts[data.y[r]] += 1;
                right_counts[data.y[r]] -= 1;
                let v = data.x[r][feature];
                let v_next = data.x[order[i + 1]][feature];
                if v_next <= v {
                    continue; // not a boundary between distinct values
                }
                let n_left = (i + 1) as f64;
                let n_right = total - n_left;
                let child_entropy = (n_left / total) * entropy_of_counts(&left_counts)
                    + (n_right / total) * entropy_of_counts(&right_counts);
                let gain = parent_entropy - child_entropy;
                // Zero-gain splits are allowed on impure nodes: greedy
                // gain is blind to XOR-like interactions whose value only
                // appears one level deeper (the node is only expanded at
                // all when its entropy is positive, and every split
                // strictly shrinks both children, so growth terminates).
                if gain >= 0.0 && best.map_or(true, |(_, _, g)| gain > g) {
                    best = Some((feature, (v + v_next) / 2.0, gain));
                }
            }
        }
        best
    }

    /// Iterate over the tree's split nodes as `(feature, weight)` pairs,
    /// where the weight is the split's impurity decrease scaled by the
    /// fraction of training rows that reached it — the per-tree terms of
    /// mean-decrease-in-impurity feature importance.
    pub fn split_weights(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.nodes.iter().filter_map(|n| match n {
            Node::Split {
                feature, weight, ..
            } => Some((*feature, *weight)),
            Node::Leaf { .. } => None,
        })
    }

    /// Class-probability vector for one feature row.
    pub fn predict_proba(&self, row: &[f64]) -> &[f64] {
        let mut idx = 0;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { probs } => return probs,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    idx = if row[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Hard class prediction (argmax of probabilities; ties go to the
    /// lower class index, deterministically).
    pub fn predict(&self, row: &[f64]) -> usize {
        argmax(self.predict_proba(row))
    }

    /// The first node [`RandomForest::check`](crate::RandomForest::check)
    /// rejects, with what is wrong with it.
    pub(crate) fn check(&self, width: usize, classes: usize) -> Result<(), (usize, &'static str)> {
        let len = self.nodes.len();
        if len == 0 {
            return Err((0, "no root"));
        }
        for (node, n) in self.nodes.iter().enumerate() {
            let fault = match *n {
                Node::Leaf { ref probs } if probs.len() != classes => "wrong class count",
                Node::Split { feature, .. } if feature >= width => "feature out of range",
                Node::Split { left, right, .. }
                    if left.min(right) <= node || left.max(right) >= len =>
                {
                    "child not after its parent"
                }
                _ => continue,
            };
            return Err((node, fault));
        }
        Ok(())
    }
}

pub(crate) fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &p) in v.iter().enumerate() {
        if p > v[best] {
            best = i;
        }
    }
    best
}

fn class_counts(data: &Dataset, rows: &[usize], n_classes: usize) -> Vec<u64> {
    let mut counts = vec![0u64; n_classes];
    for &r in rows {
        counts[data.y[r]] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn xor_dataset() -> Dataset {
        // XOR needs depth 2 — a classic sanity check that splits compose.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for &(a, b) in &[(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            for _ in 0..5 {
                x.push(vec![a, b]);
                y.push(((a as i32) ^ (b as i32)) as usize);
            }
        }
        Dataset::new(
            vec!["a".into(), "b".into()],
            vec!["zero".into(), "one".into()],
            x,
            y,
        )
    }

    fn all_rows(d: &Dataset) -> Vec<usize> {
        (0..d.n_rows()).collect()
    }

    #[test]
    fn learns_a_single_threshold() {
        let d = Dataset::new(
            vec!["f".into()],
            vec!["lo".into(), "hi".into()],
            (0..20).map(|i| vec![i as f64]).collect(),
            (0..20).map(|i| usize::from(i >= 10)).collect(),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let t = DecisionTree::fit(&d, &all_rows(&d), TreeConfig::default(), &mut rng);
        assert_eq!(t.predict(&[3.0]), 0);
        assert_eq!(t.predict(&[15.0]), 1);
        assert_eq!(t.depth(), 1);
    }

    #[test]
    fn learns_xor() {
        let d = xor_dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let t = DecisionTree::fit(&d, &all_rows(&d), TreeConfig::default(), &mut rng);
        assert_eq!(t.predict(&[0.0, 0.0]), 0);
        assert_eq!(t.predict(&[1.0, 0.0]), 1);
        assert_eq!(t.predict(&[0.0, 1.0]), 1);
        assert_eq!(t.predict(&[1.0, 1.0]), 0);
    }

    #[test]
    fn pure_node_becomes_leaf() {
        let d = Dataset::new(
            vec!["f".into()],
            vec!["only".into()],
            vec![vec![1.0], vec![2.0]],
            vec![0, 0],
        );
        let mut rng = StdRng::seed_from_u64(3);
        let t = DecisionTree::fit(&d, &all_rows(&d), TreeConfig::default(), &mut rng);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[99.0]), 0);
    }

    #[test]
    fn max_depth_zero_yields_majority_leaf() {
        let d = Dataset::new(
            vec!["f".into()],
            vec!["a".into(), "b".into()],
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![0, 0, 1],
        );
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let t = DecisionTree::fit(&d, &all_rows(&d), cfg, &mut rng);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[2.0]), 0, "majority class wins");
        let p = t.predict_proba(&[2.0]);
        assert!((p[0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn constant_features_produce_a_leaf() {
        let d = Dataset::new(
            vec!["f".into()],
            vec!["a".into(), "b".into()],
            vec![vec![5.0], vec![5.0], vec![5.0]],
            vec![0, 1, 0],
        );
        let mut rng = StdRng::seed_from_u64(5);
        let t = DecisionTree::fit(&d, &all_rows(&d), TreeConfig::default(), &mut rng);
        assert_eq!(t.node_count(), 1, "no valid split exists");
    }

    #[test]
    fn fits_on_bootstrap_subset_only() {
        let d = xor_dataset();
        // Train only on rows where a == 0: the tree never sees a=1.
        let rows: Vec<usize> = (0..d.n_rows()).filter(|&r| d.x[r][0] == 0.0).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let t = DecisionTree::fit(&d, &rows, TreeConfig::default(), &mut rng);
        assert_eq!(t.predict(&[0.0, 0.0]), 0);
        assert_eq!(t.predict(&[0.0, 1.0]), 1);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let d = xor_dataset();
        let mut rng = StdRng::seed_from_u64(7);
        let t = DecisionTree::fit(&d, &all_rows(&d), TreeConfig::default(), &mut rng);
        let p = t.predict_proba(&[0.5, 0.5]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_without_mtry() {
        let d = xor_dataset();
        let mut r1 = StdRng::seed_from_u64(8);
        let mut r2 = StdRng::seed_from_u64(99); // different rng must not matter
        let t1 = DecisionTree::fit(&d, &all_rows(&d), TreeConfig::default(), &mut r1);
        let t2 = DecisionTree::fit(&d, &all_rows(&d), TreeConfig::default(), &mut r2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn mtry_randomizes_structure() {
        // With mtry=1 on a 2-feature problem, different seeds can pick
        // different first splits. We only require both to stay accurate.
        let d = xor_dataset();
        let cfg = TreeConfig {
            mtry: 1,
            ..TreeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(10);
        let t = DecisionTree::fit(&d, &all_rows(&d), cfg, &mut rng);
        // XOR is still learnable because both features end up used deeper.
        let acc = [
            t.predict(&[0.0, 0.0]) == 0,
            t.predict(&[1.0, 1.0]) == 0,
            t.predict(&[1.0, 0.0]) == 1,
            t.predict(&[0.0, 1.0]) == 1,
        ]
        .iter()
        .filter(|&&ok| ok)
        .count();
        assert!(acc >= 3, "accuracy collapsed under mtry: {acc}/4");
    }
}
