//! # vqoe-ml
//!
//! Machine-learning substrate for the reproduction of *Measuring Video
//! QoE from Encrypted Traffic* (IMC 2016), built from scratch (the Rust
//! ML ecosystem offers no equivalent of the Weka stack the paper used).
//!
//! The paper's §4 pipeline, component by component:
//!
//! * "we use Machine Learning and in particular the **Random Forest**
//!   algorithm and **10-fold cross-validation**" → [`forest::RandomForest`]
//!   over CART trees ([`tree::DecisionTree`]), [`cv::stratified_kfold`] /
//!   [`cv::cross_validate`].
//! * "we balance the number of instances among the three classes before
//!   training the classifier. The instances ... are then restored to
//!   their original numbers for testing" → [`dataset::Dataset::balanced_downsample`].
//! * "Feature Selection using the **Correlation-based Feature Subset
//!   Selection (CfsSubsetEval)** with the **Best First** search
//!   algorithm" → [`selection::cfs_best_first`].
//! * "Table 2 shows the gain of each of the features ... the
//!   **information gain** represents the contribution of each feature" →
//!   [`selection::info_gain_ranking`].
//! * The per-class TP rate / FP rate / Precision / Recall tables and
//!   confusion matrices (Tables 3–4, 6–11) → [`metrics::ConfusionMatrix`]
//!   and [`metrics::ClassReport`].
//!
//! Every training entry point takes a [`par::TrainConfig`] worker
//! policy; output is byte-identical at any worker count (see [`par`]
//! and DESIGN.md §10).

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod cv;
pub mod dataset;
pub mod forest;
pub mod metrics;
pub mod par;
pub mod selection;
pub mod tree;

pub use cv::{cross_validate, stratified_kfold, CvReport};
pub use dataset::Dataset;
pub use forest::{ForestConfig, RandomForest};
pub use metrics::{ClassReport, ConfusionMatrix};
pub use par::TrainConfig;
pub use selection::{cfs_best_first, info_gain_ranking, Discretized, RankedFeature};
pub use tree::{DecisionTree, ModelError, TreeConfig};
