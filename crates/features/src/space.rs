//! The two §4 feature spaces a forest detector is fitted on: the
//! features each builds, the classes it answers with, and the label
//! rule that gives a training or evaluation session its class.

use crate::labels::{rq_label, stall_label, RqClass, SessionTruth, StallClass};
use crate::obs::SessionObs;
use crate::representation::{representation_feature_names, representation_features};
use crate::stall::{stall_feature_names, stall_features};
use crate::streaming::StreamingSessionState;

/// What one §4 classifier is trained on and answers with: the only
/// place the stall and representation detectors differ.
pub trait FeatureSpace {
    /// The class a prediction names.
    type Class: Copy + 'static;
    /// The classes in label order (the dataset's class indices).
    const CLASSES: &'static [Self::Class];
    /// The class names in label order.
    const CLASS_NAMES: fn() -> Vec<String>;
    /// A class's index in label order.
    const INDEX: fn(Self::Class) -> usize;
    /// Minimum size of the selected subset, reached by info-gain
    /// padding when CFS returns fewer.
    const SUBSET_FLOOR: usize;
    /// The full space's feature names, in vector order.
    const NAMES: fn() -> Vec<String>;
    /// The exact full-space vector of one session.
    const EXACT: fn(&SessionObs) -> Vec<f64>;
    /// The full-space vector a whole-session digest approximates (the
    /// streaming `Fidelity::Sketched` path, which cannot afford the
    /// buffered [`SessionObs`] the exact builder needs).
    const APPROXIMATE: fn(&StreamingSessionState) -> Vec<f64>;

    /// The class of one session's ground truth, or `None` where the
    /// space does not apply to the session; `adaptive` says whether it
    /// streamed adaptively.
    fn label(truth: &impl SessionTruth, adaptive: bool) -> Option<Self::Class>;
}

/// The 70-dim §4.1 stall feature space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallSpace;

impl FeatureSpace for StallSpace {
    type Class = StallClass;
    const CLASSES: &'static [StallClass] =
        &[StallClass::NoStalls, StallClass::Mild, StallClass::Severe];
    const CLASS_NAMES: fn() -> Vec<String> = StallClass::names;
    const INDEX: fn(StallClass) -> usize = StallClass::index;
    /// The paper's four-feature model (Table 2).
    const SUBSET_FLOOR: usize = 4;
    const NAMES: fn() -> Vec<String> = stall_feature_names;
    const EXACT: fn(&SessionObs) -> Vec<f64> = stall_features;
    const APPROXIMATE: fn(&StreamingSessionState) -> Vec<f64> =
        StreamingSessionState::stall_features_approx;

    /// Every session: the stall methodology "takes the entire dataset"
    /// (§3.1), progressive and adaptive alike.
    fn label(truth: &impl SessionTruth, _adaptive: bool) -> Option<StallClass> {
        Some(stall_label(truth))
    }
}

/// The 210-dim §4.2 average-representation feature space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepresentationSpace;

impl FeatureSpace for RepresentationSpace {
    type Class = RqClass;
    const CLASSES: &'static [RqClass] = &[RqClass::Ld, RqClass::Sd, RqClass::Hd];
    const CLASS_NAMES: fn() -> Vec<String> = RqClass::names;
    const INDEX: fn(RqClass) -> usize = RqClass::index;
    /// The paper lands on 15 features (Table 5).
    const SUBSET_FLOOR: usize = 15;
    const NAMES: fn() -> Vec<String> = representation_feature_names;
    const EXACT: fn(&SessionObs) -> Vec<f64> = representation_features;
    const APPROXIMATE: fn(&StreamingSessionState) -> Vec<f64> =
        StreamingSessionState::representation_features_approx;

    /// Adaptive sessions only (§3.1: "we only keep the videos that made
    /// use of adaptive streaming").
    fn label(truth: &impl SessionTruth, adaptive: bool) -> Option<RqClass> {
        adaptive.then(|| rq_label(truth))
    }
}
