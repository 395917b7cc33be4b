//! Assembly of labelled datasets.
//!
//! A [`FeatureSpace`]'s dataset comes from one builder,
//! [`build_dataset`], fed `(observations, class)` rows by whichever
//! source labelled them: simulated traces ([`labelled_traces`]),
//! cleartext weblogs with URI-derived ground truth, or encrypted
//! sessions joined to the handset's ground truth (`vqoe-core`'s
//! `weblog_training::labelled_weblogs` and `EncryptedWorld::labelled`).

use crate::obs::SessionObs;
use crate::space::FeatureSpace;
use vqoe_ml::Dataset;
use vqoe_player::{GroundTruth, SessionTrace};

/// The labelled dataset of the space `S`: one row per `(observations,
/// class)` pair, in the order given. Rows may stream in lazily; only
/// each session's feature vector is kept.
pub fn build_dataset<S: FeatureSpace>(
    rows: impl IntoIterator<Item = (SessionObs, S::Class)>,
) -> Dataset {
    let (x, y) = rows
        .into_iter()
        .map(|(obs, class)| ((S::EXACT)(&obs), (S::INDEX)(class)))
        .unzip();
    Dataset::new((S::NAMES)(), (S::CLASS_NAMES)(), x, y)
}

/// The labelled rows of simulated traces, lazily and in trace order:
/// each trace's network-visible observations with `label` of its
/// ground truth and whether it streamed adaptively (such as
/// [`FeatureSpace::label`]). A trace labelled `None` is skipped before
/// its observations are built.
pub fn labelled_traces<'a, C: 'a>(
    traces: &'a [SessionTrace],
    label: impl Fn(&GroundTruth, bool) -> Option<C> + 'a,
) -> impl Iterator<Item = (SessionObs, C)> + 'a {
    traces.iter().filter_map(move |t| {
        let class = label(&t.ground_truth, t.config.delivery.is_adaptive())?;
        Some((SessionObs::from_trace(t), class))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::{stall_label, RqClass, StallClass};
    use crate::space::{RepresentationSpace, StallSpace};
    use vqoe_player::{simulate_session, AbrKind, Delivery, SessionConfig};
    use vqoe_simnet::channel::Scenario;
    use vqoe_simnet::rng::SeedSequence;
    use vqoe_simnet::time::Instant;

    fn traces(n: u64) -> Vec<SessionTrace> {
        let seeds = SeedSequence::new(4242);
        (0..n)
            .map(|i| {
                let delivery = if i % 3 == 0 {
                    Delivery::Dash(AbrKind::Hybrid)
                } else {
                    Delivery::Progressive
                };
                simulate_session(
                    &SessionConfig {
                        session_index: i,
                        scenario: Scenario::StaticHome,
                        delivery,
                        start_time: Instant::ZERO,
                        profile: Default::default(),
                    },
                    &seeds,
                )
            })
            .collect()
    }

    fn stall_dataset(ts: &[SessionTrace]) -> Dataset {
        build_dataset::<StallSpace>(labelled_traces(ts, StallSpace::label))
    }

    fn representation_dataset(ts: &[SessionTrace]) -> Dataset {
        build_dataset::<RepresentationSpace>(labelled_traces(ts, RepresentationSpace::label))
    }

    #[test]
    fn stall_dataset_covers_all_sessions() {
        let ts = traces(9);
        let d = stall_dataset(&ts);
        assert_eq!(d.n_rows(), 9);
        assert_eq!(d.n_features(), 70);
        assert_eq!(d.n_classes(), 3);
    }

    #[test]
    fn representation_dataset_keeps_only_adaptive() {
        let ts = traces(9);
        let adaptive = ts
            .iter()
            .filter(|t| t.config.delivery.is_adaptive())
            .count();
        let d = representation_dataset(&ts);
        assert_eq!(d.n_rows(), adaptive);
        assert_eq!(d.n_features(), 210);
        assert_eq!(d.class_names, RqClass::names());
    }

    #[test]
    fn labels_match_ground_truth_rules() {
        let ts = traces(6);
        let d = stall_dataset(&ts);
        for (i, t) in ts.iter().enumerate() {
            assert_eq!(d.y[i], stall_label(&t.ground_truth).index());
        }
    }

    #[test]
    fn obs_builders_match_trace_builders() {
        let ts = traces(6);
        let sessions: Vec<(SessionObs, StallClass)> = ts
            .iter()
            .map(|t| (SessionObs::from_trace(t), stall_label(&t.ground_truth)))
            .collect();
        assert_eq!(stall_dataset(&ts), build_dataset::<StallSpace>(sessions));
    }

    #[test]
    fn feature_values_are_finite() {
        let ts = traces(6);
        for d in [stall_dataset(&ts), representation_dataset(&ts)] {
            for row in &d.x {
                assert!(row.iter().all(|v| v.is_finite()));
            }
        }
    }
}
