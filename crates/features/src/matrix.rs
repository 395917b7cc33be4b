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
use vqoe_ml::par::run_indexed;
use vqoe_ml::{Dataset, TrainConfig};
use vqoe_player::{GroundTruth, SessionTrace};

/// Rows whose observations [`build_dataset`] holds at once: enough
/// jobs to keep every worker busy, few enough that a long corpus never
/// has all its sessions' observations in memory.
const ROW_BATCH: usize = 256;

/// The labelled dataset of the space `S`: one row per `(observations,
/// class)` pair, in the order given. Rows may stream in lazily; they
/// are taken 256 at a time (`ROW_BATCH`), each batch's feature vectors are
/// built over `train`'s workers in row order, and only the vectors are
/// kept, so the dataset is the same at any worker count.
pub fn build_dataset<S: FeatureSpace>(
    rows: impl IntoIterator<Item = (SessionObs, S::Class)>,
    train: TrainConfig,
) -> Dataset {
    let mut rows = rows.into_iter();
    let (mut x, mut y) = (Vec::new(), Vec::new());
    loop {
        let batch: Vec<SessionObs> = (rows.by_ref().take(ROW_BATCH))
            .map(|(obs, class)| {
                y.push((S::INDEX)(class));
                obs
            })
            .collect();
        if batch.is_empty() {
            return Dataset::new((S::NAMES)(), (S::CLASS_NAMES)(), x, y);
        }
        x.extend(run_indexed(batch.len(), train, |i| (S::EXACT)(&batch[i])));
    }
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
        build_dataset::<StallSpace>(
            labelled_traces(ts, StallSpace::label),
            TrainConfig::sequential(),
        )
    }

    fn representation_dataset(ts: &[SessionTrace]) -> Dataset {
        build_dataset::<RepresentationSpace>(
            labelled_traces(ts, RepresentationSpace::label),
            TrainConfig::sequential(),
        )
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
        assert_eq!(
            stall_dataset(&ts),
            build_dataset::<StallSpace>(sessions, TrainConfig::sequential())
        );
    }

    #[test]
    fn rows_built_on_workers_keep_row_order() {
        // 600 rows: three batches, the last one short.
        let ts = traces(9);
        let rows = || {
            (0..600).map(|i| {
                let t = &ts[i % ts.len()];
                (SessionObs::from_trace(t), stall_label(&t.ground_truth))
            })
        };
        let want = build_dataset::<StallSpace>(rows(), TrainConfig::sequential());
        for (i, (obs, class)) in rows().enumerate() {
            assert_eq!(want.x[i], (StallSpace::EXACT)(&obs), "row {i}");
            assert_eq!(want.y[i], class.index(), "row {i}");
        }
        for workers in [2usize, 7] {
            let got = build_dataset::<StallSpace>(rows(), TrainConfig::with_workers(workers));
            assert_eq!(got, want, "workers {workers}");
        }
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
