//! The §4.1 stall feature set.
//!
//! "From the traffic features described in Section 3 (Table 1), we
//! generate summary statistics, i.e. max, min, mean, standard deviation,
//! 25th, 50th and 75th percentiles for each of the metrics, resulting in
//! 70 new metrics."
//!
//! Ten base metrics (Table 1, left column) × seven statistics = 70
//! features, named `"<metric> <stat>"` so the info-gain tables read like
//! the paper's ("chunk size minimum", "BDP mean", ...).

use crate::layout::{self, SERIES, STALL_ORDER};
use crate::obs::SessionObs;

/// The seven §4.1 statistics, in a fixed order.
pub const STALL_STATS: [&str; 7] = layout::names(&STALL_ORDER);

/// The ten Table-1 base metrics, in a fixed order.
pub const STALL_METRICS: [&str; 10] = layout::names(&SERIES);

/// Names of the 70 stall features, aligned with
/// [`stall_features`]' output.
pub fn stall_feature_names() -> Vec<String> {
    layout::feature_names(&STALL_METRICS, &STALL_STATS)
}

/// Compute the 70-dimensional stall feature vector of one session.
///
/// Empty sessions produce the all-zero vector (a session with no
/// observable chunks carries no signal; the classifier treats it as
/// such rather than erroring out of a whole dataset build). A metric
/// whose every sample is non-finite yields [`crate::MISSING_STAT`]
/// across its block, so a corrupted column cannot alias a genuine zero.
pub fn stall_features(obs: &SessionObs) -> Vec<f64> {
    layout::exact_features(obs, STALL_METRICS.len(), &STALL_ORDER)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::ChunkObs;
    use crate::MISSING_STAT;

    fn chunk(req: f64, arr: f64, bytes: f64, retx: f64) -> ChunkObs {
        ChunkObs {
            request_secs: req,
            arrival_secs: arr,
            bytes,
            rtt_min: 0.05,
            rtt_mean: 0.06,
            rtt_max: 0.09,
            bdp: 80_000.0,
            bif_mean: 30_000.0,
            bif_max: 60_000.0,
            loss: 0.001,
            retx,
        }
    }

    fn obs() -> SessionObs {
        SessionObs {
            chunks: vec![
                chunk(0.0, 1.0, 100_000.0, 0.00),
                chunk(1.5, 3.0, 300_000.0, 0.02),
                chunk(4.0, 6.0, 200_000.0, 0.01),
            ],
        }
    }

    #[test]
    fn seventy_features_with_matching_names() {
        let names = stall_feature_names();
        let values = stall_features(&obs());
        assert_eq!(names.len(), 70);
        assert_eq!(values.len(), 70);
        // Names are unique.
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 70);
    }

    /// Index of `"<metric> <stat>"` in the 70-dim vector.
    fn at(metric: usize, stat: usize) -> usize {
        metric * STALL_STATS.len() + stat
    }

    #[test]
    fn named_lookup_matches_hand_computation() {
        let v = stall_features(&obs());
        let names = stall_feature_names();
        assert_eq!(names[at(8, 0)], "chunk size minimum");
        assert_eq!(v[at(8, 0)], 100_000.0);
        assert_eq!(names[at(8, 1)], "chunk size maximum");
        assert_eq!(v[at(8, 1)], 300_000.0);
        assert_eq!(names[at(8, 2)], "chunk size mean");
        assert_eq!(v[at(8, 2)], 200_000.0);
        assert_eq!(names[at(7, 1)], "packet retransmissions maximum");
        assert_eq!(v[at(7, 1)], 0.02);
        assert_eq!(names[at(3, 2)], "BDP mean");
        assert_eq!(v[at(3, 2)], 80_000.0);
    }

    #[test]
    fn chunk_time_is_the_absolute_arrival_timestamp() {
        // The paper's "chunk time" is "the time when a video chunk
        // arrives at the client" — an absolute trace timestamp. Across a
        // weeks-long trace its summary statistics carry no QoE signal,
        // which is why none appear in Table 2; anchoring it at session
        // start would instead leak session duration into the features.
        let v = stall_features(&obs());
        assert_eq!(v[at(9, 0)], 1.0);
        assert_eq!(v[at(9, 1)], 6.0);
    }

    #[test]
    fn empty_session_is_all_zero() {
        let v = stall_features(&SessionObs::default());
        assert_eq!(v.len(), 70);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn all_nan_metric_column_cannot_alias_a_real_zero() {
        // A session whose loss annotations are all NaN (broken tap
        // field, chunks otherwise fine): the seven "packet loss" stats
        // must be the MISSING_STAT sentinel, not 0.0 — a genuine
        // loss-free session reports exactly 0.0 there.
        let mut o = obs();
        for c in &mut o.chunks {
            c.loss = f64::NAN;
        }
        let names = stall_feature_names();
        let broken = stall_features(&o);
        for (name, &v) in names.iter().zip(&broken) {
            if name.starts_with("packet loss") {
                assert_eq!(v, MISSING_STAT, "{name} must be the sentinel");
            } else {
                assert_ne!(v, MISSING_STAT, "{name} wrongly flagged missing");
            }
        }
        // The genuinely loss-free session keeps real zeros.
        let mut clean = obs();
        for c in &mut clean.chunks {
            c.loss = 0.0;
        }
        assert_eq!(stall_features(&clean)[at(6, 2)], 0.0);
        // Same policy on the chunk-size percentiles.
        let mut sizes_gone = obs();
        for c in &mut sizes_gone.chunks {
            c.bytes = f64::NAN;
        }
        assert_eq!(stall_features(&sizes_gone)[at(8, 6)], MISSING_STAT);
        assert_eq!(stall_features(&SessionObs::default())[at(8, 6)], 0.0);
    }

    #[test]
    fn all_features_are_finite() {
        let v = stall_features(&obs());
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn single_chunk_session_works() {
        let o = SessionObs {
            chunks: vec![chunk(0.0, 2.0, 50_000.0, 0.0)],
        };
        let v = stall_features(&o);
        assert_eq!(v.len(), 70);
        assert_eq!(v[at(8, 3)], 0.0);
    }
}
