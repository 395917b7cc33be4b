//! Labelling rules (§4.1, §4.2, §4.3).

use serde::{Deserialize, Serialize};
use vqoe_player::GroundTruth;
use vqoe_telemetry::groundtruth::ExtractedSession;

/// Rebuffering-Ratio threshold separating mild from severe stalling.
/// §4.1, after Krishnan et al. \[14\]: "when the RR is over 0.1, the
/// severity of the stalling ... leads the users to abandon the video".
pub const SEVERE_RR_THRESHOLD: f64 = 0.1;

/// Resolution thresholds of the RQ rule (§4.2): LD < 360 ≤ SD ≤ 480 < HD.
pub const SD_MIN_RESOLUTION: f64 = 360.0;
/// Upper SD bound; above is HD.
pub const SD_MAX_RESOLUTION: f64 = 480.0;

/// Stall-severity classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StallClass {
    /// RR = 0.
    NoStalls,
    /// 0 < RR ≤ 0.1.
    Mild,
    /// RR > 0.1.
    Severe,
}

impl StallClass {
    /// Class index (dataset label).
    pub fn index(self) -> usize {
        match self {
            StallClass::NoStalls => 0,
            StallClass::Mild => 1,
            StallClass::Severe => 2,
        }
    }

    /// Class names in index order, as the paper prints them.
    pub fn names() -> Vec<String> {
        vec![
            "no stalls".to_string(),
            "mild stalls".to_string(),
            "severe stalls".to_string(),
        ]
    }

    /// Classify a rebuffering ratio.
    pub fn from_rr(rr: f64) -> StallClass {
        if rr <= 0.0 {
            StallClass::NoStalls
        } else if rr <= SEVERE_RR_THRESHOLD {
            StallClass::Mild
        } else {
            StallClass::Severe
        }
    }
}

/// What the label rules read of one session's ground truth, whichever
/// source recovered it: the simulator's handset log ([`GroundTruth`])
/// or the cleartext URIs and playback reports ([`ExtractedSession`],
/// §3.3).
pub trait SessionTruth {
    /// Number of stall events.
    fn stall_count(&self) -> usize;
    /// Rebuffering Ratio (eq. 1).
    fn rebuffering_ratio(&self) -> f64;
    /// Mean video resolution μ.
    fn avg_resolution(&self) -> f64;
}

impl SessionTruth for GroundTruth {
    fn stall_count(&self) -> usize {
        GroundTruth::stall_count(self)
    }
    fn rebuffering_ratio(&self) -> f64 {
        GroundTruth::rebuffering_ratio(self)
    }
    fn avg_resolution(&self) -> f64 {
        GroundTruth::avg_resolution(self)
    }
}

impl SessionTruth for ExtractedSession {
    fn stall_count(&self) -> usize {
        self.stall_count as usize
    }
    fn rebuffering_ratio(&self) -> f64 {
        ExtractedSession::rebuffering_ratio(self)
    }
    fn avg_resolution(&self) -> f64 {
        ExtractedSession::avg_resolution(self)
    }
}

/// Label a session's stalling from its ground truth.
pub fn stall_label(truth: &impl SessionTruth) -> StallClass {
    // Guard against zero-duration stall events (possible when a stall
    // opens and closes at the same instant): the class is driven by RR,
    // but a recorded stall with RR rounding to 0 still counts as mild —
    // the user did see playback freeze.
    let rr = truth.rebuffering_ratio();
    if rr <= 0.0 && truth.stall_count() > 0 {
        return StallClass::Mild;
    }
    StallClass::from_rr(rr)
}

/// Representation-quality classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RqClass {
    /// μ < 360.
    Ld,
    /// 360 ≤ μ ≤ 480.
    Sd,
    /// μ > 480.
    Hd,
}

impl RqClass {
    /// Class index (dataset label).
    pub fn index(self) -> usize {
        match self {
            RqClass::Ld => 0,
            RqClass::Sd => 1,
            RqClass::Hd => 2,
        }
    }

    /// Class names in index order.
    pub fn names() -> Vec<String> {
        vec!["LD".to_string(), "SD".to_string(), "HD".to_string()]
    }

    /// Classify a mean resolution μ.
    pub fn from_avg_resolution(mu: f64) -> RqClass {
        if mu > SD_MAX_RESOLUTION {
            RqClass::Hd
        } else if mu >= SD_MIN_RESOLUTION {
            RqClass::Sd
        } else {
            RqClass::Ld
        }
    }
}

/// Label a session's average representation from its ground truth.
pub fn rq_label(truth: &impl SessionTruth) -> RqClass {
    RqClass::from_avg_resolution(truth.avg_resolution())
}

/// Binary ground truth for the Figure-4 / §5.6 evaluation: did the
/// session have any quality switches?
pub fn has_switches(gt: &GroundTruth) -> bool {
    gt.switch_count() > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqoe_player::StallEvent;
    use vqoe_simnet::time::{Duration, Instant};

    fn gt_with(stall_secs: f64, played_secs: f64, resolutions: &[u32]) -> GroundTruth {
        let stalls = if stall_secs > 0.0 {
            vec![StallEvent {
                start: Instant::from_secs(5),
                duration: Duration::from_secs_f64(stall_secs),
            }]
        } else {
            Vec::new()
        };
        GroundTruth {
            stalls,
            startup_delay: Duration::from_secs(1),
            playback_started: true,
            media_played: Duration::from_secs_f64(played_secs),
            session_end: Instant::from_secs(200),
            abandoned: false,
            segment_resolutions: resolutions.to_vec(),
        }
    }

    #[test]
    fn stall_classes_follow_the_rr_rule() {
        assert_eq!(StallClass::from_rr(0.0), StallClass::NoStalls);
        assert_eq!(StallClass::from_rr(0.05), StallClass::Mild);
        assert_eq!(StallClass::from_rr(0.1), StallClass::Mild);
        assert_eq!(StallClass::from_rr(0.1001), StallClass::Severe);
        assert_eq!(StallClass::from_rr(0.9), StallClass::Severe);
    }

    #[test]
    fn stall_label_from_ground_truth() {
        assert_eq!(
            stall_label(&gt_with(0.0, 180.0, &[360])),
            StallClass::NoStalls
        );
        // 9s stall / (171 + 9) = 0.05 → mild
        assert_eq!(stall_label(&gt_with(9.0, 171.0, &[360])), StallClass::Mild);
        // 30s stall / (150+30) ≈ 0.167 → severe
        assert_eq!(
            stall_label(&gt_with(30.0, 150.0, &[360])),
            StallClass::Severe
        );
    }

    /// One stall of `stall_secs` (a zero-length one when 0) per
    /// `stalls`, over `played_secs` of playback, as each ground-truth
    /// source records it.
    fn both_sources(
        stalls: usize,
        stall_secs: f64,
        played_secs: f64,
    ) -> (GroundTruth, ExtractedSession) {
        let mut gt = gt_with(0.0, played_secs, &[360]);
        gt.stalls = (0..stalls)
            .map(|i| StallEvent {
                start: Instant::from_secs(5 + 10 * i as u64),
                duration: Duration::from_secs_f64(stall_secs),
            })
            .collect();
        let ex = ExtractedSession {
            session_id: "0123456789abcdef".to_string(),
            chunks: Vec::new(),
            stall_count: stalls as u32,
            stall_secs: stall_secs * stalls as f64,
            final_state: "ended".to_string(),
            playhead_secs: played_secs,
        };
        (gt, ex)
    }

    #[test]
    fn one_stall_rule_serves_both_ground_truth_sources_at_the_edges() {
        let cases = [
            // No stall events: no stalls.
            ((0, 0.0, 180.0), StallClass::NoStalls),
            // A zero-length stall: RR is 0, but the user saw a freeze.
            ((1, 0.0, 180.0), StallClass::Mild),
            // RR exactly at the threshold stays mild...
            ((1, 10.0, 90.0), StallClass::Mild),
            // ...and just above it is severe (10.01 / 100.01).
            ((1, 10.01, 90.0), StallClass::Severe),
        ];
        for ((stalls, secs, played), want) in cases {
            let (gt, ex) = both_sources(stalls, secs, played);
            assert_eq!(stall_label(&gt), want, "ground truth {stalls} x {secs}s");
            assert_eq!(stall_label(&ex), want, "extracted {stalls} x {secs}s");
        }
    }

    #[test]
    fn rq_classes_follow_the_resolution_rule() {
        assert_eq!(RqClass::from_avg_resolution(144.0), RqClass::Ld);
        assert_eq!(RqClass::from_avg_resolution(359.9), RqClass::Ld);
        assert_eq!(RqClass::from_avg_resolution(360.0), RqClass::Sd);
        assert_eq!(RqClass::from_avg_resolution(480.0), RqClass::Sd);
        assert_eq!(RqClass::from_avg_resolution(480.1), RqClass::Hd);
        assert_eq!(RqClass::from_avg_resolution(1080.0), RqClass::Hd);
    }

    #[test]
    fn rq_label_uses_segment_mean() {
        // mean(144, 480) = 312 → LD
        assert_eq!(rq_label(&gt_with(0.0, 100.0, &[144, 480])), RqClass::Ld);
        // mean(360, 480) = 420 → SD
        assert_eq!(rq_label(&gt_with(0.0, 100.0, &[360, 480])), RqClass::Sd);
        // mean(720, 720) → HD
        assert_eq!(rq_label(&gt_with(0.0, 100.0, &[720, 720])), RqClass::Hd);
    }

    #[test]
    fn class_indexing_and_names_align() {
        assert_eq!(
            StallClass::names()[StallClass::Severe.index()],
            "severe stalls"
        );
        assert_eq!(RqClass::names()[RqClass::Hd.index()], "HD");
    }

    #[test]
    fn has_switches_is_binary_frequency() {
        assert!(!has_switches(&gt_with(0.0, 100.0, &[360, 360])));
        assert!(has_switches(&gt_with(0.0, 100.0, &[360, 480])));
    }
}
