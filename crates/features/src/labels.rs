//! Labelling rules (§4.1, §4.2, §4.3).

use serde::{Deserialize, Serialize};
use vqoe_player::GroundTruth;

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

/// Label a session's stalling from its ground truth.
pub fn stall_label(gt: &GroundTruth) -> StallClass {
    // Guard against zero-duration stall events (possible when a stall
    // opens and closes at the same instant): the class is driven by RR,
    // but a recorded stall with RR rounding to 0 still counts as mild —
    // the user did see playback freeze.
    let rr = gt.rebuffering_ratio();
    if rr <= 0.0 && gt.stall_count() > 0 {
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
pub fn rq_label(gt: &GroundTruth) -> RqClass {
    RqClass::from_avg_resolution(gt.avg_resolution())
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
