//! Adaptive bitrate (ABR) decision logic.
//!
//! §2.1: "The quality profile of the next segment is determined as a
//! function of the throughput with which the previous segment was
//! downloaded and the available seconds of playback in the buffer." We
//! implement the three classic families of that function:
//!
//! * [`AbrKind::Throughput`] — rate-based: pick the highest rung whose
//!   bitrate fits under a safety fraction of the EWMA throughput
//!   estimate.
//! * [`AbrKind::BufferBased`] — BBA-style: map the buffer level linearly
//!   between a reservoir and a cushion onto the ladder, ignoring
//!   throughput entirely.
//! * [`AbrKind::Hybrid`] — the production-typical combination: the
//!   throughput choice, vetoed downward by the buffer map when the buffer
//!   is thin.
//!
//! Upward switches are rate-limited to one rung per decision (real
//! players smooth up-switches to avoid oscillation), while downward
//! switches are unrestricted (emergency response to collapsing
//! throughput). This asymmetry is what produces the gradual up-ramps and
//! abrupt down-switches visible in the paper's Figure 3.

use crate::catalog::{Itag, LADDER};
use serde::{Deserialize, Serialize};

/// Which ABR family a DASH session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AbrKind {
    /// Rate-based (EWMA throughput × safety factor).
    Throughput,
    /// Buffer-based (BBA-style linear map).
    BufferBased,
    /// Throughput choice bounded by buffer safety (default).
    Hybrid,
}

/// Fraction of the throughput estimate considered safe to spend.
const SAFETY_FACTOR: f64 = 0.8;
/// EWMA weight of the newest throughput sample.
const EWMA_ALPHA: f64 = 0.3;
/// Buffer level (media s) below which the player pins the lowest rung
/// (panic). Must sit below one segment duration, or every session's
/// second segment would panic right out of start-up.
const RESERVOIR_SECS: f64 = 2.5;
/// Buffer level (media s) at/above which BBA allows the device cap.
const CUSHION_SECS: f64 = 22.0;

// The buffer map spans a non-empty reservoir-to-cushion range, and both
// weights are fractions.
const _: () = assert!(0.0 < RESERVOIR_SECS && RESERVOIR_SECS < CUSHION_SECS);
const _: () = assert!(0.0 < SAFETY_FACTOR && SAFETY_FACTOR <= 1.0);
const _: () = assert!(0.0 < EWMA_ALPHA && EWMA_ALPHA <= 1.0);

/// Per-session ABR state: the throughput estimator plus the last choice.
#[derive(Debug, Clone)]
pub struct AbrState {
    kind: AbrKind,
    /// Highest rung the device will play.
    max_itag: Itag,
    /// EWMA throughput estimate, bps. `None` until the first sample.
    estimate_bps: Option<f64>,
    /// Last selected rung.
    current: Itag,
}

impl AbrState {
    /// Fresh ABR state. Sessions start at the service's mobile default
    /// (360p, capped by the device), as the era's YouTube app did: stable
    /// sessions on adequate networks then never switch at all (the
    /// Figure-4 "no variation" population), while constrained or
    /// generous networks drive down- or up-switches. The start-up phase
    /// still has distinctive sizing — the §4.3 ten-second filter exists
    /// for it — but is not itself a representation switch.
    pub fn new(kind: AbrKind, max_itag: Itag) -> Self {
        AbrState {
            kind,
            max_itag,
            estimate_bps: None,
            current: Itag::Q360.min(max_itag),
        }
    }

    /// The rung currently selected.
    pub fn current(&self) -> Itag {
        self.current
    }

    /// The throughput estimate, if any samples have arrived.
    pub fn estimate_bps(&self) -> Option<f64> {
        self.estimate_bps
    }

    /// Fold in the observed throughput of the last segment download.
    pub fn observe_throughput(&mut self, bps: f64) {
        if !bps.is_finite() || bps <= 0.0 {
            return;
        }
        self.estimate_bps = Some(match self.estimate_bps {
            None => bps,
            Some(old) => EWMA_ALPHA * bps + (1.0 - EWMA_ALPHA) * old,
        });
    }

    /// Decide the rung for the next segment given the current buffer
    /// level, and remember it as the new current rung.
    ///
    /// `media_rate_factor` is the video's complexity factor: the rung's
    /// nominal bitrate is scaled by it before being compared against the
    /// throughput budget (a player sees actual segment sizes, so its
    /// effective rate table is complexity-scaled).
    ///
    /// `in_startup` marks the initial buffering phase: the buffer is
    /// empty *by construction* there, so buffer-level panic rules do not
    /// apply — only the throughput estimate (once one exists) steers the
    /// choice. Without this, every session would open with a dip to the
    /// bottom rung and back, and no session could ever be switch-free.
    pub fn decide(&mut self, buffer_secs: f64, media_rate_factor: f64, in_startup: bool) -> Itag {
        let tp_choice = self.throughput_choice(media_rate_factor);
        let bb_choice = self.buffer_choice(buffer_secs);
        let target = match self.kind {
            _ if in_startup => tp_choice,
            AbrKind::Throughput => tp_choice,
            AbrKind::BufferBased => bb_choice,
            AbrKind::Hybrid => {
                if buffer_secs < RESERVOIR_SECS {
                    // Panic mode: lowest rung regardless of throughput.
                    LADDER[0]
                } else {
                    // The throughput estimate steers; the buffer map only
                    // vetoes *upward* moves it cannot itself justify
                    // (optimistic up-switching on a thin buffer). A
                    // just-out-of-startup buffer therefore holds the
                    // current rung instead of dipping on every session's
                    // second segment.
                    if tp_choice.ladder_index() > self.current.ladder_index()
                        && bb_choice.ladder_index() <= self.current.ladder_index()
                    {
                        self.current
                    } else {
                        tp_choice
                    }
                }
            }
        };
        let target = target.min(self.max_itag);
        // Smooth up-switches: at most one rung per decision.
        let next = if target.ladder_index() > self.current.ladder_index() {
            self.current.up(1)
        } else {
            target
        };
        self.current = next;
        next
    }

    fn throughput_choice(&self, media_rate_factor: f64) -> Itag {
        let budget = match self.estimate_bps {
            Some(e) => e * SAFETY_FACTOR,
            None => return self.current, // no estimate yet: hold
        };
        let mut choice = LADDER[0];
        for &itag in LADDER.iter() {
            if itag.video_bitrate_bps() * media_rate_factor <= budget {
                choice = itag;
            } else {
                break;
            }
        }
        choice
    }

    fn buffer_choice(&self, buffer_secs: f64) -> Itag {
        if buffer_secs <= RESERVOIR_SECS {
            return LADDER[0];
        }
        if buffer_secs >= CUSHION_SECS {
            return self.max_itag;
        }
        let frac = (buffer_secs - RESERVOIR_SECS) / (CUSHION_SECS - RESERVOIR_SECS);
        let max_idx = self.max_itag.ladder_index();
        let idx = (frac * max_idx as f64).floor() as usize;
        LADDER[idx.min(max_idx)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::StreamingProfile;

    fn state(kind: AbrKind) -> AbrState {
        AbrState::new(kind, Itag::Q1080)
    }

    #[test]
    fn sessions_start_at_the_mobile_default() {
        assert_eq!(state(AbrKind::Hybrid).current(), Itag::Q360);
        // Small devices cap the default.
        let capped = AbrState::new(AbrKind::Hybrid, Itag::Q240);
        assert_eq!(capped.current(), Itag::Q240);
    }

    #[test]
    fn throughput_rule_picks_highest_affordable_rung() {
        let mut s = state(AbrKind::Throughput);
        // 5 Mbps estimate, 0.8 safety => 4 Mbps budget => 720p (2.3 Mbps)
        // affordable, 1080p (4.3) not.
        s.observe_throughput(5e6);
        // ramp up one rung per decision
        let mut last = s.current();
        for _ in 0..8 {
            last = s.decide(30.0, 1.0, false);
        }
        assert_eq!(last, Itag::Q720);
    }

    #[test]
    fn up_switches_are_one_rung_at_a_time() {
        let mut s = state(AbrKind::Throughput);
        s.observe_throughput(50e6);
        assert_eq!(s.decide(30.0, 1.0, false), Itag::Q480);
        assert_eq!(s.decide(30.0, 1.0, false), Itag::Q720);
        assert_eq!(s.decide(30.0, 1.0, false), Itag::Q1080);
    }

    #[test]
    fn down_switches_are_immediate() {
        let mut s = state(AbrKind::Throughput);
        s.observe_throughput(50e6);
        for _ in 0..8 {
            s.decide(30.0, 1.0, false);
        }
        assert_eq!(s.current(), Itag::Q1080);
        // Throughput collapses: once the EWMA catches up, a single
        // decision drops all the way down — no one-rung-at-a-time limit.
        // (α = 0.3, so the estimate needs a couple dozen samples to
        // fully converge from 50 Mbps down to 0.1 Mbps.)
        for _ in 0..25 {
            s.observe_throughput(0.1e6);
        }
        let next = s.decide(30.0, 1.0, false);
        assert_eq!(next, Itag::Q144);
    }

    #[test]
    fn complexity_shrinks_the_affordable_rung() {
        let mut cheap = state(AbrKind::Throughput);
        let mut costly = state(AbrKind::Throughput);
        for s in [&mut cheap, &mut costly] {
            s.observe_throughput(3e6);
        }
        let mut last_cheap = Itag::Q144;
        let mut last_costly = Itag::Q144;
        for _ in 0..8 {
            last_cheap = cheap.decide(30.0, 0.6, false);
            last_costly = costly.decide(30.0, 1.8, false);
        }
        assert!(last_cheap.ladder_index() > last_costly.ladder_index());
    }

    #[test]
    fn reservoir_sits_below_every_profiles_segment() {
        for profile in [
            StreamingProfile::youtube(),
            StreamingProfile::vimeo_like(),
            StreamingProfile::dailymotion_like(),
        ] {
            assert!(
                RESERVOIR_SECS < profile.segment_secs,
                "a {} s reservoir panics out of start-up on {} s segments",
                RESERVOIR_SECS,
                profile.segment_secs
            );
        }
    }

    #[test]
    fn buffer_based_maps_reservoir_to_cushion() {
        let mut s = state(AbrKind::BufferBased);
        assert_eq!(s.decide(2.0, 1.0, false), Itag::Q144); // below reservoir
        let mut top = Itag::Q144;
        for _ in 0..8 {
            top = s.decide(40.0, 1.0, false); // above cushion
        }
        assert_eq!(top, Itag::Q1080);
    }

    #[test]
    fn buffer_based_is_monotone_in_buffer_level() {
        let s = state(AbrKind::BufferBased);
        let mut prev = 0usize;
        for level in [3.0, 7.0, 12.0, 17.0, 21.0, 30.0] {
            let choice = s.buffer_choice(level).ladder_index();
            assert!(choice >= prev, "not monotone at {level}");
            prev = choice;
        }
    }

    #[test]
    fn hybrid_panics_to_lowest_when_reservoir_breached() {
        let mut s = state(AbrKind::Hybrid);
        s.observe_throughput(50e6);
        for _ in 0..8 {
            s.decide(30.0, 1.0, false);
        }
        assert_eq!(s.current(), Itag::Q1080);
        assert_eq!(s.decide(2.0, 1.0, false), Itag::Q144);
    }

    #[test]
    fn device_cap_is_respected() {
        let mut s = AbrState::new(AbrKind::Throughput, Itag::Q480);
        s.observe_throughput(100e6);
        let mut last = Itag::Q144;
        for _ in 0..10 {
            last = s.decide(40.0, 1.0, false);
        }
        assert_eq!(last, Itag::Q480);
    }

    #[test]
    fn ewma_blends_samples() {
        let mut s = state(AbrKind::Throughput);
        s.observe_throughput(10e6);
        s.observe_throughput(2e6);
        // α = 0.3: e = 0.3·2 + 0.7·10 = 7.6 Mbps.
        let e = s.estimate_bps().unwrap();
        assert!((e - 7.6e6).abs() < 1e-6, "e = {e}");
    }

    #[test]
    fn garbage_throughput_samples_are_ignored() {
        let mut s = state(AbrKind::Throughput);
        s.observe_throughput(f64::NAN);
        s.observe_throughput(-5.0);
        s.observe_throughput(0.0);
        assert!(s.estimate_bps().is_none());
    }
}
