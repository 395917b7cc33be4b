//! The playout buffer state machine.
//!
//! This is where stalls — the paper's highest-impact impairment (§2.2) —
//! actually happen. The buffer tracks *media seconds* of downloaded but
//! not-yet-played content and moves through three phases:
//!
//! 1. **StartUp** — playback has not begun; the player fills the buffer
//!    "as fast as possible to ... minimize the initial delay" (§2.1).
//!    Playback starts once `start_threshold` seconds are buffered.
//! 2. **Playing** — media drains at one media-second per wall-second.
//! 3. **Stalled** — the buffer hit zero mid-playback; the player pauses
//!    until `rebuffer_threshold` seconds accumulate again. Every such
//!    excursion is recorded as a [`StallEvent`], the paper's ground truth
//!    for the Rebuffering Ratio (eq. 1).
//!
//! The buffer is advanced with explicit timestamps (`advance_to`,
//! `push_media`), so stalls emerge *mid-download* when an arrival curve
//! is fed in round by round — not just at chunk boundaries.

use crate::session::GroundTruth;
use serde::{Deserialize, Serialize};
use vqoe_simnet::time::{Duration, Instant};

/// One rebuffering event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallEvent {
    /// When playback froze.
    pub start: Instant,
    /// How long it stayed frozen.
    pub duration: Duration,
}

/// The player's playback phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlayerPhase {
    /// Initial buffering; playback has not started.
    StartUp,
    /// Playing back normally.
    Playing,
    /// Frozen on an empty buffer, waiting to rebuffer.
    Stalled,
    /// All media played out (terminal).
    Finished,
}

/// Playout buffer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BufferConfig {
    /// Media seconds needed before initial playback starts.
    pub start_threshold: f64,
    /// Media seconds needed to resume after a stall.
    pub rebuffer_threshold: f64,
    /// Shortest playback freeze that registers as a stall. Sub-frame
    /// hiccups are neither perceived by viewers nor reported by the
    /// player's statistics pings, so they never reach the paper's ground
    /// truth (rebuffering perception thresholds are ≈0.4–0.5 s in the
    /// QoE literature).
    pub min_stall_secs: f64,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig {
            start_threshold: 2.5,
            rebuffer_threshold: 2.0,
            min_stall_secs: 0.5,
        }
    }
}

/// The playout buffer itself.
#[derive(Debug, Clone)]
pub struct PlayoutBuffer {
    config: BufferConfig,
    /// Media seconds currently buffered.
    buffered: f64,
    /// Media seconds already played.
    played: f64,
    /// Total media that will ever be pushed (for `Finished` detection).
    total_media: f64,
    /// Media pushed so far.
    pushed: f64,
    phase: PlayerPhase,
    clock: Instant,
    session_start: Instant,
    playback_started_at: Option<Instant>,
    current_stall_start: Option<Instant>,
    stalls: Vec<StallEvent>,
}

impl PlayoutBuffer {
    /// Create a buffer for a session beginning at `session_start`, with
    /// `total_media` seconds of content overall.
    pub fn new(config: BufferConfig, session_start: Instant, total_media: f64) -> Self {
        PlayoutBuffer {
            config,
            buffered: 0.0,
            played: 0.0,
            total_media,
            pushed: 0.0,
            phase: PlayerPhase::StartUp,
            clock: session_start,
            session_start,
            playback_started_at: None,
            current_stall_start: None,
            stalls: Vec::new(),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> PlayerPhase {
        self.phase
    }

    /// Media seconds buffered right now (as of the last advance).
    pub fn buffered_secs(&self) -> f64 {
        self.buffered
    }

    /// Media seconds played so far.
    pub fn played_secs(&self) -> f64 {
        self.played
    }

    /// When playback first started, if it has.
    pub fn playback_started_at(&self) -> Option<Instant> {
        self.playback_started_at
    }

    /// Completed stall events so far (an in-progress stall is not listed
    /// until it resolves or the session is finished).
    pub fn stalls(&self) -> &[StallEvent] {
        &self.stalls
    }

    /// Advance wall-clock time to `t`, draining the buffer if playing.
    /// Stale timestamps are no-ops (time is monotone).
    pub fn advance_to(&mut self, t: Instant) {
        if t <= self.clock {
            return;
        }
        let dt = t.duration_since(self.clock).as_secs_f64();
        self.clock = t;
        if self.phase != PlayerPhase::Playing {
            return;
        }
        if self.buffered >= dt {
            self.buffered -= dt;
            self.played += dt;
            if self.finished_all_media() {
                self.phase = PlayerPhase::Finished;
            }
        } else {
            // Drained mid-interval: playback froze part-way through.
            let played_part = self.buffered;
            self.played += played_part;
            self.buffered = 0.0;
            if self.finished_all_media() {
                self.phase = PlayerPhase::Finished;
            } else {
                let stall_start = Instant::from_secs(0)
                    + Duration::from_secs_f64((t.as_secs_f64() - (dt - played_part)).max(0.0));
                self.phase = PlayerPhase::Stalled;
                self.current_stall_start = Some(stall_start);
            }
        }
    }

    fn finished_all_media(&self) -> bool {
        self.played >= self.total_media - 1e-9
    }

    /// Deliver `media_secs` of content at time `t` (advances the clock
    /// first). Transitions out of StartUp / Stalled when thresholds are
    /// crossed.
    pub fn push_media(&mut self, t: Instant, media_secs: f64) {
        self.advance_to(t);
        if media_secs <= 0.0 {
            return;
        }
        self.buffered += media_secs;
        self.pushed = (self.pushed + media_secs).min(self.total_media);
        match self.phase {
            PlayerPhase::StartUp => {
                let enough = self.buffered >= self.config.start_threshold
                    || self.pushed >= self.total_media - 1e-9;
                if enough {
                    self.phase = PlayerPhase::Playing;
                    self.playback_started_at = Some(self.clock);
                }
            }
            PlayerPhase::Stalled => {
                let enough = self.buffered >= self.config.rebuffer_threshold
                    || self.pushed >= self.total_media - 1e-9;
                if enough {
                    self.close_stall();
                    self.phase = PlayerPhase::Playing;
                }
            }
            PlayerPhase::Playing | PlayerPhase::Finished => {}
        }
    }

    /// Wall-clock instant at which, if nothing more arrives, the buffer
    /// will drain to `target` media-seconds. `None` when not playing or
    /// already at/below target.
    pub fn time_when_buffer_reaches(&self, target: f64) -> Option<Instant> {
        if self.phase != PlayerPhase::Playing || self.buffered <= target {
            return None;
        }
        Some(self.clock + Duration::from_secs_f64(self.buffered - target))
    }

    /// Record the open stall as a [`StallEvent`] ending now, if it
    /// lasted at least `min_stall_secs`. The stall start is always set
    /// on entering the Stalled phase; `if let` keeps this panic-free
    /// anyway.
    fn close_stall(&mut self) {
        if let Some(start) = self.current_stall_start.take() {
            let duration = self.clock.duration_since(start);
            if duration.as_secs_f64() >= self.config.min_stall_secs {
                self.stalls.push(StallEvent { start, duration });
            }
        }
    }

    /// Terminate the session: play out whatever is buffered (no further
    /// arrivals), close any in-progress stall, and return the session's
    /// [`GroundTruth`] with the caller's `abandoned` flag and per-segment
    /// resolutions.
    ///
    /// `now` is when the last download activity ended (or the moment of
    /// abandonment).
    pub fn finish(
        mut self,
        now: Instant,
        abandoned: bool,
        segment_resolutions: Vec<u32>,
    ) -> GroundTruth {
        self.advance_to(now);
        let end = match self.phase {
            PlayerPhase::Playing => {
                // Remaining buffer plays out undisturbed.
                let end = self.clock + Duration::from_secs_f64(self.buffered);
                self.played += self.buffered;
                self.buffered = 0.0;
                end
            }
            PlayerPhase::Stalled => {
                // Session ends inside a stall (abandonment): close it.
                self.close_stall();
                self.clock
            }
            PlayerPhase::StartUp | PlayerPhase::Finished => self.clock,
        };
        let startup_delay = self
            .playback_started_at
            .map(|t| t.duration_since(self.session_start))
            .unwrap_or_else(|| end.duration_since(self.session_start));
        GroundTruth {
            stalls: self.stalls,
            startup_delay,
            playback_started: self.playback_started_at.is_some(),
            media_played: Duration::from_secs_f64(self.played),
            session_end: end,
            abandoned,
            segment_resolutions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(total: f64) -> PlayoutBuffer {
        PlayoutBuffer::new(BufferConfig::default(), Instant::ZERO, total)
    }

    #[test]
    fn playback_starts_at_threshold() {
        let mut b = buf(100.0);
        b.push_media(Instant::from_secs(1), 1.0);
        assert_eq!(b.phase(), PlayerPhase::StartUp);
        b.push_media(Instant::from_secs(2), 2.0);
        assert_eq!(b.phase(), PlayerPhase::Playing);
        assert_eq!(b.playback_started_at(), Some(Instant::from_secs(2)));
    }

    #[test]
    fn short_video_starts_even_below_threshold() {
        // A 1.5 s clip can never reach a 2.5 s start threshold; playback
        // must start once the whole clip has arrived.
        let mut b = buf(1.5);
        b.push_media(Instant::from_secs(1), 1.5);
        assert_eq!(b.phase(), PlayerPhase::Playing);
    }

    #[test]
    fn buffer_drains_in_real_time() {
        let mut b = buf(100.0);
        b.push_media(Instant::ZERO, 10.0);
        assert_eq!(b.phase(), PlayerPhase::Playing);
        b.advance_to(Instant::from_secs(4));
        assert!((b.buffered_secs() - 6.0).abs() < 1e-9);
        assert!((b.played_secs() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn stall_is_recorded_with_exact_timing() {
        let mut b = buf(100.0);
        b.push_media(Instant::ZERO, 5.0); // playing from t=0
                                          // Nothing arrives until t=9: buffer dies at t=5.
        b.advance_to(Instant::from_secs(9));
        assert_eq!(b.phase(), PlayerPhase::Stalled);
        // 2.0 s of media resumes playback at t=10.
        b.push_media(Instant::from_secs(10), 2.0);
        assert_eq!(b.phase(), PlayerPhase::Playing);
        let stalls = b.stalls();
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].start, Instant::from_secs(5));
        assert_eq!(stalls[0].duration, Duration::from_secs(5));
    }

    #[test]
    fn drip_feeding_below_threshold_keeps_stall_open() {
        let mut b = buf(100.0);
        b.push_media(Instant::ZERO, 3.0);
        b.advance_to(Instant::from_secs(4)); // stalled at t=3
        assert_eq!(b.phase(), PlayerPhase::Stalled);
        b.push_media(Instant::from_secs(5), 0.5);
        assert_eq!(b.phase(), PlayerPhase::Stalled, "0.5s < rebuffer threshold");
        b.push_media(Instant::from_secs(6), 1.6);
        assert_eq!(b.phase(), PlayerPhase::Playing);
        assert_eq!(b.stalls()[0].duration, Duration::from_secs(3));
    }

    #[test]
    fn finish_plays_out_remaining_buffer() {
        let mut b = buf(10.0);
        b.push_media(Instant::ZERO, 10.0);
        let out = b.finish(Instant::from_secs(2), false, Vec::new());
        assert_eq!(out.session_end, Instant::from_secs(10));
        assert_eq!(out.media_played, Duration::from_secs(10));
        assert!(out.stalls.is_empty());
        assert_eq!(out.rebuffering_ratio(), 0.0);
    }

    #[test]
    fn finish_inside_a_stall_closes_it() {
        let mut b = buf(100.0);
        b.push_media(Instant::ZERO, 5.0);
        b.advance_to(Instant::from_secs(20)); // stalled since t=5
        let out = b.finish(Instant::from_secs(30), false, Vec::new());
        assert_eq!(out.stalls.len(), 1);
        assert_eq!(out.stalls[0].start, Instant::from_secs(5));
        assert_eq!(out.stalls[0].duration, Duration::from_secs(25));
        // RR = 25 / (5 played + 25 stalled)
        assert!((out.rebuffering_ratio() - 25.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn never_started_session_reports_startup_as_whole_lifetime() {
        let b = buf(100.0);
        let out = b.finish(Instant::from_secs(12), false, Vec::new());
        assert!(!out.playback_started);
        assert_eq!(out.startup_delay, Duration::from_secs(12));
        assert_eq!(out.media_played, Duration::ZERO);
    }

    #[test]
    fn finished_phase_is_terminal_and_stall_free() {
        let mut b = buf(5.0);
        b.push_media(Instant::ZERO, 5.0);
        b.advance_to(Instant::from_secs(5));
        assert_eq!(b.phase(), PlayerPhase::Finished);
        // Advancing further must not invent a stall.
        b.advance_to(Instant::from_secs(50));
        assert!(b.stalls().is_empty());
    }

    #[test]
    fn time_when_buffer_reaches_projects_drain() {
        let mut b = buf(100.0);
        b.push_media(Instant::ZERO, 30.0);
        let t = b.time_when_buffer_reaches(25.0).unwrap();
        assert_eq!(t, Instant::from_secs(5));
        assert!(b.time_when_buffer_reaches(35.0).is_none());
    }

    #[test]
    fn mid_interval_stall_start_is_exact() {
        let mut b = buf(100.0);
        b.push_media(Instant::ZERO, 3.0);
        // Advance far past the drain point in one jump; the stall must be
        // dated at t=3, not t=10.
        b.advance_to(Instant::from_secs(10));
        b.push_media(Instant::from_secs(10), 5.0);
        assert_eq!(b.stalls()[0].start, Instant::from_secs(3));
        assert_eq!(b.stalls()[0].duration, Duration::from_secs(7));
    }

    #[test]
    fn multiple_stalls_accumulate() {
        let mut b = buf(100.0);
        b.push_media(Instant::ZERO, 3.0);
        b.advance_to(Instant::from_secs(5)); // stall 1 at t=3
        b.push_media(Instant::from_secs(6), 3.0); // resume at 6
        b.advance_to(Instant::from_secs(12)); // stall 2 at t=9
        b.push_media(Instant::from_secs(14), 3.0); // resume at 14
        assert_eq!(b.stalls().len(), 2);
        let total: Duration = b.stalls().iter().map(|s| s.duration).sum();
        assert_eq!(total, Duration::from_secs(3 + 5));
    }

    #[test]
    fn rebuffering_ratio_matches_eq1() {
        let out = GroundTruth {
            stalls: vec![
                StallEvent {
                    start: Instant::from_secs(10),
                    duration: Duration::from_secs(3),
                },
                StallEvent {
                    start: Instant::from_secs(50),
                    duration: Duration::from_secs(3),
                },
            ],
            startup_delay: Duration::from_secs(1),
            playback_started: true,
            media_played: Duration::from_secs(54),
            session_end: Instant::from_secs(61),
            abandoned: false,
            segment_resolutions: Vec::new(),
        };
        assert!((out.rebuffering_ratio() - 6.0 / 60.0).abs() < 1e-9);
    }
}
