//! Session-level types and the top-level session simulator.
//!
//! One *video session* is the paper's unit of analysis: "each entry in
//! the dataset corresponds to a unique video session which includes
//! information about the total number of stalls and their duration, as
//! well as the characteristics of each chunk" (§3.3). This module defines
//! exactly that shape — [`SessionTrace`] = per-chunk records + ground
//! truth — and the [`simulate_session`] entry point that runs one session
//! end-to-end through the configured delivery mechanism.

use crate::abr::AbrKind;
use crate::buffer::{PlayerPhase, PlayoutBuffer, StallEvent};
use crate::catalog::{Itag, VideoMeta};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use vqoe_simnet::channel::Scenario;
use vqoe_simnet::rng::SeedSequence;
use vqoe_simnet::tcp::TransferStats;
use vqoe_simnet::time::{Duration, Instant};

/// Whether a chunk carries video or audio content — the paper's
/// "content type" URI parameter (§3.2). Progressive delivery is muxed
/// (audio inside the video stream); DASH fetches the two separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContentType {
    /// A video (or muxed audio+video) segment.
    Video,
    /// An unmuxed audio segment (DASH only).
    Audio,
}

/// Delivery mechanism for one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Delivery {
    /// Traditional single-quality HTTP streaming with server pacing.
    Progressive,
    /// HTTP Adaptive Streaming with the given ABR family.
    Dash(AbrKind),
}

impl Delivery {
    /// Is this an adaptive (DASH) session? Only these enter the paper's
    /// average-representation and switch-detection datasets (§3.1: "only
    /// 3% of these are adaptive streaming sessions ... for the
    /// development of the average representation and the representation
    /// quality switch detection we only keep the videos that made use of
    /// adaptive streaming").
    pub fn is_adaptive(self) -> bool {
        matches!(self, Delivery::Dash(_))
    }
}

/// The transport annotations the proxy attaches to one weblog entry —
/// the left-hand column of Table 1, per chunk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransportSummary {
    /// Minimum RTT sample during the download (seconds).
    pub rtt_min: f64,
    /// Mean RTT sample (seconds).
    pub rtt_mean: f64,
    /// Maximum RTT sample (seconds).
    pub rtt_max: f64,
    /// Mean bandwidth-delay product (bytes).
    pub bdp_mean: f64,
    /// Mean bytes in flight.
    pub bif_mean: f64,
    /// Peak bytes in flight.
    pub bif_max: f64,
    /// Fraction of packets lost.
    pub loss_frac: f64,
    /// Fraction of packets retransmitted.
    pub retx_frac: f64,
}

impl From<&TransferStats> for TransportSummary {
    fn from(s: &TransferStats) -> Self {
        TransportSummary {
            rtt_min: s.rtt_min,
            rtt_mean: s.rtt_mean,
            rtt_max: s.rtt_max,
            bdp_mean: s.bdp_mean,
            bif_mean: s.bif_mean,
            bif_max: s.bif_max,
            loss_frac: s.loss_fraction(),
            retx_frac: s.retx_fraction(),
        }
    }
}

/// One HTTP transaction as the player performed it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkRecord {
    /// Position in the session's request sequence.
    pub index: u32,
    /// Video or audio content.
    pub content_type: ContentType,
    /// When the HTTP request was issued.
    pub request_time: Instant,
    /// When the last byte arrived — the paper's "chunk time" ("the time
    /// when a video chunk arrives at the client", §3.1).
    pub arrival_time: Instant,
    /// Object size — the paper's "chunk size".
    pub bytes: u64,
    /// Representation of a video chunk; `None` for audio.
    pub itag: Option<Itag>,
    /// Seconds of media this chunk carries.
    pub media_secs: f64,
    /// Transport annotations.
    pub transport: TransportSummary,
}

/// Everything the paper's ground-truth extraction recovers about a
/// session — from URI metadata for cleartext traffic (§3.2) or from the
/// instrumented handset for encrypted traffic (§5.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Completed stall events.
    pub stalls: Vec<StallEvent>,
    /// Time to first frame.
    pub startup_delay: Duration,
    /// Whether playback ever started.
    pub playback_started: bool,
    /// Media actually played.
    pub media_played: Duration,
    /// Wall-clock session end.
    pub session_end: Instant,
    /// Whether the user gave up before the video ended.
    pub abandoned: bool,
    /// Per-video-segment vertical resolution, in playback order.
    pub segment_resolutions: Vec<u32>,
}

impl GroundTruth {
    /// Number of stall events.
    pub fn stall_count(&self) -> usize {
        self.stalls.len()
    }

    /// Total stalled time.
    pub fn total_stall_time(&self) -> Duration {
        self.stalls.iter().map(|s| s.duration).sum()
    }

    /// Rebuffering Ratio (eq. 1) of the stall events over playback +
    /// stalls: [`rebuffering_ratio`].
    pub fn rebuffering_ratio(&self) -> f64 {
        let stalled = self.total_stall_time();
        let total = (self.media_played + stalled).as_secs_f64();
        rebuffering_ratio(stalled.as_secs_f64(), total, !self.stalls.is_empty())
    }

    /// Number of representation switches F (§4.3): count of consecutive
    /// video segments with different resolutions.
    pub fn switch_count(&self) -> usize {
        self.segment_resolutions
            .windows(2)
            .filter(|w| w[0] != w[1])
            .count()
    }

    /// Switch amplitude A (eq. 2): normalized sum of absolute resolution
    /// differences between consecutive segments.
    pub fn switch_amplitude(&self) -> f64 {
        let k = self.segment_resolutions.len();
        if k < 2 {
            return 0.0;
        }
        let sum: f64 = self
            .segment_resolutions
            .windows(2)
            .map(|w| (w[1] as f64 - w[0] as f64).abs())
            .sum();
        sum / (k - 1) as f64
    }

    /// Mean segment resolution μ — what the RQ labelling rule of §4.2
    /// thresholds on.
    pub fn avg_resolution(&self) -> f64 {
        if self.segment_resolutions.is_empty() {
            return 0.0;
        }
        self.segment_resolutions
            .iter()
            .map(|&r| r as f64)
            .sum::<f64>()
            / self.segment_resolutions.len() as f64
    }
}

/// Rebuffering Ratio (eq. 1): `stalled` seconds over the `total`
/// seconds of the session (playback + stalls). A session with no time
/// at all reads 1 if it stalled (`any_stall`), else 0.
pub fn rebuffering_ratio(stalled: f64, total: f64, any_stall: bool) -> f64 {
    if total <= 0.0 {
        return if any_stall { 1.0 } else { 0.0 };
    }
    stalled / total
}

/// Configuration of one simulated session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Unique index; seeds every random stream of the session.
    pub session_index: u64,
    /// Radio/mobility scenario.
    pub scenario: Scenario,
    /// Delivery mechanism.
    pub delivery: Delivery,
    /// When the user hit play.
    pub start_time: Instant,
    /// Provider delivery profile (segment duration, pacing, buffers).
    pub profile: crate::profile::StreamingProfile,
}

/// A fully simulated session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionTrace {
    /// The 16-character random session ID YouTube embeds in every
    /// chunk URI (§3.2) — the key that groups weblog entries.
    pub session_id: String,
    /// The configuration that produced this trace.
    pub config: SessionConfig,
    /// The video that was watched.
    pub video: VideoMeta,
    /// All HTTP transactions, in request order.
    pub chunks: Vec<ChunkRecord>,
    /// What really happened to playback.
    pub ground_truth: GroundTruth,
}

impl SessionTrace {
    /// Video chunks only (the subset carrying representation info).
    pub fn video_chunks(&self) -> impl Iterator<Item = &ChunkRecord> {
        self.chunks
            .iter()
            .filter(|c| c.content_type == ContentType::Video)
    }
}

/// User patience: how much cumulative stalling (or start-up waiting) a
/// viewer tolerates before abandoning. Sampled per session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Patience {
    /// Cumulative stall time before giving up.
    pub max_total_stall: Duration,
    /// Maximum time willing to wait for the first frame.
    pub max_startup_wait: Duration,
}

impl Patience {
    /// Draw a viewer's patience: exponential around 20 s of tolerated
    /// stalling (clamped to [6 s, 90 s]), 35 s start-up ceiling.
    pub fn sample(rng: &mut StdRng) -> Self {
        let u: f64 = rng.gen_range(1e-9..1.0);
        let stall_secs = (-u.ln() * 20.0).clamp(6.0, 90.0);
        Patience {
            max_total_stall: Duration::from_secs_f64(stall_secs),
            max_startup_wait: Duration::from_secs(35),
        }
    }

    /// Whether the viewer abandons now, `waited` into the session: after
    /// more cumulative stalling than they tolerate, or, before the first
    /// frame, after waiting longer than they will for it.
    pub fn gives_up(&self, buffer: &PlayoutBuffer, waited: Duration) -> bool {
        let stalled: Duration = buffer.stalls().iter().map(|s| s.duration).sum();
        stalled > self.max_total_stall
            || (buffer.phase() == PlayerPhase::StartUp && waited > self.max_startup_wait)
    }
}

/// Generate the 16-character session ID (base64url alphabet, like the
/// real parameter).
pub fn generate_session_id(rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";
    (0..16)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

/// Simulate one complete video session.
///
/// Deterministic: the same `(config, seeds)` pair always produces the
/// same trace.
pub fn simulate_session(config: &SessionConfig, seeds: &SeedSequence) -> SessionTrace {
    let mut meta_rng = seeds.child(0x5E55).stream(config.session_index);
    let video = VideoMeta::sample(&mut meta_rng);
    let session_id = generate_session_id(&mut meta_rng);
    let patience = Patience::sample(&mut meta_rng);

    let (chunks, ground_truth) = match config.delivery {
        Delivery::Progressive => {
            crate::progressive::simulate_progressive(config, &video, patience, seeds)
        }
        Delivery::Dash(abr) => crate::dash::simulate_dash(config, &video, patience, abr, seeds),
    };

    SessionTrace {
        session_id,
        config: *config,
        video,
        chunks,
        ground_truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn gt(resolutions: &[u32]) -> GroundTruth {
        GroundTruth {
            stalls: Vec::new(),
            startup_delay: Duration::from_secs(1),
            playback_started: true,
            media_played: Duration::from_secs(100),
            session_end: Instant::from_secs(101),
            abandoned: false,
            segment_resolutions: resolutions.to_vec(),
        }
    }

    #[test]
    fn switch_count_counts_boundaries() {
        assert_eq!(gt(&[144, 144, 360, 360, 480]).switch_count(), 2);
        assert_eq!(gt(&[360, 360, 360]).switch_count(), 0);
        assert_eq!(gt(&[]).switch_count(), 0);
        assert_eq!(gt(&[360]).switch_count(), 0);
    }

    #[test]
    fn switch_amplitude_matches_eq2() {
        // |360-144| + |360-360| + |480-360| = 216 + 0 + 120 = 336; K-1 = 3
        let a = gt(&[144, 360, 360, 480]).switch_amplitude();
        assert!((a - 336.0 / 3.0).abs() < 1e-9);
        assert_eq!(gt(&[480]).switch_amplitude(), 0.0);
    }

    #[test]
    fn avg_resolution_is_the_segment_mean() {
        assert_eq!(gt(&[144, 480]).avg_resolution(), 312.0);
        assert_eq!(gt(&[]).avg_resolution(), 0.0);
    }

    #[test]
    fn rebuffering_ratio_handles_degenerate_sessions() {
        let mut g = gt(&[360]);
        g.media_played = Duration::ZERO;
        assert_eq!(g.rebuffering_ratio(), 0.0);
        g.stalls.push(StallEvent {
            start: Instant::ZERO,
            duration: Duration::from_secs(10),
        });
        assert_eq!(g.rebuffering_ratio(), 1.0);
    }

    #[test]
    fn session_ids_are_16_chars_and_unique() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ids: Vec<String> = (0..100).map(|_| generate_session_id(&mut rng)).collect();
        for id in &ids {
            assert_eq!(id.len(), 16);
            assert!(id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'));
        }
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn patience_is_clamped() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let p = Patience::sample(&mut rng);
            let s = p.max_total_stall.as_secs_f64();
            assert!((6.0..=90.0).contains(&s));
        }
    }

    #[test]
    fn delivery_adaptive_flag() {
        assert!(!Delivery::Progressive.is_adaptive());
        assert!(Delivery::Dash(AbrKind::Hybrid).is_adaptive());
    }
}
