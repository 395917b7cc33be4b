//! Traditional (single-quality) HTTP streaming player.
//!
//! §2.1's description, implemented as a state machine:
//!
//! * **Start-up phase** — "the player will download the first part of the
//!   video as fast as possible to quickly fill the buffer": unthrottled
//!   range requests until playback starts and a comfort margin builds.
//! * **Steady state** — "characterized by ON-OFF cycles, also referred to
//!   as pacing, where the download is paused as soon as the buffer has
//!   been filled and resumes when it is reaching depletion": the server
//!   throttles to ~1.25× the media bitrate, and the player stops
//!   requesting at a high watermark, resuming at a lower one.
//! * **Urgent refill** — when the buffer runs thin or a stall hits, the
//!   player switches to *small*, unthrottled range requests so the buffer
//!   refills as fast as possible. This is the §4.1/Fig. 1 mechanic: "the
//!   player will request small chunks which can be downloaded much
//!   faster", making chunk-size minimum and variance the top stall
//!   features.
//!
//! The quality is chosen once, by the *user/device*, not the network —
//! which is why progressive sessions stall when radio conditions cannot
//! sustain the chosen bitrate, giving the stall classifier its signal.

use crate::buffer::{PlayerPhase, PlayoutBuffer};
use crate::catalog::{Itag, VideoMeta, LADDER};
use crate::session::{
    ChunkRecord, ContentType, GroundTruth, Patience, SessionConfig, TransportSummary,
};
use rand::rngs::StdRng;
use rand::Rng;
use vqoe_simnet::rng::SeedSequence;
use vqoe_simnet::time::Duration;
use vqoe_simnet::transfer::TransferEngine;

// All delivery mechanics (chunk sizing, watermarks, pacing) come from
// the session's [`crate::profile::StreamingProfile`]; see that module
// for the YouTube-2016 defaults and the §7 generalization profiles.

/// Pick the user's fixed quality: a popularity-weighted draw, capped by
/// the device, and *conditioned on typical network experience* — §4.1
/// explains the chunk-size/stall correlation precisely this way:
/// "smaller chunk sizes correspond to lower quality streams that are
/// frequently selected by the user ... in the presence of poor network
/// conditions". Users who regularly stream on the move or on congested
/// cells learn to pick lower qualities, and still stall more.
fn choose_quality(
    video: &VideoMeta,
    scenario: vqoe_simnet::channel::Scenario,
    rng: &mut StdRng,
) -> Itag {
    use vqoe_simnet::channel::Scenario;
    let weights: [f64; 6] = match scenario {
        Scenario::StaticHome | Scenario::StaticOffice => [0.14, 0.24, 0.29, 0.18, 0.11, 0.04],
        Scenario::Commuting | Scenario::CongestedCell => [0.34, 0.32, 0.22, 0.08, 0.03, 0.01],
    };
    let total: f64 = weights.iter().sum();
    let mut x: f64 = rng.gen_range(0.0..total);
    let mut choice = LADDER[0];
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            choice = LADDER[i];
            break;
        }
        x -= w;
    }
    choice.min(video.max_itag)
}

/// Simulate one progressive session. Returns the chunk records and the
/// playback ground truth.
pub fn simulate_progressive(
    config: &SessionConfig,
    video: &VideoMeta,
    patience: Patience,
    seeds: &SeedSequence,
) -> (Vec<ChunkRecord>, GroundTruth) {
    let mut rng = seeds.child(0x9406).stream(config.session_index);
    let mut engine = TransferEngine::new(config.scenario, seeds, config.session_index);

    let itag = choose_quality(video, config.scenario, &mut rng);
    let total_media = video.duration.as_secs_f64();
    let mut buffer = PlayoutBuffer::new(config.start_time, total_media);

    let profile = config.profile;
    // Pacing rate follows the *actual* media byte-rate (muxed stream).
    let media_bytes_per_sec = (video.video_bytes_per_media_sec(itag)
        + crate::catalog::AUDIO_BITRATE_BPS / 8.0)
        * profile.bitrate_scale;
    let pacing_bps = media_bytes_per_sec * 8.0 * profile.pacing_factor;

    let mut chunks: Vec<ChunkRecord> = Vec::new();
    let mut media_pos = 0.0f64;
    let mut now = config.start_time;
    let mut abandoned = false;

    while media_pos < total_media - 1e-9 {
        if patience.gives_up(&buffer, now.duration_since(config.start_time)) {
            abandoned = true;
            break;
        }

        // OFF period: buffer full, pause requesting until it drains.
        if buffer.buffered_secs() >= profile.prog_high_watermark {
            if let Some(resume_at) = buffer.time_when_buffer_reaches(profile.prog_resume_watermark)
            {
                buffer.advance_to(resume_at);
                now = resume_at;
            }
        }

        let (chunk_media, throttle) = match buffer.phase() {
            // Mid-playback outage (or imminent one): smallest ranges,
            // full speed.
            PlayerPhase::Stalled => (profile.prog_recovery_chunk_secs, None),
            PlayerPhase::Playing if buffer.buffered_secs() < profile.prog_low_watermark => {
                (profile.prog_recovery_chunk_secs, None)
            }
            // Initial fill: moderate unthrottled ranges.
            PlayerPhase::StartUp => (profile.prog_startup_chunk_secs, None),
            // Comfortable steady state: large, server-paced ranges.
            _ => (profile.prog_steady_chunk_secs, Some(pacing_bps)),
        };
        let chunk_media = chunk_media.min(total_media - media_pos);
        let media_span = Duration::from_secs_f64(chunk_media);
        let bytes = ((video.chunk_bytes(itag, media_span, true, &mut rng) as f64)
            * profile.bitrate_scale) as u64;

        let result = engine.fetch(now, bytes, throttle);

        // Feed the arrival curve into the buffer: media proportional to
        // bytes, so a stall can begin (and be relieved) mid-chunk.
        for &(at, arrived) in &result.stats.arrivals {
            let media = chunk_media * arrived as f64 / bytes.max(1) as f64;
            buffer.push_media(at, media);
        }

        chunks.push(ChunkRecord {
            index: chunks.len() as u32,
            content_type: ContentType::Video,
            request_time: result.stats.start,
            arrival_time: result.stats.end,
            bytes,
            itag: Some(itag),
            media_secs: chunk_media,
            transport: TransportSummary::from(&result.stats),
        });

        media_pos += chunk_media;
        // Client think-time between range requests.
        let gap: f64 = rng.gen_range(0.005..0.060);
        now = result.stats.end + Duration::from_secs_f64(gap);
    }

    let segment_resolutions = chunks
        .iter()
        .filter(|c| c.content_type == ContentType::Video)
        .map(|_| itag.resolution())
        .collect();
    (chunks, buffer.finish(now, abandoned, segment_resolutions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Delivery;
    use vqoe_simnet::channel::Scenario;
    use vqoe_simnet::time::Instant;

    fn run(scenario: Scenario, idx: u64) -> (Vec<ChunkRecord>, GroundTruth) {
        let seeds = SeedSequence::new(2024);
        let config = SessionConfig {
            session_index: idx,
            scenario,
            delivery: Delivery::Progressive,
            start_time: Instant::ZERO,
            profile: Default::default(),
        };
        let mut meta_rng = seeds.child(0x5E55).stream(idx);
        let video = VideoMeta::sample(&mut meta_rng);
        let _ = crate::session::generate_session_id(&mut meta_rng);
        let patience = Patience::sample(&mut meta_rng);
        simulate_progressive(&config, &video, patience, &seeds)
    }

    #[test]
    fn healthy_session_covers_all_media_without_stalls() {
        // Static-home conditions comfortably exceed any ladder bitrate in
        // the common states; most sessions complete stall-free.
        let mut clean = 0;
        for idx in 0..20 {
            let (chunks, gt) = run(Scenario::StaticHome, idx);
            assert!(!chunks.is_empty());
            if gt.stalls.is_empty() && !gt.abandoned {
                clean += 1;
                let media: f64 = chunks.iter().map(|c| c.media_secs).sum();
                assert!(media > 29.0, "covered {media}s");
            }
        }
        assert!(clean >= 14, "only {clean}/20 clean sessions");
    }

    #[test]
    fn chunks_are_time_ordered() {
        let (chunks, _) = run(Scenario::StaticHome, 3);
        for w in chunks.windows(2) {
            assert!(w[1].request_time >= w[0].request_time);
            assert!(w[1].request_time >= w[0].arrival_time);
        }
    }

    #[test]
    fn all_chunks_share_one_quality() {
        let (chunks, gt) = run(Scenario::StaticHome, 5);
        let first = chunks[0].itag.unwrap();
        assert!(chunks.iter().all(|c| c.itag == Some(first)));
        assert!(gt
            .segment_resolutions
            .iter()
            .all(|&r| r == first.resolution()));
        assert_eq!(gt.switch_count(), 0);
    }

    #[test]
    fn degraded_scenarios_produce_stalls_somewhere() {
        let mut stalled_sessions = 0;
        for idx in 0..30 {
            let (_, gt) = run(Scenario::CongestedCell, idx);
            if gt.stall_count() > 0 {
                stalled_sessions += 1;
            }
        }
        assert!(
            stalled_sessions >= 3,
            "expected stalls in congested cell, saw {stalled_sessions}/30"
        );
    }

    #[test]
    fn steady_state_uses_larger_chunks_than_urgent() {
        // In a clean session the start-up chunks (urgent, 3 s of media)
        // are smaller in media terms than steady-state chunks (10 s).
        for idx in 0..20 {
            let (chunks, gt) = run(Scenario::StaticHome, idx);
            if gt.stalls.is_empty() && chunks.len() > 6 {
                let first = chunks.first().unwrap();
                let later_max = chunks
                    .iter()
                    .skip(2)
                    .map(|c| c.media_secs)
                    .fold(0.0f64, f64::max);
                let profile = crate::profile::StreamingProfile::default();
                assert!(first.media_secs <= profile.prog_startup_chunk_secs + 1e-9);
                assert!(later_max >= profile.prog_steady_chunk_secs - 1e-9);
                return;
            }
        }
        panic!("no suitable clean session found");
    }

    #[test]
    fn stall_time_respects_patience_plus_one_event() {
        // A viewer abandons once cumulative stalling exceeds patience;
        // total stalling can overshoot by at most one in-flight event.
        for idx in 0..25 {
            let (_, gt) = run(Scenario::Commuting, idx);
            if gt.abandoned {
                // patience ceiling is 90 s; one event can overshoot, but
                // not unboundedly (sessions are ≤ 600 s of media).
                assert!(
                    gt.total_stall_time().as_secs_f64() < 400.0,
                    "unbounded stalling: {}",
                    gt.total_stall_time()
                );
                return;
            }
        }
        // No abandonment in 25 commuting sessions is suspicious but not
        // impossible; don't fail hard. (Dataset-level tests cover rates.)
    }

    #[test]
    fn deterministic_trace() {
        let a = run(Scenario::Commuting, 7);
        let b = run(Scenario::Commuting, 7);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn media_accounting_is_consistent() {
        let (chunks, gt) = run(Scenario::StaticHome, 9);
        let fetched: f64 = chunks.iter().map(|c| c.media_secs).sum();
        // Played media cannot exceed fetched media.
        assert!(gt.media_played.as_secs_f64() <= fetched + 1e-6);
    }
}
