//! Rendering simulated sessions into proxy weblog streams.
//!
//! A real video session does not hit the proxy as bare media chunks: the
//! player first loads the watch page and thumbnails ("requests to
//! m.youtube.com and i.ytimg.com which are responsible for downloading
//! multiple web objects such as HTML, scripts and images", §5.2), then
//! streams chunks from a `googlevideo.com` cache, and periodically pings
//! the stats endpoint with playback reports (§3.2). The reassembly step
//! for encrypted traffic leans on exactly this structure, so the capture
//! stage reproduces all three transaction populations.

use crate::error::TelemetryError;
use crate::uri;
use crate::weblog::{EntryKind, WeblogEntry};
use rand::rngs::StdRng;
use rand::Rng;
use vqoe_player::{ContentType, SessionTrace, TransportSummary};
use vqoe_simnet::time::{Duration, Instant};

/// How a session is rendered into weblog entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureConfig {
    /// Strip URIs (TLS view) when true.
    pub encrypted: bool,
    /// Anonymized subscriber the entries belong to.
    pub subscriber_id: u64,
}

/// Interval between playback statistics reports.
const STATS_INTERVAL: Duration = Duration(30_000_000);

/// Render one simulated session into its weblog entries, in timestamp
/// order.
///
/// # Errors
///
/// Returns [`TelemetryError::MissingItag`] if a video chunk of `trace`
/// lacks its itag annotation — possible only for traces deserialized
/// from a corrupt or hand-edited file, never for simulator output.
pub fn capture_session(
    trace: &SessionTrace,
    cfg: &CaptureConfig,
    rng: &mut StdRng,
) -> Result<Vec<WeblogEntry>, TelemetryError> {
    let mut entries = Vec::new();
    let cache_host = media_host(rng);

    // --- 1. Watch-page burst, just before playback begins ---
    let page_objects = rng.gen_range(4..=9);
    let page_start = Instant(
        trace
            .config
            .start_time
            .as_micros()
            .saturating_sub(rng.gen_range(800_000..1_600_000)),
    );
    let mut t = page_start;
    for i in 0..page_objects {
        let (host, bytes, path): (&str, u64, String) = if i == 0 {
            (
                "m.youtube.com",
                rng.gen_range(30_000..90_000),
                "/watch?v=dQw4w9WgXcQ".to_string(),
            )
        } else if rng.gen_bool(0.5) {
            (
                "m.youtube.com",
                rng.gen_range(15_000..150_000),
                format!("/s/player/{i}/base.js"),
            )
        } else {
            (
                "i.ytimg.com",
                rng.gen_range(4_000..40_000),
                format!("/vi/thumb{i}/hqdefault.jpg"),
            )
        };
        let dur = Duration::from_millis(rng.gen_range(40..350));
        entries.push(WeblogEntry {
            timestamp: t,
            subscriber_id: cfg.subscriber_id,
            host: host.to_string(),
            uri: (!cfg.encrypted).then_some(path),
            bytes,
            duration: dur,
            transport: synthetic_small_transport(rng),
            encrypted: cfg.encrypted,
            kind: EntryKind::PageLoad,
        });
        t += Duration::from_millis(rng.gen_range(20..150));
    }

    // --- 2. Media chunks ---
    for chunk in &trace.chunks {
        let (mime, itag_code) = match chunk.content_type {
            ContentType::Video => {
                let itag = chunk.itag.ok_or_else(|| TelemetryError::MissingItag {
                    session_id: trace.session_id.clone(),
                    chunk_index: u64::from(chunk.index),
                })?;
                ("video", itag.itag_code())
            }
            ContentType::Audio => ("audio", vqoe_player::catalog::AUDIO_ITAG_CODE),
        };
        let path = uri::encode_videoplayback(&uri::VideoPlaybackParams {
            session_id: trace.session_id.clone(),
            itag_code,
            mime: mime.to_string(),
            clen: chunk.bytes,
            dur_ms: (chunk.media_secs * 1000.0).round() as u64,
            sq: chunk.index,
        });
        entries.push(WeblogEntry {
            timestamp: chunk.request_time,
            subscriber_id: cfg.subscriber_id,
            host: cache_host.clone(),
            uri: (!cfg.encrypted).then_some(path),
            bytes: chunk.bytes,
            duration: chunk.arrival_time.duration_since(chunk.request_time),
            transport: chunk.transport,
            encrypted: cfg.encrypted,
            kind: EntryKind::MediaChunk,
        });
    }

    // --- 3. Playback statistics reports ---
    let gt = &trace.ground_truth;
    let mut report_t = trace.config.start_time + STATS_INTERVAL;
    while report_t < gt.session_end {
        entries.push(stats_entry(trace, cfg, report_t, "playing", rng));
        report_t += STATS_INTERVAL;
    }
    let final_state = if gt.abandoned { "paused" } else { "ended" };
    entries.push(stats_entry(trace, cfg, gt.session_end, final_state, rng));

    entries.sort_by_key(|e| e.timestamp);
    Ok(entries)
}

fn stats_entry(
    trace: &SessionTrace,
    cfg: &CaptureConfig,
    at: Instant,
    state: &str,
    rng: &mut StdRng,
) -> WeblogEntry {
    let gt = &trace.ground_truth;
    // Cumulative stall accounting as of `at`.
    let mut count = 0u32;
    let mut secs = 0.0f64;
    for s in &gt.stalls {
        if s.start < at {
            count += 1;
            let end = s.start + s.duration;
            let visible = if end <= at {
                s.duration
            } else {
                at.duration_since(s.start)
            };
            secs += visible.as_secs_f64();
        }
    }
    let playhead = (at.duration_since(trace.config.start_time).as_secs_f64()
        - secs
        - gt.startup_delay.as_secs_f64())
    .clamp(0.0, trace.video.duration.as_secs_f64());
    let report = uri::PlaybackReport {
        session_id: trace.session_id.clone(),
        playhead_secs: playhead,
        stall_count: count,
        stall_secs: secs,
        state: state.to_string(),
    };
    WeblogEntry {
        timestamp: at,
        subscriber_id: cfg.subscriber_id,
        host: "s.youtube.com".to_string(),
        uri: (!cfg.encrypted).then(|| uri::encode_stats_report(&report)),
        bytes: rng.gen_range(600..2_000),
        duration: Duration::from_millis(rng.gen_range(40..250)),
        transport: synthetic_small_transport(rng),
        encrypted: cfg.encrypted,
        kind: EntryKind::StatsReport,
    }
}

/// A plausible `googlevideo.com` edge-cache hostname.
pub fn media_host(rng: &mut StdRng) -> String {
    const HEX: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let shard: u8 = rng.gen_range(1..9);
    let tag: String = (0..8)
        .map(|_| HEX[rng.gen_range(0..HEX.len())] as char)
        .collect();
    format!("r{shard}---sn-{tag}.googlevideo.com")
}

/// Background (non-service) traffic from the same subscriber, uniformly
/// spread over `[from, to)` — the clutter the §5.2 domain filter must
/// remove.
pub fn generate_noise(
    subscriber_id: u64,
    from: Instant,
    to: Instant,
    count: usize,
    rng: &mut StdRng,
) -> Vec<WeblogEntry> {
    const HOSTS: [&str; 6] = [
        "graph.facebook.com",
        "api.whatsapp.com",
        "cdn.adnetwork.example",
        "www.google.com",
        "mail.provider.example",
        "news.site.example",
    ];
    let span = to.duration_since(from).as_micros().max(1);
    let mut out: Vec<WeblogEntry> = (0..count)
        .map(|_| {
            let offset = rng.gen_range(0..span);
            WeblogEntry {
                timestamp: from + Duration(offset),
                subscriber_id,
                host: HOSTS[rng.gen_range(0..HOSTS.len())].to_string(),
                uri: None,
                bytes: rng.gen_range(300..200_000),
                duration: Duration::from_millis(rng.gen_range(20..2_000)),
                transport: synthetic_small_transport(rng),
                encrypted: true,
                kind: EntryKind::Noise,
            }
        })
        .collect();
    out.sort_by_key(|e| e.timestamp);
    out
}

/// Transport annotations for small, non-media transactions (page loads,
/// stat pings, noise). These never feed the detectors; they only need to
/// be structurally valid.
fn synthetic_small_transport(rng: &mut StdRng) -> TransportSummary {
    let rtt = rng.gen_range(0.04..0.25);
    TransportSummary {
        rtt_min: rtt,
        rtt_mean: rtt * rng.gen_range(1.0..1.3),
        rtt_max: rtt * rng.gen_range(1.3..2.0),
        bdp_mean: rng.gen_range(20_000.0..200_000.0),
        bif_mean: rng.gen_range(3_000.0..30_000.0),
        bif_max: rng.gen_range(30_000.0..90_000.0),
        loss_frac: 0.0,
        retx_frac: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vqoe_player::{simulate_session, AbrKind, Delivery, SessionConfig};
    use vqoe_simnet::channel::Scenario;
    use vqoe_simnet::rng::SeedSequence;

    fn trace(idx: u64, delivery: Delivery) -> SessionTrace {
        let seeds = SeedSequence::new(99);
        simulate_session(
            &SessionConfig {
                session_index: idx,
                scenario: Scenario::StaticHome,
                delivery,
                start_time: Instant::from_secs(10),
                profile: Default::default(),
            },
            &seeds,
        )
    }

    fn capture(encrypted: bool) -> (SessionTrace, Vec<WeblogEntry>) {
        let t = trace(0, Delivery::Dash(AbrKind::Hybrid));
        let mut rng = StdRng::seed_from_u64(5);
        let entries = capture_session(
            &t,
            &CaptureConfig {
                encrypted,
                subscriber_id: 42,
            },
            &mut rng,
        )
        .expect("simulated traces always capture");
        (t, entries)
    }

    #[test]
    fn missing_itag_is_an_error_not_a_panic() {
        let mut t = trace(0, Delivery::Dash(AbrKind::Hybrid));
        let stripped = t
            .chunks
            .iter_mut()
            .find(|c| c.content_type == ContentType::Video)
            .map(|c| c.itag = None)
            .is_some();
        assert!(stripped, "trace has no video chunks to corrupt");
        let mut rng = StdRng::seed_from_u64(5);
        let res = capture_session(
            &t,
            &CaptureConfig {
                encrypted: false,
                subscriber_id: 1,
            },
            &mut rng,
        );
        assert!(matches!(res, Err(TelemetryError::MissingItag { .. })));
    }

    #[test]
    fn cleartext_entries_carry_uris_encrypted_do_not() {
        let (_, clear) = capture(false);
        let (_, enc) = capture(true);
        assert!(clear.iter().all(|e| e.uri.is_some()));
        assert!(enc.iter().all(|e| e.uri.is_none()));
        assert!(enc.iter().all(|e| e.encrypted));
    }

    #[test]
    fn entries_are_time_ordered_and_start_with_page_load() {
        let (_, entries) = capture(false);
        for w in entries.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
        assert_eq!(entries[0].kind, EntryKind::PageLoad);
        assert!(entries[0].is_page_host());
    }

    #[test]
    fn every_chunk_becomes_one_media_entry() {
        let (t, entries) = capture(false);
        let media: Vec<&WeblogEntry> = entries
            .iter()
            .filter(|e| e.kind == EntryKind::MediaChunk)
            .collect();
        assert_eq!(media.len(), t.chunks.len());
        for (e, c) in media.iter().zip(t.chunks.iter()) {
            assert_eq!(e.bytes, c.bytes);
            assert_eq!(e.timestamp, c.request_time);
            assert!(e.is_media_host());
        }
    }

    #[test]
    fn chunk_uris_parse_back_to_ground_truth() {
        let (t, entries) = capture(false);
        let mut parsed = 0;
        for e in entries.iter().filter(|e| e.kind == EntryKind::MediaChunk) {
            let p = uri::parse_videoplayback(e.uri.as_ref().unwrap()).unwrap();
            assert_eq!(p.session_id, t.session_id);
            assert_eq!(p.clen, e.bytes);
            parsed += 1;
        }
        assert!(parsed > 0);
    }

    #[test]
    fn final_stats_report_matches_session_ground_truth() {
        let (t, entries) = capture(false);
        let last_report = entries
            .iter()
            .rfind(|e| e.kind == EntryKind::StatsReport)
            .unwrap();
        let r = uri::parse_stats_report(last_report.uri.as_ref().unwrap()).unwrap();
        assert_eq!(r.stall_count as usize, t.ground_truth.stall_count());
        assert!((r.stall_secs - t.ground_truth.total_stall_time().as_secs_f64()).abs() < 1e-3);
        assert_eq!(
            r.state,
            if t.ground_truth.abandoned {
                "paused"
            } else {
                "ended"
            }
        );
    }

    #[test]
    fn stats_reports_are_cumulative_and_monotone() {
        let (_, entries) = capture(false);
        let mut prev_count = 0u32;
        let mut prev_secs = 0.0f64;
        for e in entries.iter().filter(|e| e.kind == EntryKind::StatsReport) {
            let r = uri::parse_stats_report(e.uri.as_ref().unwrap()).unwrap();
            assert!(r.stall_count >= prev_count);
            assert!(r.stall_secs >= prev_secs - 1e-9);
            prev_count = r.stall_count;
            prev_secs = r.stall_secs;
        }
    }

    #[test]
    fn media_hosts_look_like_edge_caches() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let h = media_host(&mut rng);
            assert!(h.ends_with(".googlevideo.com"), "{h}");
            assert!(h.starts_with('r'));
        }
    }

    #[test]
    fn noise_is_outside_the_service_domain_filter() {
        let mut rng = StdRng::seed_from_u64(9);
        let noise = generate_noise(1, Instant::ZERO, Instant::from_secs(600), 50, &mut rng);
        assert_eq!(noise.len(), 50);
        assert!(noise.iter().all(|e| !e.is_service_host()));
        for w in noise.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
    }
}
