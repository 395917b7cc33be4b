//! Ground-truth extraction from cleartext weblogs (§3.2).
//!
//! This is the paper's actual training-data path: nobody hands the
//! operator playback logs — they are *reverse engineered from request
//! URIs*. Per session (grouped by the 16-character `cpn` session ID):
//!
//! * the per-chunk `itag` parameters give the representation sequence
//!   ("which we use to obtain the ground truth for the changes in
//!   representation quality throughout the session");
//! * the periodic playback statistics reports carry cumulative stall
//!   counts and durations plus the player state, so the last report
//!   reveals "if a video was played throughout or abandoned and ...
//!   the frequency and duration of stalls".
//!
//! The result intentionally contains *only* what the URIs expose — it is
//! the cleartext counterpart of the instrumented-handset logs of §5.1.

use crate::uri;
use crate::weblog::WeblogEntry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vqoe_player::{ContentType, Itag};
use vqoe_simnet::time::Instant;

/// One chunk recovered from a cleartext `videoplayback` URI.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtractedChunk {
    /// Request timestamp.
    pub timestamp: Instant,
    /// Last-byte arrival.
    pub arrival: Instant,
    /// Object size (from `clen`, cross-checkable against the logged
    /// transfer size).
    pub bytes: u64,
    /// Audio or video.
    pub content_type: ContentType,
    /// Representation (video chunks only).
    pub itag: Option<Itag>,
    /// Sequence number within the session.
    pub sq: u32,
}

/// Everything §3.2 recovers about one session from URIs alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtractedSession {
    /// The 16-character session ID.
    pub session_id: String,
    /// Chunks in request order.
    pub chunks: Vec<ExtractedChunk>,
    /// Total stall count from the final statistics report.
    pub stall_count: u32,
    /// Total stalled seconds from the final statistics report.
    pub stall_secs: f64,
    /// Player state in the final report (`"ended"`, `"paused"`, ...).
    pub final_state: String,
    /// Playhead position at the final report (seconds of media played).
    pub playhead_secs: f64,
}

impl ExtractedSession {
    /// Video-chunk resolution sequence, in playback (sq) order.
    pub fn resolution_sequence(&self) -> Vec<u32> {
        self.chunks
            .iter()
            .filter(|c| c.content_type == ContentType::Video)
            .filter_map(|c| c.itag.map(|i| i.resolution()))
            .collect()
    }

    /// Mean video resolution μ (the §4.2 labelling input).
    pub fn avg_resolution(&self) -> f64 {
        let seq = self.resolution_sequence();
        if seq.is_empty() {
            return 0.0;
        }
        seq.iter().map(|&r| r as f64).sum::<f64>() / seq.len() as f64
    }

    /// Rebuffering Ratio (eq. 1) of the report totals, stalled over
    /// played + stalled time: [`vqoe_player::rebuffering_ratio`].
    pub fn rebuffering_ratio(&self) -> f64 {
        let total = self.playhead_secs + self.stall_secs;
        vqoe_player::rebuffering_ratio(self.stall_secs, total, self.stall_count > 0)
    }

    /// Whether the viewer abandoned the video (final state not "ended").
    pub fn abandoned(&self) -> bool {
        self.final_state != "ended"
    }
}

/// Extract all sessions from a cleartext weblog stream. Entries without
/// URIs (encrypted) or with unparseable paths are skipped; sessions are
/// returned in order of first appearance.
pub fn extract_sessions(entries: &[WeblogEntry]) -> Vec<ExtractedSession> {
    let mut order: Vec<String> = Vec::new();
    let mut sessions: BTreeMap<String, ExtractedSession> = BTreeMap::new();
    let mut last_report_ts: BTreeMap<String, Instant> = BTreeMap::new();

    for e in entries {
        let Some(uri_str) = e.uri.as_deref() else {
            continue;
        };
        let chunk = uri::parse_videoplayback(uri_str);
        let report = uri::parse_stats_report(uri_str);
        let id = chunk.as_ref().map(|p| &p.session_id);
        let Some(id) = id.or(report.as_ref().map(|r| &r.session_id)) else {
            continue;
        };
        let session = sessions.entry(id.clone()).or_insert_with(|| {
            order.push(id.clone());
            ExtractedSession {
                session_id: id.clone(),
                chunks: Vec::new(),
                stall_count: 0,
                stall_secs: 0.0,
                final_state: String::new(),
                playhead_secs: 0.0,
            }
        });
        if let Some(p) = chunk {
            session.chunks.push(ExtractedChunk {
                timestamp: e.timestamp,
                arrival: e.arrival_time(),
                bytes: p.clen,
                content_type: if p.mime == "audio" {
                    ContentType::Audio
                } else {
                    ContentType::Video
                },
                itag: Itag::from_itag_code(p.itag_code),
                sq: p.sq,
            });
        }
        if let Some(r) = report {
            // Reports are cumulative: keep the latest by timestamp.
            let is_newer = last_report_ts
                .get(&r.session_id)
                .map_or(true, |&t| e.timestamp >= t);
            if is_newer {
                last_report_ts.insert(r.session_id.clone(), e.timestamp);
                session.stall_count = r.stall_count;
                session.stall_secs = r.stall_secs;
                session.final_state = r.state.clone();
                session.playhead_secs = r.playhead_secs;
            }
        }
    }

    let mut out: Vec<ExtractedSession> = Vec::with_capacity(order.len());
    for id in order {
        // Every id in `order` was inserted into `sessions` alongside it.
        if let Some(mut s) = sessions.remove(&id) {
            s.chunks.sort_by_key(|c| (c.timestamp, c.sq));
            out.push(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture_session, CaptureConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vqoe_player::{simulate_session, AbrKind, Delivery, SessionConfig};
    use vqoe_simnet::channel::Scenario;
    use vqoe_simnet::rng::SeedSequence;
    use vqoe_simnet::time::Duration;

    fn captured(idx: u64, scenario: Scenario) -> (vqoe_player::SessionTrace, Vec<WeblogEntry>) {
        let seeds = SeedSequence::new(808);
        let trace = simulate_session(
            &SessionConfig {
                session_index: idx,
                scenario,
                delivery: Delivery::Dash(AbrKind::Hybrid),
                start_time: Instant::from_secs(30),
                profile: Default::default(),
            },
            &seeds,
        );
        let mut rng = StdRng::seed_from_u64(idx);
        let entries = capture_session(
            &trace,
            &CaptureConfig {
                encrypted: false,
                subscriber_id: 9,
            },
            &mut rng,
        )
        .expect("simulated traces always capture");
        (trace, entries)
    }

    #[test]
    fn extraction_recovers_the_session_id_and_chunks() {
        let (trace, entries) = captured(0, Scenario::StaticHome);
        let sessions = extract_sessions(&entries);
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert_eq!(s.session_id, trace.session_id);
        assert_eq!(s.chunks.len(), trace.chunks.len());
    }

    #[test]
    fn extraction_recovers_the_resolution_sequence() {
        let (trace, entries) = captured(1, Scenario::StaticHome);
        let s = &extract_sessions(&entries)[0];
        assert_eq!(
            s.resolution_sequence(),
            trace.ground_truth.segment_resolutions
        );
        assert!((s.avg_resolution() - trace.ground_truth.avg_resolution()).abs() < 1e-9);
    }

    #[test]
    fn extraction_recovers_stall_totals() {
        // Scan commuting sessions until one stalls, then check totals.
        for idx in 0..40 {
            let (trace, entries) = captured(idx, Scenario::Commuting);
            let s = &extract_sessions(&entries)[0];
            assert_eq!(s.stall_count as usize, trace.ground_truth.stall_count());
            assert!(
                (s.stall_secs - trace.ground_truth.total_stall_time().as_secs_f64()).abs() < 1e-3
            );
            if trace.ground_truth.stall_count() > 0 {
                assert!(s.rebuffering_ratio() > 0.0);
                return;
            }
        }
        panic!("no stalled commuting session in 40 tries");
    }

    #[test]
    fn a_malformed_later_report_keeps_the_last_valid_one() {
        let (_, mut entries) = captured(2, Scenario::StaticHome);
        let valid = extract_sessions(&entries);
        let mut bad = entries
            .iter()
            .rfind(|e| uri::parse_stats_report(e.uri.as_deref().unwrap_or("")).is_some())
            .expect("cleartext sessions carry playback reports")
            .clone();
        let mut report = uri::parse_stats_report(bad.uri.as_deref().unwrap_or("")).unwrap();
        report.stall_secs = f64::NAN;
        bad.uri = Some(uri::encode_stats_report(&report));
        bad.timestamp += Duration::from_secs(1);
        entries.push(bad);
        assert_eq!(extract_sessions(&entries), valid);
    }

    #[test]
    fn abandonment_flag_follows_final_state() {
        for idx in 0..60 {
            let (trace, entries) = captured(idx, Scenario::Commuting);
            let s = &extract_sessions(&entries)[0];
            assert_eq!(s.abandoned(), trace.ground_truth.abandoned);
            if trace.ground_truth.abandoned {
                return;
            }
        }
        // Acceptable: abandonment may be rare at this sample size.
    }

    #[test]
    fn multiple_interleaved_sessions_are_separated() {
        let (t1, mut e1) = captured(10, Scenario::StaticHome);
        let (t2, e2) = captured(11, Scenario::StaticHome);
        e1.extend(e2);
        e1.sort_by_key(|e| e.timestamp);
        let sessions = extract_sessions(&e1);
        assert_eq!(sessions.len(), 2);
        let ids: Vec<&str> = sessions.iter().map(|s| s.session_id.as_str()).collect();
        assert!(ids.contains(&t1.session_id.as_str()));
        assert!(ids.contains(&t2.session_id.as_str()));
        for s in &sessions {
            let expected = if s.session_id == t1.session_id {
                &t1
            } else {
                &t2
            };
            assert_eq!(s.chunks.len(), expected.chunks.len());
        }
    }

    #[test]
    fn encrypted_entries_yield_nothing() {
        let seeds = SeedSequence::new(808);
        let trace = simulate_session(
            &SessionConfig {
                session_index: 0,
                scenario: Scenario::StaticHome,
                delivery: Delivery::Dash(AbrKind::Hybrid),
                start_time: Instant::from_secs(30),
                profile: Default::default(),
            },
            &seeds,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let entries = capture_session(
            &trace,
            &CaptureConfig {
                encrypted: true,
                subscriber_id: 9,
            },
            &mut rng,
        )
        .expect("simulated traces always capture");
        assert!(extract_sessions(&entries).is_empty());
    }
}
