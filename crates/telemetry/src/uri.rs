//! YouTube-shaped URI metadata codec.
//!
//! §3.2 of the paper reverse-engineers three kinds of URI metadata from
//! cleartext requests:
//!
//! * **content stats** in `videoplayback` chunk URIs — notably `itag`
//!   ("used to specify the bit-rate, frame-rate and resolution of the
//!   segment") and the content type (video vs audio, container);
//! * the unique 16-character **session ID** that groups all weblogs of
//!   one session;
//! * **playback stats** in periodic reports "sent from the player to
//!   Google servers during the playback", whose flags reveal stalls and
//!   their durations.
//!
//! We emit and parse the same shapes, so the ground-truth extraction in
//! `vqoe-features`/`vqoe-core` exercises the identical code path the
//! paper used: *parse URIs → recover session grouping, representations
//! and stall history*.

use serde::{Deserialize, Serialize};

/// Parsed parameters of a `/videoplayback` chunk URI.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VideoPlaybackParams {
    /// The 16-character session ID (`cpn` parameter).
    pub session_id: String,
    /// The representation code (`itag` parameter).
    pub itag_code: u32,
    /// MIME top-level type: `"video"` or `"audio"`.
    pub mime: String,
    /// Content length in bytes (`clen`).
    pub clen: u64,
    /// Media duration of the chunk, milliseconds (`dur`).
    pub dur_ms: u64,
    /// Sequence number of the chunk within the session.
    pub sq: u32,
}

/// A cumulative playback statistics report (the `api/stats/playback`
/// ping). Fields mirror what the paper mines: playback state flags and
/// cumulative stall accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlaybackReport {
    /// Session ID (`cpn`).
    pub session_id: String,
    /// Playhead position, seconds (`cmt`).
    pub playhead_secs: f64,
    /// Cumulative number of rebuffering events so far (`bc`).
    pub stall_count: u32,
    /// Cumulative stalled time so far, seconds (`bt`).
    pub stall_secs: f64,
    /// Player state: `"playing"`, `"paused"`, `"buffering"`, `"ended"`
    /// (`state`).
    pub state: String,
}

/// Render a `/videoplayback` URI.
pub fn encode_videoplayback(p: &VideoPlaybackParams) -> String {
    format!(
        "/videoplayback?cpn={}&itag={}&mime={}%2Fmp4&clen={}&dur={}.{:03}&sq={}&source=youtube",
        p.session_id,
        p.itag_code,
        p.mime,
        p.clen,
        p.dur_ms / 1000,
        p.dur_ms % 1000,
        p.sq
    )
}

/// Parse a `/videoplayback` URI. Returns `None` for non-chunk URIs or
/// missing/malformed parameters.
pub fn parse_videoplayback(uri: &str) -> Option<VideoPlaybackParams> {
    let query = uri.strip_prefix("/videoplayback?")?;
    let kv = parse_query(query);
    let session_id = kv.get("cpn")?.to_string();
    if session_id.len() != 16 {
        return None;
    }
    let itag_code = kv.get("itag")?.parse().ok()?;
    let mime = kv.get("mime")?.split('%').next()?.to_string();
    let clen = kv.get("clen")?.parse().ok()?;
    let dur_str = kv.get("dur")?;
    let dur_ms = parse_dur_ms(dur_str)?;
    let sq = kv.get("sq")?.parse().ok()?;
    Some(VideoPlaybackParams {
        session_id,
        itag_code,
        mime,
        clen,
        dur_ms,
        sq,
    })
}

/// Render a playback statistics report URI.
pub fn encode_stats_report(r: &PlaybackReport) -> String {
    format!(
        "/api/stats/playback?cpn={}&cmt={:.3}&bc={}&bt={:.3}&state={}&ns=yt",
        r.session_id, r.playhead_secs, r.stall_count, r.stall_secs, r.state
    )
}

/// Parse a playback statistics report URI.
pub fn parse_stats_report(uri: &str) -> Option<PlaybackReport> {
    let query = uri.strip_prefix("/api/stats/playback?")?;
    let kv = parse_query(query);
    Some(PlaybackReport {
        session_id: kv.get("cpn")?.to_string(),
        playhead_secs: parse_secs(kv.get("cmt")?)?,
        stall_count: kv.get("bc")?.parse().ok()?,
        stall_secs: parse_secs(kv.get("bt")?)?,
        state: kv.get("state")?.to_string(),
    })
}

/// A report's seconds value: finite and non-negative, or the report is
/// malformed (a NaN or negative stall time would poison eq. 1).
fn parse_secs(s: &str) -> Option<f64> {
    s.parse().ok().filter(|v: &f64| v.is_finite() && *v >= 0.0)
}

fn parse_query(query: &str) -> std::collections::BTreeMap<&str, &str> {
    query
        .split('&')
        .filter_map(|pair| {
            let mut it = pair.splitn(2, '=');
            Some((it.next()?, it.next()?))
        })
        .collect()
}

fn parse_dur_ms(s: &str) -> Option<u64> {
    let mut it = s.splitn(2, '.');
    let secs: u64 = it.next()?.parse().ok()?;
    let frac = it.next().unwrap_or("0");
    // Pad/truncate the fraction to milliseconds.
    let frac_ms: u64 = format!("{:0<3}", frac)
        .chars()
        .take(3)
        .collect::<String>()
        .parse()
        .ok()?;
    Some(secs * 1000 + frac_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn params() -> VideoPlaybackParams {
        VideoPlaybackParams {
            session_id: "AbCdEfGhIjKlMnOp".to_string(),
            itag_code: 134,
            mime: "video".to_string(),
            clen: 345_678,
            dur_ms: 5_005,
            sq: 7,
        }
    }

    #[test]
    fn videoplayback_roundtrip() {
        let p = params();
        let uri = encode_videoplayback(&p);
        assert!(uri.starts_with("/videoplayback?"));
        assert_eq!(parse_videoplayback(&uri), Some(p));
    }

    #[test]
    fn audio_mime_roundtrips() {
        let mut p = params();
        p.mime = "audio".to_string();
        p.itag_code = 140;
        let back = parse_videoplayback(&encode_videoplayback(&p)).unwrap();
        assert_eq!(back.mime, "audio");
        assert_eq!(back.itag_code, 140);
    }

    #[test]
    fn non_chunk_uris_are_rejected() {
        assert_eq!(parse_videoplayback("/watch?v=abc"), None);
        assert_eq!(parse_videoplayback("/videoplayback?itag=134"), None);
        assert_eq!(
            parse_videoplayback(
                "/videoplayback?cpn=short&itag=1&mime=video%2Fmp4&clen=1&dur=1.0&sq=0"
            ),
            None,
            "session IDs must be 16 chars"
        );
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        let uri =
            "/videoplayback?cpn=AbCdEfGhIjKlMnOp&itag=xx&mime=video%2Fmp4&clen=1&dur=1.0&sq=0";
        assert_eq!(parse_videoplayback(uri), None);
    }

    #[test]
    fn stats_report_roundtrip() {
        let r = PlaybackReport {
            session_id: "AbCdEfGhIjKlMnOp".to_string(),
            playhead_secs: 63.25,
            stall_count: 2,
            stall_secs: 7.5,
            state: "playing".to_string(),
        };
        let uri = encode_stats_report(&r);
        let back = parse_stats_report(&uri).unwrap();
        assert_eq!(back.session_id, r.session_id);
        assert_eq!(back.stall_count, 2);
        assert!((back.stall_secs - 7.5).abs() < 1e-9);
        assert!((back.playhead_secs - 63.25).abs() < 1e-9);
        assert_eq!(back.state, "playing");
    }

    #[test]
    fn stats_report_rejects_non_finite_or_negative_seconds() {
        for (cmt, bt) in [
            (1.0, f64::NAN),
            (1.0, f64::INFINITY),
            (1.0, -1.0),
            (f64::NAN, 0.0),
        ] {
            let uri = encode_stats_report(&PlaybackReport {
                session_id: "AbCdEfGhIjKlMnOp".to_string(),
                playhead_secs: cmt,
                stall_count: 1,
                stall_secs: bt,
                state: "playing".to_string(),
            });
            assert_eq!(parse_stats_report(&uri), None, "{uri}");
        }
    }

    #[test]
    fn stats_parser_rejects_chunk_uris_and_vice_versa() {
        let r = PlaybackReport {
            session_id: "AbCdEfGhIjKlMnOp".to_string(),
            playhead_secs: 1.0,
            stall_count: 0,
            stall_secs: 0.0,
            state: "playing".to_string(),
        };
        assert_eq!(parse_videoplayback(&encode_stats_report(&r)), None);
        assert_eq!(parse_stats_report(&encode_videoplayback(&params())), None);
    }

    #[test]
    fn dur_parsing_handles_fraction_forms() {
        assert_eq!(parse_dur_ms("5.005"), Some(5005));
        assert_eq!(parse_dur_ms("5.5"), Some(5500));
        assert_eq!(parse_dur_ms("5"), Some(5000));
        assert_eq!(parse_dur_ms("abc"), None);
    }

    mod adversarial {
        //! Seeded mutation corpus: the parsers must treat a hostile tap's
        //! damaged URIs as data, not as a crash surface. Every mutation
        //! must yield `Some` or `None` — never a panic — and mutations
        //! that garble a required field must yield `None`.
        use super::*;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        /// Truncate at a random char boundary, shuffle the `&`-separated
        /// pairs, or pad with junk — the three damage shapes the chaos
        /// tap's export-corruption model produces.
        fn mutate(uri: &str, rng: &mut StdRng) -> String {
            match rng.gen_range(0u32..4) {
                0 => {
                    let cut = rng.gen_range(0..=uri.len());
                    let mut end = cut;
                    while end > 0 && !uri.is_char_boundary(end) {
                        end -= 1;
                    }
                    uri[..end].to_string()
                }
                1 => {
                    let (path, query) = uri.split_once('?').unwrap_or((uri, ""));
                    let mut pairs: Vec<&str> = query.split('&').collect();
                    pairs.shuffle(rng);
                    format!("{path}?{}", pairs.join("&"))
                }
                2 => {
                    let junk: String = (0..rng.gen_range(1..40usize))
                        .map(|_| char::from(rng.gen_range(33u8..127)))
                        .collect();
                    format!("{uri}&{junk}")
                }
                _ => {
                    // Garble one required field's value in place.
                    let key = [
                        "cpn=", "itag=", "clen=", "dur=", "sq=", "cmt=", "bc=", "bt=",
                    ][rng.gen_range(0..8usize)];
                    uri.replace(key, &format!("{key}\u{fffd}%%"))
                }
            }
        }

        #[test]
        fn mutated_chunk_uris_never_panic() {
            let mut rng = StdRng::seed_from_u64(2024);
            let clean = encode_videoplayback(&params());
            for _ in 0..2000 {
                let m = mutate(&clean, &mut rng);
                // Must not panic; a `Some` is only legal if the mutation
                // preserved every required field (e.g. a pure reorder).
                let _ = parse_videoplayback(&m);
                let _ = parse_stats_report(&m);
            }
        }

        #[test]
        fn mutated_stats_uris_never_panic() {
            let mut rng = StdRng::seed_from_u64(4048);
            let clean = encode_stats_report(&PlaybackReport {
                session_id: "AbCdEfGhIjKlMnOp".to_string(),
                playhead_secs: 12.5,
                stall_count: 1,
                stall_secs: 3.25,
                state: "buffering".to_string(),
            });
            for _ in 0..2000 {
                let m = mutate(&clean, &mut rng);
                let _ = parse_stats_report(&m);
                let _ = parse_videoplayback(&m);
            }
        }

        #[test]
        fn garbled_required_fields_are_rejected() {
            let clean = encode_videoplayback(&params());
            for key in ["cpn=", "itag=", "clen=", "dur=", "sq="] {
                let garbled = clean.replace(key, &format!("{key}\u{fffd}%%"));
                assert_eq!(parse_videoplayback(&garbled), None, "key {key}");
            }
        }

        #[test]
        fn truncation_inside_the_query_is_rejected() {
            let clean = encode_videoplayback(&params());
            // Any cut that loses the trailing required params must fail.
            for end in "/videoplayback?cpn=".len()..clean.find("&sq=").unwrap() {
                if !clean.is_char_boundary(end) {
                    continue;
                }
                assert_eq!(parse_videoplayback(&clean[..end]), None, "cut at {end}");
            }
        }

        #[test]
        fn pure_pair_reordering_still_decodes() {
            // Reordering query pairs damages nothing: the codec is a map.
            let p = params();
            let uri = format!(
                "/videoplayback?sq={}&dur={}.{:03}&clen={}&mime={}%2Fmp4&itag={}&cpn={}",
                p.sq,
                p.dur_ms / 1000,
                p.dur_ms % 1000,
                p.clen,
                p.mime,
                p.itag_code,
                p.session_id
            );
            assert_eq!(parse_videoplayback(&uri), Some(p));
        }

        #[test]
        fn junk_padding_is_ignored_not_fatal() {
            let clean = encode_videoplayback(&params());
            let padded = format!("{clean}&&&=&x&&junk==%%&\u{fffd}=\u{fffd}");
            assert_eq!(parse_videoplayback(&padded), Some(params()));
        }
    }

    proptest! {
        #[test]
        fn prop_videoplayback_roundtrip(
            itag in 1u32..400,
            clen in 1u64..100_000_000,
            dur_ms in 0u64..600_000,
            sq in 0u32..10_000,
            audio in proptest::bool::ANY,
        ) {
            let p = VideoPlaybackParams {
                session_id: "0123456789abcdef".to_string(),
                itag_code: itag,
                mime: if audio { "audio" } else { "video" }.to_string(),
                clen,
                dur_ms,
                sq,
            };
            prop_assert_eq!(parse_videoplayback(&encode_videoplayback(&p)), Some(p));
        }

        #[test]
        fn prop_stats_roundtrip(
            playhead in 0.0f64..10_000.0,
            bc in 0u32..100,
            bt in 0.0f64..1_000.0,
        ) {
            let r = PlaybackReport {
                session_id: "0123456789abcdef".to_string(),
                playhead_secs: playhead,
                stall_count: bc,
                stall_secs: bt,
                state: "buffering".to_string(),
            };
            let back = parse_stats_report(&encode_stats_report(&r)).unwrap();
            prop_assert_eq!(back.stall_count, bc);
            prop_assert!((back.stall_secs - bt).abs() < 1e-3);
            prop_assert!((back.playhead_secs - playhead).abs() < 1e-3);
        }
    }
}
