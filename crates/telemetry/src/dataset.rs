//! Dataset joining and persistence.
//!
//! §5.2: after reassembly, "the two datasets can be easily joined by
//! matching the respective timestamps and the chunk count per session" —
//! the instrumented handset's ground truth on one side, the proxy's
//! encrypted weblogs on the other. [`match_sessions`] implements that
//! matching over session spans and [`join_sessions`] applies it to
//! reassembled sessions; the JSONL helpers persist any serializable dataset line by
//! line so experiment stages can be run and inspected independently.

use crate::error::TelemetryError;
use crate::reassembly::ReassembledSession;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use vqoe_player::SessionTrace;
use vqoe_simnet::time::Instant;

/// A session matched to its ground-truth trace.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinedSession {
    /// Index into the matched session list (the reassembled sessions,
    /// for [`join_sessions`]).
    pub reassembled_idx: usize,
    /// Index into the ground-truth trace list.
    pub trace_idx: usize,
    /// Match quality in [0, 1]: temporal-overlap fraction weighted by
    /// chunk-count agreement.
    pub score: f64,
}

/// What the §5.2 joining rule sees of a session: its time span and its
/// chunk count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpan {
    /// First chunk request.
    pub start: Instant,
    /// Last chunk arrival.
    pub end: Instant,
    /// Chunks in the session.
    pub chunks: usize,
}

impl SessionSpan {
    /// A ground-truth trace's span. A chunkless trace gets an empty
    /// span, which overlaps, and so matches, nothing.
    pub fn of_trace(t: &SessionTrace) -> SessionSpan {
        match (t.chunks.first(), t.chunks.last()) {
            (Some(first), Some(last)) => SessionSpan {
                start: first.request_time,
                end: last.arrival_time,
                chunks: t.chunks.len(),
            },
            _ => SessionSpan {
                start: Instant(0),
                end: Instant(0),
                chunks: 0,
            },
        }
    }
}

/// Match reassembled sessions to ground-truth traces by time overlap and
/// chunk count (greedy best-first, one-to-one).
pub fn join_sessions(
    reassembled: &[ReassembledSession],
    truths: &[SessionTrace],
) -> Vec<JoinedSession> {
    let sessions: Vec<SessionSpan> = reassembled
        .iter()
        .map(|r| SessionSpan {
            start: r.start,
            end: r.end,
            chunks: r.chunk_count(),
        })
        .collect();
    let truths: Vec<SessionSpan> = truths.iter().map(SessionSpan::of_trace).collect();
    match_sessions(&sessions, &truths)
}

/// The §5.2 joining rule: match `sessions` to `truths` greedily,
/// best score first, one-to-one. A pair's score is its temporal overlap
/// (intersection over union) weighted by chunk-count agreement; pairs
/// that do not overlap never match. Sorted by session index.
pub fn match_sessions(sessions: &[SessionSpan], truths: &[SessionSpan]) -> Vec<JoinedSession> {
    let mut candidates: Vec<JoinedSession> = Vec::new();
    for (ri, r) in sessions.iter().enumerate() {
        for (ti, t) in truths.iter().enumerate() {
            let score = match_score(r, t);
            if score > 0.0 {
                candidates.push(JoinedSession {
                    reassembled_idx: ri,
                    trace_idx: ti,
                    score,
                });
            }
        }
    }
    candidates.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut used_r = vec![false; sessions.len()];
    let mut used_t = vec![false; truths.len()];
    let mut out = Vec::new();
    for c in candidates {
        if !used_r[c.reassembled_idx] && !used_t[c.trace_idx] {
            used_r[c.reassembled_idx] = true;
            used_t[c.trace_idx] = true;
            out.push(c);
        }
    }
    out.sort_by_key(|j| j.reassembled_idx);
    out
}

fn match_score(r: &SessionSpan, t: &SessionSpan) -> f64 {
    let overlap_start = r.start.max(t.start);
    let overlap_end = r.end.min(t.end);
    if overlap_end <= overlap_start {
        return 0.0;
    }
    let overlap = overlap_end.duration_since(overlap_start).as_secs_f64();
    let union = r
        .end
        .max(t.end)
        .duration_since(r.start.min(t.start))
        .as_secs_f64();
    let temporal = if union > 0.0 { overlap / union } else { 0.0 };
    let cr = r.chunks as f64;
    let ct = t.chunks as f64;
    let count_agreement = 1.0 - (cr - ct).abs() / cr.max(ct).max(1.0);
    temporal * count_agreement.max(0.0)
}

/// Write `items` to `path` as JSON Lines.
pub fn write_jsonl<T: Serialize>(path: &Path, items: &[T]) -> Result<(), TelemetryError> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    for (index, item) in items.iter().enumerate() {
        serde_json::to_writer(&mut w, item)
            .map_err(|source| TelemetryError::Serialize { index, source })?;
        w.write_all(b"\n")?;
    }
    w.flush()?;
    Ok(())
}

/// Read a JSON Lines file written by [`write_jsonl`]. Blank lines are
/// skipped; a malformed line is an error (corrupt dataset files should
/// fail loudly, not silently shrink).
pub fn read_jsonl<T: DeserializeOwned>(path: &Path) -> Result<Vec<T>, TelemetryError> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let item: T = serde_json::from_str(&line).map_err(|source| TelemetryError::Parse {
            line: lineno + 1,
            source,
        })?;
        out.push(item);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture_session, CaptureConfig};
    use crate::reassembly::{reassemble_subscriber, ReassemblyConfig};
    use crate::weblog::{EntryKind, WeblogEntry};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vqoe_player::{simulate_session, AbrKind, Delivery, SessionConfig};
    use vqoe_simnet::channel::Scenario;
    use vqoe_simnet::rng::SeedSequence;
    use vqoe_simnet::time::{Duration, Instant};

    fn build_world(n: usize) -> (Vec<SessionTrace>, Vec<ReassembledSession>) {
        let seeds = SeedSequence::new(2718);
        let mut rng = StdRng::seed_from_u64(3);
        let mut traces = Vec::new();
        let mut entries = Vec::new();
        let mut t0 = Instant::from_secs(50);
        for i in 0..n {
            let trace = simulate_session(
                &SessionConfig {
                    session_index: i as u64,
                    scenario: Scenario::StaticHome,
                    delivery: Delivery::Dash(AbrKind::Hybrid),
                    start_time: t0,
                    profile: Default::default(),
                },
                &seeds,
            );
            entries.extend(
                capture_session(
                    &trace,
                    &CaptureConfig {
                        encrypted: true,
                        subscriber_id: 1,
                    },
                    &mut rng,
                )
                .expect("simulated traces always capture"),
            );
            t0 = trace.ground_truth.session_end + Duration::from_secs(90);
            traces.push(trace);
        }
        entries.sort_by_key(|e| e.timestamp);
        let sessions = reassemble_subscriber(&entries, &ReassemblyConfig::default());
        (traces, sessions)
    }

    #[test]
    fn join_matches_every_session_to_its_own_trace() {
        let (traces, sessions) = build_world(5);
        assert_eq!(sessions.len(), 5);
        let joined = join_sessions(&sessions, &traces);
        assert_eq!(joined.len(), 5);
        for j in &joined {
            // Sessions were generated and reassembled in the same order.
            assert_eq!(j.reassembled_idx, j.trace_idx);
            assert!(j.score > 0.5, "weak match: {}", j.score);
        }
    }

    #[test]
    fn join_is_one_to_one() {
        let (traces, sessions) = build_world(4);
        let joined = join_sessions(&sessions, &traces);
        let mut rs: Vec<usize> = joined.iter().map(|j| j.reassembled_idx).collect();
        let mut ts: Vec<usize> = joined.iter().map(|j| j.trace_idx).collect();
        rs.sort_unstable();
        rs.dedup();
        ts.sort_unstable();
        ts.dedup();
        assert_eq!(rs.len(), joined.len());
        assert_eq!(ts.len(), joined.len());
    }

    #[test]
    fn join_with_empty_inputs() {
        let (traces, _) = build_world(1);
        assert!(join_sessions(&[], &traces).is_empty());
        let (_, sessions) = build_world(1);
        assert!(join_sessions(&sessions, &[]).is_empty());
    }

    #[test]
    fn jsonl_roundtrip() {
        let (traces, _) = build_world(2);
        let dir = std::env::temp_dir().join("vqoe_test_jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traces.jsonl");
        write_jsonl(&path, &traces).unwrap();
        let back: Vec<SessionTrace> = read_jsonl(&path).unwrap();
        assert_eq!(back, traces);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_rejects_corrupt_lines() {
        let dir = std::env::temp_dir().join("vqoe_test_jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.jsonl");
        std::fs::write(&path, "{\"not\": \"a trace\"}\n").unwrap();
        let res: Result<Vec<SessionTrace>, _> = read_jsonl(&path);
        assert!(matches!(
            res,
            Err(crate::error::TelemetryError::Parse { line: 1, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// A scratch path private to one test.
    fn scratch(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("vqoe_test_jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{test}_{}.jsonl", std::process::id()))
    }

    /// A JSON string's worth of arbitrary characters: escapes, control
    /// characters and non-ASCII included.
    fn text_from(codes: &[u32]) -> String {
        codes
            .iter()
            .map(|&c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
            .collect()
    }

    /// A finite float from arbitrary bits (non-finite bits are shifted
    /// into the finite range: JSON cannot carry NaN or infinity).
    fn finite(bits: u64) -> f64 {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            f64::from_bits(bits >> 12)
        }
    }

    type RecordSpec = (
        (u64, u64, u64, u64),
        (Vec<u32>, Vec<u32>, bool),
        (Vec<u64>, u8, bool),
    );

    fn record_from(spec: &RecordSpec) -> WeblogEntry {
        let ((t, id, bytes, dur), (host, uri, has_uri), (tr, kind, encrypted)) = spec;
        let f = |i: usize| finite(tr[i % tr.len()].rotate_left(i as u32 * 7));
        WeblogEntry {
            timestamp: Instant(*t),
            subscriber_id: *id,
            host: text_from(host),
            uri: has_uri.then(|| text_from(uri)),
            bytes: *bytes,
            duration: Duration(*dur),
            transport: vqoe_player::TransportSummary {
                rtt_min: f(0),
                rtt_mean: f(1),
                rtt_max: f(2),
                bdp_mean: f(3),
                bif_mean: f(4),
                bif_max: f(5),
                loss_frac: f(6),
                retx_frac: f(7),
            },
            encrypted: *encrypted,
            kind: match kind % 4 {
                0 => EntryKind::PageLoad,
                1 => EntryKind::MediaChunk,
                2 => EntryKind::StatsReport,
                _ => EntryKind::Noise,
            },
        }
    }

    fn record_spec() -> impl proptest::strategy::Strategy<Value = RecordSpec> {
        use proptest::collection::vec;
        (
            (
                0u64..u64::MAX,
                0u64..u64::MAX,
                0u64..u64::MAX,
                0u64..u64::MAX,
            ),
            (
                vec(0u32..0x11_0000, 0..24),
                vec(0u32..0x11_0000, 0..24),
                proptest::bool::ANY,
            ),
            (vec(0u64..u64::MAX, 1..8), 0u8..4, proptest::bool::ANY),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Arbitrary weblog records survive `write_jsonl` → `read_jsonl`
        /// unchanged, floats bit for bit.
        #[test]
        fn weblog_records_round_trip_through_jsonl(
            specs in proptest::collection::vec(record_spec(), 0..6),
        ) {
            let records: Vec<WeblogEntry> = specs.iter().map(record_from).collect();
            let path = scratch("weblog_round_trip");
            write_jsonl(&path, &records).unwrap();
            let back: Vec<WeblogEntry> = read_jsonl(&path).unwrap();
            std::fs::remove_file(&path).ok();
            proptest::prop_assert_eq!(back, records);
        }

        /// Reading is total over damaged weblog files: truncated,
        /// bit-flipped, arbitrary or spliced bytes give records or a
        /// typed parse error naming a line of the file, never a panic.
        #[test]
        fn damaged_weblog_lines_give_typed_errors(
            specs in proptest::collection::vec(record_spec(), 1..4),
            mode in 0u8..4,
            at in 0usize..usize::MAX,
            bit in 0u8..8,
            junk in proptest::collection::vec(0u16..256, 0..48),
        ) {
            let records: Vec<WeblogEntry> = specs.iter().map(record_from).collect();
            let path = scratch("weblog_damaged");
            write_jsonl(&path, &records).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            let junk: Vec<u8> = junk.into_iter().map(|b| b as u8).collect();
            let pos = at % bytes.len();
            match mode {
                0 => bytes.truncate(pos),
                1 => bytes[pos] ^= 1 << bit,
                2 => bytes = junk,
                _ => {
                    bytes.splice(pos..pos, junk);
                }
            }
            let lines = String::from_utf8_lossy(&bytes).lines().count();
            std::fs::write(&path, &bytes).unwrap();
            let read: Result<Vec<WeblogEntry>, _> = read_jsonl(&path);
            std::fs::remove_file(&path).ok();
            match read {
                Ok(_) | Err(TelemetryError::Io(_)) => {}
                Err(TelemetryError::Parse { line, .. }) => {
                    proptest::prop_assert!((1..=lines).contains(&line), "line {} of {}", line, lines);
                }
                Err(e) => proptest::prop_assert!(false, "untyped failure {}", e),
            }
        }
    }

    #[test]
    fn a_deeply_nested_line_is_a_parse_error_not_a_stack_overflow() {
        let path = scratch("deep");
        let line = "[".repeat(100_000) + &"]".repeat(100_000);
        std::fs::write(&path, format!("{line}\n")).unwrap();
        let read: Result<Vec<WeblogEntry>, _> = read_jsonl(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(read, Err(TelemetryError::Parse { line: 1, .. })));
    }
}
