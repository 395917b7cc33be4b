//! Training datasets built from cleartext weblogs — the paper's actual
//! data-preparation path (§3.3).
//!
//! The simulator gives us session traces with attached ground truth, but
//! the paper's operator never sees those: it sees *weblog entries* and
//! must (1) group them by the URI session ID, (2) reverse-engineer the
//! ground truth from itags and playback reports, and (3) construct
//! features from the network-visible fields. This module walks that
//! exact path, so the reproduction can demonstrate that training from
//! weblogs and training from simulator ground truth agree — the
//! `weblog_equivalence` integration test pins it.

use std::collections::BTreeMap;

use vqoe_features::{ChunkObs, SessionObs};
use vqoe_player::{ContentType, SessionTrace};
use vqoe_telemetry::groundtruth::{extract_sessions, ExtractedSession};
use vqoe_telemetry::weblog::EntryKind;
use vqoe_telemetry::{capture_session, CaptureConfig, TelemetryError, WeblogEntry};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Capture a whole corpus of traces as one cleartext weblog stream
/// (each session under its own subscriber, as the proxy would see a
/// population of users).
///
/// # Errors
///
/// Propagates [`TelemetryError`] from the capture stage; impossible for
/// simulator-generated traces.
pub fn capture_cleartext_corpus(
    traces: &[SessionTrace],
    seed: u64,
) -> Result<Vec<WeblogEntry>, TelemetryError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut entries = Vec::new();
    for (i, trace) in traces.iter().enumerate() {
        entries.extend(capture_session(
            trace,
            &CaptureConfig {
                encrypted: false,
                subscriber_id: i as u64,
            },
            &mut rng,
        )?);
    }
    Ok(entries)
}

/// One session as reconstructed purely from cleartext weblogs: the
/// network-visible observations plus the URI-derived ground truth.
#[derive(Debug, Clone)]
pub struct WeblogSession {
    /// Network-visible chunk observations (what the detectors may use).
    pub obs: SessionObs,
    /// URI-derived ground truth (labels only).
    pub extracted: ExtractedSession,
    /// Whether the session used adaptive streaming. Detectable from
    /// cleartext URIs: DASH fetches audio as separate `mime=audio`
    /// chunks, progressive delivery is muxed.
    pub adaptive: bool,
}

/// Group a cleartext weblog stream into per-session observations with
/// URI-derived labels.
pub fn sessions_from_weblogs(entries: &[WeblogEntry]) -> Vec<WeblogSession> {
    let extracted = extract_sessions(entries);
    // Index media entries by session ID for transport annotations.
    let mut media_by_session: BTreeMap<String, Vec<&WeblogEntry>> = BTreeMap::new();
    for e in entries {
        if e.kind != EntryKind::MediaChunk {
            continue;
        }
        let Some(uri) = e.uri.as_deref() else {
            continue;
        };
        if let Some(p) = vqoe_telemetry::uri::parse_videoplayback(uri) {
            media_by_session.entry(p.session_id).or_default().push(e);
        }
    }
    extracted
        .into_iter()
        .map(|ex| {
            let mut media: Vec<&WeblogEntry> =
                media_by_session.remove(&ex.session_id).unwrap_or_default();
            media.sort_by_key(|e| e.timestamp);
            let obs = SessionObs {
                chunks: media.iter().map(|e| ChunkObs::from(*e)).collect(),
            };
            let adaptive = ex
                .chunks
                .iter()
                .any(|c| c.content_type == ContentType::Audio);
            WeblogSession {
                obs,
                extracted: ex,
                adaptive,
            }
        })
        .collect()
}

/// The labelled rows a cleartext weblog stream gives on its own, in
/// session order: each session's network-visible observations with
/// `label` of its URI-derived ground truth and whether it streamed
/// adaptively (such as `FeatureSpace::label`). A session labelled
/// `None` is left out.
pub fn labelled_weblogs<C>(
    entries: &[WeblogEntry],
    label: impl Fn(&ExtractedSession, bool) -> Option<C>,
) -> impl Iterator<Item = (SessionObs, C)> {
    sessions_from_weblogs(entries)
        .into_iter()
        .filter_map(move |s| Some((s.obs, label(&s.extracted, s.adaptive)?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_traces;
    use crate::spec::DatasetSpec;
    use vqoe_features::{
        build_dataset, labelled_traces, rq_label, stall_label, FeatureSpace, StallSpace,
    };
    use vqoe_ml::TrainConfig;

    #[test]
    fn weblog_sessions_match_traces() {
        let traces = generate_traces(&DatasetSpec::cleartext_default(40, 91), TrainConfig::auto());
        let entries = capture_cleartext_corpus(&traces, 7).expect("capture");
        let sessions = sessions_from_weblogs(&entries);
        assert_eq!(sessions.len(), traces.len());
        // Session IDs pair up and chunk counts agree.
        for s in &sessions {
            let t = traces
                .iter()
                .find(|t| t.session_id == s.extracted.session_id)
                .expect("every weblog session has a source trace");
            assert_eq!(s.obs.len(), t.chunks.len());
            assert_eq!(s.adaptive, t.config.delivery.is_adaptive());
        }
    }

    #[test]
    fn a_parameter_ending_in_cpn_does_not_rekey_a_chunk() {
        let traces = generate_traces(
            &DatasetSpec::cleartext_default(1, 94),
            TrainConfig::sequential(),
        );
        let mut entries = capture_cleartext_corpus(&traces, 10).expect("capture");
        for uri in entries.iter_mut().filter_map(|e| e.uri.as_mut()) {
            *uri = uri.replacen(
                "/videoplayback?",
                "/videoplayback?xcpn=AAAAAAAAAAAAAAAA&",
                1,
            );
        }
        let sessions = sessions_from_weblogs(&entries);
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].obs.len(), traces[0].chunks.len());
    }

    #[test]
    fn weblog_labels_match_simulator_labels() {
        let traces = generate_traces(&DatasetSpec::cleartext_default(60, 92), TrainConfig::auto());
        let entries = capture_cleartext_corpus(&traces, 8).expect("capture");
        let sessions = sessions_from_weblogs(&entries);
        let mut checked = 0;
        for s in &sessions {
            let t = traces
                .iter()
                .find(|t| t.session_id == s.extracted.session_id)
                .unwrap();
            assert_eq!(
                stall_label(&s.extracted),
                stall_label(&t.ground_truth),
                "stall label diverged for {}",
                t.session_id
            );
            if s.adaptive {
                assert_eq!(rq_label(&s.extracted), rq_label(&t.ground_truth));
            }
            checked += 1;
        }
        assert_eq!(checked, 60);
    }

    #[test]
    fn weblog_datasets_match_trace_datasets() {
        let traces = generate_traces(&DatasetSpec::cleartext_default(30, 93), TrainConfig::auto());
        let entries = capture_cleartext_corpus(&traces, 9).expect("capture");
        let from_weblogs = build_dataset::<StallSpace>(
            labelled_weblogs(&entries, StallSpace::label),
            TrainConfig::auto(),
        );
        let from_traces = build_dataset::<StallSpace>(
            labelled_traces(&traces, StallSpace::label),
            TrainConfig::auto(),
        );
        assert_eq!(from_weblogs.n_rows(), from_traces.n_rows());
        // Feature rows may be ordered differently (weblog grouping order);
        // match by nearest row and compare labels via class counts.
        assert_eq!(from_weblogs.class_counts(), from_traces.class_counts());
    }
}
