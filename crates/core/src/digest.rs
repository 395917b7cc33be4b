//! Streaming per-session digests: the bounded-memory state behind the
//! [`Fidelity::Sketched`] assessment tier (ISSUE 10).
//!
//! When a session outgrows the reassembler's exact-buffer cap
//! ([`vqoe_telemetry::EXACT_ENTRY_CAP`]), its media chunks stop being
//! buffered and are instead folded — exact prefix first, then every
//! overflow chunk — into a [`SessionDigest`]: running moments plus
//! deterministic quantile sketches over all §4 metric series
//! ([`StreamingSessionState`]) and the streaming §4.3 switch score
//! ([`StreamingSwitchScore`]). Per-subscriber cost is O(1) in session
//! length; the digest is seedless state that serializes byte-stably
//! for checkpointing.
//!
//! The plumbing is the [`SpillSink`] trait from `vqoe-telemetry` (which
//! cannot depend on the feature/detector crates, so the dependency is
//! inverted): [`DigestSink`] implements it, the assessors install one
//! per subscriber machine, and [`claim_digest`] pops the sealed digest
//! matching each emitted spilled session — a strict FIFO, because the
//! reassembler seals (or discards) exactly once per emission with any
//! spill activity.
//!
//! [`Fidelity::Sketched`]: crate::Fidelity::Sketched

use serde::{Deserialize, Serialize};
use vqoe_changedet::{StreamingSwitchScore, SwitchScoreConfig};
use vqoe_features::{ChunkObs, StreamingSessionState};
use vqoe_telemetry::{ReassembledSession, RobustReassembler, SpillSink, WeblogEntry};

/// Everything the sketched assessment path needs about one session:
/// approximate 70/210-dim feature vectors and the streaming switch
/// score, all O(1) in session length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionDigest {
    /// Running moments + quantile sketches over the §4 metric series.
    pub features: StreamingSessionState,
    /// Streaming two-sided CUSUM switch score (§4.3).
    pub switch: StreamingSwitchScore,
}

impl SessionDigest {
    /// Fresh digest scoring switches under `config` (the deployed
    /// [`SwitchModel`]'s frozen scoring parameters, so sketched and
    /// exact assessments answer the same question).
    ///
    /// [`SwitchModel`]: crate::SwitchModel
    pub fn with_config(config: SwitchScoreConfig) -> Self {
        SessionDigest {
            features: StreamingSessionState::new(),
            switch: StreamingSwitchScore::new(config),
        }
    }

    /// Fold one media-chunk observation into both digests.
    pub fn fold(&mut self, c: &ChunkObs) {
        self.features.fold(c);
        self.switch.fold(c.arrival_secs, c.bytes);
    }

    /// Chunks folded in so far.
    pub fn chunk_count(&self) -> u64 {
        self.features.chunk_count()
    }

    /// Approximate heap footprint, for the budget audit.
    pub fn heap_bytes(&self) -> usize {
        self.features.heap_bytes() + std::mem::size_of::<StreamingSwitchScore>()
    }
}

/// The core-side [`SpillSink`]: folds spilled chunks into a
/// [`SessionDigest`] and archives one digest per sealed session, FIFO.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DigestSink {
    config: SwitchScoreConfig,
    current: SessionDigest,
    /// Sealed digests not yet claimed by the assessor (FIFO; normally
    /// at most one deep, drained right after each emission).
    sealed: Vec<SessionDigest>,
}

impl DigestSink {
    /// Fresh sink whose digests score switches under `config`.
    pub fn new(config: SwitchScoreConfig) -> Self {
        DigestSink {
            current: SessionDigest::with_config(config),
            sealed: Vec::new(),
            config,
        }
    }

    /// Pop the oldest sealed digest. The caller must pop exactly once
    /// per emitted session with spill activity (see [`claim_digest`]);
    /// anything else desynchronizes the FIFO.
    pub fn claim(&mut self) -> Option<SessionDigest> {
        if self.sealed.is_empty() {
            None
        } else {
            Some(self.sealed.remove(0))
        }
    }

    /// Rehydrate from the snapshot emitted by
    /// [`SpillSink::state_json`] (checkpoint restore).
    pub fn from_json(json: &str) -> Option<DigestSink> {
        serde_json::from_str(json).ok()
    }
}

impl SpillSink for DigestSink {
    fn fold_chunk(&mut self, e: &WeblogEntry) {
        self.current.fold(&ChunkObs::from(e));
    }

    fn seal(&mut self) {
        let finished =
            std::mem::replace(&mut self.current, SessionDigest::with_config(self.config));
        self.sealed.push(finished);
    }

    fn discard(&mut self) {
        self.current = SessionDigest::with_config(self.config);
    }

    fn state_json(&self) -> Option<String> {
        if self.current.features.is_empty() && self.sealed.is_empty() {
            return None;
        }
        serde_json::to_string(self).ok()
    }

    fn clone_box(&self) -> Box<dyn SpillSink> {
        Box::new(self.clone())
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Install a fresh [`DigestSink`] (scoring under `config`) on a
/// subscriber machine.
pub fn install_digest_sink(machine: &mut RobustReassembler, config: SwitchScoreConfig) {
    machine.attach_spill(Box::new(DigestSink::new(config)));
}

/// Claim the sealed digest matching `session`, if any.
///
/// Mirrors the reassembler's seal/discard rule exactly: a digest was
/// sealed iff the emission had *any* spill activity (media or other
/// entries), so the claim must fire on the same condition to keep the
/// FIFO aligned. The caller should *use* the digest for sketched
/// assessment only when `session.spilled_chunks > 0` — a session whose
/// spill was all non-media entries still has every chunk exact — which
/// is what this returns `Some` for; an other-only spill is claimed and
/// dropped internally.
pub fn claim_digest(
    machine: &mut RobustReassembler,
    session: &ReassembledSession,
) -> Option<SessionDigest> {
    if session.spilled_chunks == 0 && session.spilled_other == 0 {
        return None;
    }
    let digest = machine
        .spill_sink_mut()?
        .as_any_mut()
        .downcast_mut::<DigestSink>()?
        .claim()?;
    if session.spilled_chunks == 0 {
        // All chunks are exact; the sealed digest only mirrors them.
        return None;
    }
    Some(digest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqoe_player::TransportSummary;
    use vqoe_simnet::time::{Duration, Instant};
    use vqoe_telemetry::{EntryKind, IngestConfig, ReassemblyConfig};

    fn media_entry(t_millis: u64, bytes: u64) -> WeblogEntry {
        WeblogEntry {
            timestamp: Instant::from_millis(t_millis),
            subscriber_id: 7,
            host: "r1---sn-test.googlevideo.com".into(),
            uri: None,
            bytes,
            duration: Duration::from_millis(400),
            transport: TransportSummary {
                rtt_min: 0.02,
                rtt_mean: 0.03,
                rtt_max: 0.05,
                bdp_mean: 60_000.0,
                bif_mean: 30_000.0,
                bif_max: 90_000.0,
                loss_frac: 0.0,
                retx_frac: 0.0,
            },
            encrypted: true,
            kind: EntryKind::MediaChunk,
        }
    }

    fn spilling_machine(cap: usize) -> RobustReassembler {
        let config = ReassemblyConfig {
            exact_entry_cap: cap,
            ..ReassemblyConfig::default()
        };
        let mut m = RobustReassembler::new(config, IngestConfig::default());
        install_digest_sink(&mut m, SwitchScoreConfig::default());
        m
    }

    #[test]
    fn digest_covers_the_whole_session_prefix_included() {
        let mut m = spilling_machine(4);
        let mut health = Default::default();
        let mut anomalies = vqoe_telemetry::AnomalyLog::new(16);
        for i in 0..10u64 {
            let out = m.push(
                &media_entry(i * 2_000, 50_000 + i * 1_000),
                &mut health,
                &mut anomalies,
            );
            assert!(out.is_empty());
        }
        let sessions = m.flush();
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert_eq!(s.chunks.len() as u64 + s.spilled_chunks, 10);
        let digest = claim_digest(&mut m, s).expect("spilled session must carry a digest");
        // Prefix replay: the digest saw all 10 chunks, not just the spill.
        assert_eq!(digest.chunk_count(), 10);
    }

    #[test]
    fn under_cap_sessions_claim_nothing() {
        let mut m = spilling_machine(64);
        let mut health = Default::default();
        let mut anomalies = vqoe_telemetry::AnomalyLog::new(16);
        for i in 0..10u64 {
            m.push(&media_entry(i * 2_000, 50_000), &mut health, &mut anomalies);
        }
        let sessions = m.flush();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].spilled_chunks, 0);
        assert!(claim_digest(&mut m, &sessions[0]).is_none());
    }

    #[test]
    fn sink_state_round_trips_through_json() {
        let mut sink = DigestSink::new(SwitchScoreConfig::default());
        for i in 0..20u64 {
            sink.fold_chunk(&media_entry(i * 1_000, 10_000 + i * 500));
        }
        sink.seal();
        sink.fold_chunk(&media_entry(100_000, 77_000));
        let json = sink.state_json().expect("non-empty sink snapshots");
        let back = DigestSink::from_json(&json).expect("snapshot parses");
        assert_eq!(back, sink);
    }

    #[test]
    fn empty_sink_has_no_state() {
        let sink = DigestSink::new(SwitchScoreConfig::default());
        assert!(sink.state_json().is_none());
    }
}
