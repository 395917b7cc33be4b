//! The per-session assessment fold and the ingest front door.
//!
//! The paper's monitor is three frozen detectors applied to the *same*
//! per-session observations (§5): a stall forest, a representation
//! forest and a σ(CUSUM) switch threshold. One shared ingest pass
//! parses each weblog record once, reassembles sessions once and
//! extracts one [`SessionObs`] per session; the fold then calls the
//! three models on that session's [`SessionView`] and builds the
//! [`SessionAssessment`].
//!
//! * [`SubscriptionSet`] — the three frozen models of one trained
//!   monitor, borrowed. Its
//!   [`assess_session`](SubscriptionSet::assess_session) and
//!   [`assess_session_sketched`](SubscriptionSet::assess_session_sketched)
//!   are **the** per-session assessment: [`QoeMonitor`] and the one
//!   subscriber machine (`crate::shard`) route through them, and that
//!   machine has two drivers — the parallel engine behind
//!   [`IngestPipeline::assess`] and the streaming
//!   [`OnlineAssessor`](crate::online::OnlineAssessor). That is what
//!   makes the byte-identity contract (same corpus → bit-identical
//!   [`IngestReport`] on every path, at any worker count) a structural
//!   property instead of a test hope.
//! * [`IngestPipeline`] — the one front door: batch slices, packed
//!   binary corpora ([`BinaryCorpus`], no serde on the hot path) and
//!   single-subscriber streams, all over the same fold. Its batch
//!   methods *are* the engine: the shard routing, fan-out and reducer
//!   in `crate::engine` are private code behind them.

use vqoe_features::{RqClass, SessionObs, SessionView, StallClass};
use vqoe_obs::{Trace, TraceConfig};
use vqoe_telemetry::{
    reassemble_subscriber, BinaryCorpus, BinlogError, IngestConfig, ReassemblyConfig, WeblogEntry,
};

use crate::avgrep_pipeline::RepresentationModel;
use crate::digest::SessionDigest;
use crate::engine::EngineConfig;
use crate::metrics::PipelineMetrics;
use crate::monitor::{Fidelity, QoeMonitor, SessionAssessment};
use crate::online::IngestReport;
use crate::qoe_score::QoeScore;
use crate::stall_pipeline::StallModel;
use crate::switch_pipeline::SwitchModel;

/// The paper's three frozen detectors, borrowed from one trained
/// monitor: the models every session is assessed with.
#[derive(Debug, Clone, Copy)]
pub struct SubscriptionSet<'m> {
    stall: &'m StallModel,
    representation: &'m RepresentationModel,
    switch: &'m SwitchModel,
}

impl<'m> SubscriptionSet<'m> {
    /// The three frozen models of a trained monitor.
    pub fn standard(monitor: &'m QoeMonitor) -> Self {
        SubscriptionSet {
            stall: &monitor.stall_model,
            representation: &monitor.representation_model,
            switch: &monitor.switch_model,
        }
    }

    /// Assess one session from its exact observations: both forests
    /// predict from the full feature vectors and the switch model
    /// scores σ(CUSUM) against its frozen threshold.
    pub fn assess_session(&self, view: SessionView<'_>) -> SessionAssessment {
        self.fold(
            view,
            view.obs.len(),
            self.stall.predict(view.obs),
            self.representation.predict(view.obs),
            self.switch.score(view.obs),
        )
    }

    /// Assess one session past the exactness cap from its
    /// whole-session [`SessionDigest`]: both forests predict from the
    /// digest's approximate feature vectors, the switch score is the
    /// digest's streaming σ(CUSUM) (configured from this switch model's
    /// scoring parameters when the sink was installed), and the chunk
    /// count comes from the digest, which saw every chunk. The view
    /// supplies only the boundaries. Callers tag the result
    /// `Fidelity::Sketched` (or worse) with
    /// [`SessionAssessment::with_fidelity`].
    pub fn assess_session_sketched(
        &self,
        view: SessionView<'_>,
        digest: &SessionDigest,
    ) -> SessionAssessment {
        let features = &digest.features;
        self.fold(
            view,
            digest.chunk_count() as usize,
            self.stall
                .predict_from_features(&features.stall_features_approx()),
            self.representation
                .predict_from_features(&features.representation_features_approx()),
            digest.switch.score(),
        )
    }

    /// Build the assessment from the three models' answers: the one
    /// place a [`SessionAssessment`] is made.
    fn fold(
        &self,
        view: SessionView<'_>,
        chunk_count: usize,
        stall: StallClass,
        representation: RqClass,
        switch_score: f64,
    ) -> SessionAssessment {
        let has_quality_switches = switch_score > self.switch.threshold();
        SessionAssessment {
            start: view.start,
            end: view.end,
            chunk_count,
            stall,
            representation,
            has_quality_switches,
            switch_score,
            qoe: QoeScore::from_assessment(stall, representation, has_quality_switches),
            fidelity: Fidelity::Full,
        }
    }
}

/// The one front door for assessing weblog traffic.
///
/// Wraps a trained [`QoeMonitor`] and routes every input shape through
/// the same shared ingest pass and per-session fold:
///
/// * [`assess`](IngestPipeline::assess) — a whole tap capture (any mix
///   of subscribers), sharded across workers by the parallel engine.
/// * [`assess_binary`](IngestPipeline::assess_binary) — the same, from
///   a packed [`BinaryCorpus`]: each shard worker decodes its own
///   records straight from the byte buffer, no serde and no owned copy
///   of the corpus on the replay hot path.
/// * [`assess_subscriber`](IngestPipeline::assess_subscriber) — one
///   subscriber's stream, sequentially.
///
/// All three honour the byte-identity contract: the same records
/// produce a bit-identical [`IngestReport`] (or assessment sequence)
/// regardless of input encoding or worker count.
#[derive(Debug, Clone)]
pub struct IngestPipeline<'m> {
    pub(crate) monitor: &'m QoeMonitor,
    pub(crate) engine: EngineConfig,
    pub(crate) ingest: IngestConfig,
    pub(crate) metrics: Option<PipelineMetrics>,
}

impl<'m> IngestPipeline<'m> {
    /// A pipeline over a trained monitor with default engine and
    /// hardening parameters.
    pub fn new(monitor: &'m QoeMonitor) -> Self {
        IngestPipeline {
            monitor,
            engine: EngineConfig::default(),
            ingest: IngestConfig::default(),
            metrics: None,
        }
    }

    /// Set the parallel-engine knobs (workers, shards).
    /// Never changes the output, only wall-clock.
    pub fn with_engine(mut self, config: EngineConfig) -> Self {
        self.engine = config;
        self
    }

    /// Set the ingest-hardening knobs (anomaly caps, reorder windows).
    pub fn with_ingest(mut self, config: IngestConfig) -> Self {
        self.ingest = config;
        self
    }

    /// Attach a metrics bundle; the output stays bit-identical.
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The monitor this pipeline assesses with.
    pub fn monitor(&self) -> &'m QoeMonitor {
        self.monitor
    }

    /// Assess a whole tap capture (any mix of subscribers, in arrival
    /// order): one shared pass over the records, sharded across
    /// workers, every session assessed by the three frozen models.
    /// Bit-identical to the sequential streaming path
    /// at any worker count.
    pub fn assess(&self, entries: &[WeblogEntry]) -> IngestReport {
        match crate::engine::run(self, entries, None) {
            Ok((report, _)) => report,
            Err(never) => match never {},
        }
    }

    /// Like [`IngestPipeline::assess`], with session tracing: every
    /// emitted session additionally records its span chain (ingest →
    /// reassemble → fan-out → per-detector deliver) into a merged
    /// [`Trace`], byte-stable across runs and worker counts. The report
    /// is bit-identical to the untraced pass.
    pub fn assess_traced(
        &self,
        entries: &[WeblogEntry],
        trace_cfg: TraceConfig,
    ) -> (IngestReport, Trace) {
        match crate::engine::run(self, entries, Some(trace_cfg)) {
            Ok((report, trace)) => (report, trace.unwrap_or_default()),
            Err(never) => match never {},
        }
    }

    /// Assess a packed binary corpus on the same engine pass as
    /// [`IngestPipeline::assess`], without building a
    /// `Vec<WeblogEntry>` of it. One zero-copy pass validates the
    /// corpus and routes each record's byte offset to its shard; each
    /// shard worker then decodes its own records, one at a time, into
    /// one reused scratch entry. A corpus that does not decode fails
    /// with exactly the error [`BinaryCorpus::decode_all`] returns,
    /// before any record is assessed. The report is bit-identical to
    /// assessing the decoded entries.
    pub fn assess_binary(&self, corpus: &BinaryCorpus) -> Result<IngestReport, BinlogError> {
        crate::engine::run(self, corpus, None).map(|(report, _)| report)
    }

    /// Assess one subscriber's raw (possibly encrypted) stream
    /// sequentially: reassemble sessions once, then assess each
    /// session's view with the three frozen models. The whole slice is in
    /// memory already, so sessions are buffered in full (no exactness
    /// cap): every session is assessed exactly, at [`Fidelity::Full`],
    /// however long it runs — the exact reference the capped paths are
    /// measured against.
    pub fn assess_subscriber(&self, entries: &[WeblogEntry]) -> Vec<SessionAssessment> {
        let subs = SubscriptionSet::standard(self.monitor);
        let unbounded = ReassemblyConfig {
            exact_entry_cap: 0,
            ..self.monitor.reassembly
        };
        reassemble_subscriber(entries, &unbounded)
            .iter()
            .map(|session| {
                let obs = SessionObs::from_reassembled(session);
                subs.assess_session(SessionView::over(&obs, session))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encrypted::{EncryptedEvalConfig, EncryptedWorld};
    use crate::monitor::TrainingConfig;

    fn monitor() -> QoeMonitor {
        QoeMonitor::train(&TrainingConfig {
            cleartext_sessions: 250,
            adaptive_sessions: 150,
            seed: 81,
            ..TrainingConfig::default()
        })
    }

    fn world(seed: u64, sessions: usize) -> EncryptedWorld {
        let mut config = EncryptedEvalConfig::paper_default(seed);
        config.spec.n_sessions = sessions;
        EncryptedWorld::build(&config).expect("simulated world builds")
    }

    #[test]
    fn subscription_fold_matches_the_legacy_assessment_exactly() {
        let m = monitor();
        let set = SubscriptionSet::standard(&m);
        let w = world(82, 10);
        let sessions = reassemble_subscriber(&w.entries, &m.reassembly);
        assert!(!sessions.is_empty());
        for session in &sessions {
            let obs = SessionObs::from_reassembled(session);
            let folded = set.assess_session(SessionView::over(&obs, session));
            assert_eq!(folded, m.assess_session(&obs, session.start, session.end));
            assert_eq!(folded.stall, m.stall_model.predict(&obs));
            assert_eq!(folded.representation, m.representation_model.predict(&obs));
            assert_eq!(folded.has_quality_switches, m.switch_model.detect(&obs));
            assert_eq!(
                folded.switch_score.to_bits(),
                m.switch_model.score(&obs).to_bits()
            );
            assert_eq!(
                (folded.chunk_count, folded.fidelity),
                (obs.len(), Fidelity::Full)
            );
        }
    }

    #[test]
    fn binary_replay_report_is_bit_identical_to_slice_replay() {
        let m = monitor();
        let w = world(85, 10);
        let pipeline = IngestPipeline::new(&m);
        let from_slice = pipeline.assess(&w.entries);
        let corpus = BinaryCorpus::pack(&w.entries);
        let from_binary = pipeline.assess_binary(&corpus).expect("valid corpus");
        assert_eq!(from_slice, from_binary);
        assert!(!from_slice.assessments.is_empty());
    }
}
