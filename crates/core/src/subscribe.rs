//! The typed subscription ingest API: one pass, many detectors.
//!
//! The paper's monitor is three independent detectors applied to the
//! *same* per-session observations (§5): a stall forest, a
//! representation forest and a σ(CUSUM) switch threshold. Detectors
//! *subscribe* to a single shared ingest pass, which parses each weblog
//! record exactly once, reassembles sessions once, extracts one
//! [`SessionObs`] per session — and fans the resulting [`SessionView`]
//! out to every registered [`Subscription`].
//!
//! The pieces, bottom-up:
//!
//! * [`Signal`] — what one detector says about one session: a typed
//!   verdict folded into the final [`SessionAssessment`].
//! * [`Subscription`] — the detector-side contract: given a shared,
//!   immutable view, produce a signal. Object-safe, `Send + Sync`, so
//!   a set of subscriptions can be shared across engine workers.
//! * [`SubscriptionSet`] — the registered detectors. Its
//!   [`assess_session`](SubscriptionSet::assess_session) fold is **the**
//!   per-session assessment implementation: [`QoeMonitor`] and the one
//!   per-shard machine (`crate::shard`) route through it, and that
//!   machine has two drivers — the parallel engine behind
//!   [`IngestPipeline::assess`] and the streaming
//!   [`OnlineAssessor`](crate::online::OnlineAssessor). That is what
//!   makes the byte-identity contract (same corpus → bit-identical
//!   [`IngestReport`] on every path, at any worker count) a structural
//!   property instead of a test hope.
//! * [`IngestPipeline`] — the one front door: batch slices, packed
//!   binary corpora ([`BinaryCorpus`], no serde on the hot path) and
//!   single-subscriber streams, all over the same subscription fold.
//!   Its batch methods *are* the engine: the shard fan-out, bounded
//!   queue and reducer in `crate::engine` are private code behind
//!   them.
//!
//! Extension detectors register with
//! [`SubscriptionSet::subscribe`]; their [`Signal::Score`] channel is
//! observable (metrics, logging via interior mutability) without
//! perturbing the report, so adding a fourth detector can never change
//! what the standard three produce.

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

/// One detector's verdict about one session, delivered back to the
/// ingest fold. The three standard channels map onto the fields of
/// [`SessionAssessment`]; [`Signal::Score`] is the extension channel —
/// carried for custom subscriptions, ignored by the fold, so new
/// detectors observe sessions without changing the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Signal {
    /// Predicted stalling severity (§4.1 channel).
    Stall(StallClass),
    /// Predicted average representation (§4.2 channel).
    Representation(RqClass),
    /// Switch detection with its raw σ(CUSUM) score (§4.3 channel).
    Switch {
        /// `score > threshold`, the frozen calibrated decision.
        detected: bool,
        /// The raw σ(CUSUM) score behind the boolean.
        score: f64,
    },
    /// An extension detector's raw per-session score. Folded into
    /// nothing: the standard report shape is closed.
    Score(f64),
}

/// A detector registered against the shared ingest pass.
///
/// Implementations receive every session exactly once, as an immutable
/// [`SessionView`] borrowed from the single shared extraction — no
/// subscriber can re-parse, mutate or starve another. `Send + Sync` is
/// part of the contract: the same set is shared by reference across
/// the parallel engine's workers.
pub trait Subscription: Send + Sync {
    /// Stable name (reports, metrics, debugging).
    fn name(&self) -> &'static str;

    /// Observe one session and return a verdict.
    fn deliver(&self, view: &SessionView<'_>) -> Signal;

    /// Observe one *sketched* session: the view's [`SessionObs`] holds
    /// only the exact prefix, while `digest` summarizes every chunk
    /// (running moments, quantile sketches, streaming switch score).
    /// Detectors that can assess from the digest should override this;
    /// the default falls back to the exact-prefix view, which is still
    /// a valid (if truncated) observation of the session.
    fn deliver_sketched(&self, view: &SessionView<'_>, digest: &SessionDigest) -> Signal {
        let _ = digest;
        self.deliver(view)
    }
}

impl<S: Subscription + ?Sized> Subscription for &S {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn deliver(&self, view: &SessionView<'_>) -> Signal {
        (**self).deliver(view)
    }

    fn deliver_sketched(&self, view: &SessionView<'_>, digest: &SessionDigest) -> Signal {
        (**self).deliver_sketched(view, digest)
    }
}

/// The §4.1 stall detector as a subscription (borrows the frozen
/// model).
#[derive(Debug, Clone, Copy)]
pub struct StallSubscription<'m> {
    model: &'m StallModel,
}

impl<'m> StallSubscription<'m> {
    /// Subscribe a frozen stall model.
    pub fn new(model: &'m StallModel) -> Self {
        StallSubscription { model }
    }
}

impl Subscription for StallSubscription<'_> {
    fn name(&self) -> &'static str {
        "stall"
    }

    fn deliver(&self, view: &SessionView<'_>) -> Signal {
        Signal::Stall(self.model.predict(view.obs))
    }

    fn deliver_sketched(&self, _view: &SessionView<'_>, digest: &SessionDigest) -> Signal {
        Signal::Stall(
            self.model
                .predict_from_features(&digest.features.stall_features_approx()),
        )
    }
}

/// The §4.2 average-representation detector as a subscription (borrows
/// the frozen model).
#[derive(Debug, Clone, Copy)]
pub struct RepresentationSubscription<'m> {
    model: &'m RepresentationModel,
}

impl<'m> RepresentationSubscription<'m> {
    /// Subscribe a frozen representation model.
    pub fn new(model: &'m RepresentationModel) -> Self {
        RepresentationSubscription { model }
    }
}

impl Subscription for RepresentationSubscription<'_> {
    fn name(&self) -> &'static str {
        "representation"
    }

    fn deliver(&self, view: &SessionView<'_>) -> Signal {
        Signal::Representation(self.model.predict(view.obs))
    }

    fn deliver_sketched(&self, _view: &SessionView<'_>, digest: &SessionDigest) -> Signal {
        Signal::Representation(
            self.model
                .predict_from_features(&digest.features.representation_features_approx()),
        )
    }
}

/// The §4.3 switch detector as a subscription (borrows the frozen
/// threshold model).
#[derive(Debug, Clone, Copy)]
pub struct SwitchSubscription<'m> {
    model: &'m SwitchModel,
}

impl<'m> SwitchSubscription<'m> {
    /// Subscribe a frozen switch model.
    pub fn new(model: &'m SwitchModel) -> Self {
        SwitchSubscription { model }
    }
}

impl Subscription for SwitchSubscription<'_> {
    fn name(&self) -> &'static str {
        "switch"
    }

    fn deliver(&self, view: &SessionView<'_>) -> Signal {
        let score = self.model.score(view.obs);
        Signal::Switch {
            detected: score > self.model.threshold(),
            score,
        }
    }

    fn deliver_sketched(&self, _view: &SessionView<'_>, digest: &SessionDigest) -> Signal {
        // The digest's streaming CUSUM was configured from this model's
        // frozen scoring parameters at sink-install time, so the score
        // answers the same question against the same threshold.
        let score = digest.switch.score();
        Signal::Switch {
            detected: score > self.model.threshold(),
            score,
        }
    }
}

/// The detectors registered against one ingest pass.
///
/// [`SubscriptionSet::standard`] is the paper's trio;
/// [`SubscriptionSet::subscribe`] adds extension detectors. The
/// [`assess_session`](SubscriptionSet::assess_session) fold is the
/// single per-session assessment implementation every entry point
/// routes through.
pub struct SubscriptionSet<'m> {
    subs: Vec<Box<dyn Subscription + 'm>>,
}

impl<'m> SubscriptionSet<'m> {
    /// An empty set (register detectors with
    /// [`SubscriptionSet::subscribe`]).
    pub fn new() -> Self {
        SubscriptionSet { subs: Vec::new() }
    }

    /// The paper's three detectors, subscribed against a trained
    /// monitor's frozen models.
    pub fn standard(monitor: &'m QoeMonitor) -> Self {
        let mut set = SubscriptionSet::new();
        set.subscribe(Box::new(StallSubscription::new(&monitor.stall_model)));
        set.subscribe(Box::new(RepresentationSubscription::new(
            &monitor.representation_model,
        )));
        set.subscribe(Box::new(SwitchSubscription::new(&monitor.switch_model)));
        set
    }

    /// Register one more detector. Later signals on the same channel
    /// overwrite earlier ones, so standard detectors should come first
    /// and extensions should use [`Signal::Score`].
    pub fn subscribe(&mut self, sub: Box<dyn Subscription + 'm>) {
        self.subs.push(sub);
    }

    /// Names of the registered detectors, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.subs.iter().map(|s| s.name()).collect()
    }

    /// Number of registered detectors.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// Whether no detector is registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Fan one session's shared view out to every subscription and
    /// fold the signals into an assessment.
    ///
    /// This is *the* per-session assessment: `QoeMonitor::assess_session`
    /// delegates here, and with the standard set the result is
    /// bit-identical to the historical hand-rolled computation (same
    /// frozen models, same decision rule, same composite score).
    pub fn assess_session(&self, view: SessionView<'_>) -> SessionAssessment {
        self.fold_signals(view, view.obs.len(), |sub| sub.deliver(&view))
    }

    /// The sketched-tier fold: every subscription is delivered the
    /// exact-prefix view *plus* the whole-session [`SessionDigest`]
    /// (via [`Subscription::deliver_sketched`]), and the chunk count
    /// comes from the digest — which saw every chunk — rather than the
    /// truncated view. Callers tag the result `Fidelity::Sketched` (or
    /// worse) with [`SessionAssessment::with_fidelity`].
    pub fn assess_session_sketched(
        &self,
        view: SessionView<'_>,
        digest: &SessionDigest,
    ) -> SessionAssessment {
        self.fold_signals(view, digest.chunk_count() as usize, |sub| {
            sub.deliver_sketched(&view, digest)
        })
    }

    fn fold_signals(
        &self,
        view: SessionView<'_>,
        chunk_count: usize,
        mut deliver: impl FnMut(&(dyn Subscription + 'm)) -> Signal,
    ) -> SessionAssessment {
        let mut stall = StallClass::NoStalls;
        let mut representation = RqClass::Ld;
        let mut has_quality_switches = false;
        let mut switch_score = 0.0;
        for sub in &self.subs {
            match deliver(sub.as_ref()) {
                Signal::Stall(c) => stall = c,
                Signal::Representation(c) => representation = c,
                Signal::Switch { detected, score } => {
                    has_quality_switches = detected;
                    switch_score = score;
                }
                Signal::Score(_) => {}
            }
        }
        SessionAssessment {
            start: view.start,
            end: view.end,
            chunk_count,
            stall,
            representation,
            has_quality_switches,
            switch_score,
            qoe: QoeScore::from_assessment(stall, representation, has_quality_switches),
            partial: false,
            fidelity: Fidelity::Full,
        }
    }
}

impl Default for SubscriptionSet<'_> {
    fn default() -> Self {
        SubscriptionSet::new()
    }
}

impl std::fmt::Debug for SubscriptionSet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubscriptionSet")
            .field("subscriptions", &self.names())
            .finish()
    }
}

/// The one front door for assessing weblog traffic.
///
/// Wraps a trained [`QoeMonitor`] and routes every input shape through
/// the same shared ingest pass and subscription fold:
///
/// * [`assess`](IngestPipeline::assess) — a whole tap capture (any mix
///   of subscribers), sharded across workers by the parallel engine.
/// * [`assess_binary`](IngestPipeline::assess_binary) — the same, from
///   a packed [`BinaryCorpus`]: records decode straight from the byte
///   buffer, no serde on the replay hot path.
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

    /// Set the parallel-engine knobs (workers, shards, queue depth).
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

    /// The engine configuration in effect.
    pub fn engine_config(&self) -> &EngineConfig {
        &self.engine
    }

    /// Assess a whole tap capture (any mix of subscribers, in arrival
    /// order): one shared pass over the records, sharded across
    /// workers, every session fanned out to the standard
    /// subscriptions. Bit-identical to the sequential streaming path
    /// at any worker count.
    pub fn assess(&self, entries: &[WeblogEntry]) -> IngestReport {
        crate::engine::run(self, entries, None).0
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
        let (report, trace) = crate::engine::run(self, entries, Some(trace_cfg));
        (report, trace.unwrap_or_default())
    }

    /// Assess a packed binary corpus: decode records straight from the
    /// length-prefixed byte buffer (zero serde), then run the same
    /// shared pass as [`IngestPipeline::assess`]. The report is
    /// bit-identical to assessing the equivalent JSONL decode.
    pub fn assess_binary(&self, corpus: &BinaryCorpus) -> Result<IngestReport, BinlogError> {
        let entries = corpus.decode_all()?;
        Ok(self.assess(&entries))
    }

    /// Assess one subscriber's raw (possibly encrypted) stream
    /// sequentially: reassemble sessions once, then fan each session's
    /// view out to the standard subscriptions. The whole slice is in
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn standard_set_registers_the_papers_trio_in_order() {
        let m = monitor();
        let set = SubscriptionSet::standard(&m);
        assert_eq!(set.names(), vec!["stall", "representation", "switch"]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        assert!(SubscriptionSet::default().is_empty());
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
            let legacy = m.assess_session(&obs, session.start, session.end);
            let folded = set.assess_session(SessionView::over(&obs, session));
            assert_eq!(legacy, folded);
        }
    }

    #[test]
    fn extension_subscription_sees_every_session_without_changing_the_report() {
        struct CountingProbe {
            delivered: AtomicUsize,
        }
        impl Subscription for CountingProbe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn deliver(&self, view: &SessionView<'_>) -> Signal {
                self.delivered.fetch_add(1, Ordering::Relaxed);
                Signal::Score(view.chunk_count() as f64)
            }
        }

        let m = monitor();
        let probe = CountingProbe {
            delivered: AtomicUsize::new(0),
        };
        let mut set = SubscriptionSet::standard(&m);
        set.subscribe(Box::new(&probe as &dyn Subscription));
        assert_eq!(set.len(), 4);

        let baseline = SubscriptionSet::standard(&m);
        let w = world(84, 6);
        let sessions = reassemble_subscriber(&w.entries, &m.reassembly);
        assert!(!sessions.is_empty());
        for session in &sessions {
            let obs = SessionObs::from_reassembled(session);
            let with_probe = set.assess_session(SessionView::over(&obs, session));
            let without = baseline.assess_session(SessionView::over(&obs, session));
            assert_eq!(with_probe, without, "Score channel must not leak");
        }
        assert_eq!(probe.delivered.load(Ordering::Relaxed), sessions.len());
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
