//! Pipeline metric handles over the [`vqoe_obs`] registry.
//!
//! [`PipelineMetrics`] registers every hot-path metric of the ingest →
//! engine → inference pipeline under the
//! `vqoe_<crate>_<subsystem>_<name>` naming scheme and hands out cheap
//! clonable handles to the engine behind
//! [`IngestPipeline`](crate::IngestPipeline) and to the
//! [`OnlineAssessor`](crate::OnlineAssessor). Every counter that
//! mirrors a [`StreamHealth`] or [`AnomalyKindCounts`] field is
//! recorded as a per-entry (or per-shard-job) delta, so sums are
//! commutative and the `Stable`-class snapshot is identical at any
//! worker count. Scheduling-dependent signals (queue depth,
//! backpressure stalls) are registered as `Runtime` class and excluded
//! from the snapshot.

use vqoe_features::{RqClass, StallClass};
use vqoe_obs::{buckets, Counter, Gauge, Histogram, MetricClass, Registry, SimClock, StageSpan};
use vqoe_telemetry::{AnomalyKind, AnomalyKindCounts, ReassembledSession, StreamHealth};

use crate::avgrep_pipeline::RepresentationModel;
use crate::detector::Detector;
use crate::monitor::SessionAssessment;
use crate::online::{ShedReason, ShedReasonCounts};
use crate::stall_pipeline::StallModel;
use crate::switch_pipeline::SwitchModel;

/// Clonable bundle of every pipeline metric handle.
///
/// Built once per [`Registry`] via [`PipelineMetrics::register`] and
/// attached to the engine / online assessor with their `with_metrics`
/// builders. All handles are `Arc`-backed atomics: recording never
/// takes a lock.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    // Ingest (telemetry facade).
    pub(crate) entries_seen: Counter,
    pub(crate) entries_reordered: Counter,
    pub(crate) entries_duplicated: Counter,
    pub(crate) entries_quarantined: Counter,
    pub(crate) sessions_evicted: Counter,
    pub(crate) sessions_shed: Counter,
    pub(crate) subscribers_refused: Counter,
    pub(crate) sessions_partial: Counter,
    pub(crate) anomaly_empty_host: Counter,
    pub(crate) anomaly_oversized_object: Counter,
    pub(crate) anomaly_zero_sized_object: Counter,
    pub(crate) anomaly_overlong_transaction: Counter,
    pub(crate) anomaly_late_arrival: Counter,
    pub(crate) chunk_bytes: Histogram,
    // Monitor / detector inference.
    pub(crate) sessions_assessed: Counter,
    pub(crate) sessions_poor_qoe: Counter,
    pub(crate) session_micros: Histogram,
    pub(crate) stall_classes: [Counter; 3],
    pub(crate) representation_classes: [Counter; 3],
    pub(crate) switch_classes: [Counter; 2],
    // Engine.
    pub(crate) shard_jobs: Counter,
    pub(crate) stage_ticks: Histogram,
    pub(crate) worker_busy_ticks: Counter,
    pub(crate) reduce_merge_size: Histogram,
    pub(crate) queue_stalls: Counter,
    pub(crate) queue_depth: Gauge,
    // Online assessor.
    pub(crate) online_evictions: Counter,
    pub(crate) online_sheds: Counter,
    pub(crate) shed_lru_capacity: Counter,
    pub(crate) shed_subscriber_budget: Counter,
    pub(crate) shed_global_budget: Counter,
    pub(crate) shed_admission_refused: Counter,
    pub(crate) open_subscribers: Gauge,
    pub(crate) tracked_bytes: Gauge,
    pub(crate) bytes_per_subscriber: Gauge,
    pub(crate) sessions_sketched: Counter,
    // Training.
    pub(crate) trees_fitted: Counter,
    pub(crate) cv_folds_skipped: Counter,
    pub(crate) cv_fold_ticks: Histogram,
}

impl PipelineMetrics {
    /// Register every pipeline metric in `registry` and return the
    /// handle bundle. Calling this twice against the same registry
    /// returns handles sharing the same underlying values.
    pub fn register(registry: &Registry) -> Self {
        let s = MetricClass::Stable;
        let counter = |name: &str, help: &str| registry.counter(name, help, s);
        let stall = [StallClass::NoStalls, StallClass::Mild, StallClass::Severe];
        let rq = [RqClass::Ld, RqClass::Sd, RqClass::Hd];
        let stall_classes = stall.map(|c| {
            registry.counter(
                &format!(
                    "vqoe_core_detector_stall_class_{}_total",
                    StallModel::class_label(&c)
                ),
                "sessions the stall detector assigned to this class",
                s,
            )
        });
        let representation_classes = rq.map(|c| {
            registry.counter(
                &format!(
                    "vqoe_core_detector_representation_class_{}_total",
                    RepresentationModel::class_label(&c)
                ),
                "sessions the representation detector assigned to this class",
                s,
            )
        });
        let switch_classes = [true, false].map(|c| {
            registry.counter(
                &format!(
                    "vqoe_core_detector_switch_class_{}_total",
                    SwitchModel::class_label(&c)
                ),
                "sessions the switch detector assigned to this class",
                s,
            )
        });
        PipelineMetrics {
            entries_seen: counter(
                "vqoe_telemetry_ingest_entries_seen_total",
                "weblog entries offered to the assessor (including noise and faults)",
            ),
            entries_reordered: counter(
                "vqoe_telemetry_ingest_entries_reordered_total",
                "entries admitted out of timestamp order and re-sorted",
            ),
            entries_duplicated: counter(
                "vqoe_telemetry_ingest_entries_duplicated_total",
                "exact duplicate records suppressed",
            ),
            entries_quarantined: counter(
                "vqoe_telemetry_ingest_entries_quarantined_total",
                "entries quarantined into the anomaly log",
            ),
            sessions_evicted: counter(
                "vqoe_telemetry_ingest_sessions_evicted_total",
                "idle subscribers evicted to enforce the memory cap",
            ),
            sessions_shed: counter(
                "vqoe_telemetry_ingest_sessions_shed_total",
                "subscribers force-finalized by a memory budget (load shedding)",
            ),
            subscribers_refused: counter(
                "vqoe_telemetry_ingest_subscribers_refused_total",
                "new subscribers refused admission under a full global budget",
            ),
            sessions_partial: counter(
                "vqoe_telemetry_ingest_sessions_partial_total",
                "sessions assessed from an evicted or shed (force-closed) stream",
            ),
            anomaly_empty_host: counter(
                "vqoe_telemetry_ingest_anomaly_empty_host_total",
                "quarantines: empty hostname",
            ),
            anomaly_oversized_object: counter(
                "vqoe_telemetry_ingest_anomaly_oversized_object_total",
                "quarantines: object size above the ingest cap",
            ),
            anomaly_zero_sized_object: counter(
                "vqoe_telemetry_ingest_anomaly_zero_sized_object_total",
                "quarantines: zero-byte object",
            ),
            anomaly_overlong_transaction: counter(
                "vqoe_telemetry_ingest_anomaly_overlong_transaction_total",
                "quarantines: transaction outlived the duration cap",
            ),
            anomaly_late_arrival: counter(
                "vqoe_telemetry_ingest_anomaly_late_arrival_total",
                "quarantines: arrival beyond the reorder window",
            ),
            chunk_bytes: registry.histogram(
                "vqoe_telemetry_ingest_chunk_bytes",
                "payload bytes per reassembled media chunk",
                s,
                buckets::CHUNK_BYTES,
            ),
            sessions_assessed: counter(
                "vqoe_core_monitor_sessions_assessed_total",
                "sessions run through the frozen detectors",
            ),
            sessions_poor_qoe: counter(
                "vqoe_core_monitor_sessions_poor_qoe_total",
                "assessed sessions scored as poor QoE",
            ),
            session_micros: registry.histogram(
                "vqoe_core_monitor_session_duration_micros",
                "assessed session durations in microseconds",
                s,
                buckets::SESSION_MICROS,
            ),
            stall_classes,
            representation_classes,
            switch_classes,
            shard_jobs: counter(
                "vqoe_core_engine_shard_jobs_total",
                "shard jobs processed by engine workers",
            ),
            stage_ticks: registry.histogram(
                "vqoe_core_engine_stage_ticks",
                "deterministic work ticks (entries processed) per shard job",
                s,
                buckets::WORK_TICKS,
            ),
            worker_busy_ticks: counter(
                "vqoe_core_engine_worker_busy_ticks_total",
                "total deterministic work ticks across all engine workers",
            ),
            reduce_merge_size: registry.histogram(
                "vqoe_core_engine_reduce_merge_size",
                "emissions merged per shard by the ordered reducer",
                s,
                buckets::MERGE_SIZE,
            ),
            queue_stalls: registry.counter(
                "vqoe_core_engine_queue_stalls_total",
                "producer pushes that blocked on a full work queue (backpressure)",
                MetricClass::Runtime,
            ),
            queue_depth: registry.gauge(
                "vqoe_core_engine_queue_depth",
                "shard jobs waiting in the bounded work queue",
                MetricClass::Runtime,
            ),
            online_evictions: counter(
                "vqoe_core_online_evictions_total",
                "LRU subscriber evictions by the online assessor",
            ),
            online_sheds: counter(
                "vqoe_core_online_sheds_total",
                "budget-driven force-finalizations by the online assessor",
            ),
            shed_lru_capacity: counter(
                "vqoe_core_online_shed_lru_capacity_total",
                "shed events: LRU eviction under the open-subscriber cap",
            ),
            shed_subscriber_budget: counter(
                "vqoe_core_online_shed_subscriber_budget_total",
                "shed events: subscriber outgrew its per-subscriber byte budget",
            ),
            shed_global_budget: counter(
                "vqoe_core_online_shed_global_budget_total",
                "shed events: coldest subscriber shed under the global byte budget",
            ),
            shed_admission_refused: counter(
                "vqoe_core_online_shed_admission_refused_total",
                "shed events: new subscriber refused admission under a full global budget",
            ),
            open_subscribers: registry.gauge(
                "vqoe_core_online_open_subscribers",
                "subscribers currently tracked by the online assessor",
                s,
            ),
            tracked_bytes: registry.gauge(
                "vqoe_core_online_tracked_bytes",
                "buffered bytes currently tracked by the online assessor (record-cost units)",
                s,
            ),
            bytes_per_subscriber: registry.gauge(
                "vqoe_core_online_bytes_per_subscriber",
                "tracked bytes divided by tracked subscribers (record-cost units)",
                s,
            ),
            sessions_sketched: counter(
                "vqoe_core_online_sessions_sketched_total",
                "sessions that spilled past the exactness cap and were assessed from streaming sketches",
            ),
            trees_fitted: counter(
                "vqoe_core_train_trees_fitted_total",
                "decision trees fitted across CV folds and deployment fits",
            ),
            cv_folds_skipped: counter(
                "vqoe_core_train_cv_folds_skipped_total",
                "cross-validation folds skipped as unusable (empty test or training side)",
            ),
            cv_fold_ticks: registry.histogram(
                "vqoe_core_train_cv_fold_ticks",
                "deterministic work ticks (test rows scored) per cross-validation fold",
                s,
                buckets::WORK_TICKS,
            ),
        }
    }

    /// Like [`PipelineMetrics::register`], but with exemplar capture
    /// enabled on the chunk-size and session-duration histograms: each
    /// bucket retains its maximal sample linked back to the session
    /// (id + tick) that produced it, so tail latencies point straight
    /// at replayable sessions. The retained set is a pure function of
    /// the input, so the `Stable` snapshot stays byte-identical at any
    /// worker count.
    pub fn register_with_exemplars(registry: &Registry) -> Self {
        let metrics = PipelineMetrics::register(registry);
        metrics.chunk_bytes.enable_exemplars();
        metrics.session_micros.enable_exemplars();
        metrics
    }

    /// Record one cross-validation run: a [`StageSpan`] per fold (ticks
    /// = test rows scored, skipped folds span zero ticks), the
    /// skipped-fold count, and the trees fitted. Everything recorded
    /// here is a pure function of the [`CvReport`], so the `Stable`
    /// snapshot stays byte-identical at any worker count.
    ///
    /// [`StageSpan`]: vqoe_obs::StageSpan
    pub(crate) fn observe_cv(&self, report: &vqoe_ml::CvReport) {
        let clock = SimClock::new();
        for &test_rows in &report.fold_test_sizes {
            let span = StageSpan::start(&clock, &self.cv_fold_ticks);
            clock.advance(test_rows as u64);
            span.finish();
        }
        self.cv_folds_skipped.add(report.skipped_folds as u64);
        self.trees_fitted.add(report.trees_fitted as u64);
    }

    /// Record a deployment-model fit of `n_trees` trees.
    pub(crate) fn observe_fit(&self, n_trees: usize) {
        self.trees_fitted.add(n_trees as u64);
    }

    /// Handle for one shed-reason counter.
    pub(crate) fn shed_reason(&self, reason: ShedReason) -> &Counter {
        match reason {
            ShedReason::LruCapacity => &self.shed_lru_capacity,
            ShedReason::SubscriberBudget => &self.shed_subscriber_budget,
            ShedReason::GlobalBudget => &self.shed_global_budget,
            ShedReason::AdmissionRefused => &self.shed_admission_refused,
        }
    }

    /// Reconstruct the per-reason shed distribution from the registry
    /// counters (mirrors [`ShedLog::reasons`]): with metrics attached,
    /// the report's shed log and this view agree field for field.
    ///
    /// [`ShedLog::reasons`]: crate::online::ShedLog::reasons
    pub fn shed_reasons_view(&self) -> ShedReasonCounts {
        ShedReasonCounts {
            lru_capacity: self.shed_lru_capacity.get(),
            subscriber_budget: self.shed_subscriber_budget.get(),
            global_budget: self.shed_global_budget.get(),
            admission_refused: self.shed_admission_refused.get(),
        }
    }

    /// Handle for one anomaly-kind counter.
    pub(crate) fn anomaly_kind(&self, kind: AnomalyKind) -> &Counter {
        match kind {
            AnomalyKind::EmptyHost => &self.anomaly_empty_host,
            AnomalyKind::OversizedObject => &self.anomaly_oversized_object,
            AnomalyKind::ZeroSizedObject => &self.anomaly_zero_sized_object,
            AnomalyKind::OverlongTransaction => &self.anomaly_overlong_transaction,
            AnomalyKind::LateArrival => &self.anomaly_late_arrival,
        }
    }

    /// Record the difference between two [`StreamHealth`] snapshots
    /// into the ingest counters. Deltas are commutative sums, so
    /// per-shard recording order cannot affect the totals.
    pub(crate) fn observe_health_delta(&self, before: &StreamHealth, after: &StreamHealth) {
        self.entries_seen
            .add(after.entries_seen.saturating_sub(before.entries_seen));
        self.entries_reordered.add(
            after
                .entries_reordered
                .saturating_sub(before.entries_reordered),
        );
        self.entries_duplicated.add(
            after
                .entries_duplicated
                .saturating_sub(before.entries_duplicated),
        );
        self.entries_quarantined.add(
            after
                .entries_quarantined
                .saturating_sub(before.entries_quarantined),
        );
        self.sessions_evicted.add(
            after
                .sessions_evicted
                .saturating_sub(before.sessions_evicted),
        );
        self.sessions_shed
            .add(after.sessions_shed.saturating_sub(before.sessions_shed));
        self.subscribers_refused.add(
            after
                .subscribers_refused
                .saturating_sub(before.subscribers_refused),
        );
        self.sessions_partial.add(
            after
                .sessions_partial
                .saturating_sub(before.sessions_partial),
        );
    }

    /// Record the difference between two [`AnomalyKindCounts`]
    /// snapshots into the per-kind quarantine counters.
    pub(crate) fn observe_kind_delta(&self, before: &AnomalyKindCounts, after: &AnomalyKindCounts) {
        for kind in [
            AnomalyKind::EmptyHost,
            AnomalyKind::OversizedObject,
            AnomalyKind::ZeroSizedObject,
            AnomalyKind::OverlongTransaction,
            AnomalyKind::LateArrival,
        ] {
            self.anomaly_kind(kind)
                .add(after.of(kind).saturating_sub(before.of(kind)));
        }
    }

    /// Record one assessed session: chunk sizes, duration, and the
    /// class each frozen detector predicted.
    pub(crate) fn observe_session(
        &self,
        session: &ReassembledSession,
        assessment: &SessionAssessment,
    ) {
        // Exemplar linkage: session id = start time in tap micros, tick
        // = the sample's own tap-time micros — pure functions of the
        // input, so exemplar capture never perturbs the snapshot's
        // determinism. With capture disabled these are plain observes.
        let session_id = session.start.as_micros();
        for chunk in &session.chunks {
            self.chunk_bytes
                .observe_exemplar(chunk.bytes, session_id, chunk.timestamp.as_micros());
        }
        self.session_micros.observe_exemplar(
            assessment.end.duration_since(assessment.start).as_micros(),
            session_id,
            assessment.end.as_micros(),
        );
        self.sessions_assessed.inc();
        if assessment.qoe.is_poor() {
            self.sessions_poor_qoe.inc();
        }
        if let Some(c) = self.stall_classes.get(assessment.stall.index()) {
            c.inc();
        }
        if let Some(c) = self
            .representation_classes
            .get(assessment.representation.index())
        {
            c.inc();
        }
        let switch_idx = usize::from(!assessment.has_quality_switches);
        if let Some(c) = self.switch_classes.get(switch_idx) {
            c.inc();
        }
    }

    /// Reconstruct a [`StreamHealth`] façade from the registry
    /// counters: with metrics attached, the pipeline's report health
    /// and this view agree field for field (one source of truth).
    pub fn health_view(&self) -> StreamHealth {
        StreamHealth {
            entries_seen: self.entries_seen.get(),
            entries_reordered: self.entries_reordered.get(),
            entries_duplicated: self.entries_duplicated.get(),
            entries_quarantined: self.entries_quarantined.get(),
            sessions_evicted: self.sessions_evicted.get(),
            sessions_shed: self.sessions_shed.get(),
            subscribers_refused: self.subscribers_refused.get(),
            sessions_partial: self.sessions_partial.get(),
        }
    }

    /// Reconstruct the per-kind quarantine distribution from the
    /// registry counters (mirrors [`AnomalyLog::kinds`]).
    ///
    /// [`AnomalyLog::kinds`]: vqoe_telemetry::AnomalyLog::kinds
    pub fn anomaly_kinds_view(&self) -> AnomalyKindCounts {
        AnomalyKindCounts {
            empty_host: self.anomaly_empty_host.get(),
            oversized_object: self.anomaly_oversized_object.get(),
            zero_sized_object: self.anomaly_zero_sized_object.get(),
            overlong_transaction: self.anomaly_overlong_transaction.get(),
            late_arrival: self.anomaly_late_arrival.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_on_one_registry() {
        let registry = Registry::new();
        let a = PipelineMetrics::register(&registry);
        let b = PipelineMetrics::register(&registry);
        a.entries_seen.add(3);
        b.entries_seen.add(4);
        assert_eq!(a.entries_seen.get(), 7, "handles share one value");
    }

    #[test]
    fn health_view_mirrors_recorded_deltas() {
        let registry = Registry::new();
        let m = PipelineMetrics::register(&registry);
        let before = StreamHealth::default();
        let after = StreamHealth {
            entries_seen: 10,
            entries_reordered: 2,
            entries_duplicated: 1,
            entries_quarantined: 3,
            sessions_evicted: 0,
            sessions_shed: 4,
            subscribers_refused: 5,
            sessions_partial: 0,
        };
        m.observe_health_delta(&before, &after);
        assert_eq!(m.health_view(), after);
    }

    #[test]
    fn observe_cv_records_folds_skips_and_trees() {
        let registry = Registry::new();
        let m = PipelineMetrics::register(&registry);
        let report = vqoe_ml::CvReport {
            matrix: vqoe_ml::ConfusionMatrix::new(vec!["a".into(), "b".into()]),
            skipped_folds: 2,
            fold_test_sizes: vec![12, 0, 15, 0],
            trees_fitted: 120,
        };
        m.observe_cv(&report);
        m.observe_fit(60);
        assert_eq!(m.trees_fitted.get(), 180);
        assert_eq!(m.cv_folds_skipped.get(), 2);
        let text = registry.render_prometheus();
        assert!(text.contains("vqoe_core_train_trees_fitted_total 180"));
        assert!(text.contains("vqoe_core_train_cv_fold_ticks_count 4"));
        assert!(text.contains("vqoe_core_train_cv_fold_ticks_sum 27"));
    }

    #[test]
    fn kind_delta_routes_to_named_counters() {
        let registry = Registry::new();
        let m = PipelineMetrics::register(&registry);
        let mut after = AnomalyKindCounts::default();
        after.record(AnomalyKind::LateArrival);
        after.record(AnomalyKind::LateArrival);
        after.record(AnomalyKind::EmptyHost);
        m.observe_kind_delta(&AnomalyKindCounts::default(), &after);
        assert_eq!(m.anomaly_kinds_view(), after);
        let text = registry.render_prometheus();
        assert!(text.contains("vqoe_telemetry_ingest_anomaly_late_arrival_total 2"));
        assert!(text.contains("vqoe_telemetry_ingest_anomaly_empty_host_total 1"));
    }
}
