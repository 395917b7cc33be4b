//! Pipeline metric handles over the [`vqoe_obs`] registry.
//!
//! [`PipelineMetrics`] registers every hot-path metric of the ingest →
//! engine → inference pipeline under the
//! `vqoe_<crate>_<subsystem>_<name>` naming scheme and hands out cheap
//! clonable handles to the engine behind
//! [`IngestPipeline`](crate::IngestPipeline) and to the
//! [`OnlineAssessor`](crate::OnlineAssessor).
//!
//! Ingest health is kept once: [`StreamHealth`],
//! [`AnomalyLog::kinds`] and [`ShedLog::reasons`] are the only state,
//! and the registry's ingest, anomaly-kind and shed-reason counters and
//! the online gauges are their projection, written only by
//! `PipelineMetrics::publish` at one point per step (once per engine
//! run; after every online `ingest` call and in the drain) against a
//! `Published` watermark. Sums are commutative, so the
//! `Stable`-class snapshot is identical at any worker count. A restored
//! assessor's registry absorbs the checkpoint's snapshot before
//! `with_metrics` sets the watermark to the restored tallies.
//! Every metric registered here is `Stable` class; scheduling-dependent
//! signals (the `vqoe` CLI's wall-clock stage times) are registered by
//! their caller as `Runtime` class and excluded from the snapshot.
//!
//! [`AnomalyLog::kinds`]: vqoe_telemetry::AnomalyLog::kinds
//! [`ShedLog::reasons`]: crate::online::ShedLog::reasons

use vqoe_obs::{buckets, Counter, Gauge, Histogram, MetricClass, Registry};
use vqoe_telemetry::{AnomalyKindCounts, ReassembledSession, StreamHealth};

use crate::monitor::SessionAssessment;
use crate::online::ShedReasonCounts;

/// Snake_case labels of the stall classes, in
/// [`StallClass::index`](vqoe_features::StallClass::index) order: the
/// `<label>` of `vqoe_core_detector_stall_class_<label>_total`.
const STALL_CLASS_LABELS: [&str; 3] = ["no_stalls", "mild", "severe"];

/// Snake_case labels of the representation classes, in
/// [`RqClass::index`](vqoe_features::RqClass::index) order.
const REPRESENTATION_CLASS_LABELS: [&str; 3] = ["ld", "sd", "hd"];

/// Labels of the switch decision, indexed by `!has_quality_switches`.
const SWITCH_CLASS_LABELS: [&str; 2] = ["switching", "stable"];

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
    // Online assessor.
    pub(crate) shed_lru_capacity: Counter,
    pub(crate) shed_subscriber_budget: Counter,
    pub(crate) shed_global_budget: Counter,
    pub(crate) shed_admission_refused: Counter,
    pub(crate) open_subscribers: Gauge,
    pub(crate) tracked_bytes: Gauge,
    pub(crate) bytes_per_subscriber: Gauge,
    pub(crate) sessions_sketched: Counter,
}

/// One report tally and the registry counter that projects it.
type Projection<T> = (fn(&T) -> u64, fn(&PipelineMetrics) -> &Counter);

/// The health counters, one per [`StreamHealth`] field.
const HEALTH: [Projection<StreamHealth>; 8] = [
    (|h| h.entries_seen, |m| &m.entries_seen),
    (|h| h.entries_reordered, |m| &m.entries_reordered),
    (|h| h.entries_duplicated, |m| &m.entries_duplicated),
    (|h| h.entries_quarantined, |m| &m.entries_quarantined),
    (|h| h.sessions_evicted, |m| &m.sessions_evicted),
    (|h| h.sessions_shed, |m| &m.sessions_shed),
    (|h| h.subscribers_refused, |m| &m.subscribers_refused),
    (|h| h.sessions_partial, |m| &m.sessions_partial),
];

/// The quarantine counters, one per anomaly kind.
const KINDS: [Projection<AnomalyKindCounts>; 5] = [
    (|k| k.empty_host, |m| &m.anomaly_empty_host),
    (|k| k.oversized_object, |m| &m.anomaly_oversized_object),
    (|k| k.zero_sized_object, |m| &m.anomaly_zero_sized_object),
    (
        |k| k.overlong_transaction,
        |m| &m.anomaly_overlong_transaction,
    ),
    (|k| k.late_arrival, |m| &m.anomaly_late_arrival),
];

/// The shed counters, one per shed reason.
const REASONS: [Projection<ShedReasonCounts>; 4] = [
    (|r| r.lru_capacity, |m| &m.shed_lru_capacity),
    (|r| r.subscriber_budget, |m| &m.shed_subscriber_budget),
    (|r| r.global_budget, |m| &m.shed_global_budget),
    (|r| r.admission_refused, |m| &m.shed_admission_refused),
];

/// The tallies a registry was last brought up to by
/// `PipelineMetrics::publish`: the watermark the next publication
/// diffs against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Published {
    pub(crate) health: StreamHealth,
    pub(crate) kinds: AnomalyKindCounts,
    pub(crate) reasons: ShedReasonCounts,
}

impl PipelineMetrics {
    /// Register every pipeline metric in `registry` and return the
    /// handle bundle. Calling this twice against the same registry
    /// returns handles sharing the same underlying values.
    pub fn register(registry: &Registry) -> Self {
        let s = MetricClass::Stable;
        let counter = |name: &str, help: &str| registry.counter(name, help, s);
        let class_counter = |detector: &str, label: &str| {
            registry.counter(
                &format!("vqoe_core_detector_{detector}_class_{label}_total"),
                &format!("sessions the {detector} detector assigned to this class"),
                s,
            )
        };
        let stall_classes = STALL_CLASS_LABELS.map(|l| class_counter("stall", l));
        let representation_classes =
            REPRESENTATION_CLASS_LABELS.map(|l| class_counter("representation", l));
        let switch_classes = SWITCH_CLASS_LABELS.map(|l| class_counter("switch", l));
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

    /// Bring the registry up to the report's own tallies: the only
    /// writer of the ingest, anomaly-kind and shed-reason counters and
    /// the online gauges. Each counter gains its tally's growth from
    /// `mark` (the previous publication) to `now`, then `mark` becomes
    /// `now`. `occupancy` is the online assessor's (tracked
    /// subscribers, tracked bytes); the engine, which owns no gauges,
    /// passes `None`.
    pub(crate) fn publish(
        &self,
        mark: &mut Published,
        now: Published,
        occupancy: Option<(usize, u64)>,
    ) {
        fn bump<T>(m: &PipelineMetrics, projections: &[Projection<T>], was: &T, now: &T) {
            for (tally, counter) in projections {
                let (was, now) = (tally(was), tally(now));
                if now > was {
                    counter(m).add(now - was);
                }
            }
        }
        bump(self, &HEALTH, &mark.health, &now.health);
        bump(self, &KINDS, &mark.kinds, &now.kinds);
        bump(self, &REASONS, &mark.reasons, &now.reasons);
        *mark = now;
        if let Some((subscribers, bytes)) = occupancy {
            self.open_subscribers.set(subscribers as i64);
            self.tracked_bytes.set(bytes as i64);
            self.bytes_per_subscriber
                .set((bytes / subscribers.max(1) as u64) as i64);
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
    use crate::online::ShedReason;
    use vqoe_telemetry::AnomalyKind;

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
        let now = Published {
            health: after,
            ..Published::default()
        };
        m.publish(&mut Published::default(), now, None);
        assert_eq!(m.health_view(), after);
    }

    #[test]
    fn publish_adds_only_growth_since_the_watermark() {
        let registry = Registry::new();
        let m = PipelineMetrics::register(&registry);
        let mut mark = Published::default();
        let mut reasons = ShedReasonCounts::default();
        let mut health = StreamHealth {
            entries_seen: 4,
            ..StreamHealth::default()
        };
        let kinds = AnomalyKindCounts::default();
        let now = |health, reasons| Published {
            health,
            kinds,
            reasons,
        };
        m.publish(&mut mark, now(health, reasons), Some((3, 100)));
        health.entries_seen = 9;
        reasons.record(ShedReason::GlobalBudget);
        m.publish(&mut mark, now(health, reasons), Some((2, 7)));
        m.publish(&mut mark, now(health, reasons), None);
        assert_eq!(m.health_view(), health);
        assert_eq!(m.shed_reasons_view(), reasons);
        assert_eq!(mark, now(health, reasons));
        assert_eq!(m.open_subscribers.get(), 2);
        assert_eq!(m.tracked_bytes.get(), 7);
        assert_eq!(m.bytes_per_subscriber.get(), 3);
    }

    #[test]
    fn kind_delta_routes_to_named_counters() {
        let registry = Registry::new();
        let m = PipelineMetrics::register(&registry);
        let mut after = AnomalyKindCounts::default();
        after.record(AnomalyKind::LateArrival);
        after.record(AnomalyKind::LateArrival);
        after.record(AnomalyKind::EmptyHost);
        let now = Published {
            kinds: after,
            ..Published::default()
        };
        m.publish(&mut Published::default(), now, None);
        assert_eq!(m.anomaly_kinds_view(), after);
        let text = registry.render_prometheus();
        assert!(text.contains("vqoe_telemetry_ingest_anomaly_late_arrival_total 2"));
        assert!(text.contains("vqoe_telemetry_ingest_anomaly_empty_host_total 1"));
    }
}
