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
//! gathered as [`Tallies`]. One table, `TALLIES`, names the registry
//! counter of each of its 17 tallies, gives its help text and says
//! where the tally lives; registration, publication and the read-back
//! [`PipelineMetrics::tallies`] all walk it. The counters and the
//! online gauges are the tallies' projection, written only by
//! `PipelineMetrics::publish` at one point per step (once per engine
//! run; after every online `ingest` call and in the drain) against a
//! [`Tallies`] watermark. Sums are commutative, so the
//! `Stable`-class snapshot is identical at any worker count. A restored
//! assessor's registry absorbs the checkpoint's snapshot before
//! `with_metrics` sets the watermark to the restored tallies.
//! Every metric registered here is `Stable` class; scheduling-dependent
//! signals (the `vqoe` CLI's wall-clock stage times) are registered by
//! their caller as `Runtime` class and excluded from the snapshot.
//!
//! The snapshot's JSON form lives here too, writer and reader together:
//! [`encode_snapshot`] renders a [`Snapshot`] for `--metrics PATH.json`,
//! `--metrics -` and the copy a checkpoint embeds, and
//! [`decode_snapshot`] reads that copy back on restore.

use serde::{DeError, Deserialize};
use serde_json::Value;
use vqoe_obs::{
    buckets, Counter, Exemplar, Gauge, Histogram, HistogramSnapshot, MetricClass, Registry,
    Snapshot, SnapshotError,
};
use vqoe_telemetry::{AnomalyKindCounts, AnomalyLog, ReassembledSession, StreamHealth};

use crate::monitor::SessionAssessment;
use crate::online::{ShedLog, ShedReasonCounts};

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
    /// One counter per [`TALLIES`] row, in its order.
    tallies: [Counter; TALLIES.len()],
    // Ingest (telemetry facade).
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
    pub(crate) open_subscribers: Gauge,
    pub(crate) tracked_bytes: Gauge,
    pub(crate) bytes_per_subscriber: Gauge,
    pub(crate) sessions_sketched: Counter,
}

/// A report's tallies: the state the registry's tally counters
/// project. [`PipelineMetrics::tallies`] reads the same shape back from
/// the registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tallies {
    /// The stream health counters.
    pub health: StreamHealth,
    /// The quarantines per anomaly kind ([`AnomalyLog::kinds`]).
    pub kinds: AnomalyKindCounts,
    /// The shed events per reason ([`ShedLog::reasons`]).
    pub reasons: ShedReasonCounts,
}

impl Tallies {
    /// The tallies of a report's health, anomaly log and shed log.
    pub fn new(health: StreamHealth, anomalies: &AnomalyLog, shed: &ShedLog) -> Self {
        Tallies {
            health,
            kinds: anomalies.kinds(),
            reasons: shed.reasons(),
        }
    }
}

/// One report tally: its counter's name and help, and the tally's
/// place in [`Tallies`].
type Tally = (&'static str, &'static str, fn(&mut Tallies) -> &mut u64);

/// Every report tally the registry projects, one counter each.
const TALLIES: [Tally; 17] = [
    (
        "vqoe_telemetry_ingest_entries_seen_total",
        "weblog entries offered to the assessor (including noise and faults)",
        |t| &mut t.health.entries_seen,
    ),
    (
        "vqoe_telemetry_ingest_entries_reordered_total",
        "entries admitted out of timestamp order and re-sorted",
        |t| &mut t.health.entries_reordered,
    ),
    (
        "vqoe_telemetry_ingest_entries_duplicated_total",
        "exact duplicate records suppressed",
        |t| &mut t.health.entries_duplicated,
    ),
    (
        "vqoe_telemetry_ingest_entries_quarantined_total",
        "entries quarantined into the anomaly log",
        |t| &mut t.health.entries_quarantined,
    ),
    (
        "vqoe_telemetry_ingest_sessions_evicted_total",
        "idle subscribers evicted to enforce the memory cap",
        |t| &mut t.health.sessions_evicted,
    ),
    (
        "vqoe_telemetry_ingest_sessions_shed_total",
        "subscribers force-finalized by a memory budget (load shedding)",
        |t| &mut t.health.sessions_shed,
    ),
    (
        "vqoe_telemetry_ingest_subscribers_refused_total",
        "new subscribers refused admission under a full global budget",
        |t| &mut t.health.subscribers_refused,
    ),
    (
        "vqoe_telemetry_ingest_sessions_partial_total",
        "sessions assessed from an evicted or shed (force-closed) stream",
        |t| &mut t.health.sessions_partial,
    ),
    (
        "vqoe_telemetry_ingest_anomaly_empty_host_total",
        "quarantines: empty hostname",
        |t| &mut t.kinds.empty_host,
    ),
    (
        "vqoe_telemetry_ingest_anomaly_oversized_object_total",
        "quarantines: object size above the ingest cap",
        |t| &mut t.kinds.oversized_object,
    ),
    (
        "vqoe_telemetry_ingest_anomaly_zero_sized_object_total",
        "quarantines: zero-byte object",
        |t| &mut t.kinds.zero_sized_object,
    ),
    (
        "vqoe_telemetry_ingest_anomaly_overlong_transaction_total",
        "quarantines: transaction outlived the duration cap",
        |t| &mut t.kinds.overlong_transaction,
    ),
    (
        "vqoe_telemetry_ingest_anomaly_late_arrival_total",
        "quarantines: arrival beyond the reorder window",
        |t| &mut t.kinds.late_arrival,
    ),
    (
        "vqoe_core_online_shed_lru_capacity_total",
        "shed events: LRU eviction under the open-subscriber cap",
        |t| &mut t.reasons.lru_capacity,
    ),
    (
        "vqoe_core_online_shed_subscriber_budget_total",
        "shed events: subscriber outgrew its per-subscriber byte budget",
        |t| &mut t.reasons.subscriber_budget,
    ),
    (
        "vqoe_core_online_shed_global_budget_total",
        "shed events: coldest subscriber shed under the global byte budget",
        |t| &mut t.reasons.global_budget,
    ),
    (
        "vqoe_core_online_shed_admission_refused_total",
        "shed events: new subscriber refused admission under a full global budget",
        |t| &mut t.reasons.admission_refused,
    ),
];

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
            tallies: TALLIES.map(|(name, help, _)| counter(name, help)),
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

    /// Read the tallies back from the registry counters: with metrics
    /// attached, they equal the report's own [`Tallies`] field for
    /// field (one source of truth).
    pub fn tallies(&self) -> Tallies {
        let mut tallies = Tallies::default();
        for ((_, _, tally), counter) in TALLIES.iter().zip(&self.tallies) {
            *tally(&mut tallies) = counter.get();
        }
        tallies
    }

    /// Bring the registry up to the report's own tallies: the only
    /// writer of the tally counters and the online gauges. Each counter
    /// gains its tally's growth from `mark` (the previous publication)
    /// to `now`, then `mark` becomes `now`. `occupancy` is the online
    /// assessor's (tracked subscribers, tracked bytes); the engine,
    /// which owns no gauges, passes `None`.
    pub(crate) fn publish(
        &self,
        mark: &mut Tallies,
        mut now: Tallies,
        occupancy: Option<(usize, u64)>,
    ) {
        for ((_, _, tally), counter) in TALLIES.iter().zip(&self.tallies) {
            let (was, is) = (*tally(mark), *tally(&mut now));
            if is > was {
                counter.add(is - was);
            }
        }
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
}

/// Render a [`Snapshot`] as the stable-ordered JSON snapshot: one object
/// with `counters` / `gauges` / `histograms` sections in the snapshot's
/// (name) order, integer values only, one metric per line. Equal
/// snapshots render byte-identically, so the file is identical across
/// runs and worker counts for the same input.
pub fn encode_snapshot(snapshot: &Snapshot) -> String {
    fn lines<T>(section: &[(String, T)], value: impl Fn(&T) -> String) -> String {
        let name = |n: &str| serde_json::to_string(n).unwrap_or_default();
        let lines: Vec<String> = section
            .iter()
            .map(|(n, v)| format!("    {}: {}", name(n), value(v)))
            .collect();
        lines.join(",\n")
    }
    let histogram = |h: &HistogramSnapshot| {
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .map(|(b, c)| format!("[{b}, {c}]"))
            .collect();
        // Exemplar-enabled histograms append their retained exemplars;
        // plain histograms keep the exemplar-free shape.
        let exemplars = h.exemplars.as_ref().map_or_else(String::new, |kept| {
            let kept: Vec<String> = kept
                .iter()
                .map(|(i, e)| format!("[{i}, {}, {}, {}]", e.value, e.session, e.tick))
                .collect();
            format!(", \"exemplars\": [{}]", kept.join(", "))
        });
        let (inf, sum, count) = (h.inf, h.sum, h.count);
        let buckets = buckets.join(", ");
        format!("{{ \"buckets\": [{buckets}], \"inf\": {inf}, \"sum\": {sum}, \"count\": {count}{exemplars} }}")
    };
    format!(
        "{{\n  \"counters\": {{\n{}\n  }},\n  \"gauges\": {{\n{}\n  }},\n  \"histograms\": {{\n{}\n  }}\n}}\n",
        lines(&snapshot.counters, u64::to_string),
        lines(&snapshot.gauges, i64::to_string),
        lines(&snapshot.histograms, histogram),
    )
}

/// Read a snapshot [`encode_snapshot`] wrote. The three sections and
/// each histogram's keys must appear exactly as written (`exemplars`
/// optional), and every value must be an integer of its field's type;
/// anything else is [`MetricsSnapshotError::Malformed`], never a panic.
pub fn decode_snapshot(text: &str) -> Result<Snapshot, MetricsSnapshotError> {
    let malformed = |e: &dyn std::fmt::Display| MetricsSnapshotError::Malformed(e.to_string());
    let value: Value = serde_json::from_str(text).map_err(|e| malformed(&e))?;
    expect_keys(&value, &["counters", "gauges", "histograms"])
        .and_then(|()| {
            Ok(Snapshot {
                counters: section(&value["counters"], u64::from_value)?,
                gauges: section(&value["gauges"], i64::from_value)?,
                histograms: section(&value["histograms"], histogram)?,
            })
        })
        .map_err(|e| malformed(&e))
}

/// A section's `(name, value)` pairs, each value read by `item`. The
/// names must ascend strictly, as the registry writes them: a name
/// given twice would otherwise be absorbed twice.
fn section<T>(
    value: &Value,
    item: fn(&Value) -> Result<T, DeError>,
) -> Result<Vec<(String, T)>, DeError> {
    let Value::Map(entries) = value else {
        return Err(DeError::mismatch("object", value));
    };
    if let Some(pair) = entries.windows(2).find(|pair| pair[0].0 >= pair[1].0) {
        let name = &pair[1].0;
        return Err(DeError::custom(format!("{name}: out of name order")));
    }
    entries
        .iter()
        .map(|(name, v)| match item(v) {
            Ok(parsed) => Ok((name.clone(), parsed)),
            Err(e) => Err(DeError::custom(format!("{name}: {e}"))),
        })
        .collect()
}

/// One histogram object of a snapshot.
fn histogram(value: &Value) -> Result<HistogramSnapshot, DeError> {
    const KEYS: [&str; 5] = ["buckets", "inf", "sum", "count", "exemplars"];
    expect_keys(value, &KEYS[..4]).or_else(|_| expect_keys(value, &KEYS))?;
    let exemplars: Option<Vec<(usize, u64, u64, u64)>> =
        value.get("exemplars").map(Vec::from_value).transpose()?;
    let exemplar = |(i, value, session, tick)| {
        let kept = Exemplar {
            value,
            session,
            tick,
        };
        (i, kept)
    };
    Ok(HistogramSnapshot {
        buckets: Vec::from_value(&value["buckets"])?,
        inf: u64::from_value(&value["inf"])?,
        sum: u64::from_value(&value["sum"])?,
        count: u64::from_value(&value["count"])?,
        exemplars: exemplars.map(|kept| kept.into_iter().map(exemplar).collect()),
    })
}

/// `value` must be an object with exactly `keys`, in that order.
fn expect_keys(value: &Value, keys: &[&str]) -> Result<(), DeError> {
    let exact = match value {
        Value::Map(entries) => entries
            .iter()
            .map(|(k, _)| k.as_str())
            .eq(keys.iter().copied()),
        _ => false,
    };
    if exact {
        Ok(())
    } else {
        let want = keys.join(", ");
        Err(DeError::custom(format!("expected an object keyed {want}")))
    }
}

/// Why a metrics snapshot could not be read or absorbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsSnapshotError {
    /// The text is not a snapshot [`encode_snapshot`] wrote (with the
    /// reason).
    Malformed(String),
    /// The snapshot does not fit the registry it was absorbed into.
    Mismatch(SnapshotError),
}

impl From<SnapshotError> for MetricsSnapshotError {
    fn from(e: SnapshotError) -> Self {
        MetricsSnapshotError::Mismatch(e)
    }
}

impl std::fmt::Display for MetricsSnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricsSnapshotError::Malformed(why) => write!(f, "malformed metrics snapshot: {why}"),
            MetricsSnapshotError::Mismatch(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for MetricsSnapshotError {}

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
        a.tallies[0].add(3);
        b.tallies[0].add(4);
        assert_eq!(
            a.tallies().health.entries_seen,
            7,
            "handles share one value"
        );
    }

    #[test]
    fn tallies_mirror_recorded_deltas() {
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
        let now = Tallies {
            health: after,
            ..Tallies::default()
        };
        m.publish(&mut Tallies::default(), now, None);
        assert_eq!(m.tallies(), now);
    }

    #[test]
    fn publish_adds_only_growth_since_the_watermark() {
        let registry = Registry::new();
        let m = PipelineMetrics::register(&registry);
        let mut mark = Tallies::default();
        let mut reasons = ShedReasonCounts::default();
        let mut health = StreamHealth {
            entries_seen: 4,
            ..StreamHealth::default()
        };
        let kinds = AnomalyKindCounts::default();
        let now = |health, reasons| Tallies {
            health,
            kinds,
            reasons,
        };
        m.publish(&mut mark, now(health, reasons), Some((3, 100)));
        health.entries_seen = 9;
        reasons.record(ShedReason::GlobalBudget);
        m.publish(&mut mark, now(health, reasons), Some((2, 7)));
        m.publish(&mut mark, now(health, reasons), None);
        assert_eq!(m.tallies(), now(health, reasons));
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
        let now = Tallies {
            kinds: after,
            ..Tallies::default()
        };
        m.publish(&mut Tallies::default(), now, None);
        assert_eq!(m.tallies(), now);
        let text = registry.render_prometheus();
        assert!(text.contains("vqoe_telemetry_ingest_anomaly_late_arrival_total 2"));
        assert!(text.contains("vqoe_telemetry_ingest_anomaly_empty_host_total 1"));
    }

    /// Every shape a snapshot writes: a counter, a negative gauge, a
    /// plain histogram with an overflow sample, and an exemplar-enabled
    /// histogram.
    fn populated() -> Registry {
        let s = MetricClass::Stable;
        let reg = Registry::new();
        reg.counter("vqoe_test_events_total", "e", s).add(17);
        reg.gauge("vqoe_test_open", "o", s).set(-4);
        let h = reg.histogram("vqoe_test_sizes", "s", s, &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5_000);
        let marked = reg.histogram("vqoe_test_marked", "m", s, &[10]);
        marked.enable_exemplars();
        marked.observe_exemplar(5, 11, 100);
        marked.observe_exemplar(5_000, 12, 200);
        reg.counter("vqoe_test_runtime_total", "r", MetricClass::Runtime)
            .inc();
        reg
    }

    #[test]
    fn encode_writes_one_metric_per_line_in_name_order() {
        assert_eq!(
            encode_snapshot(&populated().snapshot()),
            "{\n  \"counters\": {\n    \"vqoe_test_events_total\": 17\n  },\n  \
             \"gauges\": {\n    \"vqoe_test_open\": -4\n  },\n  \"histograms\": {\n    \
             \"vqoe_test_marked\": { \"buckets\": [[10, 1]], \"inf\": 1, \"sum\": 5005, \
             \"count\": 2, \"exemplars\": [[0, 5, 11, 100], [1, 5000, 12, 200]] },\n    \
             \"vqoe_test_sizes\": { \"buckets\": [[10, 1], [100, 1]], \"inf\": 1, \
             \"sum\": 5055, \"count\": 3 }\n  }\n}\n"
        );
        assert_eq!(
            encode_snapshot(&Snapshot::default()),
            "{\n  \"counters\": {\n\n  },\n  \"gauges\": {\n\n  },\n  \"histograms\": {\n\n  }\n}\n"
        );
    }

    #[test]
    fn decode_reads_back_what_encode_writes() {
        let mut saved = populated().snapshot();
        for snapshot in [Snapshot::default(), saved.clone()] {
            assert_eq!(decode_snapshot(&encode_snapshot(&snapshot)), Ok(snapshot));
        }
        // An empty exemplar list stays `Some`: it re-enables capture.
        saved.histograms[0].1.exemplars = Some(Vec::new());
        let text = encode_snapshot(&saved);
        assert!(text.contains("\"exemplars\": [] }"));
        assert_eq!(decode_snapshot(&text), Ok(saved));
    }

    #[test]
    fn decode_rejects_malformed_snapshots() {
        let saved = encode_snapshot(&populated().snapshot());
        for bad in [
            "",
            "{",
            "not json",
            "{\n  \"counters\": {\n    \"x\": notanumber\n  },\n",
            &saved.replace("17", "1.5"),
            &saved.replace("counters", "cnt"),
            &saved.replace("17", "-17"),
            &saved.replace("\"inf\"", "\"overflow\""),
            &saved.replace("[[10, 1]]", "[[10, 1, 2]]"),
            &(saved.clone() + "{}"),
            &saved.replace(
                "    \"vqoe_test_open\": -4",
                "    \"vqoe_test_open\": -4,\n    \"vqoe_test_open\": -4",
            ),
            &saved.replace("\"vqoe_test_sizes\"", "\"vqoe_test_a\""),
        ] {
            assert!(
                matches!(
                    decode_snapshot(bad),
                    Err(MetricsSnapshotError::Malformed(_))
                ),
                "accepted {bad:?}"
            );
        }
    }

    /// [`populated`]'s stable metrics, registered empty: the registry a
    /// restoring process absorbs a snapshot into.
    fn restore_target() -> Registry {
        let s = MetricClass::Stable;
        let reg = Registry::new();
        reg.counter("vqoe_test_events_total", "e", s);
        reg.gauge("vqoe_test_open", "o", s);
        reg.histogram("vqoe_test_sizes", "s", s, &[10, 100]);
        reg.histogram("vqoe_test_marked", "m", s, &[10]);
        reg
    }

    /// Bytes the snapshot grammar gives meaning to, so spliced junk
    /// reaches past the first token.
    const SNAPSHOT_TOKENS: &[u8] = b"{}[],:\"\\-0123456789unx ";

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Reading is total over damaged snapshots: truncated,
        /// bit-flipped or junk-spliced `encode_snapshot` output decodes
        /// and absorbs, or is rejected with a typed error, never a panic.
        #[test]
        fn damaged_snapshots_never_panic(
            mode in 0u8..3,
            at in 0usize..usize::MAX,
            bit in 0u8..8,
            junk in proptest::collection::vec(0usize..SNAPSHOT_TOKENS.len(), 0..24),
        ) {
            let junk: Vec<u8> = junk.into_iter().map(|i| SNAPSHOT_TOKENS[i]).collect();
            let mut bytes = encode_snapshot(&populated().snapshot()).into_bytes();
            let pos = at % bytes.len();
            match mode {
                0 => bytes.truncate(pos),
                1 => bytes[pos] ^= 1 << bit,
                _ => {
                    bytes.splice(pos..pos, junk);
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let read = decode_snapshot(&text)
                .and_then(|snapshot| Ok(restore_target().absorb(&snapshot)?));
            if let Err(e) = read {
                proptest::prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}
