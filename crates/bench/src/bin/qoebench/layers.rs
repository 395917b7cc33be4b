//! The traced run: what each layer of the assessment chain costs on a
//! workload's input.
//!
//! Layers are timed from outside, around calls to their public
//! functions, never from inside the program. The run replays the
//! engine's per-subscriber work sequentially with a span around each
//! layer call (the "decomposed pass"), probes the calls nested inside
//! `assess_session` separately, and times the engine and the online
//! assessor whole. Every engine and online report it produces, and the
//! decomposed pass's assessments, must equal the single-worker
//! reference, as in the untimed run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use serde_json::Value;
use vqoe_core::{
    claim_digest, install_digest_sink, shard_of, EngineConfig, Fidelity, OnlineAssessor,
    PipelineMetrics, QoeMonitor, SessionAssessment, SessionDigest, SubscriptionSet,
};
use vqoe_features::{
    representation_features, stall_features, SessionObs, SessionView, StreamingSessionState,
};
use vqoe_obs::{Registry, TraceConfig};
use vqoe_telemetry::{
    validate_entry, AnomalyLog, BinaryCorpus, IngestConfig, ReassembledSession, RobustReassembler,
    StreamHealth, StreamReassembler, WeblogEntry,
};

use crate::stats::{median, Histogram};
use crate::timed::{engine, report_fingerprint, Reference};

/// Spans kept for the trace file; later ones are counted as dropped
/// but still add to their layer's busy time.
const SPAN_CAP: usize = 10_000;

/// Records between two samples of the online assessor's open
/// subscribers (the count walks every subscriber, so it is sampled).
const OPEN_SAMPLE_EVERY: usize = 4096;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    subscriber: Option<u64>,
    start_ns: u64,
    dur_ns: u64,
}

/// A span begun but not yet ended.
pub struct Open {
    name: &'static str,
    start: Instant,
    slot: Option<usize>,
}

/// In-memory span recorder with per-layer busy-time totals.
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
    busy: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// An empty recorder for one workload's run.
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            busy: BTreeMap::new(),
        }
    }

    /// Begin a span named after its layer, under `parent`.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<&Open>,
        subscriber: Option<u64>,
    ) -> Open {
        let start = Instant::now();
        let slot = if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                parent: parent.and_then(|p| p.slot),
                subscriber,
                start_ns: (start - self.origin).as_nanos() as u64,
                dur_ns: 0,
            });
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        Open { name, start, slot }
    }

    /// End a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let dur = open.start.elapsed();
        if let Some(slot) = open.slot {
            self.spans[slot].dur_ns = dur.as_nanos() as u64;
        }
        *self.busy.entry(open.name).or_default() += dur.as_secs_f64();
        dur.as_secs_f64()
    }

    /// Time `f` in a span of its own.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&Open>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, parent, None);
        let out = f();
        self.end(open);
        out
    }

    /// Total seconds spent in spans named `name`.
    pub fn busy(&self, name: &str) -> f64 {
        self.busy.get(name).copied().unwrap_or(0.0)
    }

    /// Spans not kept because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The kept spans in Chrome trace-event JSON (complete events,
    /// microsecond timestamps); parent and subscriber ride in `args`.
    pub fn to_chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("id".to_string(), Value::U64(id as u64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    (
                        "workload".to_string(),
                        Value::Str(self.workload.to_string()),
                    ),
                ];
                if let Some(sub) = s.subscriber {
                    args.push(("subscriber".to_string(), Value::U64(sub)));
                }
                Value::Map(vec![
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    (
                        "cat".to_string(),
                        Value::Str(s.name.split('.').next().unwrap_or("").to_string()),
                    ),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::F64(s.start_ns as f64 / 1e3)),
                    ("dur".to_string(), Value::F64(s.dur_ns as f64 / 1e3)),
                    ("pid".to_string(), Value::U64(1)),
                    ("tid".to_string(), Value::U64(1)),
                    ("args".to_string(), Value::Map(args)),
                ])
            })
            .collect();
        let doc = Value::Map(vec![
            ("traceEvents".to_string(), Value::Seq(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
            (
                "otherData".to_string(),
                Value::Map(vec![
                    (
                        "workload".to_string(),
                        Value::Str(self.workload.to_string()),
                    ),
                    (
                        "spans_kept".to_string(),
                        Value::U64(self.spans.len() as u64),
                    ),
                    ("spans_dropped".to_string(), Value::U64(self.dropped)),
                ]),
            ),
        ]);
        serde_json::to_string(&doc).expect("finite span times serialize")
    }
}

/// Everything the traced run measured.
pub struct Layers {
    /// Per-layer metrics, in `table::PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The spans, as Chrome trace JSON.
    pub trace_json: String,
    /// Whole-report operations checked against the reference.
    pub attempted: u64,
    /// Operations whose report differed from the reference.
    pub failed: u64,
    /// The single-worker reference report.
    pub reference: Reference,
}

/// Run every layer probe on `entries` once, then alternate one-worker,
/// plain, metered and traced engine passes for the rest of `seconds`.
pub fn run(
    workload: &'static str,
    monitor: &QoeMonitor,
    entries: &[WeblogEntry],
    seconds: f64,
) -> Layers {
    let begin = Instant::now();
    let mut tr = Tracer::new(workload);
    let records = entries.len().max(1) as f64;
    let mut checks: Vec<bool> = Vec::new();

    // Reference: the untraced engine on one worker (its time counts as
    // a warm-up; `engine.pass_w1_s` is the median of the later passes).
    let w1 = engine(monitor, 1);
    let report = tr.time("bench.reference_w1", None, || w1.assess(entries));
    let reference = Reference::of(&report);
    let reference_fp = reference.fingerprint;
    let reference_assessments = report.assessments;

    // binlog: decode the packed form of the same records.
    let corpus = BinaryCorpus::pack(entries);
    let decoded = tr.time("binlog.decode", None, || corpus.decode_all());
    checks.push(decoded.is_ok_and(|d| d == entries));
    drop(corpus);

    // Each subscriber's records with their global arrival index, as the
    // engine groups a shard's arrivals.
    let mut per_subscriber: BTreeMap<u64, Vec<(u64, &WeblogEntry)>> = BTreeMap::new();
    for (g, e) in entries.iter().enumerate() {
        per_subscriber
            .entry(e.subscriber_id)
            .or_default()
            .push((g as u64, e));
    }
    let ingest_cfg = IngestConfig::default();
    let subs = SubscriptionSet::standard(monitor);

    // The decomposed pass: `AssessmentEngine::process_shard`'s work per
    // subscriber, one layer call per span, on one thread. Its
    // assessments, sorted on the engine's emission keys, must equal the
    // reference's: that is what shows it does the engine's work. After
    // each subscriber, the calls nested inside `assess_session` are
    // probed one by one on its exactly assessed sessions, so that both
    // are timed on the same data in the same state of the machine.
    let mut health = StreamHealth::default();
    let mut emitted: Vec<(EmissionKey, SessionAssessment)> = Vec::new();
    let (mut n_exact, mut n_sketched) = (0u64, 0u64);
    let (mut useful_chunks, mut chunks) = (0u64, 0u64);
    for (&id, list) in &per_subscriber {
        let sub = tr.begin("bench.subscriber", None, Some(id));
        let span = tr.begin("ingest.push", Some(&sub), Some(id));
        let sessions = robust_sessions(monitor, ingest_cfg, id, list, &mut health);
        tr.end(span);
        let span = tr.begin("features.obs", Some(&sub), Some(id));
        let obs: Vec<SessionObs> = sessions
            .iter()
            .map(|s| SessionObs::from_reassembled(&s.session))
            .collect();
        tr.end(span);
        let span = tr.begin("subscribe.assess_session", Some(&sub), Some(id));
        for (o, s) in obs
            .iter()
            .zip(&sessions)
            .filter(|(_, s)| s.digest.is_none())
        {
            let a = subs.assess_session(SessionView::over(o, &s.session));
            emitted.push((s.key, a.with_fidelity(Fidelity::Full)));
            n_exact += 1;
        }
        tr.end(span);
        let span = tr.begin("subscribe.assess_sketched", Some(&sub), Some(id));
        for (o, s) in obs.iter().zip(&sessions) {
            if let Some(d) = &s.digest {
                let a = subs.assess_session_sketched(SessionView::over(o, &s.session), d);
                emitted.push((s.key, a.with_fidelity(Fidelity::Sketched)));
                n_sketched += 1;
            }
        }
        tr.end(span);
        tr.end(sub);
        useful_chunks += sessions
            .iter()
            .map(|s| s.session.total_chunks())
            .sum::<u64>();

        let exact: Vec<&SessionObs> = obs
            .iter()
            .zip(&sessions)
            .filter(|(_, s)| s.digest.is_none())
            .map(|(o, _)| o)
            .collect();
        let probes = tr.begin("bench.nested_probes", None, Some(id));
        let stall: Vec<Vec<f64>> = tr.time("features.stall", Some(&probes), || {
            exact.iter().map(|o| stall_features(o)).collect()
        });
        let rep: Vec<Vec<f64>> = tr.time("features.representation", Some(&probes), || {
            exact.iter().map(|o| representation_features(o)).collect()
        });
        tr.time("ml.stall_predict", Some(&probes), || {
            for f in &stall {
                black_box(monitor.stall_model.predict_from_features(f));
            }
        });
        tr.time("ml.representation_predict", Some(&probes), || {
            for f in &rep {
                black_box(monitor.representation_model.predict_from_features(f));
            }
        });
        tr.time("changedet.switch_score", Some(&probes), || {
            for o in &exact {
                black_box(monitor.switch_model.score(o));
            }
        });
        tr.time("features.streaming", Some(&probes), || {
            for o in &exact {
                let mut state = StreamingSessionState::new();
                for c in &o.chunks {
                    state.fold(c);
                }
                black_box(state);
            }
        });
        tr.end(probes);
        chunks += exact.iter().map(|o| o.chunks.len() as u64).sum::<u64>();
    }
    let decomposed = tr.busy("bench.subscriber");
    emitted.sort_by_key(|&(key, _)| key);
    checks.push(
        emitted
            .into_iter()
            .map(|(_, a)| a)
            .eq(reference_assessments),
    );

    // §5.2 reassembly alone, on each subscriber's validated,
    // time-sorted service stream.
    let mut service_entries = 0u64;
    let mut reassembled = 0u64;
    let probe = tr.begin("bench.reassembly_probe", None, None);
    for (&id, list) in &per_subscriber {
        let mut service: Vec<&WeblogEntry> = list
            .iter()
            .map(|&(_, e)| e)
            .filter(|e| validate_entry(e, &ingest_cfg).is_none() && e.is_service_host())
            .collect();
        service.sort_by_key(|e| e.timestamp);
        service_entries += service.len() as u64;
        let span = tr.begin("reassembly.push", Some(&probe), Some(id));
        let mut machine = StreamReassembler::new(monitor.reassembly);
        for e in service {
            reassembled += u64::from(machine.push(e).is_some());
        }
        reassembled += u64::from(machine.finish().is_some());
        tr.end(span);
    }
    tr.end(probe);

    // The online assessor, call by call.
    let online = online_probe(&mut tr, monitor, entries);
    checks.push(online.fingerprint == reference_fp);

    // Engine passes: one worker, then two workers plain, with metrics
    // and traced; alternated so drift hits all four alike. A round
    // starts only if one as long as the last fits in `seconds`.
    let (mut single, mut plain, mut metered, mut traced) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let w2 = engine(monitor, 2);
    let mut last_round = 0.0;
    while single.is_empty() || begin.elapsed().as_secs_f64() + last_round <= seconds {
        let round = Instant::now();
        let span = tr.begin("engine.pass_w1", None, None);
        let report = w1.assess(entries);
        single.push(tr.end(span));
        checks.push(report_fingerprint(&report) == reference_fp);

        let span = tr.begin("engine.pass_w2", None, None);
        let report = w2.assess(entries);
        plain.push(tr.end(span));
        checks.push(report_fingerprint(&report) == reference_fp);

        let metrics = PipelineMetrics::register(&Registry::new());
        let span = tr.begin("obs.metrics_pass_w2", None, None);
        let report = w2.clone().with_metrics(metrics).assess(entries);
        metered.push(tr.end(span));
        checks.push(report_fingerprint(&report) == reference_fp);

        let span = tr.begin("obs.traced_pass_w2", None, None);
        let (report, trace) = w2.assess_traced(entries, TraceConfig::default());
        traced.push(tr.end(span));
        black_box(trace);
        checks.push(report_fingerprint(&report) == reference_fp);
        last_round = round.elapsed().as_secs_f64();
    }
    let (pass_w1, pass_w2) = (median(&single), median(&plain));

    let shards = EngineConfig::default().shards;
    let mut per_shard = vec![0u64; shards];
    for e in entries {
        per_shard[shard_of(e.subscriber_id, shards)] += 1;
    }
    let shard_skew =
        per_shard.iter().copied().max().unwrap_or(0) as f64 / (records / shards as f64);

    // Whole-pass layers are per session; the nested probes and the
    // exact fold are per exactly assessed session.
    let n = (n_exact + n_sketched).max(1) as f64;
    let us = |name: &str| tr.busy(name) * 1e6 / n;
    let exact_us = |name: &str| tr.busy(name) * 1e6 / n_exact.max(1) as f64;
    let nested = exact_us("features.stall")
        + exact_us("features.representation")
        + exact_us("ml.stall_predict")
        + exact_us("ml.representation_predict")
        + exact_us("changedet.switch_score");
    let assess_busy = tr.busy("subscribe.assess_session") + tr.busy("subscribe.assess_sketched");
    let layer_busy = tr.busy("ingest.push") + tr.busy("features.obs") + assess_busy;
    let seen = health.entries_seen.max(1) as f64;
    let metrics = vec![
        (
            "binlog.decode_ns_per_entry",
            tr.busy("binlog.decode") * 1e9 / records,
        ),
        (
            "ingest.push_ns_per_entry",
            tr.busy("ingest.push") * 1e9 / records,
        ),
        (
            "ingest.self_ns_per_entry",
            (tr.busy("ingest.push") - tr.busy("reassembly.push")) * 1e9 / records,
        ),
        (
            "ingest.reordered_frac",
            health.entries_reordered as f64 / seen,
        ),
        (
            "ingest.duplicate_frac",
            health.entries_duplicated as f64 / seen,
        ),
        (
            "ingest.quarantined_frac",
            health.entries_quarantined as f64 / seen,
        ),
        ("ingest.useful_frac", useful_chunks as f64 / records),
        (
            "reassembly.push_ns_per_entry",
            tr.busy("reassembly.push") * 1e9 / service_entries.max(1) as f64,
        ),
        (
            "reassembly.entries_per_session",
            service_entries as f64 / reassembled.max(1) as f64,
        ),
        ("features.obs_us_per_session", us("features.obs")),
        ("features.stall_us_per_session", exact_us("features.stall")),
        (
            "features.representation_us_per_session",
            exact_us("features.representation"),
        ),
        (
            "features.streaming_ns_per_chunk",
            tr.busy("features.streaming") * 1e9 / chunks.max(1) as f64,
        ),
        ("ml.stall_predict_us", exact_us("ml.stall_predict")),
        (
            "ml.representation_predict_us",
            exact_us("ml.representation_predict"),
        ),
        (
            "changedet.switch_score_us",
            exact_us("changedet.switch_score"),
        ),
        ("subscribe.assess_session_us", assess_busy * 1e6 / n),
        (
            "subscribe.fold_self_us",
            exact_us("subscribe.assess_session") - nested,
        ),
        ("engine.pass_w1_s", pass_w1),
        ("engine.pass_w2_s", pass_w2),
        ("engine.parallel_efficiency", pass_w1 / (2.0 * pass_w2)),
        ("engine.overhead_frac", (pass_w1 - layer_busy) / pass_w1),
        ("engine.shard_skew", shard_skew),
        ("online.quiet_call_ns_p50", online.quiet_p50_ns),
        ("online.emit_call_us_p50", online.emit_p50_ns / 1e3),
        ("online.drain_s", tr.busy("online.drain")),
        (
            "online.tracked_bytes_per_subscriber",
            online.peak_tracked_bytes as f64 / per_subscriber.len().max(1) as f64,
        ),
        ("online.open_subscribers_peak", online.open_peak as f64),
        ("online.sketched_frac", online.sketched_frac),
        (
            "obs.metrics_overhead_frac",
            median(&metered) / pass_w2 - 1.0,
        ),
        ("obs.trace_overhead_frac", median(&traced) / pass_w2 - 1.0),
        (
            "bench.trace_overhead_frac",
            (decomposed - pass_w1) / pass_w1,
        ),
        ("bench.spans_dropped", tr.dropped() as f64),
    ];
    Layers {
        metrics,
        trace_json: tr.to_chrome_json(),
        attempted: checks.len() as u64,
        failed: checks.iter().filter(|ok| !**ok).count() as u64,
        reference,
    }
}

/// Where the engine's reducer puts an emission: sessions emitted
/// mid-stream by the record at global index `g` are `(0, g, k)`, those
/// left at the end of a subscriber's stream `(1, subscriber, k)`.
type EmissionKey = (u8, u64, u32);

/// A session as the engine emits it: its key and, when its chunks
/// spilled past the exact-entry cap, the digest it is assessed from.
struct Emitted {
    key: EmissionKey,
    session: ReassembledSession,
    digest: Option<SessionDigest>,
}

/// One subscriber's records through a fresh hardened reassembler with a
/// digest sink, as the engine runs them (`push` per record, then
/// `flush`, claiming each session's digest); health counters accumulate
/// into `health`.
fn robust_sessions(
    monitor: &QoeMonitor,
    cfg: IngestConfig,
    subscriber: u64,
    list: &[(u64, &WeblogEntry)],
    health: &mut StreamHealth,
) -> Vec<Emitted> {
    let mut machine = RobustReassembler::new(monitor.reassembly, cfg);
    install_digest_sink(&mut machine, *monitor.switch_model.scoring());
    let mut log = AnomalyLog::new(cfg.max_anomalies_kept);
    let mut out = Vec::new();
    let mut claim = |machine: &mut RobustReassembler, key, session| {
        let digest = claim_digest(machine, &session);
        out.push(Emitted {
            key,
            session,
            digest,
        });
    };
    for &(g, e) in list {
        health.entries_seen += 1;
        for (k, s) in machine.push(e, health, &mut log).into_iter().enumerate() {
            claim(&mut machine, (0, g, k as u32), s);
        }
    }
    for (k, s) in machine.flush().into_iter().enumerate() {
        claim(&mut machine, (1, subscriber, k as u32), s);
    }
    out
}

struct OnlineProbe {
    fingerprint: u64,
    quiet_p50_ns: f64,
    emit_p50_ns: f64,
    peak_tracked_bytes: u64,
    open_peak: usize,
    sketched_frac: f64,
}

fn online_probe(tr: &mut Tracer, monitor: &QoeMonitor, entries: &[WeblogEntry]) -> OnlineProbe {
    let mut online = OnlineAssessor::with_config(monitor.clone(), IngestConfig::default());
    let (mut quiet, mut emit) = (Histogram::new(), Histogram::new());
    let mut emitted = Vec::new();
    let mut open_peak = 0;
    let span = tr.begin("online.ingest", None, None);
    for (i, e) in entries.iter().enumerate() {
        let start = Instant::now();
        let out = online.ingest(e);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if out.is_empty() {
            quiet.record(ns);
        } else {
            emit.record(ns);
            emitted.extend(out);
        }
        if i % OPEN_SAMPLE_EVERY == 0 {
            open_peak = open_peak.max(online.open_subscribers());
        }
    }
    tr.end(span);
    let peak_tracked_bytes = online.peak_tracked_bytes();
    let span = tr.begin("online.drain", None, None);
    let mut report = online.into_report();
    tr.end(span);
    emitted.append(&mut report.assessments);
    report.assessments = emitted;
    let sketched = report
        .assessments
        .iter()
        .filter(|a| a.fidelity == Fidelity::Sketched)
        .count();
    OnlineProbe {
        fingerprint: report_fingerprint(&report),
        quiet_p50_ns: quiet.percentile(50.0),
        emit_p50_ns: emit.percentile(50.0),
        peak_tracked_bytes,
        open_peak,
        sketched_frac: sketched as f64 / report.assessments.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_past_the_cap_are_counted_and_still_timed() {
        let mut tr = Tracer::new("replay");
        let root = tr.begin("root", None, None);
        for _ in 0..SPAN_CAP + 5 {
            tr.time("leaf", Some(&root), || black_box(1 + 1));
        }
        tr.end(root);
        assert_eq!(tr.dropped(), 6, "the root took one slot");
        assert!(tr.busy("leaf") > 0.0);
        let doc: Value = serde_json::from_str(&tr.to_chrome_json()).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("events");
        assert_eq!(events.len(), SPAN_CAP);
        let leaf = &events[1];
        assert_eq!(leaf.get("ph").and_then(Value::as_str), Some("X"));
        let args = leaf.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Value::as_u64), Some(0));
        assert_eq!(args.get("workload").and_then(Value::as_str), Some("replay"));
    }
}
