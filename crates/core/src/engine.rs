//! The sharded parallel engine behind
//! [`IngestPipeline::assess`](crate::IngestPipeline::assess).
//!
//! The paper's monitor sits behind an operator tap carrying "heavy
//! traffic from millions of users"; after §5.2 reassembly, subscribers
//! are mutually independent, which makes the subscriber the natural
//! unit of parallelism. The engine is the second driver of the
//! subscriber machine (`crate::shard`) the streaming
//! [`OnlineAssessor`](crate::online::OnlineAssessor) runs:
//!
//! 1. **Shard** — every weblog record is routed to one of
//!    [`EngineConfig::shards`] shards by a deterministic hash of its
//!    subscriber id ([`shard_of`]), so a subscriber's whole stream
//!    lands on exactly one shard. The records come from a
//!    `RecordSource`: a slice of entries is read in place; a packed
//!    [`BinaryCorpus`] is validated and routed in one zero-copy pass
//!    that notes each record's byte offset.
//! 2. **Fan out** — one job per shard runs on [`EngineConfig::workers`]
//!    threads through the training stack's [`run_indexed`], which
//!    claims jobs in shard order and returns their outputs in shard
//!    order. Each job feeds its records, in arrival order, to a fresh
//!    shard machine, then drains it in subscriber order. A corpus job
//!    decodes its own records on its worker, one at a time, into one
//!    scratch entry, so a binary pass never holds the corpus as owned
//!    entries.
//! 3. **Reduce** — per-shard results carry *emission keys* that encode
//!    where the sequential online assessor would have emitted each
//!    assessment; a deterministic ordered merge sorts on those keys, so
//!    the output is **bit-identical** to the sequential path at any
//!    worker and shard count (asserted by the `engine_parallel`
//!    integration tests). [`StreamHealth`] counters sum per shard, and
//!    the per-shard anomaly logs merge back into exactly the global
//!    first-`cap` record set.
//!
//! Emission keys: an assessment produced while pushing the entry with
//! global arrival index `g` gets key `(0, g, k)` (`k` = its position in
//! that push's output); an assessment emitted by the end-of-stream
//! drain of subscriber `s` gets `(1, s, k)`. Sorting reproduces the
//! sequential order exactly: mid-stream emissions in arrival order
//! first, then drain emissions in subscriber-id order (the order
//! `OnlineAssessor::into_report` walks its subscribers).

use std::convert::Infallible;

use vqoe_ml::par::run_indexed;
use vqoe_ml::TrainConfig;
use vqoe_obs::{SimClock, StageSpan, Trace, TraceConfig, TraceEvent, TraceSink, TraceStage};
use vqoe_stats::splitmix64;
use vqoe_telemetry::{
    AnomalyKindCounts, AnomalyLog, BinaryCorpus, BinlogError, IngestAnomaly, IngestConfig,
    ReassembledSession, StreamHealth, WeblogEntry,
};

use crate::metrics::Tallies;
use crate::monitor::{Fidelity, SessionAssessment};
use crate::online::{IngestReport, ShedLog};
use crate::shard::{assess, close, Closed, Shard};
use crate::subscribe::{IngestPipeline, SubscriptionSet};

/// Knobs of the parallel engine. All defaults are safe for production;
/// the output is bit-identical for every combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads. `0` means auto: `available_parallelism`, capped
    /// at 16; any count is clamped to `vqoe_ml::par::MAX_WORKERS` and
    /// never exceeds the shard count — the [`TrainConfig`] policy.
    pub workers: usize,
    /// Number of shards the subscriber space is hashed onto. More
    /// shards than workers keeps every worker busy when shard sizes are
    /// skewed.
    pub shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            shards: 32,
        }
    }
}

/// Deterministic shard routing: a splitmix64 finalizer over the
/// subscriber id, reduced modulo `shards`. Stable across runs and
/// platforms, well-mixed even for sequential ids.
pub fn shard_of(subscriber_id: u64, shards: usize) -> usize {
    (splitmix64(subscriber_id) % shards.max(1) as u64) as usize
}

/// What the engine reads a tap from: every record's subscriber id for
/// routing, then each record again on the worker that runs its shard.
pub(crate) trait RecordSource: Sync {
    /// Where one record sits in the source, kept beside its arrival
    /// index in its shard's record list.
    type At: Copy + Sync;
    /// Why the source cannot be read.
    type Error: Send;

    /// Visit every record's subscriber id and location, in arrival
    /// order. An error stops the pass before any shard job runs.
    fn scan(&self, visit: impl FnMut(u64, Self::At)) -> Result<(), Self::Error>;

    /// Read the record with arrival index `g` at `at`. A source that
    /// decodes writes into `scratch`, reusing its buffers; the entry is
    /// valid until the next read.
    fn read<'s>(
        &'s self,
        g: u32,
        at: Self::At,
        scratch: &'s mut Option<WeblogEntry>,
    ) -> Result<&'s WeblogEntry, Self::Error>;
}

/// Decoded entries are read in place.
impl RecordSource for [WeblogEntry] {
    type At = ();
    type Error = Infallible;

    fn scan(&self, mut visit: impl FnMut(u64, ())) -> Result<(), Infallible> {
        for e in self {
            visit(e.subscriber_id, ());
        }
        Ok(())
    }

    fn read<'s>(
        &'s self,
        g: u32,
        _: (),
        _: &'s mut Option<WeblogEntry>,
    ) -> Result<&'s WeblogEntry, Infallible> {
        Ok(&self[g as usize])
    }
}

/// A packed corpus is routed by byte offset and decoded on the worker.
/// The scan is the corpus's own validating pass, so it fails exactly as
/// [`BinaryCorpus::decode_all`] does. Re-reading a record the scan
/// validated does not fail; were it to, the typed error would travel
/// back through the job instead of a panic.
impl RecordSource for BinaryCorpus {
    type At = usize;
    type Error = BinlogError;

    fn scan(&self, mut visit: impl FnMut(u64, usize)) -> Result<(), BinlogError> {
        self.for_each_record(|offset, record| visit(record.subscriber_id, offset))
    }

    fn read<'s>(
        &'s self,
        g: u32,
        offset: usize,
        scratch: &'s mut Option<WeblogEntry>,
    ) -> Result<&'s WeblogEntry, BinlogError> {
        let record = self.record_at(offset, u64::from(g))?;
        Ok(match scratch {
            Some(entry) => {
                record.decode_into(entry);
                entry
            }
            None => scratch.insert(record.to_entry()),
        })
    }
}

/// Where in the sequential emission order an assessment belongs:
/// `(phase, major, minor)` — see the module docs.
type EmissionKey = (u8, u64, u32);

/// Everything one shard produced, tagged for the ordered reduction.
struct ShardOutput {
    emissions: Vec<(EmissionKey, SessionAssessment)>,
    health: StreamHealth,
    /// The job's anomaly log: exact totals and per-kind counts, and its
    /// first `cap` records (a superset of this shard's contribution to
    /// the global first-`cap` set)...
    log: AnomalyLog,
    /// ...and the global entry index of each kept record.
    kept_at: Vec<u64>,
    /// The job's span sink (`None` when tracing is off). Like everything
    /// else in this struct it comes back as the job's result — the hot
    /// path never touches a shared sink.
    trace: Option<TraceSink>,
}

/// Assess a whole tap capture on `pipeline`'s engine: route records to
/// shards, run the shard jobs on the worker pool, reduce. With
/// `trace_cfg`, every emitted session also records its span chain into
/// the job's bounded sink, and the reducer merges the sinks in
/// emission-key order into one [`Trace`].
pub(crate) fn run<S: RecordSource + ?Sized>(
    pipeline: &IngestPipeline<'_>,
    source: &S,
    trace_cfg: Option<TraceConfig>,
) -> Result<(IngestReport, Option<Trace>), S::Error> {
    // The three frozen models, borrowed once for the whole pass and
    // shared by every worker: each reassembled session is assessed
    // from one immutable view.
    let subs = SubscriptionSet::standard(pipeline.monitor);
    let config = &pipeline.engine;
    let shards = config.shards.max(1);
    // Route each arrival to its shard; per-shard record lists keep the
    // global arrival order (indices ascend).
    let mut by_shard: Vec<Vec<(u32, S::At)>> = vec![Vec::new(); shards];
    let mut g = 0u32;
    source.scan(|subscriber, at| {
        by_shard[shard_of(subscriber, shards)].push((g, at));
        g += 1;
    })?;

    // Outputs come back in shard order at any worker count, so the
    // reducer's input is the same; a worker panic re-raises here.
    let outputs = run_indexed(shards, TrainConfig::with_workers(config.workers), |i| {
        run_job(pipeline, &subs, source, &by_shard[i], trace_cfg)
    })
    .into_iter()
    .collect::<Result<Vec<ShardOutput>, S::Error>>()?;
    Ok(reduce(pipeline, outputs, trace_cfg.is_some()))
}

/// Run one shard job: its records, in arrival order, through a fresh
/// shard machine, then the machine's drain — recording emission keys
/// and tagging kept anomalies with their global entry index.
fn run_job<S: RecordSource + ?Sized>(
    pipeline: &IngestPipeline<'_>,
    subs: &SubscriptionSet<'_>,
    source: &S,
    records: &[(u32, S::At)],
    trace_cfg: Option<TraceConfig>,
) -> Result<ShardOutput, S::Error> {
    let metrics = pipeline.metrics.as_ref();
    let mut shard = Shard::new(pipeline.monitor, IngestConfig::default());
    // The job's own anomaly log: its entries arrive in global order, so
    // its first `cap` records are exactly this shard's candidates for
    // the global first-`cap` set.
    let mut log = AnomalyLog::new(IngestConfig::default().max_anomalies_kept);
    let mut kept_at: Vec<u64> = Vec::new();
    let mut emissions: Vec<(EmissionKey, SessionAssessment)> = Vec::new();
    // This job's private trace sink: recorded into without locks,
    // returned with everything else as the job's result.
    let mut trace = trace_cfg.map(|c| TraceSink::with_capacity(c.capacity_per_shard));
    let mut emit = |key: EmissionKey, subscriber: u64, c: &Closed| {
        let a = assess(subs, c, Fidelity::Full, metrics);
        if let Some(sink) = trace.as_mut() {
            record_session_spans(sink, key, subscriber, &c.session);
        }
        emissions.push((key, a));
    };
    // Deterministic stage timing: the worker's clock advances one tick
    // per entry processed, so the span length is the shard's entry
    // count — identical at any worker count.
    let clock = SimClock::new();
    let span = metrics.map(|m| StageSpan::start(&clock, &m.stage_ticks));
    let mut scratch = None;
    for &(g, at) in records {
        let e = source.read(g, at, &mut scratch)?;
        clock.advance(1);
        let closed = shard.ingest(e, &mut log);
        kept_at.resize(log.kept().len(), g as u64);
        for (k, c) in closed.iter().enumerate() {
            emit((0, g as u64, k as u32), e.subscriber_id, c);
        }
    }
    for (subscriber, machine) in shard.take_all() {
        for (k, c) in close(machine).iter().enumerate() {
            emit((1, subscriber, k as u32), subscriber, c);
        }
    }
    if let (Some(span), Some(m)) = (span, metrics) {
        m.shard_jobs.inc();
        m.worker_busy_ticks.add(span.finish());
    }
    Ok(ShardOutput {
        emissions,
        health: shard.health,
        log,
        kept_at,
        trace,
    })
}

/// The deterministic ordered reducer: sort emissions on their keys, sum
/// health counters, merge anomaly logs back into global arrival order.
fn reduce(
    pipeline: &IngestPipeline<'_>,
    outputs: Vec<ShardOutput>,
    traced: bool,
) -> (IngestReport, Option<Trace>) {
    let mut emissions: Vec<(EmissionKey, SessionAssessment)> = Vec::new();
    let mut health = StreamHealth::default();
    let mut anomalies: Vec<(u64, IngestAnomaly)> = Vec::new();
    let mut anomaly_total = 0u64;
    let mut kinds = AnomalyKindCounts::default();
    let mut trace_events: Vec<TraceEvent> = Vec::new();
    let mut trace_dropped = 0u64;
    for out in outputs {
        if let Some(m) = &pipeline.metrics {
            m.reduce_merge_size.observe(out.emissions.len() as u64);
        }
        emissions.extend(out.emissions);
        health.absorb(&out.health);
        anomalies.extend(out.kept_at.into_iter().zip(out.log.kept().iter().copied()));
        anomaly_total += out.log.total();
        kinds.absorb(&out.log.kinds());
        if let Some(sink) = out.trace {
            let (events, dropped) = sink.into_parts();
            trace_events.extend(events);
            trace_dropped += dropped;
        }
    }
    // Keys are unique (at most one anomaly and one emission batch per
    // entry), so an unstable sort is deterministic here.
    emissions.sort_unstable_by_key(|&(key, _)| key);
    anomalies.sort_unstable_by_key(|&(g, _)| g);
    let trace = traced.then(|| {
        // One closing span for the reducer itself, keyed after every
        // per-session key (phase 2): ticks = emissions merged, a pure
        // function of the input.
        trace_events.push(TraceEvent {
            key: (2, 0, 0),
            seq: 0,
            stage: TraceStage::Reduce,
            subscriber: 0,
            session: 0,
            start_tick: 0,
            dur_ticks: emissions.len() as u64,
            detail: "",
        });
        Trace::from_parts(trace_events, trace_dropped)
    });
    let cap = IngestConfig::default().max_anomalies_kept;
    let report = IngestReport {
        assessments: emissions.into_iter().map(|(_, a)| a).collect(),
        health,
        anomalies: AnomalyLog::from_parts(
            cap,
            anomalies.into_iter().map(|(_, a)| a).collect(),
            anomaly_total,
            kinds,
        ),
        // The engine never sheds: memory budgets are a streaming-path
        // concern. An empty log with the same cap keeps engine reports
        // comparable (and equal, unbudgeted) to streaming reports.
        shed: ShedLog::new(cap),
    };
    // The run's one publication, from the reduced report's tallies.
    if let Some(m) = &pipeline.metrics {
        let now = Tallies::new(report.health, &report.anomalies, &report.shed);
        m.publish(&mut Tallies::default(), now, None);
    }
    (report, trace)
}

/// The three frozen models each session is assessed with, in call
/// order: the names of its deliver spans.
const DETECTORS: [&str; 3] = ["stall", "representation", "switch"];

/// Record one emitted session's span chain: ingest (all records),
/// reassemble (media chunks), fan-out, then one deliver span per
/// detector. Ticks are deterministic work units — one per record
/// examined — anchored at the session's start time in tap
/// microseconds, so the chain is a pure function of the session
/// content and Perfetto lays sessions out along tap time.
fn record_session_spans(
    sink: &mut TraceSink,
    key: EmissionKey,
    subscriber: u64,
    session: &ReassembledSession,
) {
    let session_id = session.start.as_micros();
    let chunks = (session.chunks.len() as u64).max(1);
    let records = chunks + session.other.len() as u64;
    let mut tick = session_id;
    let head = [
        (TraceStage::Ingest, records, ""),
        (TraceStage::Reassemble, chunks, ""),
        (TraceStage::Fanout, DETECTORS.len() as u64, ""),
    ];
    let spans = head.into_iter().chain(
        DETECTORS
            .iter()
            .map(|&name| (TraceStage::Deliver, chunks, name)),
    );
    for (seq, (stage, dur_ticks, detail)) in spans.enumerate() {
        sink.record(TraceEvent {
            key,
            seq: seq as u32,
            stage,
            subscriber,
            session: session_id,
            start_tick: tick,
            dur_ticks,
            detail,
        });
        tick += dur_ticks;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for id in 0..1000u64 {
            let s = shard_of(id, 32);
            assert!(s < 32);
            assert_eq!(s, shard_of(id, 32));
        }
        assert_eq!(shard_of(7, 0), 0, "degenerate shard count clamps");
    }

    #[test]
    fn shard_routing_spreads_sequential_ids() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for id in 0..800u64 {
            counts[shard_of(id, shards)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 40, "shard {s} starved: {c} of 800");
        }
    }
}
