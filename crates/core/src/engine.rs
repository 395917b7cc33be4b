//! The sharded parallel engine behind
//! [`IngestPipeline::assess`](crate::IngestPipeline::assess).
//!
//! The paper's monitor sits behind an operator tap carrying "heavy
//! traffic from millions of users"; after §5.2 reassembly, subscribers
//! are mutually independent, which makes the subscriber the natural
//! unit of parallelism. The engine is the second driver of the
//! per-shard machine (`crate::shard`) the streaming
//! [`OnlineAssessor`](crate::online::OnlineAssessor) runs:
//!
//! 1. **Shard** — every weblog entry is routed to one of
//!    [`EngineConfig::shards`] shards by a deterministic hash of its
//!    subscriber id ([`shard_of`]), so a subscriber's whole stream
//!    lands on exactly one shard.
//! 2. **Fan out** — shard jobs flow through a bounded work queue (depth
//!    [`EngineConfig::queue_depth`], producer blocks when workers fall
//!    behind — backpressure, not unbounded buffering) onto
//!    [`EngineConfig::workers`] threads using the same vendored
//!    `crossbeam::scope` pattern as `crate::generate`. Each job feeds
//!    its entries, in arrival order, to a fresh shard machine, then
//!    drains it in subscriber order.
//! 3. **Reduce** — per-shard results carry *emission keys* that encode
//!    where the sequential online assessor would have emitted each
//!    assessment; a deterministic ordered merge sorts on those keys, so
//!    the output is **bit-identical** to the sequential path at any
//!    worker count (asserted by the `engine_parallel` integration
//!    tests). [`StreamHealth`] counters sum per shard, and the
//!    per-shard anomaly logs merge back into exactly the global
//!    first-`cap` record set.
//!
//! Emission keys: an assessment produced while pushing the entry with
//! global arrival index `g` gets key `(0, g, k)` (`k` = its position in
//! that push's output); an assessment emitted by the end-of-stream
//! drain of subscriber `s` gets `(1, s, k)`. Sorting reproduces the
//! sequential order exactly: mid-stream emissions in arrival order
//! first, then drain emissions in subscriber-id order (the order
//! `OnlineAssessor::finish` walks its subscribers).

use std::sync::{Condvar, Mutex as StdMutex};

use vqoe_obs::{SimClock, StageSpan, Trace, TraceConfig, TraceEvent, TraceSink, TraceStage};
use vqoe_telemetry::{
    AnomalyKindCounts, AnomalyLog, IngestAnomaly, ReassembledSession, StreamHealth, WeblogEntry,
};

use crate::monitor::{Fidelity, SessionAssessment};
use crate::online::{IngestReport, ShedLog};
use crate::shard::{assess, close, Closed, Shard};
use crate::subscribe::{IngestPipeline, SubscriptionSet};

/// Knobs of the parallel engine. All defaults are safe for production;
/// the output is bit-identical for every combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads. `0` means auto: `available_parallelism`, capped
    /// at 16 (the same policy as parallel trace generation).
    pub workers: usize,
    /// Number of shards the subscriber space is hashed onto. More
    /// shards than workers keeps the queue busy when shard sizes are
    /// skewed.
    pub shards: usize,
    /// Bounded work-queue depth: at most this many shard jobs are
    /// in flight beyond the ones workers already hold; the producer
    /// blocks (backpressure) rather than buffering without bound.
    pub queue_depth: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            shards: 32,
            queue_depth: 8,
        }
    }
}

impl EngineConfig {
    /// The effective worker count: `workers`, with `0` resolved to the
    /// machine's available parallelism (capped at 16), and never more
    /// than the shard count (excess workers would only idle).
    pub fn effective_workers(&self) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(16);
        let w = if self.workers == 0 {
            auto
        } else {
            self.workers
        };
        w.max(1).min(self.shards.max(1))
    }
}

/// Deterministic shard routing: a splitmix64 finalizer over the
/// subscriber id, reduced modulo `shards`. Stable across runs and
/// platforms, well-mixed even for sequential ids.
pub fn shard_of(subscriber_id: u64, shards: usize) -> usize {
    let mut z = subscriber_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as usize
}

/// One shard's work: which global entry indices (in arrival order)
/// belong to it.
struct ShardJob {
    shard: usize,
    entry_indices: Vec<u32>,
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
    /// else in this struct it travels back through the worker's join
    /// handle — the hot path never touches a shared sink.
    trace: Option<TraceSink>,
}

/// A bounded single-producer / multi-consumer job queue. `push` blocks
/// while the queue is full — that is the engine's backpressure: the
/// producer can never race ahead of the workers by more than
/// `queue_depth` shard jobs.
struct BoundedQueue<T> {
    state: StdMutex<QueueState<T>>,
    readable: Condvar,
    writable: Condvar,
    depth: usize,
}

struct QueueState<T> {
    items: std::collections::VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(depth: usize) -> Self {
        BoundedQueue {
            state: StdMutex::new(QueueState {
                items: std::collections::VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
            writable: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// A poisoned lock means a worker already panicked; the surrounding
    /// `crossbeam::scope` re-raises that panic, so recovering the guard
    /// here only lets shutdown proceed.
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue one item, blocking while the queue is full. Returns
    /// `true` when the push had to wait on backpressure at least once
    /// (a scheduling-dependent signal, surfaced as a `Runtime`-class
    /// metric only).
    fn push(&self, item: T) -> bool {
        let mut s = self.lock();
        let mut stalled = false;
        while s.items.len() >= self.depth {
            stalled = true;
            s = self.writable.wait(s).unwrap_or_else(|e| e.into_inner());
        }
        s.items.push_back(item);
        drop(s);
        self.readable.notify_one();
        stalled
    }

    /// Jobs currently waiting (racy by nature; metrics use only).
    fn len(&self) -> usize {
        self.lock().items.len()
    }

    fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.writable.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.readable.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.readable.notify_all();
    }
}

/// Assess a whole tap capture on `pipeline`'s engine: route entries to
/// shards, run the shard jobs on the worker pool, reduce. With
/// `trace_cfg`, every emitted session also records its span chain into
/// the job's bounded sink, and the reducer merges the sinks in
/// emission-key order into one [`Trace`].
pub(crate) fn run(
    pipeline: &IngestPipeline<'_>,
    entries: &[WeblogEntry],
    trace_cfg: Option<TraceConfig>,
) -> (IngestReport, Option<Trace>) {
    // One subscription set for the whole pass, shared by reference
    // across every worker: the detectors are registered once, and each
    // reassembled session is fanned out to them as one immutable view.
    let subs = SubscriptionSet::standard(pipeline.monitor);
    let config = &pipeline.engine;
    let shards = config.shards.max(1);
    // Route each arrival to its shard; per-shard index lists keep the
    // global arrival order (indices ascend).
    let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for (g, e) in entries.iter().enumerate() {
        by_shard[shard_of(e.subscriber_id, shards)].push(g as u32);
    }

    let workers = config.effective_workers();
    let queue: BoundedQueue<ShardJob> = BoundedQueue::new(config.queue_depth);
    let metrics = pipeline.metrics.as_ref();

    let result = crossbeam::thread::scope(|scope| {
        // Workers keep their shard outputs in a private `(shard,
        // output)` vector — no shared lock on the hot path — and hand it
        // back through their join handle; the scatter after the joins
        // restores shard order.
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|_| {
                    let mut local: Vec<(usize, ShardOutput)> = Vec::new();
                    while let Some(job) = queue.pop() {
                        let out = run_job(pipeline, &subs, entries, &job.entry_indices, trace_cfg);
                        local.push((job.shard, out));
                    }
                    local
                })
            })
            .collect();
        // Produce shard jobs on the calling thread; `push` blocks when
        // `queue_depth` jobs are already waiting. The queue must close
        // before the joins below, or the workers would never exit their
        // pop loops.
        for (shard, entry_indices) in by_shard.into_iter().enumerate() {
            let stalled = queue.push(ShardJob {
                shard,
                entry_indices,
            });
            if let Some(m) = metrics {
                if stalled {
                    m.queue_stalls.inc();
                }
                m.queue_depth.set(queue.len() as i64);
            }
        }
        queue.close();
        let mut pairs: Vec<(usize, ShardOutput)> = Vec::with_capacity(shards);
        for h in handles {
            match h.join() {
                Ok(local) => pairs.extend(local),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        pairs.sort_by_key(|&(shard, _)| shard);
        pairs.into_iter().map(|(_, out)| out).collect()
    });
    let outputs: Vec<ShardOutput> = match result {
        Ok(outputs) => outputs,
        // A worker panic is a bug in the pipeline itself; re-raising it
        // is the only sane response.
        Err(p) => std::panic::resume_unwind(p),
    };
    reduce(pipeline, outputs, trace_cfg.is_some())
}

/// Run one shard job: its entries, in arrival order, through a fresh
/// shard machine, then the machine's drain — recording emission keys
/// and tagging kept anomalies with their global entry index.
fn run_job(
    pipeline: &IngestPipeline<'_>,
    subs: &SubscriptionSet<'_>,
    entries: &[WeblogEntry],
    indices: &[u32],
    trace_cfg: Option<TraceConfig>,
) -> ShardOutput {
    let metrics = pipeline.metrics.as_ref();
    let mut shard = Shard::new(pipeline.monitor, pipeline.ingest);
    // The job's own anomaly log: its entries arrive in global order, so
    // its first `cap` records are exactly this shard's candidates for
    // the global first-`cap` set.
    let mut log = AnomalyLog::new(pipeline.ingest.max_anomalies_kept);
    let mut kept_at: Vec<u64> = Vec::new();
    let mut emissions: Vec<(EmissionKey, SessionAssessment)> = Vec::new();
    // This job's private trace sink: recorded into without locks,
    // handed back through the join handle with everything else.
    let mut trace =
        trace_cfg.map(|c| (TraceSink::with_capacity(c.capacity_per_shard), subs.names()));
    let mut emit = |key: EmissionKey, subscriber: u64, c: &Closed| {
        let a = assess(subs, c, Fidelity::Full, metrics);
        if let Some((sink, names)) = trace.as_mut() {
            record_session_spans(sink, key, subscriber, &c.session, names);
        }
        emissions.push((key, a));
    };
    // Deterministic stage timing: the worker's clock advances one tick
    // per entry processed, so the span length is the shard's entry
    // count — identical at any worker count.
    let clock = SimClock::new();
    let span = metrics.map(|m| StageSpan::start(&clock, &m.stage_ticks));
    for &g in indices {
        let e = &entries[g as usize];
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
        m.observe_health_delta(&StreamHealth::default(), &shard.health);
        m.observe_kind_delta(&AnomalyKindCounts::default(), &log.kinds());
    }
    ShardOutput {
        emissions,
        health: shard.health,
        log,
        kept_at,
        trace: trace.map(|(sink, _)| sink),
    }
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
    let mut shard_health = Vec::with_capacity(outputs.len());
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
        shard_health.push(out.health);
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
    let cap = pipeline.ingest.max_anomalies_kept;
    let report = IngestReport {
        assessments: emissions.into_iter().map(|(_, a)| a).collect(),
        health,
        shard_health,
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
        alerts: Vec::new(),
    };
    (report, trace)
}

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
    delivered: &[&'static str],
) {
    let session_id = session.start.as_micros();
    let chunks = (session.chunks.len() as u64).max(1);
    let records = chunks + session.other.len() as u64;
    let mut tick = session_id;
    let head = [
        (TraceStage::Ingest, records, ""),
        (TraceStage::Reassemble, chunks, ""),
        (TraceStage::Fanout, (delivered.len() as u64).max(1), ""),
    ];
    let spans = head.into_iter().chain(
        delivered
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

    #[test]
    fn effective_workers_clamps_to_shards() {
        let cfg = EngineConfig {
            workers: 64,
            shards: 3,
            ..EngineConfig::default()
        };
        assert_eq!(cfg.effective_workers(), 3);
        let auto = EngineConfig::default().effective_workers();
        assert!((1..=16).contains(&auto));
    }

    #[test]
    fn bounded_queue_delivers_everything_once_despite_backpressure() {
        let q: BoundedQueue<usize> = BoundedQueue::new(2);
        let total = 100usize;
        let got = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|_| {
                        let mut local = Vec::new();
                        while let Some(v) = q.pop() {
                            local.push(v);
                        }
                        local
                    })
                })
                .collect();
            for v in 0..total {
                q.push(v);
            }
            q.close();
            let mut all: Vec<usize> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("consumer thread"))
                .collect();
            all.sort_unstable();
            all
        })
        .expect("queue test scope");
        assert_eq!(got, (0..total).collect::<Vec<_>>());
    }
}
