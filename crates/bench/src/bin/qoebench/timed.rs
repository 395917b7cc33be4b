//! The untraced, timed run of each workload: a closed loop of whole
//! passes through one public entry point, checked against a reference.

use std::time::Instant;

use vqoe_core::{EngineConfig, Fidelity, IngestPipeline, IngestReport, OnlineAssessor, QoeMonitor};
use vqoe_telemetry::{BinaryCorpus, IngestConfig, WeblogEntry};

use crate::input::Fnv;
use crate::stats::Histogram;
use crate::Workload;

/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// What the timed passes of one run produced.
#[derive(Debug)]
pub struct Timed {
    /// Wall time of each timed pass, seconds.
    pub pass_secs: Vec<f64>,
    /// Service time of every timed call of the entry point, ns. A
    /// replay/chaos pass is one call; an online pass is one call per
    /// record.
    pub calls: Histogram,
    /// The calls that returned at least one assessment.
    pub emits: Histogram,
    /// Operations attempted: passes in `replay`/`chaos`; sessions and
    /// refused subscribers in `online`.
    pub attempted: u64,
    /// Passes whose report differed from the reference; sessions
    /// assessed from a cut-short stream, and refused subscribers.
    pub failed: u64,
    /// True when every pass reproduced the reference report.
    pub reports_match: bool,
}

/// The report every measured pass must reproduce: the engine's on one
/// worker. The online assessor must agree with it bit for bit (nothing
/// is evicted at these sizes), and the binary replay with the replay of
/// the decoded records.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Fingerprint of the report.
    pub fingerprint: u64,
    /// Sessions assessed.
    pub sessions: u64,
    /// Sessions assessed on the sketched tier.
    pub sketched: u64,
}

impl Reference {
    /// Summarize the single-worker engine's `report`.
    pub fn of(report: &IngestReport) -> Reference {
        Reference {
            fingerprint: report_fingerprint(report),
            sessions: report.assessments.len() as u64,
            sketched: report
                .assessments
                .iter()
                .filter(|a| a.fidelity == Fidelity::Sketched)
                .count() as u64,
        }
    }
}

/// Hash of the serialized report: equal fingerprints mean bit-identical
/// reports.
pub fn report_fingerprint(report: &IngestReport) -> u64 {
    let json = serde_json::to_string(report).expect("reports always serialize");
    let mut h = Fnv::new();
    h.bytes(json.as_bytes());
    h.finish()
}

/// The engine at a fixed worker count.
pub fn engine(monitor: &QoeMonitor, workers: usize) -> IngestPipeline<'_> {
    monitor.pipeline().with_engine(EngineConfig {
        workers,
        ..EngineConfig::default()
    })
}

/// One online pass: a fresh assessor, every record through `ingest`,
/// then `into_report`. Returns the report (mid-stream emissions first,
/// then the drain, exactly the engine's order) and the pass wall time;
/// per-call service times are counted into `calls` / `emits`.
pub fn online_pass(
    monitor: &QoeMonitor,
    entries: &[WeblogEntry],
    calls: &mut Histogram,
    emits: &mut Histogram,
) -> (IngestReport, f64) {
    let mut online = OnlineAssessor::with_config(monitor.clone(), IngestConfig::default());
    let mut emitted = Vec::new();
    let start = Instant::now();
    let mut prev = start;
    for e in entries {
        let out = online.ingest(e);
        let now = Instant::now();
        let ns = u64::try_from((now - prev).as_nanos()).unwrap_or(u64::MAX);
        prev = now;
        calls.record(ns);
        if !out.is_empty() {
            emits.record(ns);
            emitted.extend(out);
        }
    }
    let mut report = online.into_report();
    let secs = start.elapsed().as_secs_f64();
    emitted.append(&mut report.assessments);
    report.assessments = emitted;
    (report, secs)
}

/// Run `workload` on `entries`: one untimed warm-up pass, then timed
/// passes for `seconds` (at least [`MIN_PASSES`]), each checked against
/// `reference`.
pub fn run(
    workload: Workload,
    monitor: &QoeMonitor,
    mut entries: Vec<WeblogEntry>,
    workers: usize,
    seconds: f64,
    reference: &Reference,
) -> Timed {
    let mut t = Timed {
        pass_secs: Vec::new(),
        calls: Histogram::new(),
        emits: Histogram::new(),
        attempted: 0,
        failed: 0,
        reports_match: true,
    };

    // Replay holds only the packed capture while it measures.
    let corpus =
        (workload == Workload::Replay).then(|| BinaryCorpus::pack(&std::mem::take(&mut entries)));
    let pipeline = engine(monitor, workers);
    let pass = |calls: &mut Histogram, emits: &mut Histogram| -> (Option<IngestReport>, f64) {
        match workload {
            Workload::Replay => {
                let corpus = corpus.as_ref().expect("replay packs its corpus");
                let start = Instant::now();
                let report = pipeline.assess_binary(corpus).ok();
                let secs = start.elapsed().as_secs_f64();
                (report, secs)
            }
            Workload::Chaos => {
                let start = Instant::now();
                let report = pipeline.assess(&entries);
                (Some(report), start.elapsed().as_secs_f64())
            }
            Workload::Online => {
                let (report, secs) = online_pass(monitor, &entries, calls, emits);
                (Some(report), secs)
            }
        }
    };

    let (warm, _) = pass(&mut Histogram::new(), &mut Histogram::new());
    t.reports_match &= warm.is_some_and(|r| report_fingerprint(&r) == reference.fingerprint);

    // A pass starts only if one more pass as long as the last fits in
    // `seconds`, so a run does not overshoot by a whole pass.
    let begin = Instant::now();
    while t.pass_secs.len() < MIN_PASSES
        || begin.elapsed().as_secs_f64() + t.pass_secs.last().copied().unwrap_or(0.0) <= seconds
    {
        let (report, secs) = pass(&mut t.calls, &mut t.emits);
        if workload != Workload::Online {
            t.calls.record((secs * 1e9) as u64);
            t.emits.record((secs * 1e9) as u64);
        }
        t.pass_secs.push(secs);
        let matches = report
            .as_ref()
            .is_some_and(|r| report_fingerprint(r) == reference.fingerprint);
        t.reports_match &= matches;
        match (workload, report) {
            (Workload::Online, Some(r)) => {
                // An online operation is a session: one assessed from a
                // cut-short stream, or a subscriber refused, failed.
                let degraded = r
                    .assessments
                    .iter()
                    .filter(|a| a.fidelity >= Fidelity::Partial)
                    .count() as u64;
                t.attempted += r.assessments.len() as u64 + r.health.subscribers_refused;
                t.failed += degraded + r.health.subscribers_refused;
            }
            _ => {
                t.attempted += 1;
                t.failed += u64::from(!matches);
            }
        }
    }
    t
}
