//! Deterministic session tracing — typed span events over the ingest →
//! reassemble → fan-out → deliver → reduce pipeline.
//!
//! A [`TraceSink`] is a *per-shard-job* bounded buffer: engine workers
//! each own one, record into it without any lock, and hand it back
//! through their join handle exactly like assessment emissions. The
//! merged [`Trace`] orders events by `(emission key, sequence)` — the
//! same total order the reducer applies to assessments — so the trace
//! is byte-stable across runs and worker counts.
//!
//! Every timestamp and duration is measured in deterministic ticks
//! (session-relative work units under [`SimClock`](crate::SimClock)),
//! never wall clock: two runs over the same tap produce the same bytes.
//!
//! Exports: Chrome trace-event JSON ([`Trace::to_chrome_json`],
//! loadable in Perfetto / `chrome://tracing`) and a compact JSONL event
//! log ([`Trace::to_jsonl`]).

use std::fmt::Write as _;

/// Format version stamped into every Chrome trace export (the
/// `otherData.formatVersion` field) and the JSONL header line.
pub const TRACE_FORMAT_VERSION: u32 = 1;

/// Which pipeline stage a span covers, in hot-path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceStage {
    /// Raw weblog entries offered to the pipeline for one session.
    Ingest,
    /// Session carving / reassembly of the media chunks.
    Reassemble,
    /// Fan-out: handing the session view to the three detectors.
    Fanout,
    /// One detector's model call (the detector name is the event
    /// detail).
    Deliver,
    /// The ordered reducer merging per-shard emissions.
    Reduce,
}

impl TraceStage {
    /// Stable lowercase label (trace event names, JSONL `stage` field).
    pub fn label(&self) -> &'static str {
        match self {
            TraceStage::Ingest => "ingest",
            TraceStage::Reassemble => "reassemble",
            TraceStage::Fanout => "fanout",
            TraceStage::Deliver => "deliver",
            TraceStage::Reduce => "reduce",
        }
    }
}

/// One completed span, keyed by the emission key of the session that
/// produced it. Purely a function of the input data — no wall clock, no
/// scheduling state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The emission key `(phase, major, minor)` of the session this
    /// span belongs to — the same key the engine's reducer sorts
    /// assessments by, so trace order mirrors emission order.
    pub key: (u8, u64, u32),
    /// Order of this span within its emission key (stage sequence).
    pub seq: u32,
    /// Which stage the span covers.
    pub stage: TraceStage,
    /// The subscriber whose session produced the span.
    pub subscriber: u64,
    /// Session identity: the session start time in microseconds of tap
    /// time (deterministic, replayable).
    pub session: u64,
    /// Span start in deterministic ticks.
    pub start_tick: u64,
    /// Span length in deterministic ticks.
    pub dur_ticks: u64,
    /// Free-form detail (e.g. the detector name for `Deliver` spans).
    pub detail: &'static str,
}

/// Capacity knobs for a tracing run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum events buffered per shard job; events beyond the cap are
    /// counted as dropped, never silently lost. The shard → entry
    /// routing is worker-independent, so the drop set is deterministic
    /// at any worker count.
    pub capacity_per_shard: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity_per_shard: 65_536,
        }
    }
}

/// A bounded, lock-free event buffer owned by exactly one shard job.
///
/// Workers never share a sink: each job records into its own and the
/// buffers travel back through join handles, so the hot path takes no
/// lock and the merge order is decided once, in the reducer.
#[derive(Debug, Default)]
pub struct TraceSink {
    events: Vec<TraceEvent>,
    cap: usize,
    dropped: u64,
}

impl TraceSink {
    /// Empty sink holding at most `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        TraceSink {
            events: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Record one span (kept under the cap, counted always).
    pub fn record(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded (or everything was dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events recorded beyond the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consume the sink into its buffered events and drop count.
    pub fn into_parts(self) -> (Vec<TraceEvent>, u64) {
        (self.events, self.dropped)
    }
}

/// A merged, totally ordered trace: the union of every shard job's
/// sink, sorted by `(emission key, sequence)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl Trace {
    /// Merge raw per-shard events (any order) into the canonical trace
    /// order. `dropped` is the sum over all contributing sinks.
    pub fn from_parts(mut events: Vec<TraceEvent>, dropped: u64) -> Self {
        events.sort_by_key(|e| (e.key, e.seq));
        Trace { events, dropped }
    }

    /// The ordered events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total events dropped by per-shard capacity caps.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the Chrome trace-event JSON object format: an ordered
    /// `traceEvents` array of complete (`"ph": "X"`) events plus
    /// `otherData` carrying [`TRACE_FORMAT_VERSION`]. Loadable in
    /// Perfetto and `chrome://tracing`; byte-stable for identical
    /// input.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"otherData\": {\n");
        let _ = writeln!(
            out,
            "    \"formatVersion\": \"{TRACE_FORMAT_VERSION}\",\n    \
             \"droppedEvents\": \"{}\"\n  }},",
            self.dropped
        );
        out.push_str("  \"traceEvents\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let comma = if i + 1 == self.events.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{\"name\": \"{}\", \"cat\": \"vqoe\", \"ph\": \"X\", \
                 \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}, \
                 \"args\": {{\"key\": \"{}/{}/{}\", \"seq\": {}, \"detail\": {}}}}}{comma}",
                e.stage.label(),
                e.start_tick,
                e.dur_ticks,
                e.subscriber,
                e.session,
                e.key.0,
                e.key.1,
                e.key.2,
                e.seq,
                json_string(e.detail),
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Render the compact JSONL event log: a header line carrying the
    /// format version and drop count, then one object per event in
    /// trace order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"format_version\": {TRACE_FORMAT_VERSION}, \"events\": {}, \"dropped\": {}}}",
            self.events.len(),
            self.dropped
        );
        for e in &self.events {
            let _ = writeln!(
                out,
                "{{\"key\": [{}, {}, {}], \"seq\": {}, \"stage\": \"{}\", \
                 \"subscriber\": {}, \"session\": {}, \"ts\": {}, \"dur\": {}, \
                 \"detail\": {}}}",
                e.key.0,
                e.key.1,
                e.key.2,
                e.seq,
                e.stage.label(),
                e.subscriber,
                e.session,
                e.start_tick,
                e.dur_ticks,
                json_string(e.detail),
            );
        }
        out
    }
}

/// A quoted JSON string, as both exports print a detail. Trace details
/// are plain ASCII, but any input stays valid JSON.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(key: (u8, u64, u32), seq: u32, stage: TraceStage) -> TraceEvent {
        TraceEvent {
            key,
            seq,
            stage,
            subscriber: 7,
            session: 1_000_000,
            start_tick: 3,
            dur_ticks: 2,
            detail: "",
        }
    }

    #[test]
    fn sink_caps_and_counts_drops() {
        let mut sink = TraceSink::with_capacity(2);
        for i in 0..5 {
            sink.record(ev((0, i, 0), 0, TraceStage::Ingest));
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        let (events, dropped) = sink.into_parts();
        assert_eq!(events.len(), 2);
        assert_eq!(dropped, 3);
    }

    #[test]
    fn trace_orders_by_key_then_seq() {
        let events = vec![
            ev((1, 5, 0), 1, TraceStage::Reassemble),
            ev((0, 9, 0), 0, TraceStage::Ingest),
            ev((1, 5, 0), 0, TraceStage::Ingest),
            ev((0, 2, 1), 0, TraceStage::Ingest),
        ];
        let trace = Trace::from_parts(events, 0);
        let order: Vec<((u8, u64, u32), u32)> =
            trace.events().iter().map(|e| (e.key, e.seq)).collect();
        assert_eq!(
            order,
            vec![
                ((0, 2, 1), 0),
                ((0, 9, 0), 0),
                ((1, 5, 0), 0),
                ((1, 5, 0), 1)
            ]
        );
    }

    #[test]
    fn merge_is_order_independent() {
        let a = vec![
            ev((0, 1, 0), 0, TraceStage::Ingest),
            ev((1, 2, 0), 0, TraceStage::Fanout),
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(Trace::from_parts(a, 1), Trace::from_parts(b, 1));
    }

    #[test]
    fn chrome_export_carries_version_and_events() {
        let trace = Trace::from_parts(vec![ev((0, 1, 0), 0, TraceStage::Deliver)], 2);
        let json = trace.to_chrome_json();
        assert!(json.contains("\"formatVersion\": \"1\""));
        assert!(json.contains("\"droppedEvents\": \"2\""));
        assert!(json.contains("\"name\": \"deliver\""));
        assert!(json.contains("\"ph\": \"X\""));
    }

    #[test]
    fn jsonl_has_header_plus_one_line_per_event() {
        let trace = Trace::from_parts(
            vec![
                ev((0, 1, 0), 0, TraceStage::Ingest),
                ev((0, 1, 0), 1, TraceStage::Reassemble),
            ],
            0,
        );
        let text = trace.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"format_version\": 1"));
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
