//! Encrypted-session reassembly (§5.2).
//!
//! With TLS the proxy loses the session ID that groups chunk downloads,
//! so sessions must be recovered from traffic shape alone. The paper's
//! procedure, implemented verbatim:
//!
//! 1. "Identify the traffic that corresponds to a single subscriber and
//!    remove all requests that do not belong to YouTube by filtering out
//!    those that have domain names not related to the service."
//! 2. "Look for the unique HTTP traffic patterns that take place at the
//!    beginning of a new video session ... requests to m.youtube.com and
//!    i.ytimg.com which are responsible for downloading multiple web
//!    objects."
//! 3. "Longer periods without traffic that correspond to the time
//!    between consecutive sessions are identified in order to clearly
//!    define the beginning and ending of each session."
//!
//! The paper notes the method "can be limited in scenarios were the same
//! subscriber launches multiple videos in parallel" — ours inherits the
//! same limitation by construction, and the evaluation schedules
//! sessions sequentially as the instrumented handset did.

use crate::weblog::WeblogEntry;
use serde::{Deserialize, Serialize};
use vqoe_simnet::time::{Duration, Instant};

/// Entries buffered verbatim per open session before the reassembler
/// switches to streaming spill (see [`SpillSink`]); pinned
/// workspace-wide (the `vqoe-analyze` constants pass checks it against
/// DESIGN.md §15). Sessions that stay under the cap are assessed
/// bit-identically to the historical fully-buffered path; only sessions
/// that exceed it degrade to the sketched tier.
pub const EXACT_ENTRY_CAP: usize = 4096;

/// Deterministic cost charged to a subscriber's budget the moment its
/// open session spills past [`EXACT_ENTRY_CAP`]: a fixed stand-in for
/// the O(1) streaming digest (moments + quantile sketches), in the same
/// [`WeblogEntry::tracked_cost`] units as buffered entries. Spilling
/// stops per-entry cost growth, so this constant is the per-subscriber
/// memory bound the budgets see for arbitrarily long sessions.
pub const SPILL_STATE_COST_BYTES: u64 = 65_536;

/// Reassembly tunables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ReassemblyConfig {
    /// Idle gap that separates consecutive sessions.
    pub idle_gap: Duration,
    /// A watch-page fetch at least this long after the last media chunk
    /// marks a new session even without a full idle gap.
    pub page_marker_gap: Duration,
    /// Discard fragments with fewer media chunks than this.
    pub min_chunks: usize,
    /// Per-session exact-buffer cap: entries beyond this stream into
    /// the attached [`SpillSink`] (or are counted and dropped when none
    /// is attached) instead of buffering. `0` disables spilling
    /// (unbounded buffering, the pre-ISSUE-10 behaviour). Deserializes
    /// to [`EXACT_ENTRY_CAP`] when absent, so older model files keep
    /// working.
    pub exact_entry_cap: usize,
}

// Hand-written (the vendored serde stub's derive has no `#[serde(default)]`):
// `exact_entry_cap` is absent from pre-ISSUE-10 snapshots and defaults
// to [`EXACT_ENTRY_CAP`].
impl Deserialize for ReassemblyConfig {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let req = |f: &str| {
            value
                .get(f)
                .ok_or_else(|| serde::DeError::missing_field("ReassemblyConfig", f))
        };
        Ok(ReassemblyConfig {
            idle_gap: Deserialize::from_value(req("idle_gap")?)?,
            page_marker_gap: Deserialize::from_value(req("page_marker_gap")?)?,
            min_chunks: Deserialize::from_value(req("min_chunks")?)?,
            exact_entry_cap: match value.get("exact_entry_cap") {
                Some(v) => Deserialize::from_value(v)?,
                None => EXACT_ENTRY_CAP,
            },
        })
    }
}

impl Default for ReassemblyConfig {
    fn default() -> Self {
        ReassemblyConfig {
            idle_gap: Duration::from_secs(30),
            page_marker_gap: Duration::from_secs(8),
            min_chunks: 3,
            exact_entry_cap: EXACT_ENTRY_CAP,
        }
    }
}

/// Receiver for media-chunk entries past the exactness cap.
///
/// The streaming digest itself (running moments + quantile sketches
/// over the §4 metric series) lives in `vqoe-features`, which this
/// crate cannot depend on; the trait inverts the dependency. Contract,
/// relied on by `vqoe-core`'s sketched assessment path:
///
/// * at the first spill of a session, the reassembler **replays the
///   exact prefix** (every buffered media entry, in order) into
///   [`SpillSink::fold_chunk`] before folding the overflow entry, so
///   the digest always covers the whole session;
/// * [`SpillSink::seal`] archives the current digest as one finished
///   session (FIFO) and resets for the next — called exactly when the
///   reassembler emits a session with `spilled_chunks > 0`;
/// * [`SpillSink::discard`] drops the current digest without archiving
///   (the spilled fragment failed `min_chunks`).
pub trait SpillSink: std::fmt::Debug + Send {
    /// Fold one media-chunk entry into the current session's digest.
    fn fold_chunk(&mut self, e: &WeblogEntry);
    /// Archive the current digest as a finished session and reset.
    fn seal(&mut self);
    /// Drop the current digest without archiving and reset.
    fn discard(&mut self);
    /// Deterministic JSON snapshot of the sink (current digest plus any
    /// sealed-but-unclaimed ones), for checkpointing; `None` when the
    /// sink holds no state.
    fn state_json(&self) -> Option<String>;
    /// Clone behind the object (keeps the reassembler `Clone`).
    fn clone_box(&self) -> Box<dyn SpillSink>;
    /// Downcast hook so `vqoe-core` can claim sealed digests by
    /// concrete type.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl Clone for Box<dyn SpillSink> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// One session recovered from encrypted traffic.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReassembledSession {
    /// First service transaction of the session.
    pub start: Instant,
    /// Last byte of the last transaction.
    pub end: Instant,
    /// The media-chunk transactions, in time order. When the session
    /// spilled, this is only the exact prefix (the first
    /// [`ReassemblyConfig::exact_entry_cap`] entries' media chunks).
    pub chunks: Vec<WeblogEntry>,
    /// Page/stats transactions bracketing the chunks (kept for
    /// diagnostics; the detectors only use `chunks`).
    pub other: Vec<WeblogEntry>,
    /// Media chunks folded into the [`SpillSink`] past the exactness
    /// cap (zero for the historical fully-buffered path).
    pub spilled_chunks: u64,
    /// Non-media service entries seen past the exactness cap (counted
    /// only; they never contribute to features).
    pub spilled_other: u64,
}

// Hand-written: the `spilled_*` counters are absent from pre-ISSUE-10
// snapshots and default to zero (exact session).
impl Deserialize for ReassembledSession {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let req = |f: &str| {
            value
                .get(f)
                .ok_or_else(|| serde::DeError::missing_field("ReassembledSession", f))
        };
        let opt_u64 = |f: &str| match value.get(f) {
            Some(v) => Deserialize::from_value(v),
            None => Ok(0u64),
        };
        Ok(ReassembledSession {
            start: Deserialize::from_value(req("start")?)?,
            end: Deserialize::from_value(req("end")?)?,
            chunks: Deserialize::from_value(req("chunks")?)?,
            other: Deserialize::from_value(req("other")?)?,
            spilled_chunks: opt_u64("spilled_chunks")?,
            spilled_other: opt_u64("spilled_other")?,
        })
    }
}

impl ReassembledSession {
    /// Number of exactly buffered media chunks (the spilled tail is
    /// *not* included; see [`ReassembledSession::total_chunks`]).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Total media chunks observed, buffered plus spilled.
    pub fn total_chunks(&self) -> u64 {
        self.chunks.len() as u64 + self.spilled_chunks
    }

    /// True when every chunk was buffered verbatim — the session is
    /// eligible for the bit-identical exact assessment path.
    pub fn is_exact(&self) -> bool {
        self.spilled_chunks == 0
    }

    /// Duration spanned by the recovered session.
    pub fn span(&self) -> Duration {
        self.end.duration_since(self.start)
    }
}

/// Incremental (streaming) reassembler: feed weblog entries in time
/// order and receive a [`ReassembledSession`] the moment a boundary
/// proves the previous session complete — the "report issues in real
/// time" deployment mode of §8. The batch function
/// [`reassemble_subscriber`] is a thin wrapper over this state machine,
/// so the two can never disagree.
#[derive(Debug, Clone)]
pub struct StreamReassembler {
    config: ReassemblyConfig,
    current: Vec<WeblogEntry>,
    last_seen: Option<Instant>,
    last_media: Option<Instant>,
    /// Deterministic cost of `current` (sum of
    /// [`WeblogEntry::tracked_cost`]), maintained incrementally so the
    /// memory-budget check stays O(1) per entry. While a spill is
    /// active, also carries the fixed [`SPILL_STATE_COST_BYTES`].
    buffered_cost: u64,
    /// Streaming receiver for entries past the exactness cap.
    spill: Option<Box<dyn SpillSink>>,
    /// True once the open session crossed the cap (prefix already
    /// replayed into the sink).
    spill_active: bool,
    /// Media chunks folded past the cap for the open session.
    spilled_chunks: u64,
    /// Non-media entries counted past the cap for the open session.
    spilled_other: u64,
    /// Latest arrival time among spilled entries (extends the session
    /// end past the buffered prefix).
    spilled_end: Option<Instant>,
}

/// Serializable snapshot of a [`StreamReassembler`] — the open session
/// group and the boundary clocks. `Vec`-shaped on purpose: it feeds the
/// checkpoint/restore path, which serializes through the workspace's
/// hand-rolled JSON layer. The derived cost counter is *not* stored; it
/// is recomputed on restore, so a snapshot can never disagree with its
/// own records.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamReassemblerState {
    /// Reassembly tunables in effect.
    pub config: ReassemblyConfig,
    /// The currently open session group, in push order.
    pub current: Vec<WeblogEntry>,
    /// Arrival time of the newest service entry.
    pub last_seen: Option<Instant>,
    /// Arrival time of the newest media chunk.
    pub last_media: Option<Instant>,
    /// True once the open session crossed the exactness cap.
    pub spill_active: bool,
    /// Media chunks folded past the cap for the open session.
    pub spilled_chunks: u64,
    /// Non-media entries counted past the cap for the open session.
    pub spilled_other: u64,
    /// Latest arrival time among spilled entries.
    pub spilled_end: Option<Instant>,
    /// Deterministic snapshot of the attached [`SpillSink`] (the
    /// caller that restores the machine rehydrates the concrete sink
    /// from this and re-attaches it via
    /// [`StreamReassembler::attach_spill`]).
    pub spill_json: Option<String>,
}

// Hand-written: every spill field is absent from pre-ISSUE-10
// checkpoints and defaults to "never spilled".
impl Deserialize for StreamReassemblerState {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let req = |f: &str| {
            value
                .get(f)
                .ok_or_else(|| serde::DeError::missing_field("StreamReassemblerState", f))
        };
        Ok(StreamReassemblerState {
            config: Deserialize::from_value(req("config")?)?,
            current: Deserialize::from_value(req("current")?)?,
            last_seen: Deserialize::from_value(req("last_seen")?)?,
            last_media: Deserialize::from_value(req("last_media")?)?,
            spill_active: match value.get("spill_active") {
                Some(v) => Deserialize::from_value(v)?,
                None => false,
            },
            spilled_chunks: match value.get("spilled_chunks") {
                Some(v) => Deserialize::from_value(v)?,
                None => 0,
            },
            spilled_other: match value.get("spilled_other") {
                Some(v) => Deserialize::from_value(v)?,
                None => 0,
            },
            spilled_end: match value.get("spilled_end") {
                Some(v) => Deserialize::from_value(v)?,
                None => None,
            },
            spill_json: match value.get("spill_json") {
                Some(v) => Deserialize::from_value(v)?,
                None => None,
            },
        })
    }
}

impl StreamReassembler {
    /// Fresh state machine for one subscriber.
    pub fn new(config: ReassemblyConfig) -> Self {
        StreamReassembler {
            config,
            current: Vec::new(),
            last_seen: None,
            last_media: None,
            buffered_cost: 0,
            spill: None,
            spill_active: false,
            spilled_chunks: 0,
            spilled_other: 0,
            spilled_end: None,
        }
    }

    /// Attach a streaming receiver for entries past the exactness cap.
    /// Without one, over-cap entries are counted and dropped (sessions
    /// still finalize with correct boundaries and `spilled_*` counts,
    /// but no digest exists to assess them from).
    pub fn attach_spill(&mut self, sink: Box<dyn SpillSink>) {
        self.spill = Some(sink);
    }

    /// Mutable access to the attached spill sink (the sketched
    /// assessment path downcasts it to claim sealed digests).
    pub fn spill_sink_mut(&mut self) -> Option<&mut (dyn SpillSink + '_)> {
        match &mut self.spill {
            Some(b) => {
                let sink: &mut (dyn SpillSink + '_) = &mut **b;
                Some(sink)
            }
            None => None,
        }
    }

    /// Snapshot the machine for checkpointing.
    pub fn to_state(&self) -> StreamReassemblerState {
        StreamReassemblerState {
            config: self.config,
            current: self.current.clone(),
            last_seen: self.last_seen,
            last_media: self.last_media,
            spill_active: self.spill_active,
            spilled_chunks: self.spilled_chunks,
            spilled_other: self.spilled_other,
            spilled_end: self.spilled_end,
            spill_json: self.spill.as_ref().and_then(|s| s.state_json()),
        }
    }

    /// Rebuild a machine from a snapshot, recomputing the cost counter.
    /// The spill sink is *not* rebuilt here (this crate does not know
    /// the concrete digest type); the caller rehydrates it from
    /// [`StreamReassemblerState::spill_json`] and re-attaches via
    /// [`StreamReassembler::attach_spill`].
    pub fn from_state(state: StreamReassemblerState) -> Self {
        let mut buffered_cost: u64 = state.current.iter().map(|e| e.tracked_cost()).sum();
        if state.spill_active {
            buffered_cost += SPILL_STATE_COST_BYTES;
        }
        StreamReassembler {
            config: state.config,
            current: state.current,
            last_seen: state.last_seen,
            last_media: state.last_media,
            buffered_cost,
            spill: None,
            spill_active: state.spill_active,
            spilled_chunks: state.spilled_chunks,
            spilled_other: state.spilled_other,
            spilled_end: state.spilled_end,
        }
    }

    /// Deterministic memory cost of the open session group (sum of
    /// [`WeblogEntry::tracked_cost`] over buffered entries).
    pub fn buffered_cost(&self) -> u64 {
        self.buffered_cost
    }

    /// Feed one entry (must arrive in timestamp order). Returns the
    /// completed previous session when this entry proves a boundary.
    /// Non-service entries are ignored (the paper's step-1 filter).
    pub fn push(&mut self, e: &WeblogEntry) -> Option<ReassembledSession> {
        if !e.is_service_host() {
            return None;
        }
        let mut boundary = false;
        if let Some(last) = self.last_seen {
            // Step 3: idle-gap split.
            if e.timestamp.duration_since(last) > self.config.idle_gap {
                boundary = true;
            }
        }
        // Step 2: watch-page marker after media activity ⇒ new session.
        if !boundary && e.is_page_host() {
            if let Some(lm) = self.last_media {
                if e.timestamp.duration_since(lm) > self.config.page_marker_gap {
                    boundary = true;
                }
            }
        }
        let mut emitted = None;
        if boundary && !self.current.is_empty() {
            emitted = self.take_session();
            self.last_media = None;
        }
        if e.is_media_host() {
            self.last_media = Some(e.arrival_time());
        }
        self.last_seen = Some(e.arrival_time());
        let cap = self.config.exact_entry_cap;
        if cap == 0 || self.current.len() < cap {
            self.buffered_cost += e.tracked_cost();
            self.current.push(e.clone());
        } else {
            self.spill_entry(e);
        }
        emitted
    }

    /// Route one over-cap entry into the streaming digest. On the first
    /// spill of a session the exact prefix is replayed into the sink
    /// (see the [`SpillSink`] contract) and the fixed digest cost is
    /// charged in place of further per-entry growth.
    fn spill_entry(&mut self, e: &WeblogEntry) {
        if !self.spill_active {
            self.spill_active = true;
            self.buffered_cost += SPILL_STATE_COST_BYTES;
            if let Some(sink) = self.spill.as_deref_mut() {
                for prior in &self.current {
                    if prior.is_media_host() {
                        sink.fold_chunk(prior);
                    }
                }
            }
        }
        if e.is_media_host() {
            self.spilled_chunks += 1;
            if let Some(sink) = self.spill.as_deref_mut() {
                sink.fold_chunk(e);
            }
        } else {
            self.spilled_other += 1;
        }
        let arrival = e.arrival_time();
        self.spilled_end = Some(self.spilled_end.map_or(arrival, |t| t.max(arrival)));
    }

    /// Close the stream, emitting any final open session.
    pub fn finish(mut self) -> Option<ReassembledSession> {
        self.finish_in_place()
    }

    /// Close the open session group without consuming the machine: the
    /// final session (if any) is emitted and the machine resets to
    /// fresh, keeping its attached [`SpillSink`] (with any sealed
    /// digests still unclaimed) installed for reuse.
    pub fn finish_in_place(&mut self) -> Option<ReassembledSession> {
        let done = self.take_session();
        self.last_seen = None;
        self.last_media = None;
        done
    }

    /// Number of service entries in the currently open group.
    pub fn open_entries(&self) -> usize {
        self.current.len()
    }

    fn take_session(&mut self) -> Option<ReassembledSession> {
        let batch = std::mem::take(&mut self.current);
        self.buffered_cost = 0;
        let spilled_chunks = std::mem::take(&mut self.spilled_chunks);
        let spilled_other = std::mem::take(&mut self.spilled_other);
        let spilled_end = self.spilled_end.take();
        let was_spilled = std::mem::take(&mut self.spill_active);
        let min_chunks = self.config.min_chunks;
        let session = (|| {
            let start = batch.first()?.timestamp;
            let chunks: Vec<WeblogEntry> = batch
                .iter()
                .filter(|e| e.is_media_host())
                .cloned()
                .collect();
            if (chunks.len() as u64 + spilled_chunks) < min_chunks as u64 {
                return None;
            }
            let end = batch.iter().map(|e| e.arrival_time()).max()?;
            let end = spilled_end.map_or(end, |t| t.max(end));
            let other: Vec<WeblogEntry> = batch
                .iter()
                .filter(|e| !e.is_media_host())
                .cloned()
                .collect();
            Some(ReassembledSession {
                start,
                end,
                chunks,
                other,
                spilled_chunks,
                spilled_other,
            })
        })();
        if was_spilled {
            if let Some(sink) = self.spill.as_deref_mut() {
                if session.is_some() {
                    sink.seal();
                } else {
                    sink.discard();
                }
            }
        }
        session
    }
}

/// Reassemble one subscriber's weblog stream into sessions.
///
/// `entries` may be unsorted and may contain non-service noise; both are
/// handled (the paper's step 1 is the domain filter). This is the batch
/// form of [`StreamReassembler`].
pub fn reassemble_subscriber(
    entries: &[WeblogEntry],
    config: &ReassemblyConfig,
) -> Vec<ReassembledSession> {
    let mut service: Vec<&WeblogEntry> = entries.iter().filter(|e| e.is_service_host()).collect();
    service.sort_by_key(|e| e.timestamp);
    let mut machine = StreamReassembler::new(*config);
    let mut sessions = Vec::new();
    for e in service {
        if let Some(done) = machine.push(e) {
            sessions.push(done);
        }
    }
    if let Some(done) = machine.finish() {
        sessions.push(done);
    }
    sessions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture_session, generate_noise, CaptureConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vqoe_player::{simulate_session, AbrKind, Delivery, SessionConfig, SessionTrace};
    use vqoe_simnet::channel::Scenario;
    use vqoe_simnet::rng::SeedSequence;

    /// Simulate `n` sequential sessions of one subscriber, capture them
    /// encrypted with inter-session gaps, and mix in noise.
    fn subscriber_stream(n: usize, gap_secs: u64) -> (Vec<SessionTrace>, Vec<WeblogEntry>) {
        let seeds = SeedSequence::new(314);
        let mut rng = StdRng::seed_from_u64(1);
        let mut traces = Vec::new();
        let mut entries = Vec::new();
        let mut t0 = Instant::from_secs(100);
        for i in 0..n {
            let trace = simulate_session(
                &SessionConfig {
                    session_index: i as u64,
                    scenario: Scenario::StaticHome,
                    delivery: Delivery::Dash(AbrKind::Hybrid),
                    start_time: t0,
                    profile: Default::default(),
                },
                &seeds,
            );
            entries.extend(
                capture_session(
                    &trace,
                    &CaptureConfig {
                        encrypted: true,
                        subscriber_id: 7,
                    },
                    &mut rng,
                )
                .expect("simulated traces always capture"),
            );
            t0 = trace.ground_truth.session_end + Duration::from_secs(gap_secs);
            traces.push(trace);
        }
        let span_end = t0 + Duration::from_secs(60);
        entries.extend(generate_noise(7, Instant::ZERO, span_end, 120, &mut rng));
        entries.sort_by_key(|e| e.timestamp);
        (traces, entries)
    }

    #[test]
    fn sequential_sessions_are_recovered() {
        let (traces, entries) = subscriber_stream(5, 120);
        let sessions = reassemble_subscriber(&entries, &ReassemblyConfig::default());
        assert_eq!(sessions.len(), traces.len());
        for (s, t) in sessions.iter().zip(traces.iter()) {
            // Chunk counts must match exactly: nothing leaked, nothing lost.
            assert_eq!(s.chunk_count(), t.chunks.len());
        }
    }

    #[test]
    fn noise_never_enters_sessions() {
        let (_, entries) = subscriber_stream(3, 90);
        let sessions = reassemble_subscriber(&entries, &ReassemblyConfig::default());
        for s in &sessions {
            assert!(s.chunks.iter().all(|e| e.is_media_host()));
            assert!(s.other.iter().all(|e| e.is_service_host()));
        }
    }

    #[test]
    fn sessions_are_ordered_and_disjoint() {
        let (_, entries) = subscriber_stream(4, 100);
        let sessions = reassemble_subscriber(&entries, &ReassemblyConfig::default());
        for w in sessions.windows(2) {
            assert!(w[0].end <= w[1].start, "sessions overlap");
        }
    }

    #[test]
    fn tiny_fragments_are_discarded() {
        // Three lone media chunks below min_chunks=5 must be dropped.
        let (_, entries) = subscriber_stream(1, 60);
        let cfg = ReassemblyConfig {
            min_chunks: 100_000, // absurd threshold: nothing survives
            ..ReassemblyConfig::default()
        };
        assert!(reassemble_subscriber(&entries, &cfg).is_empty());
    }

    #[test]
    fn empty_input_yields_no_sessions() {
        assert!(reassemble_subscriber(&[], &ReassemblyConfig::default()).is_empty());
    }

    #[test]
    fn page_marker_splits_back_to_back_sessions() {
        // Gap shorter than idle_gap (30 s): only the page-burst marker can
        // separate the two sessions.
        let (traces, entries) = subscriber_stream(2, 12);
        let sessions = reassemble_subscriber(&entries, &ReassemblyConfig::default());
        assert_eq!(sessions.len(), 2, "page marker failed to split");
        assert_eq!(sessions[0].chunk_count(), traces[0].chunks.len());
        assert_eq!(sessions[1].chunk_count(), traces[1].chunks.len());
    }

    #[test]
    fn reassembled_span_covers_the_download() {
        let (traces, entries) = subscriber_stream(1, 60);
        let sessions = reassemble_subscriber(&entries, &ReassemblyConfig::default());
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        let first_chunk = traces[0].chunks.first().unwrap().request_time;
        let last_chunk = traces[0].chunks.last().unwrap().arrival_time;
        assert!(s.start <= first_chunk);
        assert!(s.end >= last_chunk);
    }
}
