//! Graceful degradation for hostile weblog streams.
//!
//! [`crate::reassembly::StreamReassembler`] implements the paper's §5.2
//! session-recovery procedure under the lab assumption that entries
//! arrive per subscriber in timestamp order and well-formed. A real
//! operator tap (see [`crate::chaos`] for the fault model) breaks both
//! assumptions. This module wraps the state machine in a
//! [`RobustReassembler`] that:
//!
//! * **quarantines** malformed entries into a typed, bounded
//!   [`AnomalyLog`] instead of letting them skew features;
//! * **re-sorts** entries inside a configurable out-of-order window and
//!   quarantines anything that arrives later than the window allows;
//! * **suppresses exact duplicates** against both the in-window buffer
//!   and a short memory of recently released records;
//! * reports everything it did through shared [`StreamHealth`]
//!   counters, so the online assessor and the CLI can surface how much
//!   the tap degraded.
//!
//! The key invariant, checked by the integration tests in `vqoe-core`:
//! on a **clean** stream the wrapper is a bit-identical no-op — every
//! threshold is chosen so that simulator output never trips it, and the
//! reorder buffer preserves arrival order for already-ordered input.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};
use vqoe_simnet::time::{Duration, Instant};

use crate::reassembly::{
    ReassembledSession, ReassemblyConfig, StreamReassembler, StreamReassemblerState,
};
use crate::weblog::WeblogEntry;

/// Tunables for the graceful-degradation layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestConfig {
    /// Entries older than the subscriber's newest timestamp by more
    /// than this are quarantined as [`AnomalyKind::LateArrival`];
    /// everything younger is re-sorted transparently.
    pub reorder_window: Duration,
    /// How many recently released entries to remember for duplicate
    /// suppression (exact-record matches).
    pub dedup_depth: usize,
    /// Hard cap on concurrently tracked subscribers; the online
    /// assessor evicts the least-recently-active one beyond this.
    pub max_open_subscribers: usize,
    /// Objects larger than this are quarantined as corrupt
    /// ([`AnomalyKind::OversizedObject`]).
    pub max_object_bytes: u64,
    /// Transactions longer than this are quarantined as corrupt
    /// ([`AnomalyKind::OverlongTransaction`]).
    pub max_transaction_duration: Duration,
    /// How many individual anomalies the [`AnomalyLog`] retains (the
    /// total count is always exact).
    pub max_anomalies_kept: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            reorder_window: Duration::from_secs(5),
            dedup_depth: 32,
            max_open_subscribers: 65_536,
            // Far above anything the capture layer produces (chunks top
            // out well under 1 GB), far below corruption sentinels.
            max_object_bytes: 100 * 1024 * 1024 * 1024,
            max_transaction_duration: Duration::from_secs(3600),
            max_anomalies_kept: 1024,
        }
    }
}

/// Why an entry was quarantined instead of entering reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnomalyKind {
    /// The hostname was empty (truncated export record).
    EmptyHost,
    /// The object size exceeded [`IngestConfig::max_object_bytes`].
    OversizedObject,
    /// A zero-byte object, which no capture path produces.
    ZeroSizedObject,
    /// The transaction outlived
    /// [`IngestConfig::max_transaction_duration`].
    OverlongTransaction,
    /// The entry arrived later than the out-of-order window tolerates.
    LateArrival,
}

/// One quarantined entry: who, when, why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestAnomaly {
    /// Subscriber the entry claimed to belong to.
    pub subscriber_id: u64,
    /// The entry's (possibly skewed) request timestamp.
    pub timestamp: Instant,
    /// Classification of the fault.
    pub kind: AnomalyKind,
}

/// Exact per-[`AnomalyKind`] quarantine counts. Unlike the bounded
/// record list in [`AnomalyLog`], these are plain monotone counters and
/// survive the retention cap, so observability layers can report the
/// full kind distribution of a fault storm. Counts merge by summation
/// (see [`AnomalyKindCounts::absorb`]), which makes them deterministic
/// under any parallel reduction order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnomalyKindCounts {
    /// [`AnomalyKind::EmptyHost`] quarantines.
    pub empty_host: u64,
    /// [`AnomalyKind::OversizedObject`] quarantines.
    pub oversized_object: u64,
    /// [`AnomalyKind::ZeroSizedObject`] quarantines.
    pub zero_sized_object: u64,
    /// [`AnomalyKind::OverlongTransaction`] quarantines.
    pub overlong_transaction: u64,
    /// [`AnomalyKind::LateArrival`] quarantines.
    pub late_arrival: u64,
}

impl AnomalyKindCounts {
    /// Count one anomaly of the given kind.
    pub fn record(&mut self, kind: AnomalyKind) {
        match kind {
            AnomalyKind::EmptyHost => self.empty_host += 1,
            AnomalyKind::OversizedObject => self.oversized_object += 1,
            AnomalyKind::ZeroSizedObject => self.zero_sized_object += 1,
            AnomalyKind::OverlongTransaction => self.overlong_transaction += 1,
            AnomalyKind::LateArrival => self.late_arrival += 1,
        }
    }

    /// Sum across all kinds.
    pub fn total(&self) -> u64 {
        self.empty_host
            + self.oversized_object
            + self.zero_sized_object
            + self.overlong_transaction
            + self.late_arrival
    }

    /// Fold another count set into this one (monotone sums).
    pub fn absorb(&mut self, other: &AnomalyKindCounts) {
        self.empty_host += other.empty_host;
        self.oversized_object += other.oversized_object;
        self.zero_sized_object += other.zero_sized_object;
        self.overlong_transaction += other.overlong_transaction;
        self.late_arrival += other.late_arrival;
    }
}

/// A bounded quarantine log: keeps the first
/// [`IngestConfig::max_anomalies_kept`] anomalies verbatim, an exact
/// total count beyond that, and exact per-kind counts, so a fault storm
/// cannot balloon memory yet still reports its full distribution.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnomalyLog {
    kept: Vec<IngestAnomaly>,
    total: u64,
    cap: usize,
    kinds: AnomalyKindCounts,
}

impl AnomalyLog {
    /// Empty log retaining at most `cap` individual records.
    pub fn new(cap: usize) -> Self {
        AnomalyLog {
            kept: Vec::new(),
            total: 0,
            cap,
            kinds: AnomalyKindCounts::default(),
        }
    }

    /// Record one anomaly (always counted, kept only under the cap).
    pub fn record(&mut self, a: IngestAnomaly) {
        self.total += 1;
        self.kinds.record(a.kind);
        if self.kept.len() < self.cap {
            self.kept.push(a);
        }
    }

    /// Rebuild a log from an already-merged record list, an exact
    /// total, and summed per-kind counts. Used by parallel reducers
    /// that merge several per-shard logs into the record order a
    /// sequential run would have produced; `kept` is truncated to
    /// `cap`, `total` and `kinds` are taken as-is.
    pub fn from_parts(
        cap: usize,
        mut kept: Vec<IngestAnomaly>,
        total: u64,
        kinds: AnomalyKindCounts,
    ) -> Self {
        kept.truncate(cap);
        AnomalyLog {
            kept,
            total,
            cap,
            kinds,
        }
    }

    /// The retained anomaly records, oldest first.
    pub fn kept(&self) -> &[IngestAnomaly] {
        &self.kept
    }

    /// Exact number of anomalies ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact per-kind counts (not subject to the retention cap).
    pub fn kinds(&self) -> AnomalyKindCounts {
        self.kinds
    }

    /// Whether recording could have built this log: no more kept
    /// records than the cap or the total allow, and per-kind counts
    /// that sum to the total. A log read from outside (a checkpoint) is
    /// checked before it is trusted.
    pub fn is_consistent(&self) -> bool {
        self.kept.len() <= self.cap
            && self.kept.len() as u64 <= self.total
            && self.kinds.total() == self.total
    }
}

/// Monotone counters describing what the degradation layer absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StreamHealth {
    /// Entries offered to the assessor (including noise and faults).
    pub entries_seen: u64,
    /// Entries admitted out of timestamp order and re-sorted.
    pub entries_reordered: u64,
    /// Exact duplicate records suppressed.
    pub entries_duplicated: u64,
    /// Entries quarantined into the [`AnomalyLog`].
    pub entries_quarantined: u64,
    /// Idle subscribers evicted to enforce the memory cap.
    pub sessions_evicted: u64,
    /// Sessions assessed from an evicted (force-closed) stream.
    pub sessions_partial: u64,
    /// Subscribers force-finalized to satisfy a memory *budget* (bytes),
    /// as opposed to the subscriber-count cap behind `sessions_evicted`.
    pub sessions_shed: u64,
    /// New subscribers refused admission because the global memory
    /// budget was already exhausted (their entries are never tracked).
    pub subscribers_refused: u64,
}

impl StreamHealth {
    /// Quarantine `e` for `kind`: count it and record the anomaly.
    pub fn quarantine(&mut self, e: &WeblogEntry, kind: AnomalyKind, log: &mut AnomalyLog) {
        self.entries_quarantined += 1;
        log.record(IngestAnomaly {
            subscriber_id: e.subscriber_id,
            timestamp: e.timestamp,
            kind,
        });
    }

    /// Fold another counter set into this one. Every counter is a
    /// monotone sum, so per-shard healths merge into exactly the
    /// numbers a sequential run over the union stream would report.
    pub fn absorb(&mut self, other: &StreamHealth) {
        self.entries_seen += other.entries_seen;
        self.entries_reordered += other.entries_reordered;
        self.entries_duplicated += other.entries_duplicated;
        self.entries_quarantined += other.entries_quarantined;
        self.sessions_evicted += other.sessions_evicted;
        self.sessions_partial += other.sessions_partial;
        self.sessions_shed += other.sessions_shed;
        self.subscribers_refused += other.subscribers_refused;
    }
}

/// Structural validation of a single entry against the fault model.
/// Returns the reason to quarantine it, or `None` if it is admissible.
/// Thresholds are deliberately far outside anything the capture layer
/// emits, so clean streams are never touched.
pub fn validate_entry(e: &WeblogEntry, cfg: &IngestConfig) -> Option<AnomalyKind> {
    if e.host.is_empty() {
        Some(AnomalyKind::EmptyHost)
    } else if e.bytes == 0 {
        Some(AnomalyKind::ZeroSizedObject)
    } else if e.bytes > cfg.max_object_bytes {
        Some(AnomalyKind::OversizedObject)
    } else if e.duration > cfg.max_transaction_duration {
        Some(AnomalyKind::OverlongTransaction)
    } else {
        None
    }
}

/// [`StreamReassembler`] hardened for hostile input: validates,
/// deduplicates and re-sorts entries before they reach the §5.2 state
/// machine, which continues to require (and now provably receives)
/// per-subscriber timestamp order.
#[derive(Debug, Clone)]
pub struct RobustReassembler {
    cfg: IngestConfig,
    inner: StreamReassembler,
    reassembly: ReassemblyConfig,
    /// In-window entries, sorted by timestamp, not yet released.
    pending: VecDeque<WeblogEntry>,
    /// Recently released entries, for exact-duplicate suppression.
    recent: VecDeque<WeblogEntry>,
    /// Newest timestamp seen from this subscriber.
    watermark: Option<Instant>,
    /// Deterministic cost of `pending` + `recent` (sum of
    /// [`WeblogEntry::tracked_cost`]), maintained incrementally so
    /// [`RobustReassembler::tracked_cost`] is O(1).
    buffered_cost: u64,
}

/// Serializable snapshot of one subscriber's [`RobustReassembler`]: the
/// reorder buffer, the dedup memory, the open session group, and both
/// configurations. Buffers are `Vec`-shaped (front first) so the whole
/// struct round-trips through the workspace's hand-rolled JSON layer;
/// derived cost counters are recomputed on restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReassemblerState {
    /// Ingest hardening tunables in effect.
    pub cfg: IngestConfig,
    /// Reassembly tunables in effect.
    pub reassembly: ReassemblyConfig,
    /// The wrapped §5.2 state machine.
    pub inner: StreamReassemblerState,
    /// The reorder buffer, sorted by timestamp (front first).
    pub pending: Vec<WeblogEntry>,
    /// The dedup memory, oldest released entry first.
    pub recent: Vec<WeblogEntry>,
    /// Newest timestamp seen from this subscriber.
    pub watermark: Option<Instant>,
}

impl RobustReassembler {
    /// Fresh hardened reassembler for one subscriber.
    pub fn new(reassembly: ReassemblyConfig, cfg: IngestConfig) -> Self {
        RobustReassembler {
            cfg,
            inner: StreamReassembler::new(reassembly),
            reassembly,
            pending: VecDeque::new(),
            recent: VecDeque::new(),
            watermark: None,
            buffered_cost: 0,
        }
    }

    /// Snapshot the full per-subscriber state for checkpointing.
    pub fn to_state(&self) -> ReassemblerState {
        ReassemblerState {
            cfg: self.cfg,
            reassembly: self.reassembly,
            inner: self.inner.to_state(),
            pending: self.pending.iter().cloned().collect(),
            recent: self.recent.iter().cloned().collect(),
            watermark: self.watermark,
        }
    }

    /// Rebuild a reassembler from a snapshot, recomputing cost counters.
    pub fn from_state(state: ReassemblerState) -> Self {
        let buffered_cost = state
            .pending
            .iter()
            .chain(state.recent.iter())
            .map(|e| e.tracked_cost())
            .sum();
        RobustReassembler {
            cfg: state.cfg,
            reassembly: state.reassembly,
            inner: StreamReassembler::from_state(state.inner),
            pending: state.pending.into(),
            recent: state.recent.into(),
            watermark: state.watermark,
            buffered_cost,
        }
    }

    /// Attach a streaming receiver for entries past the exactness cap
    /// (see [`crate::reassembly::SpillSink`]); forwarded to the inner
    /// boundary machine.
    pub fn attach_spill(&mut self, sink: Box<dyn crate::reassembly::SpillSink>) {
        self.inner.attach_spill(sink);
    }

    /// Mutable access to the attached spill sink (the sketched
    /// assessment path downcasts it to claim sealed digests).
    pub fn spill_sink_mut(&mut self) -> Option<&mut (dyn crate::reassembly::SpillSink + '_)> {
        self.inner.spill_sink_mut()
    }

    /// Newest timestamp seen (the subscriber's activity clock; drives
    /// LRU eviction in the online assessor).
    pub fn watermark(&self) -> Option<Instant> {
        self.watermark
    }

    /// Entries currently buffered (reorder window + open session group).
    pub fn open_entries(&self) -> usize {
        self.inner.open_entries() + self.pending.len()
    }

    /// Deterministic memory cost of everything buffered for this
    /// subscriber: reorder buffer + dedup memory + open session group,
    /// in [`WeblogEntry::tracked_cost`] units. This is the quantity the
    /// online assessor's memory budgets account.
    pub fn tracked_cost(&self) -> u64 {
        self.buffered_cost + self.inner.buffered_cost()
    }

    /// Feed one entry in arrival order. Completed sessions (possibly
    /// several, when releasing buffered entries crosses boundaries) are
    /// returned; faults are recorded in `health` / `anomalies`.
    pub fn push(
        &mut self,
        e: &WeblogEntry,
        health: &mut StreamHealth,
        anomalies: &mut AnomalyLog,
    ) -> Vec<ReassembledSession> {
        if let Some(kind) = validate_entry(e, &self.cfg) {
            health.quarantine(e, kind, anomalies);
            return Vec::new();
        }
        if !e.is_service_host() {
            // The paper's step-1 domain filter: noise never buffers.
            return Vec::new();
        }
        if self.pending.iter().any(|p| p == e) || self.recent.iter().any(|p| p == e) {
            health.entries_duplicated += 1;
            return Vec::new();
        }
        if let Some(w) = self.watermark {
            if w.duration_since(e.timestamp) > self.cfg.reorder_window {
                health.quarantine(e, AnomalyKind::LateArrival, anomalies);
                return Vec::new();
            }
        }
        // Sorted insert; arriving behind any buffered entry means the
        // tap delivered out of order.
        let pos = self.pending.partition_point(|p| p.timestamp <= e.timestamp);
        if pos < self.pending.len() {
            health.entries_reordered += 1;
        }
        self.buffered_cost += e.tracked_cost();
        self.pending.insert(pos, e.clone());
        self.watermark = Some(self.watermark.map_or(e.timestamp, |w| w.max(e.timestamp)));
        self.release()
    }

    /// Release every buffered entry whose lateness bound has expired —
    /// a later record can no longer legally sort before it.
    fn release(&mut self) -> Vec<ReassembledSession> {
        let mut done = Vec::new();
        let Some(w) = self.watermark else {
            return done;
        };
        // Strictly-greater mirrors the LateArrival test: an entry still
        // admissible could still legally sort before the buffer front.
        while self
            .pending
            .front()
            .is_some_and(|front| w.duration_since(front.timestamp) > self.cfg.reorder_window)
        {
            if let Some(e) = self.pending.pop_front() {
                self.buffered_cost = self.buffered_cost.saturating_sub(e.tracked_cost());
                done.extend(self.feed_inner(&e));
            }
        }
        done
    }

    fn feed_inner(&mut self, e: &WeblogEntry) -> Vec<ReassembledSession> {
        self.buffered_cost += e.tracked_cost();
        self.recent.push_back(e.clone());
        while self.recent.len() > self.cfg.dedup_depth {
            if let Some(old) = self.recent.pop_front() {
                self.buffered_cost = self.buffered_cost.saturating_sub(old.tracked_cost());
            }
        }
        self.inner.push(e).into_iter().collect()
    }

    /// Drain the reorder buffer and close the stream, emitting any
    /// final session. Leaves the reassembler empty and fully reusable
    /// (the online assessor calls this on eviction).
    pub fn flush(&mut self) -> Vec<ReassembledSession> {
        let mut done = Vec::new();
        while let Some(e) = self.pending.pop_front() {
            self.buffered_cost = self.buffered_cost.saturating_sub(e.tracked_cost());
            done.extend(self.feed_inner(&e));
        }
        // In place (not a machine swap): the attached spill sink — and
        // any sealed digests not yet claimed by the assessor — must
        // survive the flush.
        done.extend(self.inner.finish_in_place());
        self.recent.clear();
        self.watermark = None;
        self.buffered_cost = 0;
        done
    }

    /// Close the stream for good (the graceful end-of-input path).
    pub fn finish(mut self) -> Vec<ReassembledSession> {
        self.flush()
    }
}

/// Batch form of [`RobustReassembler`]: run one subscriber's entries
/// (in arrival order) through the hardened pipeline and report the
/// recovered sessions alongside the health counters and quarantine log.
pub fn robust_reassemble_subscriber(
    entries: &[WeblogEntry],
    reassembly: &ReassemblyConfig,
    cfg: &IngestConfig,
) -> (Vec<ReassembledSession>, StreamHealth, AnomalyLog) {
    let mut health = StreamHealth::default();
    let mut anomalies = AnomalyLog::new(cfg.max_anomalies_kept);
    let mut machine = RobustReassembler::new(*reassembly, *cfg);
    let mut sessions = Vec::new();
    for e in entries {
        health.entries_seen += 1;
        sessions.extend(machine.push(e, &mut health, &mut anomalies));
    }
    sessions.extend(machine.finish());
    (sessions, health, anomalies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture_session, generate_noise, CaptureConfig};
    use crate::chaos::{apply_chaos, ChaosConfig};
    use crate::reassembly::reassemble_subscriber;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vqoe_player::{simulate_session, AbrKind, Delivery, SessionConfig};
    use vqoe_simnet::channel::Scenario;
    use vqoe_simnet::rng::SeedSequence;

    fn subscriber_stream(n: usize) -> Vec<WeblogEntry> {
        let seeds = SeedSequence::new(99);
        let mut rng = StdRng::seed_from_u64(4);
        let mut entries = Vec::new();
        let mut t0 = Instant::from_secs(50);
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
                        subscriber_id: 3,
                    },
                    &mut rng,
                )
                .expect("simulated traces always capture"),
            );
            t0 = trace.ground_truth.session_end + Duration::from_secs(90);
        }
        entries.extend(generate_noise(3, Instant::ZERO, t0, 60, &mut rng));
        entries.sort_by_key(|e| e.timestamp);
        entries
    }

    #[test]
    fn clean_stream_matches_plain_reassembly_exactly() {
        let entries = subscriber_stream(4);
        let plain = reassemble_subscriber(&entries, &ReassemblyConfig::default());
        let (robust, health, anomalies) = robust_reassemble_subscriber(
            &entries,
            &ReassemblyConfig::default(),
            &IngestConfig::default(),
        );
        assert_eq!(robust, plain, "robust layer must be a no-op on clean input");
        assert_eq!(health.entries_seen, entries.len() as u64);
        assert_eq!(health.entries_reordered, 0);
        assert_eq!(health.entries_duplicated, 0);
        assert_eq!(health.entries_quarantined, 0);
        assert_eq!(anomalies.total(), 0);
    }

    #[test]
    fn in_window_reordering_is_repaired() {
        let entries = subscriber_stream(3);
        let plain = reassemble_subscriber(&entries, &ReassemblyConfig::default());
        let cfg = ChaosConfig {
            reorder: 0.3,
            reorder_window: 4,
            ..ChaosConfig::clean()
        };
        let (shuffled, stats) = apply_chaos(&entries, &cfg, 21);
        assert!(stats.reordered > 0);
        // The chaos displacement is positional; across a 90 s
        // inter-session gap that can mean minutes of lateness, so the
        // repair window must cover the tap's real time skew.
        let ingest = IngestConfig {
            reorder_window: Duration::from_secs(600),
            ..IngestConfig::default()
        };
        let (robust, health, anomalies) =
            robust_reassemble_subscriber(&shuffled, &ReassemblyConfig::default(), &ingest);
        assert_eq!(robust, plain, "bounded reordering must be fully repaired");
        assert!(health.entries_reordered > 0);
        assert_eq!(anomalies.total(), 0);
    }

    #[test]
    fn exact_duplicates_are_suppressed() {
        // Service entries only: duplicated *noise* is filtered before
        // the dedup check, so the counters would not line up otherwise.
        let entries: Vec<WeblogEntry> = subscriber_stream(2)
            .into_iter()
            .filter(|e| e.is_service_host())
            .collect();
        let plain = reassemble_subscriber(&entries, &ReassemblyConfig::default());
        let cfg = ChaosConfig {
            duplicate: 0.5,
            ..ChaosConfig::clean()
        };
        let (doubled, stats) = apply_chaos(&entries, &cfg, 22);
        let (robust, health, _) = robust_reassemble_subscriber(
            &doubled,
            &ReassemblyConfig::default(),
            &IngestConfig::default(),
        );
        assert_eq!(robust, plain, "duplicates must not change sessions");
        assert_eq!(health.entries_duplicated, stats.duplicated);
    }

    #[test]
    fn malformed_entries_are_quarantined_not_ingested() {
        let mut entries = subscriber_stream(1);
        let mut bad = entries[0].clone();
        bad.host.clear();
        let mut huge = entries[1].clone();
        huge.bytes = u64::MAX;
        let mut slow = entries[2].clone();
        slow.duration = Duration::from_secs(48 * 3600);
        entries.extend([bad, huge, slow]);
        entries.sort_by_key(|e| e.timestamp);
        let (sessions, health, anomalies) = robust_reassemble_subscriber(
            &entries,
            &ReassemblyConfig::default(),
            &IngestConfig::default(),
        );
        assert_eq!(health.entries_quarantined, 3);
        assert_eq!(anomalies.total(), 3);
        let kinds: Vec<AnomalyKind> = anomalies.kept().iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&AnomalyKind::EmptyHost));
        assert!(kinds.contains(&AnomalyKind::OversizedObject));
        assert!(kinds.contains(&AnomalyKind::OverlongTransaction));
        for s in &sessions {
            assert!(s
                .chunks
                .iter()
                .all(|c| validate_entry(c, &IngestConfig::default()).is_none()));
            assert!(s
                .other
                .iter()
                .all(|c| validate_entry(c, &IngestConfig::default()).is_none()));
        }
    }

    #[test]
    fn entries_beyond_the_window_become_late_arrivals() {
        let entries = subscriber_stream(1);
        let mid = entries.len() / 2;
        let mut reordered: Vec<WeblogEntry> = entries.clone();
        // Move an early media entry to the very end of the stream: it
        // arrives minutes late, far outside the 5 s window.
        let straggler = reordered.remove(mid);
        reordered.push(straggler);
        let (_, health, anomalies) = robust_reassemble_subscriber(
            &reordered,
            &ReassemblyConfig::default(),
            &IngestConfig::default(),
        );
        assert_eq!(health.entries_quarantined, 1);
        assert_eq!(anomalies.kept()[0].kind, AnomalyKind::LateArrival);
    }

    #[test]
    fn anomaly_log_is_bounded_but_counts_exactly() {
        let mut log = AnomalyLog::new(4);
        for i in 0..100 {
            log.record(IngestAnomaly {
                subscriber_id: i,
                timestamp: Instant::from_secs(i),
                kind: AnomalyKind::EmptyHost,
            });
        }
        assert_eq!(log.kept().len(), 4);
        assert_eq!(log.total(), 100);
    }

    #[test]
    fn flush_leaves_the_reassembler_reusable() {
        let entries = subscriber_stream(1);
        let mut health = StreamHealth::default();
        let mut log = AnomalyLog::new(16);
        let mut machine =
            RobustReassembler::new(ReassemblyConfig::default(), IngestConfig::default());
        let mut sessions = Vec::new();
        for e in &entries {
            sessions.extend(machine.push(e, &mut health, &mut log));
        }
        sessions.extend(machine.flush());
        assert_eq!(sessions.len(), 1);
        assert_eq!(machine.open_entries(), 0);
        // Feed the same stream again: the machine must work from scratch.
        let mut again = Vec::new();
        for e in &entries {
            again.extend(machine.push(e, &mut health, &mut log));
        }
        again.extend(machine.flush());
        assert_eq!(again, sessions);
    }
}
