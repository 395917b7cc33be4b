//! Online (streaming) assessment — §8's deployment mode, hardened.
//!
//! "The trained models can be then directly applied on the passively
//! monitored traffic and report issues in real time." [`OnlineAssessor`]
//! is that loop: weblog entries flow in one at a time (any mix of
//! subscribers), sessions are carved out incrementally, and a
//! [`SessionAssessment`] is emitted the moment a session's boundary is
//! proven — no batch window, no replays.
//!
//! Unlike the lab loop, this one assumes a *hostile* tap. Each
//! subscriber's stream runs through a
//! [`RobustReassembler`](vqoe_telemetry::RobustReassembler) (bounded
//! reordering repair, duplicate suppression, quarantine of malformed
//! records — see `vqoe_telemetry::ingest`), and the assessor itself
//! enforces bounded memory: at most
//! [`IngestConfig::max_open_subscribers`] are tracked, with the
//! least-recently-active subscriber evicted beyond that. Evicted
//! streams are force-closed and their qualifying sessions assessed
//! at [`Fidelity::Partial`] (budget sheds at [`Fidelity::Shed`]).
//! Everything the layer
//! absorbed is reported through [`StreamHealth`] and the typed
//! [`AnomalyLog`].
//!
//! The assessor is one of two drivers of the shard machine
//! (`crate::shard`): it keeps every subscriber in one such table for
//! its whole life, where the parallel engine gives each shard job a
//! fresh one. What the assessor adds on top is what only a long-running
//! loop needs: the LRU, memory budgets and admission, the shed log and
//! checkpoints; an [`AlertSampler`](crate::AlertSampler) reads its
//! tallies from outside. The engine always runs
//! `IngestConfig::default()` and never evicts, so the assessor is the
//! single-threaded projection of the engine when three things hold: it
//! runs without memory budgets, its [`IngestConfig`] keeps the default
//! hardening fields (reorder window, dedup depth, object and
//! transaction limits, anomalies kept), and the capture never has more
//! open subscribers than `max_open_subscribers`, so the LRU evicts
//! nobody. Then
//! [`IngestPipeline::assess`](crate::IngestPipeline::assess) over a
//! capture produces a bit-identical [`IngestReport`] at any engine
//! shard count — same assessments in the same order, same health, same
//! anomaly log.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};
use vqoe_obs::Registry;
use vqoe_simnet::time::Instant;
use vqoe_telemetry::{AnomalyLog, IngestConfig, ReassemblerState, StreamHealth, WeblogEntry};

use crate::metrics::{
    decode_snapshot, encode_snapshot, MetricsSnapshotError, PipelineMetrics, Tallies,
};
use crate::monitor::{Fidelity, QoeMonitor, SessionAssessment};
use crate::shard::{assess, close, Closed, Shard};
use crate::subscribe::SubscriptionSet;

/// How the assessor reacts when the global memory budget is already
/// exhausted and a *new* subscriber shows up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Admit the newcomer and force-finalize the coldest tracked
    /// subscribers until the budget holds again (freshness wins).
    #[default]
    ShedColdest,
    /// Refuse the newcomer outright (stability wins); the refusal is
    /// counted and logged, never silent.
    Refuse,
}

impl AdmissionPolicy {
    /// Parse a CLI name (case-insensitive).
    pub fn parse(s: &str) -> Option<AdmissionPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "shed" | "shed-coldest" => Some(AdmissionPolicy::ShedColdest),
            "refuse" => Some(AdmissionPolicy::Refuse),
            _ => None,
        }
    }
}

/// Memory budgets for the streaming assessor, accounted in
/// [`WeblogEntry::tracked_cost`] units (record granularity). `0` means
/// unlimited — the default configuration changes nothing.
///
/// Budgets apply to the *streaming* path only: the batch engine holds
/// one shard job's subscribers at a time and never buffers more than
/// that slice of the capture, exactly as it already ignores
/// [`IngestConfig::max_open_subscribers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BudgetConfig {
    /// Per-subscriber cap on buffered bytes; a subscriber crossing it
    /// is force-finalized ([`ShedReason::SubscriberBudget`]). `0` =
    /// unlimited.
    pub per_subscriber_bytes: u64,
    /// Global cap on buffered bytes across all subscribers; while it is
    /// exceeded the coldest subscribers are force-finalized
    /// ([`ShedReason::GlobalBudget`]). `0` = unlimited.
    pub global_bytes: u64,
    /// What to do with new subscribers while the global budget is full.
    pub admission: AdmissionPolicy,
}

/// Why a subscriber was force-finalized (or refused) instead of
/// reaching a natural session boundary. Every shed is typed and logged
/// — nothing is dropped silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedReason {
    /// The subscriber-count cap ([`IngestConfig::max_open_subscribers`])
    /// evicted the least-recently-active subscriber.
    LruCapacity,
    /// The subscriber's own buffered bytes crossed
    /// [`BudgetConfig::per_subscriber_bytes`].
    SubscriberBudget,
    /// The global buffered bytes crossed [`BudgetConfig::global_bytes`]
    /// and this subscriber was the coldest.
    GlobalBudget,
    /// A new subscriber was refused admission under
    /// [`AdmissionPolicy::Refuse`] while the global budget was full.
    AdmissionRefused,
}

/// One load-shedding event: who, at which ingested record, why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedEvent {
    /// The subscriber that was force-finalized or refused.
    pub subscriber_id: u64,
    /// 1-based index of the ingested record that triggered the event
    /// (the assessor's [`OnlineAssessor::records_ingested`] clock).
    pub at_record: u64,
    /// Why it happened.
    pub reason: ShedReason,
}

/// Exact per-[`ShedReason`] counts; monotone sums that survive the
/// [`ShedLog`] retention cap, mirroring [`AnomalyKindCounts`].
///
/// [`AnomalyKindCounts`]: vqoe_telemetry::AnomalyKindCounts
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedReasonCounts {
    /// [`ShedReason::LruCapacity`] events.
    pub lru_capacity: u64,
    /// [`ShedReason::SubscriberBudget`] events.
    pub subscriber_budget: u64,
    /// [`ShedReason::GlobalBudget`] events.
    pub global_budget: u64,
    /// [`ShedReason::AdmissionRefused`] events.
    pub admission_refused: u64,
}

impl ShedReasonCounts {
    /// Count one event of the given reason.
    pub fn record(&mut self, reason: ShedReason) {
        match reason {
            ShedReason::LruCapacity => self.lru_capacity += 1,
            ShedReason::SubscriberBudget => self.subscriber_budget += 1,
            ShedReason::GlobalBudget => self.global_budget += 1,
            ShedReason::AdmissionRefused => self.admission_refused += 1,
        }
    }

    /// Sum across all reasons.
    pub fn total(&self) -> u64 {
        self.lru_capacity + self.subscriber_budget + self.global_budget + self.admission_refused
    }
}

/// A bounded shed log, shaped like [`AnomalyLog`]: the first `cap`
/// events verbatim, an exact total, and exact per-reason counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedLog {
    kept: Vec<ShedEvent>,
    total: u64,
    cap: usize,
    reasons: ShedReasonCounts,
}

impl ShedLog {
    /// Empty log retaining at most `cap` individual events.
    pub fn new(cap: usize) -> Self {
        ShedLog {
            kept: Vec::new(),
            total: 0,
            cap,
            reasons: ShedReasonCounts::default(),
        }
    }

    /// Record one event (always counted, kept only under the cap).
    pub fn record(&mut self, e: ShedEvent) {
        self.total += 1;
        self.reasons.record(e.reason);
        if self.kept.len() < self.cap {
            self.kept.push(e);
        }
    }

    /// The retained events, oldest first.
    pub fn kept(&self) -> &[ShedEvent] {
        &self.kept
    }

    /// Exact number of events ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact per-reason counts (not subject to the retention cap).
    pub fn reasons(&self) -> ShedReasonCounts {
        self.reasons
    }

    /// Whether recording could have built this log, as
    /// [`AnomalyLog::is_consistent`] checks a quarantine log.
    fn is_consistent(&self) -> bool {
        self.kept.len() <= self.cap
            && self.kept.len() as u64 <= self.total
            && self.reasons.total() == self.total
    }
}

/// Everything a closed tap run produced: the assessments plus the
/// degradation telemetry accumulated along the way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestReport {
    /// All emitted assessments, in emission order.
    pub assessments: Vec<SessionAssessment>,
    /// Final health counters of the whole tap. Both drivers count the
    /// same entries and sessions, so the streaming assessor and the
    /// engine at any worker and shard count report the same values —
    /// provided the assessor runs unbudgeted, with the default hardening
    /// fields of [`IngestConfig`], and evicts no subscriber under
    /// `max_open_subscribers` (the engine runs `IngestConfig::default()`
    /// and never evicts).
    pub health: StreamHealth,
    /// The quarantine log (bounded, with an exact total).
    pub anomalies: AnomalyLog,
    /// The load-shedding log (bounded, with an exact total). Always
    /// empty on the batch engine path, which never sheds — so an
    /// unbudgeted streaming run that keeps the default hardening fields
    /// and evicts nobody stays bit-identical to the engine at any worker
    /// count.
    pub shed: ShedLog,
}

/// A streaming wrapper over a trained [`QoeMonitor`].
#[derive(Debug, Clone)]
pub struct OnlineAssessor {
    monitor: QoeMonitor,
    ingest_cfg: IngestConfig,
    /// Every tracked subscriber's machine, and the health counters.
    /// Bounded: `ingest` evicts the least-recently-active subscriber
    /// whenever the table would exceed `ingest_cfg.max_open_subscribers`.
    table: Shard,
    /// Eviction index: (activity watermark, subscriber id), oldest
    /// first; it mirrors the table. Ties on the watermark are broken by
    /// the subscriber id (ascending), so "coldest" is a total,
    /// deterministic order even when many subscribers share one
    /// activity tick.
    lru: BTreeSet<(Instant, u64)>,
    /// Memory budgets and admission policy (default: unlimited).
    budget: BudgetConfig,
    /// Buffered bytes currently tracked across all subscribers, in
    /// [`WeblogEntry::tracked_cost`] units.
    tracked_bytes: u64,
    /// High-water mark of `tracked_bytes` over the assessor's life.
    peak_tracked_bytes: u64,
    /// Entries offered to [`OnlineAssessor::ingest`] so far — the
    /// deterministic clock that stamps [`ShedEvent::at_record`] and
    /// anchors checkpoint/replay cut points.
    records_ingested: u64,
    anomalies: AnomalyLog,
    shed: ShedLog,
    metrics: Option<PipelineMetrics>,
    /// The tallies `metrics` was last brought up to.
    published: Tallies,
}

impl OnlineAssessor {
    /// Wrap a trained monitor with default hardening parameters.
    pub fn new(monitor: QoeMonitor) -> Self {
        OnlineAssessor::with_config(monitor, IngestConfig::default())
    }

    /// Wrap a trained monitor with explicit hardening parameters.
    pub fn with_config(monitor: QoeMonitor, ingest_cfg: IngestConfig) -> Self {
        OnlineAssessor {
            anomalies: AnomalyLog::new(ingest_cfg.max_anomalies_kept),
            shed: ShedLog::new(ingest_cfg.max_anomalies_kept),
            table: Shard::new(&monitor, ingest_cfg),
            monitor,
            ingest_cfg,
            lru: BTreeSet::new(),
            budget: BudgetConfig::default(),
            tracked_bytes: 0,
            peak_tracked_bytes: 0,
            records_ingested: 0,
            metrics: None,
            published: Tallies::default(),
        }
    }

    /// Set the memory budgets and admission policy. Unlimited (`0`)
    /// budgets leave every assessment bit-identical to an assessor
    /// without this call.
    pub fn with_budget(mut self, budget: BudgetConfig) -> Self {
        self.budget = budget;
        self
    }

    /// Attach a [`PipelineMetrics`] handle bundle: every emitted
    /// assessment records its detector classes, and every `ingest` call
    /// publishes the tallies' growth since the last publication (the
    /// first counts from the tallies held now, so a restored registry
    /// absorbs the checkpoint's snapshot first). The assessments are
    /// bit-identical with or without metrics.
    pub fn with_metrics(mut self, metrics: PipelineMetrics) -> Self {
        self.published = self.tallies();
        self.metrics = Some(metrics);
        self
    }

    /// The wrapped monitor (e.g. to inspect its models).
    pub fn monitor(&self) -> &QoeMonitor {
        &self.monitor
    }

    /// Health counters accumulated so far (monotone).
    pub fn health(&self) -> StreamHealth {
        self.table.health
    }

    /// The quarantine log accumulated so far.
    pub fn anomalies(&self) -> &AnomalyLog {
        &self.anomalies
    }

    /// The load-shedding log accumulated so far.
    pub fn shed_log(&self) -> &ShedLog {
        &self.shed
    }

    /// The memory budgets in effect.
    pub fn budget(&self) -> &BudgetConfig {
        &self.budget
    }

    /// Buffered bytes currently tracked, in
    /// [`WeblogEntry::tracked_cost`] units.
    pub fn tracked_bytes(&self) -> u64 {
        self.tracked_bytes
    }

    /// High-water mark of [`OnlineAssessor::tracked_bytes`].
    pub fn peak_tracked_bytes(&self) -> u64 {
        self.peak_tracked_bytes
    }

    /// Entries offered to [`OnlineAssessor::ingest`] so far.
    pub fn records_ingested(&self) -> u64 {
        self.records_ingested
    }

    /// Ingest one weblog entry, in tap arrival order. Returns every
    /// assessment this entry triggered: usually none, one when it
    /// closes a session, several when it forces an eviction whose
    /// flushed stream contained complete sessions.
    pub fn ingest(&mut self, entry: &WeblogEntry) -> Vec<SessionAssessment> {
        let out = self.step(entry);
        self.publish();
        out
    }

    /// The tallies the metrics registry projects.
    fn tallies(&self) -> Tallies {
        Tallies::new(self.table.health, &self.anomalies, &self.shed)
    }

    /// Publish the tallies to the attached metrics, if any.
    fn publish(&mut self) {
        if let Some(m) = &self.metrics {
            let (now, occupancy) = (self.tallies(), (self.table.len(), self.tracked_bytes));
            m.publish(&mut self.published, now, Some(occupancy));
        }
    }

    /// [`OnlineAssessor::ingest`], short of publishing.
    fn step(&mut self, entry: &WeblogEntry) -> Vec<SessionAssessment> {
        self.records_ingested += 1;
        let id = entry.subscriber_id;
        self.table.health.entries_seen += 1;
        let mut out = Vec::new();
        if !self.table.tracks(id) {
            // Quarantine malformed records and drop non-service noise
            // *before* a tracking slot is spent on the subscriber.
            if !self.table.screen(entry, &mut self.anomalies) {
                return out;
            }
            // Admission control: under `Refuse`, a newcomer that does
            // not fit the remaining global budget is turned away at the
            // door — counted and logged, its record dropped.
            if self.budget.admission == AdmissionPolicy::Refuse
                && self.budget.global_bytes > 0
                && self.tracked_bytes + entry.tracked_cost() > self.budget.global_bytes
            {
                self.table.health.subscribers_refused += 1;
                self.shed.record(ShedEvent {
                    subscriber_id: id,
                    at_record: self.records_ingested,
                    reason: ShedReason::AdmissionRefused,
                });
                return out;
            }
            while self.table.len() >= self.ingest_cfg.max_open_subscribers.max(1) {
                let before = self.table.len();
                out.extend(self.evict_oldest());
                if self.table.len() == before {
                    break;
                }
            }
            self.table.admit(id);
        }
        let mut over_subscriber_budget = false;
        if let Some(pushed) = self.table.push(entry, &mut self.anomalies) {
            let (cost_before, cost_after) = pushed.cost;
            self.tracked_bytes = self
                .tracked_bytes
                .saturating_sub(cost_before)
                .saturating_add(cost_after);
            self.peak_tracked_bytes = self.peak_tracked_bytes.max(self.tracked_bytes);
            over_subscriber_budget = self.budget.per_subscriber_bytes > 0
                && cost_after > self.budget.per_subscriber_bytes;
            let (before, after) = pushed.watermark;
            if before != after {
                if let Some(w) = before {
                    self.lru.remove(&(w, id));
                }
                if let Some(w) = after {
                    self.lru.insert((w, id));
                }
            }
            out.extend(self.assess_all(&pushed.closed, Fidelity::Full));
        }
        // A subscriber that outgrew its own budget is force-finalized
        // immediately: its buffered remains are assessed at the `Shed`
        // tier and the slot is freed (the id may be re-admitted later).
        if over_subscriber_budget {
            out.extend(self.force_finalize(id, ShedReason::SubscriberBudget));
        }
        // While the global budget is exceeded, shed the coldest
        // subscribers — deterministic: the LRU order is total.
        if self.budget.global_bytes > 0 {
            while self.tracked_bytes > self.budget.global_bytes {
                let Some(&(_, coldest)) = self.lru.iter().next() else {
                    break;
                };
                let before = self.table.len();
                out.extend(self.force_finalize(coldest, ShedReason::GlobalBudget));
                if self.table.len() == before {
                    break;
                }
            }
        }
        out
    }

    /// Close all open streams gracefully (end of tap / end of day),
    /// assess whatever qualifies, and return the assessments together
    /// with the final [`StreamHealth`] and [`AnomalyLog`].
    pub fn into_report(mut self) -> IngestReport {
        IngestReport {
            assessments: self.drain(),
            health: self.table.health,
            anomalies: self.anomalies,
            shed: self.shed,
        }
    }

    /// Number of subscribers with an open session group or buffered
    /// entries. Bounded by [`IngestConfig::max_open_subscribers`].
    pub fn open_subscribers(&self) -> usize {
        self.table.open_subscribers()
    }

    /// Number of subscribers holding a tracking slot, open group or
    /// not: what the cap and the LRU count.
    pub fn tracked_subscribers(&self) -> usize {
        self.table.len()
    }

    /// Force-close the least-recently-active subscriber and assess its
    /// remains as partial sessions.
    fn evict_oldest(&mut self) -> Vec<SessionAssessment> {
        let Some(&(_, id)) = self.lru.iter().next() else {
            return Vec::new();
        };
        self.force_finalize(id, ShedReason::LruCapacity)
    }

    /// Force-close one subscriber's stream and assess its buffered
    /// remains at the degraded tier implied by `reason`: LRU evictions
    /// stay [`Fidelity::Partial`]; budget sheds are [`Fidelity::Shed`].
    /// The event is always counted in the shed log — never silent.
    fn force_finalize(&mut self, id: u64, reason: ShedReason) -> Vec<SessionAssessment> {
        let Some(machine) = self.table.remove(id) else {
            return Vec::new();
        };
        if let Some(w) = machine.watermark() {
            self.lru.remove(&(w, id));
        }
        self.tracked_bytes = self.tracked_bytes.saturating_sub(machine.tracked_cost());
        let health = &mut self.table.health;
        let tier = match reason {
            ShedReason::LruCapacity => {
                health.sessions_evicted += 1;
                Fidelity::Partial
            }
            _ => {
                health.sessions_shed += 1;
                Fidelity::Shed
            }
        };
        let closed = close(machine);
        health.sessions_partial += closed.len() as u64;
        self.shed.record(ShedEvent {
            subscriber_id: id,
            at_record: self.records_ingested,
            reason,
        });
        self.assess_all(&closed, tier)
    }

    fn drain(&mut self) -> Vec<SessionAssessment> {
        self.lru.clear();
        self.tracked_bytes = 0;
        // Subscriber-id order (exactly the order the parallel engine's
        // phase-1 emission keys reproduce), closing one machine at a
        // time.
        let machines = self.table.take_all();
        self.publish();
        machines
            .into_values()
            .flat_map(|m| self.assess_all(&close(m), Fidelity::Full))
            .collect()
    }

    /// Assess closed sessions at `tier` with the monitor's three
    /// frozen models.
    fn assess_all(&self, closed: &[Closed], tier: Fidelity) -> Vec<SessionAssessment> {
        if closed.is_empty() {
            return Vec::new();
        }
        let subs = SubscriptionSet::standard(&self.monitor);
        closed
            .iter()
            .map(|c| assess(&subs, c, tier, self.metrics.as_ref()))
            .collect()
    }

    /// Snapshot the complete online state into a deterministic,
    /// JSON-serializable checkpoint. Restoring it with
    /// [`OnlineAssessor::restore`] and replaying the remaining records
    /// produces an [`IngestReport`] bit-identical to the uninterrupted
    /// run.
    pub fn checkpoint(&self) -> OnlineCheckpoint {
        OnlineCheckpoint {
            version: CHECKPOINT_VERSION,
            records_ingested: self.records_ingested,
            ingest_cfg: self.ingest_cfg,
            budget: self.budget,
            shards: vec![self.table.checkpoint()],
            lru: self.lru.iter().copied().collect(),
            peak_tracked_bytes: self.peak_tracked_bytes,
            anomalies: self.anomalies.clone(),
            shed: self.shed.clone(),
            metrics_snapshot: None,
        }
    }

    /// Like [`OnlineAssessor::checkpoint`], but also embeds the
    /// `Stable`-class metrics snapshot of `registry`, so a restored
    /// process resumes counting where the dead one stopped (via
    /// [`OnlineCheckpoint::absorb_metrics`]).
    pub fn checkpoint_with_metrics(&self, registry: &Registry) -> OnlineCheckpoint {
        let mut ck = self.checkpoint();
        ck.metrics_snapshot = Some(encode_snapshot(&registry.snapshot()));
        ck
    }

    /// Rebuild an assessor from a checkpoint around a freshly trained
    /// (or reloaded) monitor. Derived state — per-machine buffered
    /// costs, the global tracked-byte counter, the tracked-subscriber
    /// count — is recomputed from the records themselves, so a snapshot
    /// can never disagree with its own records; the LRU index is
    /// validated against the subscriber set, and the anomaly and shed
    /// logs against their caps and totals. A checkpoint of several
    /// shards (as earlier builds wrote) is merged into the one table
    /// after each shard's routing is checked.
    pub fn restore(
        monitor: QoeMonitor,
        ck: &OnlineCheckpoint,
    ) -> Result<OnlineAssessor, RestoreError> {
        if ck.version == 0 || ck.version > CHECKPOINT_VERSION {
            return Err(RestoreError::Version(ck.version));
        }
        if ck.shards.is_empty() {
            return Err(RestoreError::Corrupt("checkpoint has no shards"));
        }
        if !ck.anomalies.is_consistent() {
            return Err(RestoreError::Corrupt(
                "anomaly log disagrees with its cap or its total",
            ));
        }
        if !ck.shed.is_consistent() {
            return Err(RestoreError::Corrupt(
                "shed log disagrees with its cap or its total",
            ));
        }
        let mut table = Shard::new(&monitor, ck.ingest_cfg);
        for (i, sc) in ck.shards.iter().enumerate() {
            table.restore(sc, i, ck.shards.len())?;
        }
        let tracked_bytes = table.tracked_cost();
        let lru: BTreeSet<(Instant, u64)> = ck.lru.iter().copied().collect();
        if lru.len() != table.len() {
            return Err(RestoreError::Corrupt(
                "LRU index does not match the subscriber set",
            ));
        }
        for &(w, id) in &lru {
            if table.watermark(id) != Some(Some(w)) {
                return Err(RestoreError::Corrupt(
                    "LRU entry disagrees with its subscriber's watermark",
                ));
            }
        }
        Ok(OnlineAssessor {
            monitor,
            ingest_cfg: ck.ingest_cfg,
            table,
            lru,
            budget: ck.budget,
            tracked_bytes,
            peak_tracked_bytes: ck.peak_tracked_bytes.max(tracked_bytes),
            records_ingested: ck.records_ingested,
            anomalies: ck.anomalies.clone(),
            shed: ck.shed.clone(),
            metrics: None,
            published: Tallies::default(),
        })
    }
}

/// Format version stamped into every [`OnlineCheckpoint`]. Version 2
/// adds the per-machine spill state (exactness-cap counters plus the
/// serialized digest sink); version-1 checkpoints still restore — their
/// machines simply start with fresh sinks, which is exact because
/// nothing had spilled when they were written.
pub const CHECKPOINT_VERSION: u32 = 2;

/// One shard's checkpointed state: its health counters and every
/// tracked subscriber's reassembler, in subscriber-id order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// The shard's monotone health counters.
    pub health: StreamHealth,
    /// `(subscriber id, reassembler state)` pairs, ascending by id
    /// (the BTreeMap iteration order — deterministic by construction).
    pub subscribers: Vec<(u64, ReassemblerState)>,
}

/// A byte-stable snapshot of the complete [`OnlineAssessor`] state.
///
/// Serialized via [`OnlineCheckpoint::to_json`]; every collection is
/// ordered (BTreeMap/BTreeSet iteration, Vec preservation), so two
/// checkpoints of identical state are byte-identical. Derived counters
/// (buffered costs, tracked totals) are *not* stored — restore
/// recomputes them from the records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineCheckpoint {
    /// [`CHECKPOINT_VERSION`] at write time.
    pub version: u32,
    /// The ingest clock at the cut point: how many records the dead
    /// process had consumed. Replay resumes at the next record.
    pub records_ingested: u64,
    /// The hardening parameters in effect.
    pub ingest_cfg: IngestConfig,
    /// The memory budgets in effect.
    pub budget: BudgetConfig,
    /// Subscriber state by shard, indexed by shard id, each subscriber
    /// on the shard [`shard_of`](crate::shard_of) routes it to. This
    /// build writes one shard; restore merges any number.
    pub shards: Vec<ShardCheckpoint>,
    /// The eviction index, oldest first.
    pub lru: Vec<(Instant, u64)>,
    /// High-water mark of tracked bytes at the cut point.
    pub peak_tracked_bytes: u64,
    /// The quarantine log at the cut point.
    pub anomalies: AnomalyLog,
    /// The shed log at the cut point.
    pub shed: ShedLog,
    /// Optional `Stable`-class metrics snapshot ([`encode_snapshot`]
    /// output) for counter continuity across the restore.
    pub metrics_snapshot: Option<String>,
}

impl OnlineCheckpoint {
    /// Serialize to deterministic JSON (byte-identical for identical
    /// state).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parse a checkpoint previously written by
    /// [`OnlineCheckpoint::to_json`].
    pub fn from_json(s: &str) -> Result<OnlineCheckpoint, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Fold the embedded metrics snapshot, if any, into `registry`: the
    /// reading half of [`OnlineAssessor::checkpoint_with_metrics`].
    /// Absorb into a freshly registered registry, then attach its
    /// metrics to the restored assessor, and the counters continue from
    /// the cut. A checkpoint without a snapshot leaves `registry` as it
    /// is.
    pub fn absorb_metrics(&self, registry: &Registry) -> Result<(), MetricsSnapshotError> {
        if let Some(text) = &self.metrics_snapshot {
            registry.absorb(&decode_snapshot(text)?)?;
        }
        Ok(())
    }
}

/// Why [`OnlineAssessor::restore`] rejected a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The checkpoint was written by an incompatible format version.
    Version(u32),
    /// The checkpoint is internally inconsistent (wrong shard routing,
    /// LRU/subscriber mismatch, ...).
    Corrupt(&'static str),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Version(v) => write!(
                f,
                "unsupported checkpoint version {v} (this build reads {CHECKPOINT_VERSION})"
            ),
            RestoreError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
        }
    }
}

impl std::error::Error for RestoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encrypted::{EncryptedEvalConfig, EncryptedWorld};
    use crate::monitor::TrainingConfig;
    use vqoe_simnet::time::Duration;

    fn world(n: usize, seed: u64) -> EncryptedWorld {
        let mut config = EncryptedEvalConfig::paper_default(seed);
        config.spec.n_sessions = n;
        EncryptedWorld::build(&config).expect("simulated world builds")
    }

    fn trained() -> QoeMonitor {
        QoeMonitor::train(&TrainingConfig {
            cleartext_sessions: 250,
            adaptive_sessions: 150,
            seed: 71,
            ..TrainingConfig::default()
        })
    }

    #[test]
    fn streaming_equals_batch_assessment() {
        let monitor = trained();
        let world = world(10, 72);
        // Batch path.
        let batch = monitor.pipeline().assess_subscriber(&world.entries);
        // Streaming path: one entry at a time, in timestamp order.
        let mut online = OnlineAssessor::new(monitor);
        let mut streamed = Vec::new();
        for e in &world.entries {
            streamed.extend(online.ingest(e));
        }
        let health = online.health();
        let quarantined = online.anomalies().total();
        streamed.extend(online.into_report().assessments);
        assert_eq!(batch, streamed);
        // The hardening layer must not have touched a clean stream.
        assert_eq!(health.entries_seen, world.entries.len() as u64);
        assert_eq!(health.entries_reordered, 0);
        assert_eq!(health.entries_duplicated, 0);
        assert_eq!(health.entries_quarantined, 0);
        assert_eq!(health.sessions_evicted, 0);
        assert_eq!(quarantined, 0);
    }

    #[test]
    fn sessions_emerge_mid_stream_not_only_at_finish() {
        let monitor = trained();
        let world = world(6, 73);
        let mut online = OnlineAssessor::new(monitor);
        let mut mid_stream = 0usize;
        for e in &world.entries {
            mid_stream += online.ingest(e).len();
        }
        let at_finish = online.into_report().assessments.len();
        // All but the final session close mid-stream (the next session's
        // page burst proves the boundary).
        assert!(mid_stream >= 5, "only {mid_stream} closed mid-stream");
        assert_eq!(mid_stream + at_finish, 6);
    }

    #[test]
    fn interleaved_subscribers_are_tracked_independently() {
        let monitor = trained();
        let w1 = world(3, 74);
        let mut w2_cfg = EncryptedEvalConfig::paper_default(75);
        w2_cfg.spec.n_sessions = 3;
        let mut w2 = EncryptedWorld::build(&w2_cfg).expect("simulated world builds");
        // Rewrite subscriber ids so the streams are distinguishable.
        for e in &mut w2.entries {
            e.subscriber_id = 2;
        }
        // Interleave by timestamp (as a shared tap would see them).
        let mut merged: Vec<_> = w1
            .entries
            .iter()
            .chain(w2.entries.iter())
            .cloned()
            .collect();
        merged.sort_by_key(|e| e.timestamp);

        let mut online = OnlineAssessor::new(monitor);
        let mut total = 0usize;
        for e in &merged {
            total += online.ingest(e).len();
        }
        total += online.into_report().assessments.len();
        assert_eq!(total, 6, "3 sessions per subscriber");
    }

    #[test]
    fn noise_does_not_open_sessions() {
        let monitor = trained();
        let mut online = OnlineAssessor::new(monitor);
        let mut rng = rand::SeedableRng::seed_from_u64(1);
        for e in vqoe_telemetry::capture::generate_noise(
            9,
            vqoe_simnet::time::Instant::ZERO,
            vqoe_simnet::time::Instant::from_secs(600),
            200,
            &mut rng,
        ) {
            assert!(online.ingest(&e).is_empty());
        }
        assert_eq!(online.open_subscribers(), 0);
        assert!(online.into_report().assessments.is_empty());
    }

    #[test]
    fn eviction_enforces_the_cap_and_marks_partial() {
        let monitor = trained();
        let w1 = world(2, 76);
        let mut w2 = world(2, 77);
        // Subscriber 2 starts long after subscriber 1's stream pauses,
        // so with a one-slot cap its arrival must evict subscriber 1
        // while 1's final session is still open.
        let last = w1
            .entries
            .iter()
            .map(|e| e.timestamp)
            .max()
            .expect("world has entries");
        for e in &mut w2.entries {
            e.subscriber_id = 2;
            e.timestamp =
                last + Duration::from_secs(3600) + e.timestamp.duration_since(Instant::ZERO);
        }
        let cfg = IngestConfig {
            max_open_subscribers: 1,
            ..IngestConfig::default()
        };
        let mut online = OnlineAssessor::with_config(monitor, cfg);
        let mut all = Vec::new();
        for e in w1.entries.iter().chain(w2.entries.iter()) {
            all.extend(online.ingest(e));
            assert!(online.open_subscribers() <= 1, "cap violated");
        }
        let health = online.health();
        all.extend(online.into_report().assessments);
        assert_eq!(health.sessions_evicted, 1, "subscriber 1 evicted once");
        assert!(health.sessions_partial >= 1);
        let partials: Vec<_> = all
            .iter()
            .filter(|a| a.fidelity >= Fidelity::Partial)
            .collect();
        assert_eq!(partials.len() as u64, health.sessions_partial);
        // Both subscribers' complete sessions still got assessed.
        assert_eq!(all.len(), 4);
    }
}
