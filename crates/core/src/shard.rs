//! The subscriber assessment machine: one machine, two drivers.
//!
//! A [`Shard`] is a table of subscribers — one hardened
//! [`RobustReassembler`] each, with a streaming digest sink installed
//! from its first record — plus the [`StreamHealth`] their entries
//! accumulated. [`assess`] turns each session a machine closes into a
//! [`SessionAssessment`] at the driver's tier. This module is the only
//! place that installs digest sinks, claims sealed digests and applies
//! the "spilled chunks ⇒ at least `Sketched`" rule.
//!
//! Two drivers run it:
//!
//! * the parallel engine (`crate::engine`, behind
//!   [`IngestPipeline`](crate::IngestPipeline)) routes subscribers onto
//!   shards by [`shard_of`], gives every shard job a fresh machine,
//!   feeds it the job's entries in arrival order with unbounded
//!   admission, and drains it in subscriber order at the end;
//! * the streaming [`OnlineAssessor`](crate::OnlineAssessor) keeps one
//!   machine holding every subscriber for its whole life and adds what
//!   only a long-running assessor has: the LRU, memory budgets and
//!   admission, the shed log and checkpoints.
//!
//! Both push the same entries through the same machine and assess
//! through the same function, so an online run and the engine at any
//! worker count produce bit-identical reports when the online run is
//! unbudgeted, keeps `IngestConfig::default()`'s hardening fields and
//! evicts nobody under `max_open_subscribers` (the engine runs the
//! default config and never evicts).

use std::collections::BTreeMap;

use vqoe_changedet::SwitchScoreConfig;
use vqoe_features::{SessionObs, SessionView};
use vqoe_simnet::time::Instant;
use vqoe_telemetry::{
    validate_entry, AnomalyLog, IngestConfig, ReassembledSession, ReassemblyConfig,
    RobustReassembler, StreamHealth, WeblogEntry,
};

use crate::digest::{claim_digest, install_digest_sink, DigestSink, SessionDigest};
use crate::engine::shard_of;
use crate::metrics::PipelineMetrics;
use crate::monitor::{Fidelity, QoeMonitor, SessionAssessment};
use crate::online::{RestoreError, ShardCheckpoint};
use crate::subscribe::SubscriptionSet;

/// A session a machine closed, with the sealed digest it is assessed
/// from when its chunks spilled past the exactness cap.
#[derive(Debug)]
pub(crate) struct Closed {
    pub(crate) session: ReassembledSession,
    digest: Option<SessionDigest>,
}

/// What one push did: the sessions it closed, and the subscriber's
/// activity watermark and tracked cost before and after it.
pub(crate) struct Pushed {
    pub(crate) closed: Vec<Closed>,
    pub(crate) watermark: (Option<Instant>, Option<Instant>),
    pub(crate) cost: (u64, u64),
}

/// A table of subscribers and their health.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    // BTreeMap, not HashMap: drains walk this map, and assessments
    // must come out in a stable (subscriber-id) order run after run.
    subscribers: BTreeMap<u64, RobustReassembler>,
    pub(crate) health: StreamHealth,
    reassembly: ReassemblyConfig,
    ingest: IngestConfig,
    scoring: SwitchScoreConfig,
}

impl Shard {
    /// An empty shard whose machines reassemble with `monitor`'s
    /// parameters and score spilled sessions with its switch model.
    pub(crate) fn new(monitor: &QoeMonitor, ingest: IngestConfig) -> Shard {
        Shard {
            subscribers: BTreeMap::new(),
            health: StreamHealth::default(),
            reassembly: monitor.reassembly,
            ingest,
            scoring: *monitor.switch_model.scoring(),
        }
    }

    /// Whether `id` has a machine in this table.
    pub(crate) fn tracks(&self, id: u64) -> bool {
        self.subscribers.contains_key(&id)
    }

    /// The door an untracked subscriber's entry passes before a slot is
    /// spent on it: malformed records are quarantined, non-service
    /// noise is dropped. Returns whether the entry may open the
    /// subscriber.
    pub(crate) fn screen(&mut self, e: &WeblogEntry, anomalies: &mut AnomalyLog) -> bool {
        if let Some(kind) = validate_entry(e, &self.ingest) {
            self.health.quarantine(e, kind, anomalies);
            return false;
        }
        e.is_service_host()
    }

    /// Open a machine for `id`, digest sink installed (sketched-tier
    /// coverage from record one).
    pub(crate) fn admit(&mut self, id: u64) {
        let mut machine = RobustReassembler::new(self.reassembly, self.ingest);
        install_digest_sink(&mut machine, self.scoring);
        self.subscribers.insert(id, machine);
    }

    /// Push one entry to its subscriber's machine; `None` when the
    /// subscriber is not tracked here.
    pub(crate) fn push(&mut self, e: &WeblogEntry, anomalies: &mut AnomalyLog) -> Option<Pushed> {
        let machine = self.subscribers.get_mut(&e.subscriber_id)?;
        let before = (machine.watermark(), machine.tracked_cost());
        let sessions = machine.push(e, &mut self.health, anomalies);
        Some(Pushed {
            watermark: (before.0, machine.watermark()),
            cost: (before.1, machine.tracked_cost()),
            closed: claim(machine, sessions),
        })
    }

    /// The engine's step: count the entry, open its subscriber if it
    /// passes the door (admission is unbounded), and push it.
    pub(crate) fn ingest(&mut self, e: &WeblogEntry, anomalies: &mut AnomalyLog) -> Vec<Closed> {
        self.health.entries_seen += 1;
        if !self.tracks(e.subscriber_id) {
            if !self.screen(e, anomalies) {
                return Vec::new();
            }
            self.admit(e.subscriber_id);
        }
        self.push(e, anomalies).map_or_else(Vec::new, |p| p.closed)
    }

    /// Take one subscriber's machine out of the table.
    pub(crate) fn remove(&mut self, id: u64) -> Option<RobustReassembler> {
        self.subscribers.remove(&id)
    }

    /// Take every machine out of the table, in subscriber-id order.
    pub(crate) fn take_all(&mut self) -> BTreeMap<u64, RobustReassembler> {
        std::mem::take(&mut self.subscribers)
    }

    /// Subscribers with an open session group or buffered entries.
    pub(crate) fn open_subscribers(&self) -> usize {
        self.subscribers
            .values()
            .filter(|m| m.open_entries() > 0)
            .count()
    }

    /// Subscribers tracked in this table.
    pub(crate) fn len(&self) -> usize {
        self.subscribers.len()
    }

    /// Buffered bytes across this table's machines.
    pub(crate) fn tracked_cost(&self) -> u64 {
        self.subscribers.values().map(|m| m.tracked_cost()).sum()
    }

    /// `id`'s activity watermark; `None` when it is not tracked here.
    pub(crate) fn watermark(&self, id: u64) -> Option<Option<Instant>> {
        self.subscribers.get(&id).map(|m| m.watermark())
    }

    /// Snapshot for an [`OnlineCheckpoint`](crate::OnlineCheckpoint).
    pub(crate) fn checkpoint(&self) -> ShardCheckpoint {
        ShardCheckpoint {
            health: self.health,
            subscribers: self
                .subscribers
                .iter()
                .map(|(id, m)| (*id, m.to_state()))
                .collect(),
        }
    }

    /// Merge shard `index` of a checkpoint's `shards` into this table,
    /// checking that every subscriber routes there and is new here.
    pub(crate) fn restore(
        &mut self,
        ck: &ShardCheckpoint,
        index: usize,
        shards: usize,
    ) -> Result<(), RestoreError> {
        self.health.absorb(&ck.health);
        for (id, state) in &ck.subscribers {
            if shard_of(*id, shards) != index {
                return Err(RestoreError::Corrupt(
                    "subscriber routed to the wrong shard",
                ));
            }
            let mut machine = RobustReassembler::from_state(state.clone());
            // Rehydrate the streaming digest sink from its own snapshot,
            // fresh when there is none (v1 checkpoints, or nothing
            // folded yet). An unreadable snapshot is damage: a fresh
            // sink would silently lose the fold and any sealed digest.
            let sink = match state.inner.spill_json.as_deref() {
                Some(json) => DigestSink::from_json(json)
                    .ok_or(RestoreError::Corrupt("unreadable spill digest"))?,
                None => DigestSink::new(self.scoring),
            };
            machine.attach_spill(Box::new(sink));
            if self.subscribers.insert(*id, machine).is_some() {
                return Err(RestoreError::Corrupt("duplicate subscriber in one shard"));
            }
        }
        Ok(())
    }
}

/// Close one subscriber's stream (end of input, eviction or shed) and
/// claim each final session's digest. `flush`, not the consuming
/// `finish`: the sealed digest of a spilled final session must still be
/// claimable afterwards.
pub(crate) fn close(mut machine: RobustReassembler) -> Vec<Closed> {
    let sessions = machine.flush();
    claim(&mut machine, sessions)
}

/// Pair each emitted session with its sealed digest, FIFO with the
/// reassembler's seal calls.
fn claim(machine: &mut RobustReassembler, sessions: Vec<ReassembledSession>) -> Vec<Closed> {
    sessions
        .into_iter()
        .map(|session| Closed {
            digest: claim_digest(machine, &session),
            session,
        })
        .collect()
}

/// Assess one closed session at the driver's `tier` (`Full` at a
/// proven boundary or end of input, `Partial` on LRU eviction, `Shed`
/// under a memory budget). A session whose chunks spilled past the
/// exactness cap is assessed from its digest and is at best `Sketched`;
/// eviction and shedding tiers dominate when both degradations apply.
pub(crate) fn assess(
    subs: &SubscriptionSet<'_>,
    closed: &Closed,
    tier: Fidelity,
    metrics: Option<&PipelineMetrics>,
) -> SessionAssessment {
    let session = &closed.session;
    let spilled = session.spilled_chunks > 0;
    let obs = SessionObs::from_reassembled(session);
    let view = SessionView::over(&obs, session);
    let assessment = match &closed.digest {
        Some(d) => subs.assess_session_sketched(view, d),
        None => subs.assess_session(view),
    }
    .with_fidelity(if spilled {
        tier.max(Fidelity::Sketched)
    } else {
        tier
    });
    if let Some(m) = metrics {
        m.observe_session(session, &assessment);
        if spilled {
            m.sessions_sketched.inc();
        }
    }
    assessment
}
