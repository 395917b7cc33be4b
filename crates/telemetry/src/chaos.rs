//! Deterministic fault injection for weblog streams.
//!
//! The paper's deployment claim (§8) is that a trained monitor can be
//! "directly applied on the passively monitored traffic" — but a real
//! operator tap is hostile: records arrive out of order, duplicated,
//! truncated or plain corrupt, subscriber identifiers collide, and
//! capture sessions die mid-stream. [`ChaosTap`] reproduces that
//! hostility on demand: it wraps any [`WeblogEntry`] iterator and
//! applies a configurable, *seeded* mix of fault operations, so the
//! graceful-degradation layer (see [`crate::ingest`]) can be exercised
//! and regression-tested bit-reproducibly.
//!
//! Fault operations, each independently probable per entry:
//!
//! * **reordering** — an entry is held back and re-emitted up to
//!   [`ChaosConfig::reorder_window`] entries later (bounded displacement,
//!   as produced by parallel export pipelines);
//! * **duplication** — the entry is emitted twice (tap-side retransmit);
//! * **drop** — the entry is silently lost;
//! * **timestamp skew** — the timestamp moves forward or backward by up
//!   to [`ChaosConfig::max_skew`] (clock steps on the collector);
//! * **field corruption** — one field is truncated or replaced with
//!   garbage (truncated export record);
//! * **subscriber-ID collision** — the anonymized subscriber id is
//!   remapped into a tiny id space, merging unrelated streams;
//! * **stream cut** — every later entry of the subscriber is lost
//!   (capture process death mid-session).
//!
//! Everything is driven by one [`StdRng`] seeded explicitly, so a given
//! `(stream, config, seed)` triple always yields the same faulted
//! stream.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vqoe_simnet::time::{Duration, Instant};

use crate::weblog::{EntryKind, WeblogEntry};
use vqoe_player::TransportSummary;

/// Per-entry probabilities and bounds for each fault operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Probability an entry is held back and re-emitted later.
    pub reorder: f64,
    /// Maximum displacement (in emitted entries) of a reordered entry.
    pub reorder_window: usize,
    /// Probability an entry is emitted twice.
    pub duplicate: f64,
    /// Probability an entry is dropped.
    pub drop: f64,
    /// Probability an entry's timestamp is skewed.
    pub skew: f64,
    /// Maximum forward or backward timestamp skew.
    pub max_skew: Duration,
    /// Probability one field of an entry is corrupted or truncated.
    pub corrupt: f64,
    /// Probability an entry's subscriber id is remapped into the
    /// colliding id space `0..collide_modulus`.
    pub collide: f64,
    /// Size of the colliding subscriber-id space.
    pub collide_modulus: u64,
    /// Probability the subscriber's remaining stream is cut here.
    pub cut: f64,
}

impl ChaosConfig {
    /// No faults at all: the tap is a pass-through.
    pub fn clean() -> Self {
        ChaosConfig {
            reorder: 0.0,
            reorder_window: 8,
            duplicate: 0.0,
            drop: 0.0,
            skew: 0.0,
            max_skew: Duration::from_secs(10),
            corrupt: 0.0,
            collide: 0.0,
            collide_modulus: 4,
            cut: 0.0,
        }
    }

    /// A single-knob fault mix: every operation's probability scales
    /// with `intensity` in `[0, 1]`. The weights keep the destructive
    /// operations (cut, collision) rarer than the reparable ones
    /// (reordering, duplication), roughly matching the incident mix a
    /// tap aggregator produces under load.
    pub fn uniform(intensity: f64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        ChaosConfig {
            reorder: i,
            duplicate: i / 2.0,
            drop: i / 2.0,
            skew: i / 2.0,
            corrupt: i / 2.0,
            collide: i / 10.0,
            cut: i / 200.0,
            ..ChaosConfig::clean()
        }
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::clean()
    }
}

/// Counters of faults actually applied by a [`ChaosTap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChaosStats {
    /// Entries pulled from the wrapped iterator.
    pub consumed: u64,
    /// Entries emitted downstream (after drops and duplicates).
    pub emitted: u64,
    /// Entries held back for later emission.
    pub reordered: u64,
    /// Entries emitted twice.
    pub duplicated: u64,
    /// Entries dropped outright.
    pub dropped: u64,
    /// Entries with a skewed timestamp.
    pub skewed: u64,
    /// Entries with a corrupted field.
    pub corrupted: u64,
    /// Entries remapped onto a colliding subscriber id.
    pub collided: u64,
    /// Subscriber streams cut mid-session.
    pub streams_cut: u64,
    /// Entries lost to an earlier stream cut.
    pub cut_dropped: u64,
}

/// A fault-injecting adapter over any [`WeblogEntry`] iterator.
///
/// ```
/// use vqoe_telemetry::chaos::{ChaosConfig, ChaosTap};
/// let entries: Vec<vqoe_telemetry::WeblogEntry> = Vec::new();
/// let faulted: Vec<_> =
///     ChaosTap::new(entries.into_iter(), ChaosConfig::uniform(0.1), 42).collect();
/// ```
#[derive(Debug, Clone)]
pub struct ChaosTap<I> {
    inner: I,
    cfg: ChaosConfig,
    rng: StdRng,
    /// Entries ready to emit, in order.
    ready: VecDeque<WeblogEntry>,
    /// Held-back entries with a countdown in consumed entries.
    held: Vec<(usize, WeblogEntry)>,
    /// Subscribers whose stream has been cut.
    cut: BTreeSet<u64>,
    stats: ChaosStats,
    inner_done: bool,
}

impl<I: Iterator<Item = WeblogEntry>> ChaosTap<I> {
    /// Wrap `inner` with the fault mix of `cfg`, driven by `seed`.
    pub fn new(inner: I, cfg: ChaosConfig, seed: u64) -> Self {
        ChaosTap {
            inner,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            ready: VecDeque::new(),
            held: Vec::new(),
            cut: BTreeSet::new(),
            stats: ChaosStats::default(),
            inner_done: false,
        }
    }

    /// Counters of the faults applied so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    fn roll(&mut self, p: f64) -> bool {
        // `gen::<f64>() < p` instead of `gen_bool` so a hostile config
        // (p outside [0, 1]) saturates instead of panicking.
        p > 0.0 && self.rng.gen::<f64>() < p
    }

    /// Apply the fault mix to one consumed entry, queueing 0–2 outputs.
    fn process(&mut self, mut e: WeblogEntry) {
        self.stats.consumed += 1;
        if self.cut.contains(&e.subscriber_id) {
            self.stats.cut_dropped += 1;
            return;
        }
        if self.roll(self.cfg.cut) {
            self.cut.insert(e.subscriber_id);
            self.stats.streams_cut += 1;
            self.stats.cut_dropped += 1;
            return;
        }
        if self.roll(self.cfg.drop) {
            self.stats.dropped += 1;
            return;
        }
        if self.roll(self.cfg.collide) {
            e.subscriber_id %= self.cfg.collide_modulus.max(1);
            self.stats.collided += 1;
        }
        if self.roll(self.cfg.skew) {
            let span = self.cfg.max_skew.as_micros();
            let offset = self.rng.gen_range(0..=span);
            e.timestamp = if self.rng.gen::<bool>() {
                e.timestamp + vqoe_simnet::time::Duration(offset)
            } else {
                Instant(e.timestamp.as_micros().saturating_sub(offset))
            };
            self.stats.skewed += 1;
        }
        if self.roll(self.cfg.corrupt) {
            self.corrupt(&mut e);
            self.stats.corrupted += 1;
        }
        if self.roll(self.cfg.duplicate) {
            self.ready.push_back(e.clone());
            self.stats.duplicated += 1;
        }
        if self.cfg.reorder_window > 0 && self.roll(self.cfg.reorder) {
            let delay = self.rng.gen_range(1..=self.cfg.reorder_window);
            self.held.push((delay, e));
            self.stats.reordered += 1;
        } else {
            self.ready.push_back(e);
        }
    }

    /// Damage one field of the entry, as a truncated or garbled export
    /// record would: the entry stays structurally a `WeblogEntry`, but
    /// its content is no longer trustworthy.
    fn corrupt(&mut self, e: &mut WeblogEntry) {
        match self.rng.gen_range(0u32..6) {
            0 => {
                // Cut at a char boundary: a non-ASCII host must not panic.
                let mut half = e.host.len() / 2;
                while !e.host.is_char_boundary(half) {
                    half -= 1;
                }
                e.host.truncate(half);
            }
            1 => e.host.clear(),
            2 => e.bytes = u64::MAX,
            3 => e.bytes = 0,
            4 => e.duration = Duration::from_secs(48 * 3600),
            _ => e.uri = Some("\u{fffd}%%%garbage-export-tail".to_string()),
        }
    }

    /// Tick held entries after one consumed entry and release the due
    /// ones.
    fn tick_held(&mut self) {
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= 1 {
                let (_, e) = self.held.remove(i);
                self.ready.push_back(e);
            } else {
                self.held[i].0 -= 1;
                i += 1;
            }
        }
    }
}

impl<I: Iterator<Item = WeblogEntry>> Iterator for ChaosTap<I> {
    type Item = WeblogEntry;

    fn next(&mut self) -> Option<WeblogEntry> {
        loop {
            if let Some(e) = self.ready.pop_front() {
                self.stats.emitted += 1;
                return Some(e);
            }
            if self.inner_done {
                if self.held.is_empty() {
                    return None;
                }
                // End of stream: flush every held entry in held order.
                let held = std::mem::take(&mut self.held);
                self.ready.extend(held.into_iter().map(|(_, e)| e));
                continue;
            }
            match self.inner.next() {
                None => self.inner_done = true,
                Some(e) => {
                    self.tick_held();
                    self.process(e);
                }
            }
        }
    }
}

/// Apply `cfg` to a whole entry slice at once, returning the faulted
/// stream and the fault counters. Convenience wrapper over [`ChaosTap`]
/// for batch callers (experiments, benches).
pub fn apply_chaos(
    entries: &[WeblogEntry],
    cfg: &ChaosConfig,
    seed: u64,
) -> (Vec<WeblogEntry>, ChaosStats) {
    let mut tap = ChaosTap::new(entries.iter().cloned(), *cfg, seed);
    let mut out = Vec::with_capacity(entries.len());
    for e in tap.by_ref() {
        out.push(e);
    }
    (out, tap.stats())
}

// ---------------------------------------------------------------------
// Load chaos: hostile *volume* rather than hostile records. The fault
// tap above damages individual entries; the generators below produce
// whole well-formed streams shaped to exhaust the assessor's memory —
// subscriber floods, synchronized burst storms, and pathological
// never-ending sessions. They compose with [`ChaosTap`]: generate the
// load, merge it with the organic stream, then run the merged stream
// through the fault tap.
// ---------------------------------------------------------------------

/// Shape of a synthetic subscriber flood.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FloodSpec {
    /// Number of distinct flood subscribers.
    pub subscribers: u64,
    /// Media chunks each flood subscriber downloads.
    pub chunks_per_subscriber: usize,
    /// Spacing between a subscriber's consecutive chunks.
    pub chunk_gap: Duration,
    /// Flood subscriber ids are `id_base..id_base + subscribers` —
    /// keep this disjoint from the organic id space.
    pub id_base: u64,
    /// Subscriber start times are scattered across this window, so the
    /// flood ramps up instead of arriving as one spike.
    pub window: Duration,
}

impl Default for FloodSpec {
    fn default() -> Self {
        FloodSpec {
            subscribers: 64,
            chunks_per_subscriber: 24,
            chunk_gap: Duration::from_secs(2),
            id_base: 0xF100D,
            window: Duration::from_secs(60),
        }
    }
}

/// Transport annotations for synthetic load entries. Structurally
/// valid, deliberately unremarkable: load chaos stresses memory, not
/// the detectors.
fn load_transport(rng: &mut StdRng) -> TransportSummary {
    let rtt = rng.gen_range(0.03..0.2);
    TransportSummary {
        rtt_min: rtt,
        rtt_mean: rtt * rng.gen_range(1.0..1.3),
        rtt_max: rtt * rng.gen_range(1.3..2.2),
        bdp_mean: rng.gen_range(50_000.0..400_000.0),
        bif_mean: rng.gen_range(5_000.0..60_000.0),
        bif_max: rng.gen_range(60_000.0..180_000.0),
        loss_frac: 0.0,
        retx_frac: 0.0,
    }
}

fn load_page_entry(subscriber_id: u64, t: Instant, rng: &mut StdRng) -> WeblogEntry {
    WeblogEntry {
        timestamp: t,
        subscriber_id,
        host: "m.youtube.com".to_string(),
        uri: None,
        bytes: rng.gen_range(30_000..200_000),
        duration: Duration::from_millis(rng.gen_range(100..900)),
        transport: load_transport(rng),
        encrypted: true,
        kind: EntryKind::PageLoad,
    }
}

fn load_media_entry(subscriber_id: u64, t: Instant, rng: &mut StdRng) -> WeblogEntry {
    WeblogEntry {
        timestamp: t,
        subscriber_id,
        host: format!(
            "r{}---sn-load{:02}.googlevideo.com",
            1 + subscriber_id % 8,
            subscriber_id % 100
        ),
        uri: None,
        bytes: rng.gen_range(250_000..2_500_000),
        duration: Duration::from_millis(rng.gen_range(400..3_000)),
        transport: load_transport(rng),
        encrypted: true,
        kind: EntryKind::MediaChunk,
    }
}

/// Generate a subscriber flood: `spec.subscribers` fresh subscribers,
/// each opening a session (page load + steady media chunks) with start
/// times scattered across `spec.window` after `start`. Entries come
/// back in timestamp order. Every `(spec, start, seed)` triple yields
/// the same flood.
pub fn generate_subscriber_flood(spec: &FloodSpec, start: Instant, seed: u64) -> Vec<WeblogEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let window = spec.window.as_micros().max(1);
    for s in 0..spec.subscribers {
        let id = spec.id_base + s;
        let t0 = start + Duration(rng.gen_range(0..window));
        out.push(load_page_entry(id, t0, &mut rng));
        let mut t = t0 + Duration::from_millis(rng.gen_range(200..1_200));
        for _ in 0..spec.chunks_per_subscriber {
            out.push(load_media_entry(id, t, &mut rng));
            t += spec.chunk_gap;
        }
    }
    out.sort_by_key(|e| e.timestamp);
    out
}

/// Generate a pathological session: one subscriber whose chunk cadence
/// never pauses longer than `gap`, so no idle boundary ever closes the
/// session and its open group grows without limit. Pick `gap` below the
/// reassembly `idle_gap` (default 30 s) for the never-ending effect;
/// `chunks` controls how giant the session gets.
pub fn generate_pathological_session(
    subscriber_id: u64,
    start: Instant,
    chunks: usize,
    gap: Duration,
    seed: u64,
) -> Vec<WeblogEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = vec![load_page_entry(subscriber_id, start, &mut rng)];
    let mut t = start + Duration::from_millis(rng.gen_range(200..1_200));
    for _ in 0..chunks {
        out.push(load_media_entry(subscriber_id, t, &mut rng));
        t += gap;
    }
    out
}

/// Merge several entry streams into one tap stream, ordered by
/// timestamp. Equal timestamps keep their input-stream order (a stable
/// sort of the concatenation), so merging is deterministic. When every
/// stream is timestamp-sorted, as generated streams are, a k-way merge
/// fills an exact-capacity output: no doubling growth or sort scratch
/// while every input is still alive.
pub fn merge_streams(streams: Vec<Vec<WeblogEntry>>) -> Vec<WeblogEntry> {
    let sorted = |s: &Vec<WeblogEntry>| s.windows(2).all(|w| w[0].timestamp <= w[1].timestamp);
    if !streams.iter().all(sorted) {
        let mut out: Vec<WeblogEntry> = streams.into_iter().flatten().collect();
        out.sort_by_key(|e| e.timestamp);
        return out;
    }
    let mut out = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    let mut streams: Vec<_> = streams.into_iter().map(Vec::into_iter).collect();
    let head = |s: &std::vec::IntoIter<WeblogEntry>, i: usize| {
        s.as_slice().first().map(|e| Reverse((e.timestamp, i)))
    };
    let mut heads: BinaryHeap<_> = (0..streams.len())
        .filter_map(|i| head(&streams[i], i))
        .collect();
    while let Some(Reverse((_, i))) = heads.pop() {
        out.extend(streams[i].next());
        heads.extend(head(&streams[i], i));
    }
    out
}

/// Named chaos presets, so operators (and `vqoe assess
/// --chaos-profile`) don't have to tune six probabilities by hand.
///
/// | profile | fault mix | load |
/// |---------|-----------|------|
/// | `mild`  | [`ChaosConfig::uniform`]`(0.05)` | none |
/// | `harsh` | [`ChaosConfig::uniform`]`(0.35)` | none |
/// | `flood` | [`ChaosConfig::uniform`]`(0.05)` | [`FloodSpec::default`] subscriber flood |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosProfile {
    /// Light record faults: the healthy-tap background rate.
    Mild,
    /// Heavy record faults: a degraded aggregator.
    Harsh,
    /// Light record faults plus a default subscriber flood.
    Flood,
}

impl ChaosProfile {
    /// Parse a CLI name (case-insensitive).
    pub fn parse(s: &str) -> Option<ChaosProfile> {
        match s.to_ascii_lowercase().as_str() {
            "mild" => Some(ChaosProfile::Mild),
            "harsh" => Some(ChaosProfile::Harsh),
            "flood" => Some(ChaosProfile::Flood),
            _ => None,
        }
    }

    /// The record-fault mix of this profile.
    pub fn chaos(&self) -> ChaosConfig {
        match self {
            ChaosProfile::Mild | ChaosProfile::Flood => ChaosConfig::uniform(0.05),
            ChaosProfile::Harsh => ChaosConfig::uniform(0.35),
        }
    }

    /// The load component of this profile, if it has one.
    pub fn flood(&self) -> Option<FloodSpec> {
        match self {
            ChaosProfile::Flood => Some(FloodSpec::default()),
            ChaosProfile::Mild | ChaosProfile::Harsh => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::generate_noise;
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        #[test]
        fn prop_merge_equals_a_stable_sort_of_the_concatenation(
            stamps in proptest::collection::vec(proptest::collection::vec(0u64..1 << 20, 0..40), 0..6),
            spread_bits in 1u32..=20,
            all_sorted in proptest::bool::ANY,
            sorted_mask in 0u8..=255,
        ) {
            // Few spread bits fold the stamps onto a few instants (the
            // tie-heavy case); an unsorted stream takes the sort path.
            let mut rng = StdRng::seed_from_u64(7);
            let mut streams = Vec::new();
            for (s, stamps) in stamps.into_iter().enumerate() {
                let mut stamps: Vec<u64> = stamps.iter().map(|t| t >> (20 - spread_bits)).collect();
                if all_sorted || sorted_mask >> s & 1 == 1 {
                    stamps.sort_unstable();
                }
                let entry = |(i, &t): (usize, &u64)| load_media_entry((s * 100 + i) as u64, Instant(t), &mut rng);
                streams.push(stamps.iter().enumerate().map(entry).collect::<Vec<_>>());
            }
            let mut expected = streams.concat();
            expected.sort_by_key(|e| e.timestamp);
            prop_assert_eq!(merge_streams(streams), expected);
        }
    }

    fn stream(n: usize) -> Vec<WeblogEntry> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        generate_noise(1, Instant::ZERO, Instant::from_secs(n as u64), n, &mut rng)
    }

    #[test]
    fn clean_config_is_a_pass_through() {
        let entries = stream(200);
        let (out, stats) = apply_chaos(&entries, &ChaosConfig::clean(), 7);
        assert_eq!(out, entries);
        assert_eq!(stats.consumed, 200);
        assert_eq!(stats.emitted, 200);
        assert_eq!(stats.dropped + stats.duplicated + stats.corrupted, 0);
    }

    #[test]
    fn same_seed_same_stream() {
        let entries = stream(300);
        let cfg = ChaosConfig::uniform(0.3);
        let (a, sa) = apply_chaos(&entries, &cfg, 11);
        let (b, sb) = apply_chaos(&entries, &cfg, 11);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = apply_chaos(&entries, &cfg, 12);
        assert_ne!(a, c, "different seeds must fault differently");
    }

    #[test]
    fn drops_shrink_and_duplicates_grow_the_stream() {
        let entries = stream(400);
        let dropped = ChaosConfig {
            drop: 0.5,
            ..ChaosConfig::clean()
        };
        let (out, stats) = apply_chaos(&entries, &dropped, 5);
        assert!(out.len() < entries.len());
        assert_eq!(out.len() as u64, stats.emitted);
        assert_eq!(stats.dropped, entries.len() as u64 - out.len() as u64);

        let duplicated = ChaosConfig {
            duplicate: 0.5,
            ..ChaosConfig::clean()
        };
        let (out, stats) = apply_chaos(&entries, &duplicated, 5);
        assert!(out.len() > entries.len());
        assert_eq!(stats.duplicated, out.len() as u64 - entries.len() as u64);
    }

    #[test]
    fn reordering_is_bounded_and_preserves_the_multiset() {
        let entries = stream(300);
        let cfg = ChaosConfig {
            reorder: 0.4,
            reorder_window: 6,
            ..ChaosConfig::clean()
        };
        let (out, stats) = apply_chaos(&entries, &cfg, 9);
        assert_eq!(out.len(), entries.len());
        assert!(stats.reordered > 0);
        // Same entries, different order.
        let mut a = entries.clone();
        let mut b = out.clone();
        a.sort_by_key(|e| (e.timestamp, e.bytes));
        b.sort_by_key(|e| (e.timestamp, e.bytes));
        assert_eq!(a, b);
        // Displacement of every entry is bounded by the window plus the
        // in-flight slack of other held entries.
        for (i, e) in entries.iter().enumerate() {
            let j = out
                .iter()
                .position(|o| o == e)
                .expect("entry survived reordering");
            assert!(
                (j as i64 - i as i64).unsigned_abs() as usize <= cfg.reorder_window * 2,
                "entry {i} displaced to {j}"
            );
        }
    }

    #[test]
    fn cut_removes_the_tail_of_a_subscriber() {
        let entries = stream(500);
        let cfg = ChaosConfig {
            cut: 0.02,
            ..ChaosConfig::clean()
        };
        let (out, stats) = apply_chaos(&entries, &cfg, 13);
        assert!(stats.streams_cut >= 1);
        assert_eq!(
            stats.cut_dropped,
            entries.len() as u64 - out.len() as u64,
            "everything after the cut is lost"
        );
        // The surviving prefix is unmodified.
        assert_eq!(out[..], entries[..out.len()]);
    }

    #[test]
    fn corruption_damages_fields_but_keeps_records_parseable() {
        let entries = stream(400);
        let cfg = ChaosConfig {
            corrupt: 1.0,
            ..ChaosConfig::clean()
        };
        let (out, stats) = apply_chaos(&entries, &cfg, 17);
        assert_eq!(stats.corrupted, entries.len() as u64);
        assert_eq!(out.len(), entries.len());
        assert!(out.iter().zip(entries.iter()).any(|(o, e)| o != e));
    }

    #[test]
    fn corrupting_a_non_ascii_host_cuts_at_a_char_boundary() {
        let mut entries = stream(200);
        for e in &mut entries {
            e.host = "日本語の動画.example.jp".to_string();
        }
        let cfg = ChaosConfig {
            corrupt: 1.0,
            ..ChaosConfig::clean()
        };
        let (out, _) = apply_chaos(&entries, &cfg, 17);
        let host = &entries[0].host;
        let cut: Vec<&str> = out.iter().map(|e| e.host.as_str()).collect();
        assert!(cut.iter().all(|h| host.starts_with(h)), "{cut:?}");
        assert!(cut.iter().any(|h| !h.is_empty() && h.len() < host.len()));
    }
}
