//! Seeded workload inputs and their fingerprints.
//!
//! Every input is a pure function of the workload seed: the training
//! seed is fixed elsewhere, so `--seed` changes only the traffic. The
//! fingerprint is computed here, field by field, without serde or the
//! binlog encoder — both are program code under test, and a change to
//! them must not be able to hide a change of the workload.

use vqoe_core::{EncryptedEvalConfig, EncryptedWorld};
use vqoe_simnet::time::{Duration, Instant};
use vqoe_telemetry::{
    apply_chaos, generate_pathological_session, generate_subscriber_flood, merge_streams,
    ChaosProfile, EntryKind, FloodSpec, WeblogEntry,
};

/// Input sizes of one benchmark scale.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Cleartext / adaptive training corpus sizes.
    pub training: (usize, usize),
    /// Subscribers × sessions of the replay tap.
    pub replay: (u64, usize),
    /// Subscribers × sessions of the chaos tap (before faults).
    pub chaos: (u64, usize),
    /// Subscribers × sessions of the online workload's organic tap.
    pub online_organic: (u64, usize),
    /// Subscribers in each round of the online workload's flood.
    pub flood_subscribers: u64,
    /// Flood rounds (the same ids every round).
    pub flood_rounds: u64,
    /// Long sessions past the exact-entry cap, and their chunk count.
    pub long_sessions: (u64, usize),
}

impl Scale {
    /// The measured scale: a pass takes a fraction of a second, so a
    /// run's median is taken over tens of passes.
    pub const FULL: Scale = Scale {
        training: (800, 300),
        replay: (256, 16),
        chaos: (512, 16),
        online_organic: (256, 16),
        flood_subscribers: 128,
        flood_rounds: 2,
        long_sessions: (2, 6_000),
    };

    /// A seconds-long scale with every code path still exercised
    /// (including one session past the exact-entry cap), for tests.
    pub const SMOKE: Scale = Scale {
        training: (120, 60),
        replay: (6, 3),
        chaos: (12, 3),
        online_organic: (4, 3),
        flood_subscribers: 16,
        flood_rounds: 2,
        long_sessions: (1, 4_200),
    };
}

/// Flood subscriber ids start here, far from the organic ids `0..n`.
const FLOOD_ID_BASE: u64 = 0x00F1_0000;
/// Long-session subscriber ids start here.
const LONG_ID_BASE: u64 = 0x0BAD_0000;
/// Media chunks per flood subscriber and round.
const FLOOD_CHUNKS: usize = 4;
/// One flood round's start times spread over this window...
const FLOOD_WINDOW: Duration = Duration(60_000_000);
/// ...and rounds start this far apart, so a round's page load comes
/// long after the previous round's last chunk and closes that session
/// while the tap is still running.
const FLOOD_PERIOD: Duration = Duration(150_000_000);
/// Chunk cadence of a long session: below the 30 s idle gap, so no
/// boundary ever closes it before the tap ends.
const LONG_GAP: Duration = Duration(250_000);

/// The organic tap: `subscribers` independent simulated handsets of
/// `sessions` encrypted sessions each, relabelled to subscriber ids
/// `0..subscribers` and merged in timestamp order. Generated on
/// `workers` threads; the merge makes the result independent of them.
pub fn organic_tap(
    seed: u64,
    (subscribers, sessions): (u64, usize),
    workers: usize,
) -> Vec<WeblogEntry> {
    let one = |s: u64| {
        let mut config = EncryptedEvalConfig::paper_default(seed ^ (s << 8));
        config.spec.n_sessions = sessions;
        let mut world = EncryptedWorld::build(&config).expect("simulated traces always capture");
        for e in &mut world.entries {
            e.subscriber_id = s;
        }
        world.entries
    };
    let workers = workers.max(1) as u64;
    let streams: Vec<Vec<WeblogEntry>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    (w..subscribers)
                        .step_by(workers as usize)
                        .map(|s| (s, one(s)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(u64, Vec<WeblogEntry>)> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect();
        all.sort_by_key(|&(s, _)| s);
        all.into_iter().map(|(_, v)| v).collect()
    });
    merge_streams(streams)
}

/// The replay tap (clean, long sessions).
pub fn replay(seed: u64, scale: &Scale, workers: usize) -> Vec<WeblogEntry> {
    organic_tap(seed, scale.replay, workers)
}

/// The chaos tap: a larger organic tap through the harsh fault profile.
pub fn chaos(seed: u64, scale: &Scale, workers: usize) -> Vec<WeblogEntry> {
    let clean = organic_tap(seed ^ 0xC4A05, scale.chaos, workers);
    apply_chaos(&clean, &ChaosProfile::Harsh.chaos(), seed).0
}

/// The online tap: mostly an organic tap of the replay kind. A small
/// subscriber flood (page load and four chunks per subscriber, the same
/// ids every round, so each round closes the previous one mid-stream)
/// joins it under the mild fault profile, and a few unfaulted sessions
/// past the exact-entry cap are merged in for the sketched tier. At
/// full scale the flood is under 1% of the records and about 6% of the
/// sessions; the long sessions are 3% of the records.
pub fn online(seed: u64, scale: &Scale, workers: usize) -> Vec<WeblogEntry> {
    let organic = organic_tap(seed ^ 0x0171E, scale.online_organic, workers);
    let start = organic.first().map_or(Instant::ZERO, |e| e.timestamp);
    let mut streams = vec![organic];
    for round in 0..scale.flood_rounds {
        let spec = FloodSpec {
            subscribers: scale.flood_subscribers,
            chunks_per_subscriber: FLOOD_CHUNKS,
            id_base: FLOOD_ID_BASE,
            window: FLOOD_WINDOW,
            ..FloodSpec::default()
        };
        let at = start + Duration(FLOOD_PERIOD.as_micros() * round);
        streams.push(generate_subscriber_flood(
            &spec,
            at,
            seed ^ (0xF100D + round),
        ));
    }
    let faulted = apply_chaos(&merge_streams(streams), &ChaosProfile::Mild.chaos(), seed).0;
    let (count, chunks) = scale.long_sessions;
    let mut parts = vec![faulted];
    for k in 0..count {
        let at = start + Duration::from_secs(7 * k);
        parts.push(generate_pathological_session(
            LONG_ID_BASE + k,
            at,
            chunks,
            LONG_GAP,
            seed ^ (0xBAD + k),
        ));
    }
    merge_streams(parts)
}

/// 64-bit FNV-1a, fed field by field.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb one little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorb a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a record stream: every field of every record, in
/// order, floats by bit pattern.
pub fn fingerprint(entries: &[WeblogEntry]) -> u64 {
    let mut h = Fnv::new();
    h.u64(entries.len() as u64);
    for e in entries {
        h.u64(e.timestamp.as_micros());
        h.u64(e.subscriber_id);
        h.str(&e.host);
        match &e.uri {
            Some(uri) => {
                h.u64(1);
                h.str(uri);
            }
            None => h.u64(0),
        }
        h.u64(e.bytes);
        h.u64(e.duration.as_micros());
        let t = &e.transport;
        for x in [
            t.rtt_min,
            t.rtt_mean,
            t.rtt_max,
            t.bdp_mean,
            t.bif_mean,
            t.bif_max,
            t.loss_frac,
            t.retx_frac,
        ] {
            h.u64(x.to_bits());
        }
        h.u64(u64::from(e.encrypted));
        h.u64(match e.kind {
            EntryKind::PageLoad => 0,
            EntryKind::MediaChunk => 1,
            EntryKind::StatsReport => 2,
            EntryKind::Noise => 3,
        });
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv::new();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn same_seed_same_fingerprint_other_seed_other_fingerprint() {
        let s = Scale::SMOKE;
        for make in [replay, chaos, online] {
            let a = fingerprint(&make(5, &s, 2));
            assert_eq!(
                a,
                fingerprint(&make(5, &s, 1)),
                "worker count must not matter"
            );
            assert_ne!(a, fingerprint(&make(6, &s, 2)));
        }
    }

    #[test]
    fn every_field_reaches_the_fingerprint() {
        let tap = replay(3, &Scale::SMOKE, 1);
        let base = fingerprint(&tap);
        let edits: [fn(&mut WeblogEntry); 9] = [
            |e| e.timestamp = Instant(e.timestamp.as_micros() + 1),
            |e| e.subscriber_id += 1,
            |e| e.host.push('x'),
            |e| e.uri = Some(String::new()),
            |e| e.bytes += 1,
            |e| e.duration = Duration(e.duration.as_micros() + 1),
            |e| e.transport.retx_frac += 1.0,
            |e| e.encrypted = !e.encrypted,
            |e| {
                e.kind = if e.kind == EntryKind::Noise {
                    EntryKind::PageLoad
                } else {
                    EntryKind::Noise
                }
            },
        ];
        for (i, edit) in edits.iter().enumerate() {
            let mut changed = tap.clone();
            edit(&mut changed[0]);
            assert_ne!(
                fingerprint(&changed),
                base,
                "edit {i} left the fingerprint unchanged"
            );
        }
    }
}
