//! Ingest + binary replay integration:
//!
//! * JSON → pack → unpack is **bit-identical** at the entry level;
//! * `assess_binary(&corpus)`, which decodes each record on its shard
//!   worker, replays into the exact [`IngestReport`] of
//!   `assess(&corpus.decode_all()?)`, with equal metrics snapshots — at
//!   worker counts 1, 2 and 7 and a non-default shard count, on a clean
//!   tap and on a harsh-chaos tap with a session past the exactness cap;
//! * truncated, bit-flipped and arbitrary corpora are rejected with
//!   typed errors, never a panic and never a silently short decode, and
//!   `assess_binary` fails with exactly `decode_all`'s error;
//! * the wire format is pinned by a committed fixture, and a packed tap
//!   stays well under the size of the fixed-width layout it replaced.

use std::sync::OnceLock;

use proptest::prelude::*;
use vqoe_core::{
    encode_snapshot, EncryptedEvalConfig, EncryptedWorld, EngineConfig, Fidelity, IngestPipeline,
    IngestReport, PipelineMetrics, QoeMonitor, TrainingConfig,
};
use vqoe_obs::Registry;
use vqoe_player::TransportSummary;
use vqoe_simnet::time::{Duration, Instant};
use vqoe_telemetry::{
    apply_chaos, generate_pathological_session, merge_streams, read_jsonl, write_jsonl,
    BinaryCorpus, BinlogError, ChaosConfig, ChaosProfile, EntryKind, WeblogEntry, BINLOG_MAGIC,
    EXACT_ENTRY_CAP,
};

fn monitor() -> &'static QoeMonitor {
    static MONITOR: OnceLock<QoeMonitor> = OnceLock::new();
    MONITOR.get_or_init(|| {
        let config = TrainingConfig {
            cleartext_sessions: 250,
            adaptive_sessions: 150,
            seed: 88,
            ..TrainingConfig::default()
        };
        QoeMonitor::train(&config)
    })
}

/// A tap shared by `subscribers` independent streams, interleaved by
/// timestamp as the proxy would deliver them.
fn multi_subscriber_tap(subscribers: u64, sessions: usize, seed: u64) -> Vec<WeblogEntry> {
    let mut entries = Vec::new();
    for s in 0..subscribers {
        let mut cfg = EncryptedEvalConfig::paper_default(seed + s);
        cfg.spec.n_sessions = sessions;
        let mut world = EncryptedWorld::build(&cfg).expect("simulated world builds");
        for e in &mut world.entries {
            e.subscriber_id = s * 11 + 5;
        }
        entries.extend(world.entries);
    }
    entries.sort_by_key(|e| e.timestamp);
    entries
}

#[test]
fn json_pack_unpack_round_trip_is_bit_identical() {
    let entries = multi_subscriber_tap(3, 2, 700);
    // JSONL → disk → back, then pack → disk → back: both lossless.
    let dir = std::env::temp_dir().join(format!("vqoe_binlog_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let jsonl_path = dir.join("tap.jsonl");
    let packed_path = dir.join("tap.vqwl");

    write_jsonl(&jsonl_path, &entries).expect("write JSONL");
    let from_jsonl: Vec<WeblogEntry> = read_jsonl(&jsonl_path).expect("read JSONL");
    assert_eq!(from_jsonl, entries, "JSONL round trip must be lossless");

    let corpus = BinaryCorpus::pack(&from_jsonl);
    corpus
        .write_file(&packed_path)
        .expect("write packed corpus");
    let reloaded = BinaryCorpus::read_file(&packed_path).expect("read packed corpus");
    assert_eq!(reloaded.as_bytes(), corpus.as_bytes());
    let unpacked = reloaded.decode_all().expect("packed corpus decodes");
    assert_eq!(unpacked, entries, "pack/unpack round trip must be lossless");

    std::fs::remove_dir_all(&dir).ok();
}

/// The committed packing of [`fixture_tap`]: a change to the wire format
/// shows here as a byte diff.
const FIXTURE: &[u8] = include_bytes!("fixtures/binlog_v2_small.vqwl");

/// A small tap touching every corner of the format: a host shared by
/// two records, a non-ASCII host, an empty one, a URI, a varint of each
/// width class, and transport floats that are +0.0 (not stored), -0.0
/// and NaNs with payloads (stored by their raw bits).
fn fixture_tap() -> Vec<WeblogEntry> {
    let video = "r4---sn-5hne6nsk.googlevideo.com";
    let transport = |bits: [u64; 8]| {
        let [rtt_min, rtt_mean, rtt_max, bdp_mean, bif_mean, bif_max, loss_frac, retx_frac] =
            bits.map(f64::from_bits);
        TransportSummary {
            rtt_min,
            rtt_mean,
            rtt_max,
            bdp_mean,
            bif_mean,
            bif_max,
            loss_frac,
            retx_frac,
        }
    };
    let chunk = WeblogEntry {
        timestamp: Instant::from_millis(1_250),
        subscriber_id: 7,
        host: video.to_string(),
        uri: None,
        bytes: 512_000,
        duration: Duration::from_millis(420),
        transport: transport(
            [0.041, 0.048, 0.06, 61_440.0, 20_480.0, 40_960.0, 0.0, 0.0].map(f64::to_bits),
        ),
        encrypted: true,
        kind: EntryKind::MediaChunk,
    };
    vec![
        chunk.clone(),
        WeblogEntry {
            timestamp: Instant::from_millis(1_300),
            host: "視頻.例子.cn".to_string(),
            uri: Some("/videoplayback?itag=243&é=1".to_string()),
            bytes: 0,
            encrypted: false,
            kind: EntryKind::PageLoad,
            transport: transport([
                0x8000_0000_0000_0000,
                0x7ff8_0000_0000_0000,
                0xfff0_0000_dead_beef,
                0,
                0x0000_0000_0000_0001,
                0x7ff0_0000_0000_0000,
                0x8000_0000_0000_0000,
                0x3f50_624d_d2f1_a9fc,
            ]),
            ..chunk.clone()
        },
        WeblogEntry {
            timestamp: Instant(u64::MAX),
            subscriber_id: u64::MAX,
            kind: EntryKind::StatsReport,
            ..chunk.clone()
        },
        WeblogEntry {
            host: String::new(),
            kind: EntryKind::Noise,
            transport: transport([0; 8]),
            ..chunk
        },
    ]
}

/// An entry's fields with the floats as raw bits, so NaNs compare.
fn entry_bits(e: &WeblogEntry) -> String {
    let t = &e.transport;
    let floats = [
        t.rtt_min,
        t.rtt_mean,
        t.rtt_max,
        t.bdp_mean,
        t.bif_mean,
        t.bif_max,
        t.loss_frac,
        t.retx_frac,
    ]
    .map(f64::to_bits);
    format!(
        "{} {} {:?} {:?} {} {} {floats:x?} {} {:?}",
        e.timestamp.as_micros(),
        e.subscriber_id,
        e.host,
        e.uri,
        e.bytes,
        e.duration.as_micros(),
        e.encrypted,
        e.kind
    )
}

#[test]
fn the_committed_fixture_pins_the_wire_format() {
    let tap = fixture_tap();
    assert_eq!(
        BinaryCorpus::pack(&tap).as_bytes(),
        FIXTURE,
        "pack no longer reproduces tests/fixtures/binlog_v2_small.vqwl"
    );
    let decoded = BinaryCorpus::from_bytes(FIXTURE.to_vec())
        .expect("the fixture adopts")
        .decode_all()
        .expect("the fixture decodes");
    assert_eq!(
        decoded.iter().map(entry_bits).collect::<Vec<_>>(),
        tap.iter().map(entry_bits).collect::<Vec<_>>()
    );
    // The same bytes stamped version 1 are refused: only v2 is read.
    let mut v1 = FIXTURE.to_vec();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    assert!(matches!(
        BinaryCorpus::from_bytes(v1),
        Err(BinlogError::UnsupportedVersion { found: 1 })
    ));
}

#[test]
fn a_packed_tap_is_at_most_60_percent_of_the_fixed_width_layout() {
    let entries = multi_subscriber_tap(4, 2, 800);
    // The fixed-width layout spent a 4-byte length, a 105-byte preamble
    // and the host and uri bytes on every record, after a 16-byte header.
    let fixed_width: u64 = 16
        + entries
            .iter()
            .map(|e| 4 + 105 + e.variable_cost())
            .sum::<u64>();
    let packed = BinaryCorpus::pack(&entries).as_bytes().len() as u64;
    assert!(
        packed * 10 <= fixed_width * 6,
        "packed {packed} bytes, fixed-width {fixed_width} bytes"
    );
}

/// Engine settings every bit-identity check runs at: workers 1, 2 and 7
/// on the default shard count, and 2 workers on a non-default one.
fn engine_grid() -> [EngineConfig; 4] {
    let at = |workers, shards| EngineConfig { workers, shards };
    let shards = EngineConfig::default().shards;
    [at(1, shards), at(2, shards), at(7, shards), at(2, 5)]
}

/// Replay `corpus` both ways at `cfg` — decoded by the worker that runs
/// each shard, and decoded up front — each with a fresh metrics registry
/// attached, and demand equal reports and equal metrics snapshots.
/// Returns the report.
fn assert_binary_replay_matches_decoded(cfg: EngineConfig, corpus: &BinaryCorpus) -> IngestReport {
    let entries = corpus.decode_all().expect("corpus decodes");
    let replay = |binary: bool| {
        let registry = Registry::new();
        let pipeline = IngestPipeline::new(monitor())
            .with_engine(cfg)
            .with_metrics(PipelineMetrics::register(&registry));
        let report = if binary {
            pipeline.assess_binary(corpus).expect("corpus replays")
        } else {
            pipeline.assess(&entries)
        };
        (report, encode_snapshot(&registry.snapshot()))
    };
    let (binary, binary_snapshot) = replay(true);
    let (decoded, decoded_snapshot) = replay(false);
    assert_eq!(binary, decoded, "binary replay diverged at {cfg:?}");
    assert_eq!(
        binary_snapshot, decoded_snapshot,
        "metrics snapshot diverged at {cfg:?}"
    );
    assert!(!binary.assessments.is_empty());
    binary
}

#[test]
fn all_replay_paths_agree_at_every_worker_count() {
    let corpus = BinaryCorpus::pack(&multi_subscriber_tap(4, 2, 800));
    for cfg in engine_grid() {
        assert_binary_replay_matches_decoded(cfg, &corpus);
    }
}

/// A hostile tap: three ordinary subscribers plus one whose session
/// never pauses and runs past the exactness cap (even after the faults
/// drop or quarantine about two in five of its chunks), under the harsh
/// fault mix (reordering, duplicates, drops, skew, corruption,
/// subscriber-id collisions) with stream cuts off so the long session
/// survives.
fn harsh_tap() -> Vec<WeblogEntry> {
    let long = generate_pathological_session(
        2,
        Instant::from_secs(5),
        2 * EXACT_ENTRY_CAP,
        Duration::from_secs(1),
        977,
    );
    let tap = merge_streams(vec![multi_subscriber_tap(3, 1, 970), long]);
    let harsh = ChaosConfig {
        cut: 0.0,
        ..ChaosProfile::Harsh.chaos()
    };
    apply_chaos(&tap, &harsh, 971).0
}

#[test]
fn binary_replay_is_bit_identical_on_a_harsh_tap_past_the_exactness_cap() {
    let corpus = BinaryCorpus::pack(&harsh_tap());
    for cfg in engine_grid() {
        let report = assert_binary_replay_matches_decoded(cfg, &corpus);
        assert!(
            report
                .assessments
                .iter()
                .any(|a| a.fidelity == Fidelity::Sketched),
            "no session ran past the exactness cap"
        );
        let h = &report.health;
        assert!(h.entries_reordered > 0 && h.entries_duplicated > 0, "{h:?}");
    }
}

#[test]
fn truncated_and_corrupt_corpora_are_rejected_with_typed_errors() {
    let entries = multi_subscriber_tap(2, 1, 900);
    let corpus = BinaryCorpus::pack(&entries);
    let bytes = corpus.as_bytes();

    // Truncated header: too short to even carry the magic + count.
    assert!(matches!(
        BinaryCorpus::from_bytes(bytes[..10].to_vec()),
        Err(BinlogError::TruncatedHeader { .. })
    ));

    // Bad magic: a JSONL file fed to the binary reader.
    let mut wrong = bytes.to_vec();
    wrong[..4].copy_from_slice(b"{\"ti");
    assert!(matches!(
        BinaryCorpus::from_bytes(wrong),
        Err(BinlogError::BadMagic { .. })
    ));
    assert!(!BinaryCorpus::sniff(b"{\"timestamp\": 1}"));
    assert!(BinaryCorpus::sniff(bytes));
    assert_eq!(bytes[..4], BINLOG_MAGIC);

    // Truncated body: chop mid-record. The header parses (count is
    // intact) but decoding must fail loudly, not return fewer entries.
    let cut = BinaryCorpus::from_bytes(bytes[..bytes.len() - 7].to_vec())
        .expect("header still parses after a body cut");
    match cut.decode_all() {
        Err(BinlogError::Truncated { .. }) | Err(BinlogError::BadLength { .. }) => {}
        other => panic!("expected a truncation error, got {other:?}"),
    }

    // A decode failure must also fail the pipeline, typed.
    assert!(IngestPipeline::new(monitor()).assess_binary(&cut).is_err());
}

/// The packed bytes of a small clean tap, shared by the properties.
fn small_corpus() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        BinaryCorpus::pack(&multi_subscriber_tap(2, 1, 990))
            .as_bytes()
            .to_vec()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Truncate, flip one bit of, or splice junk into a real corpus:
    /// `assess_binary` either fails with exactly `decode_all`'s error
    /// (variant, index and offset) or replays into the report of the
    /// decoded entries — never a panic.
    #[test]
    fn prop_assess_binary_fails_exactly_as_decode_all(
        damage in 0u8..3,
        at in 0u64..=u64::MAX,
        bit in 0u32..8,
        junk in proptest::collection::vec(0u8..=255, 0..160),
    ) {
        let mut bytes = small_corpus().to_vec();
        let at = (at % bytes.len() as u64) as usize;
        match damage {
            0 => bytes.truncate(at),
            1 => bytes[at] ^= 1 << bit,
            _ => {
                bytes.truncate(at.max(16));
                bytes.extend_from_slice(&junk);
            }
        }
        let Ok(corpus) = BinaryCorpus::from_bytes(bytes) else {
            return Ok(());
        };
        let pipeline = IngestPipeline::new(monitor()).with_engine(EngineConfig {
            workers: 2,
            shards: 4,
        });
        match (corpus.decode_all(), pipeline.assess_binary(&corpus)) {
            (Err(want), Err(got)) => prop_assert_eq!(format!("{got:?}"), format!("{want:?}")),
            (Ok(entries), Ok(report)) => prop_assert_eq!(report, pipeline.assess(&entries)),
            (want, got) => prop_assert!(
                false,
                "decode_all: {:?}, assess_binary: {:?}",
                want.err(),
                got.err()
            ),
        }
    }
}
