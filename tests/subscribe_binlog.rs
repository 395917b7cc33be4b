//! Subscription ingest + binary replay integration (ISSUE 8 acceptance
//! criteria):
//!
//! * JSON → pack → unpack is **bit-identical** at the entry level, and
//!   the packed corpus replays into the exact same [`IngestReport`] as
//!   the JSONL decode — through the legacy shim, the subscription
//!   pipeline and the binary path — at worker counts 1, 2 and 7;
//! * truncated and corrupted corpora are rejected with typed errors,
//!   never a panic and never a silently short decode;
//! * extension subscriptions observe every session without perturbing
//!   the standard report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use vqoe_core::prelude::*;
use vqoe_core::{EncryptedEvalConfig, EncryptedWorld};
use vqoe_telemetry::{read_jsonl, write_jsonl, BINLOG_MAGIC};

fn monitor() -> &'static QoeMonitor {
    static MONITOR: OnceLock<QoeMonitor> = OnceLock::new();
    MONITOR.get_or_init(|| {
        let config = TrainingConfig::builder()
            .cleartext_sessions(250)
            .adaptive_sessions(150)
            .seed(88)
            .build()
            .expect("valid training config");
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

#[test]
fn all_replay_paths_agree_at_every_worker_count() {
    let entries = multi_subscriber_tap(4, 2, 800);
    let corpus = BinaryCorpus::pack(&entries);
    for workers in [1usize, 2, 7] {
        let cfg = EngineConfig {
            workers,
            shards: 16,
            ..EngineConfig::default()
        };
        let pipeline = IngestPipeline::new(monitor()).with_engine(cfg);
        let subscription_path: IngestReport = pipeline.assess(&entries);
        let binary_path = pipeline.assess_binary(&corpus).expect("corpus replays");
        assert_eq!(
            subscription_path, binary_path,
            "binary replay diverged at {workers} workers"
        );
        assert!(!subscription_path.assessments.is_empty());
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

#[test]
fn extension_subscription_rides_along_without_changing_the_fold() {
    struct ThroughputProbe {
        sessions: AtomicUsize,
        chunks: AtomicUsize,
    }
    impl Subscription for ThroughputProbe {
        fn name(&self) -> &'static str {
            "throughput-probe"
        }
        fn deliver(&self, view: &SessionView<'_>) -> Signal {
            self.sessions.fetch_add(1, Ordering::Relaxed);
            self.chunks.fetch_add(view.chunk_count(), Ordering::Relaxed);
            Signal::Score(view.chunk_count() as f64)
        }
    }

    let entries = multi_subscriber_tap(1, 3, 950);
    let m = monitor();
    let probe = ThroughputProbe {
        sessions: AtomicUsize::new(0),
        chunks: AtomicUsize::new(0),
    };
    let mut set = m.subscriptions();
    set.subscribe(Box::new(&probe as &dyn Subscription));
    assert_eq!(
        set.names(),
        vec!["stall", "representation", "switch", "throughput-probe"]
    );

    let baseline = m.pipeline().assess_subscriber(&entries);
    let sessions = vqoe_telemetry::reassemble_subscriber(&entries, &m.reassembly);
    let mut probed = Vec::new();
    for session in &sessions {
        let obs = SessionObs::from_reassembled(session);
        probed.push(set.assess_session(SessionView::over(&obs, session)));
    }
    assert_eq!(probed, baseline, "probe must not perturb the fold");
    assert_eq!(probe.sessions.load(Ordering::Relaxed), sessions.len());
    let total_chunks: usize = probed.iter().map(|a| a.chunk_count).sum();
    assert_eq!(probe.chunks.load(Ordering::Relaxed), total_chunks);
}
