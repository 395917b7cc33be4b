//! # vqoe-telemetry
//!
//! The measurement plane of the reproduction: everything between the
//! simulated video players and the feature pipeline.
//!
//! The paper's vantage point is "a web proxy that is deployed on the
//! cellular network of a large European provider" (§3.1), which registers
//! every HTTP transaction with transport-layer annotations. For encrypted
//! traffic the same proxy sees only timings, sizes and TCP statistics —
//! no URIs (§5.2). This crate models both views:
//!
//! * [`weblog`] — the proxy's record type ([`weblog::WeblogEntry`]) and
//!   entry kinds (page loads, media chunks, playback stat reports).
//! * [`uri`] — a YouTube-shaped URI codec: `videoplayback` chunk URIs
//!   carrying `id` (session), `itag` (representation), `mime`, `clen`
//!   (content length) and `dur`; and the periodic playback statistics
//!   reports whose flags the paper mines for stall ground truth (§3.2).
//! * [`capture`] — renders a simulated [`SessionTrace`] into the weblog
//!   stream the proxy would record, in cleartext or encrypted form
//!   (encryption strips the URI but keeps host, timing, size and TCP
//!   annotations).
//! * [`reassembly`] — the §5.2 procedure for encrypted traffic: filter to
//!   service-related domains, find the page-fetch markers that bracket a
//!   session, split on idle gaps, and group chunk transactions into
//!   reassembled sessions.
//! * [`chaos`] — a deterministic fault injector ([`chaos::ChaosTap`])
//!   that degrades a weblog stream the way a hostile operator tap does:
//!   reordering, duplication, drops, timestamp skew, field corruption,
//!   subscriber-ID collisions and mid-session cuts, all from one seed.
//! * [`ingest`] — the graceful-degradation layer: a hardened
//!   [`ingest::RobustReassembler`] that re-sorts bounded reordering,
//!   suppresses duplicates and quarantines malformed entries into a
//!   typed [`ingest::AnomalyLog`], reporting [`ingest::StreamHealth`]
//!   counters throughout.
//! * [`groundtruth`] — the §3.2 reverse-engineering step: parse the
//!   cleartext URIs back into per-session ground truth (session IDs,
//!   itag sequences, stall totals from playback reports).
//! * [`dataset`] — joins reassembled sessions back to ground truth (by
//!   time overlap and chunk counts, as the paper joins its instrumented-
//!   handset logs to proxy records) and persists datasets as JSONL.
//! * [`binlog`] — the compact length-prefixed binary weblog format
//!   ([`binlog::BinaryCorpus`]): versioned header, zero-copy record
//!   iteration, typed decode errors. The replay hot path skips serde
//!   entirely; JSONL stays the archival interchange format.
//!
//! [`SessionTrace`]: vqoe_player::SessionTrace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binlog;
pub mod capture;
pub mod chaos;
pub mod dataset;
pub mod error;
pub mod groundtruth;
pub mod ingest;
pub mod reassembly;
pub mod uri;
pub mod weblog;

pub use binlog::{BinaryCorpus, BinlogError, RecordRef, BINLOG_MAGIC, BINLOG_VERSION};
pub use capture::{capture_session, CaptureConfig};
pub use chaos::{
    apply_chaos, generate_pathological_session, generate_subscriber_flood, merge_streams,
    ChaosConfig, ChaosProfile, ChaosStats, ChaosTap, FloodSpec,
};
pub use dataset::{
    join_sessions, match_sessions, read_jsonl, write_jsonl, JoinedSession, SessionSpan,
};
pub use error::TelemetryError;
pub use groundtruth::{extract_sessions, ExtractedChunk, ExtractedSession};
pub use ingest::{
    robust_reassemble_subscriber, validate_entry, AnomalyKind, AnomalyKindCounts, AnomalyLog,
    IngestAnomaly, IngestConfig, ReassemblerState, RobustReassembler, StreamHealth,
};
pub use reassembly::{
    reassemble_subscriber, ReassembledSession, ReassemblyConfig, SpillSink, StreamReassembler,
    StreamReassemblerState, EXACT_ENTRY_CAP, SPILL_STATE_COST_BYTES,
};
pub use uri::{PlaybackReport, VideoPlaybackParams};
pub use weblog::{EntryKind, WeblogEntry, RECORD_OVERHEAD_BYTES};
