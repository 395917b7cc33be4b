//! # vqoe-player
//!
//! Video streaming delivery simulation for the reproduction of *Measuring
//! Video QoE from Encrypted Traffic* (IMC 2016).
//!
//! The paper studies YouTube sessions delivered two ways (§2.1):
//!
//! * **Traditional HTTP streaming** — one quality for the whole video,
//!   fetched as ranged requests; a start-up burst fills the playout
//!   buffer, then the server *paces* ("ON-OFF cycles") the download at a
//!   modest multiple of the media bitrate.
//! * **HTTP Adaptive Streaming (DASH)** — short segments, each encoded at
//!   several qualities ("itags"); an ABR algorithm picks the next
//!   segment's quality from throughput estimates and buffer occupancy.
//!
//! This crate simulates both players end-to-end against the transport
//! substrate in `vqoe-simnet`, producing for every session:
//!
//! * a list of [`ChunkRecord`]s — one per HTTP transaction, exactly what
//!   the operator's proxy logs (timing, size, transport annotations), and
//! * the [`GroundTruth`] the paper reverse-engineers from cleartext URIs
//!   and instrumented devices: stall events, per-segment resolutions,
//!   representation switches, start-up delay, abandonment.
//!
//! The delivery *mechanics* the paper's detectors key on all emerge from
//! the state machines here rather than being painted on: the chunk-size
//! collapse after a buffer outage (Fig. 1) falls out of the urgent-refill
//! logic; the Δsize/Δt spike at a representation switch (Fig. 3) falls
//! out of ABR re-entering a start-up phase; the ON-OFF request cadence
//! falls out of the buffer high-watermark.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod abr;
pub mod buffer;
pub mod catalog;
pub mod dash;
pub mod profile;
pub mod progressive;
pub mod session;

pub use abr::{AbrKind, AbrState};
pub use buffer::{PlayerPhase, PlayoutBuffer, StallEvent};
pub use catalog::{Itag, VideoMeta, AUDIO_BITRATE_BPS, LADDER};
pub use profile::StreamingProfile;
pub use session::{
    rebuffering_ratio, simulate_session, ChunkRecord, ContentType, Delivery, GroundTruth,
    SessionConfig, SessionTrace, TransportSummary,
};
