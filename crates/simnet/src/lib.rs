//! # vqoe-simnet
//!
//! Deterministic network simulation substrate for the reproduction of
//! *Measuring Video QoE from Encrypted Traffic* (IMC 2016).
//!
//! The paper's data comes from a web proxy inside a production mobile
//! network: every HTTP transaction (one video/audio chunk download) is
//! annotated with transport-layer performance metrics — RTT, bandwidth-
//! delay product, bytes in flight, packet loss and retransmissions. That
//! vantage point is proprietary, so this crate rebuilds the mechanism that
//! *generates* those annotations:
//!
//! * [`channel`] — a Markov-modulated radio channel with scenario presets
//!   (static home/office, commuting, congested cell) reproducing the
//!   paper's contrast between the stable conditions of the cleartext
//!   dataset and the volatile, on-the-move conditions of the encrypted
//!   evaluation set (§5.2, §5.4).
//! * [`tcp`] — an RTT-round-granularity TCP Reno flow model (slow start,
//!   congestion avoidance, fast retransmit, retransmission timeouts) that
//!   turns "download N bytes starting at time t over this channel" into a
//!   byte-arrival curve plus the transport statistics of Table 1.
//! * [`transfer`] — the chunk-transfer engine gluing the two together,
//!   including the server-side rate throttle (pacing) that traditional
//!   HTTP video delivery applies during the steady state.
//!
//! Everything is deterministic under a seed: the same
//! ([`rng::SeedSequence`], scenario, workload) triple reproduces the same
//! dataset bit-for-bit, which is what makes the experiment harness in
//! `vqoe-bench` reproducible.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod channel;
pub mod rng;
pub mod tcp;
pub mod time;
pub mod transfer;

pub use channel::{ChannelParams, RadioChannel, RadioState, Scenario};
pub use rng::SeedSequence;
pub use tcp::{TcpConfig, TcpConnection, TransferStats};
pub use time::{Duration, Instant};
pub use transfer::{ChunkTransfer, TransferEngine};
