//! Chunk-transfer engine: one device's end-to-end download path.
//!
//! Bundles the radio channel, a persistent TCP connection and the
//! per-session RNG into the one object the video players in `vqoe-player`
//! interact with: *"fetch N bytes starting at time t (optionally paced at
//! rate r) and tell me when the bytes arrived and what the transport saw"*.

use crate::channel::{RadioChannel, Scenario};
use crate::rng::{standard_normal, SeedSequence};
use crate::tcp::{TcpConnection, TransferStats};
use crate::time::{Duration, Instant};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// The result of downloading one chunk, as the player and the weblog
/// pipeline consume it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkTransfer {
    /// Transport-level statistics (Table 1 raw material).
    pub stats: TransferStats,
    /// Radio state when the request was issued (diagnostic only; the
    /// detectors never see this — it is not observable from traffic).
    pub radio_state: crate::channel::RadioState,
}

/// One device's download path: channel + connection + randomness.
#[derive(Debug, Clone)]
pub struct TransferEngine {
    channel: RadioChannel,
    connection: TcpConnection,
    rng: StdRng,
    /// One-off DNS/CDN-redirect latency consumed by the first fetch.
    /// Real sessions land on different edge caches with very different
    /// first-byte latencies; without this, the first chunk's arrival
    /// time would be a clean throughput oracle the paper's proxy never
    /// had.
    first_fetch_extra: Duration,
    /// Per-session systematic estimation bias of the proxy's passive
    /// transport annotations. Per-chunk noise averages out over a
    /// session's many chunks, but a mid-path estimator is *consistently*
    /// off for a given path (route asymmetry, middleboxes, radio
    /// scheduler granularity) — which is why the paper's session-level
    /// BDP statistics carry only 0.18 bits of gain (Table 2) despite
    /// BDP being nominally a throughput oracle.
    bias_rtt: f64,
    /// Systematic BDP estimation bias (lognormal, per session).
    bias_bdp: f64,
    /// Systematic bytes-in-flight estimation bias (lognormal).
    bias_bif: f64,
}

impl TransferEngine {
    /// Build an engine for `scenario`, deterministically derived from
    /// `seeds` and `session_index`. Per-session server characteristics
    /// (think time, first-contact redirect latency) are sampled here.
    pub fn new(scenario: Scenario, seeds: &SeedSequence, session_index: u64) -> Self {
        let mut rng = seeds.child(0x7C9).stream(session_index);
        // Edge caches differ: per-session mean server think time.
        use rand::Rng;
        let server_delay_mean = Duration::from_millis(rng.gen_range(8..80));
        let first_fetch_extra = Duration::from_millis(rng.gen_range(20..600));
        let mut lognormal = |sigma: f64| (standard_normal(&mut rng) * sigma).exp();
        let bias_rtt = lognormal(0.25);
        let bias_bdp = lognormal(0.45);
        let bias_bif = lognormal(0.35);
        TransferEngine {
            channel: RadioChannel::new(scenario, seeds, session_index),
            connection: TcpConnection::new(server_delay_mean),
            rng,
            first_fetch_extra,
            bias_rtt,
            bias_bdp,
            bias_bif,
        }
    }

    /// Download `bytes` starting at `start`. `throttle_bps` caps the
    /// server sending rate (steady-state pacing); `None` downloads at
    /// full speed (start-up burst / urgent refill).
    pub fn fetch(
        &mut self,
        start: Instant,
        bytes: u64,
        throttle_bps: Option<f64>,
    ) -> ChunkTransfer {
        let start = start + std::mem::take(&mut self.first_fetch_extra);
        self.channel.advance_to(start);
        let radio_state = self.channel.state();
        let mut stats =
            self.connection
                .transfer(&mut self.channel, &mut self.rng, start, bytes, throttle_bps);
        // Apply the session's systematic estimation bias to the proxy's
        // transport annotations (see field docs). Sizes and timings are
        // exact; only the inferred quantities are biased.
        stats.rtt_min *= self.bias_rtt;
        stats.rtt_mean *= self.bias_rtt;
        stats.rtt_max *= self.bias_rtt;
        stats.bdp_mean *= self.bias_bdp;
        stats.bif_mean *= self.bias_bif;
        stats.bif_max *= self.bias_bif;
        ChunkTransfer { stats, radio_state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn sequential_fetches_advance_time() {
        let seeds = SeedSequence::new(9);
        let mut eng = TransferEngine::new(Scenario::StaticHome, &seeds, 0);
        let a = eng.fetch(Instant::ZERO, 300_000, None);
        let b = eng.fetch(a.stats.end + Duration::from_millis(50), 300_000, None);
        assert!(b.stats.start > a.stats.end);
        assert!(b.stats.end > b.stats.start);
    }

    #[test]
    fn engine_is_deterministic() {
        let seeds = SeedSequence::new(10);
        let run = || {
            let mut eng = TransferEngine::new(Scenario::Commuting, &seeds, 42);
            let a = eng.fetch(Instant::ZERO, 500_000, None);
            let b = eng.fetch(a.stats.end, 500_000, Some(2e6));
            (a, b)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn distinct_sessions_are_independent() {
        let seeds = SeedSequence::new(11);
        let mut e0 = TransferEngine::new(Scenario::Commuting, &seeds, 0);
        let mut e1 = TransferEngine::new(Scenario::Commuting, &seeds, 1);
        let a = e0.fetch(Instant::ZERO, 500_000, None);
        let b = e1.fetch(Instant::ZERO, 500_000, None);
        assert_ne!(a, b);
    }
}
