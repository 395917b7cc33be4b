//! RTT-round-granularity TCP Reno flow model.
//!
//! The paper's features are *transport-layer annotations of chunk
//! downloads*: per-chunk RTT min/avg/max, bandwidth-delay product, bytes
//! in flight, loss and retransmission percentages (Table 1). To generate
//! them with realistic correlations — retransmissions spike with loss,
//! bytes-in-flight tracks the congestion window, throughput collapses in
//! degraded radio states and stalls follow — we simulate each chunk
//! download with a classic round-based Reno model:
//!
//! * one simulation step = one RTT "round" in which the sender emits a
//!   full congestion window;
//! * slow start doubles the window per round up to `ssthresh`, congestion
//!   avoidance adds one MSS per round;
//! * packet losses are Bernoulli draws from the channel's state-dependent
//!   loss rate; a partial loss triggers fast retransmit (window halving),
//!   loss of (nearly) the whole window forces a retransmission timeout
//!   with exponential backoff;
//! * the round duration is `max(RTT, window / capacity)`, which caps the
//!   achieved throughput at the channel capacity once the window exceeds
//!   the bandwidth-delay product, and models self-induced queueing delay
//!   beyond that point.
//!
//! Round granularity (rather than per-packet events) keeps generating the
//! paper-scale datasets — tens of thousands of sessions, dozens of chunks
//! each — in the order of seconds, while preserving every dynamic the
//! QoE detectors key on.
//!
//! The model is flow-level but *stateful across chunks*: video players
//! reuse connections, so the congestion window carries over between chunk
//! requests, with standard slow-start-restart after idle periods (this is
//! visible in real traces as the post-pause ramp-up the paper's Figure 1
//! shows after a stall).

use crate::channel::RadioChannel;
use crate::rng::standard_normal;
use crate::time::{Duration, Instant};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Tunables of the TCP model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TcpConfig {
    /// Maximum segment size in bytes.
    pub mss_bytes: u32,
    /// Initial congestion window in segments (RFC 6928 default).
    pub initial_cwnd: u32,
    /// Initial slow-start threshold in segments.
    pub initial_ssthresh: u32,
    /// Receiver-window clamp in segments.
    pub max_cwnd: u32,
    /// Lower bound on the retransmission timeout.
    pub min_rto: Duration,
    /// Idle gap after which the window collapses back to `initial_cwnd`
    /// (slow-start restart, RFC 2581 §4.1). Video pacing makes this fire
    /// constantly in the steady state.
    pub idle_threshold: Duration,
    /// Mean of the exponential server think-time added before the first
    /// byte of each response.
    pub server_delay_mean: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss_bytes: 1400,
            initial_cwnd: 10,
            initial_ssthresh: 64,
            max_cwnd: 512,
            min_rto: Duration::from_millis(600),
            idle_threshold: Duration::from_millis(800),
            server_delay_mean: Duration::from_millis(15),
        }
    }
}

/// Transport statistics of one chunk download — the raw material for the
/// weblog annotations of Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferStats {
    /// Bytes requested (== bytes delivered; TCP is reliable).
    pub bytes: u64,
    /// When the HTTP request was issued.
    pub start: Instant,
    /// When the last byte arrived.
    pub end: Instant,
    /// Per-round arrival curve: `(arrival time, bytes delivered in that
    /// round)`. Feeding this into the playout buffer is what lets stalls
    /// emerge mid-download rather than only at chunk boundaries.
    pub arrivals: Vec<(Instant, u64)>,
    /// Smallest RTT sample observed (seconds).
    pub rtt_min: f64,
    /// Mean RTT sample (seconds).
    pub rtt_mean: f64,
    /// Largest RTT sample observed (seconds).
    pub rtt_max: f64,
    /// Mean bytes-in-flight over rounds.
    pub bif_mean: f64,
    /// Peak bytes-in-flight.
    pub bif_max: f64,
    /// Data packets transmitted, including retransmissions.
    pub packets_sent: u64,
    /// Packets lost in flight.
    pub packets_lost: u64,
    /// Packets retransmitted (== lost, in this model: every loss is
    /// eventually repaired).
    pub packets_retx: u64,
    /// Mean bandwidth-delay product (bytes) over the transfer.
    pub bdp_mean: f64,
    /// Number of RTT rounds the transfer took.
    pub rounds: u32,
    /// Retransmission timeouts suffered.
    pub timeouts: u32,
}

impl TransferStats {
    /// Transfer duration.
    pub fn duration(&self) -> Duration {
        self.end.duration_since(self.start)
    }

    /// Mean goodput in bits per second (0 for instantaneous transfers).
    pub fn goodput_bps(&self) -> f64 {
        let secs = self.duration().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 * 8.0 / secs
    }

    /// Loss fraction over packets sent.
    pub fn loss_fraction(&self) -> f64 {
        if self.packets_sent == 0 {
            return 0.0;
        }
        self.packets_lost as f64 / self.packets_sent as f64
    }

    /// Retransmitted fraction over packets sent.
    pub fn retx_fraction(&self) -> f64 {
        if self.packets_sent == 0 {
            return 0.0;
        }
        self.packets_retx as f64 / self.packets_sent as f64
    }
}

/// A persistent TCP connection between the video player and a content
/// server.
#[derive(Debug, Clone)]
pub struct TcpConnection {
    config: TcpConfig,
    /// Congestion window, in segments.
    cwnd: u32,
    /// Slow-start threshold, in segments.
    ssthresh: u32,
    /// End of the last transfer, for idle detection.
    last_activity: Option<Instant>,
}

impl TcpConnection {
    /// Open a fresh connection.
    pub fn new(config: TcpConfig) -> Self {
        TcpConnection {
            cwnd: config.initial_cwnd,
            ssthresh: config.initial_ssthresh,
            config,
            last_activity: None,
        }
    }

    /// Current congestion window in segments (exposed for tests and the
    /// transfer engine's diagnostics).
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }

    /// Download `bytes` over `channel`, starting at `start`.
    ///
    /// `throttle_bps`, when set, caps the server's sending rate — this is
    /// how the transfer engine models the steady-state pacing of
    /// traditional HTTP video delivery (the server trickles data at
    /// ~1.25× the media bitrate).
    ///
    /// The channel is advanced as simulated time passes; the connection's
    /// congestion state persists into the next call.
    pub fn transfer(
        &mut self,
        channel: &mut RadioChannel,
        rng: &mut StdRng,
        start: Instant,
        bytes: u64,
        throttle_bps: Option<f64>,
    ) -> TransferStats {
        let mss = self.config.mss_bytes as u64;
        let mut now = start;
        channel.advance_to(now);

        // Slow-start restart after idle.
        if let Some(last) = self.last_activity {
            if now.duration_since(last) > self.config.idle_threshold {
                self.ssthresh = self.ssthresh.max(self.cwnd / 2).max(2);
                self.cwnd = self.config.initial_cwnd.min(self.cwnd);
            }
        }

        let mut stats = TransferStats {
            bytes,
            start,
            end: start,
            arrivals: Vec::new(),
            rtt_min: f64::INFINITY,
            rtt_mean: 0.0,
            rtt_max: 0.0,
            bif_mean: 0.0,
            bif_max: 0.0,
            packets_sent: 0,
            packets_lost: 0,
            packets_retx: 0,
            bdp_mean: 0.0,
            rounds: 0,
            timeouts: 0,
        };
        if bytes == 0 {
            stats.rtt_min = 0.0;
            self.last_activity = Some(now);
            return stats;
        }

        // Request upstream + server think time before the first byte.
        let u: f64 = rng.gen_range(1e-9..1.0);
        let think = self.config.server_delay_mean.mul_f64(-u.ln());
        now += channel.base_rtt() + think;
        channel.advance_to(now);

        let mut remaining = bytes;
        let mut rtt_sum = 0.0;
        let mut bif_sum = 0.0;
        let mut bdp_sum = 0.0;
        let mut backoff: u32 = 0;
        // Hard bound on rounds: even a 1-byte/round degenerate transfer
        // terminates. Generous enough for multi-MB chunks through outages.
        const MAX_ROUNDS: u32 = 200_000;

        while remaining > 0 && stats.rounds < MAX_ROUNDS {
            channel.advance_to(now);
            let capacity = match throttle_bps {
                Some(t) => channel.capacity_bps().min(t.max(1_000.0)),
                None => channel.capacity_bps(),
            }
            .max(1_000.0);
            let loss_p = channel.loss_rate();
            let base_rtt = channel.base_rtt();
            let jitter = channel.sample_rtt_jitter();

            let window_pkts = self.cwnd.max(1) as u64;
            let pkts_needed = remaining.div_ceil(mss);
            let pkts = window_pkts.min(pkts_needed).max(1);
            let window_bytes = (pkts * mss).min(remaining.max(mss));

            // Queueing delay from overdriving the pipe: the part of the
            // window beyond the BDP sits in the bottleneck buffer.
            let bdp_bytes = capacity * base_rtt.as_secs_f64() / 8.0;
            let excess = (window_bytes as f64 - bdp_bytes).max(0.0);
            let queue_delay = Duration::from_secs_f64(excess * 8.0 / capacity * 0.5);

            let rtt_sample =
                base_rtt.as_secs_f64() + jitter.as_secs_f64() + queue_delay.as_secs_f64();
            let serialization = Duration::from_secs_f64(window_bytes as f64 * 8.0 / capacity);
            let round_time = if serialization.as_secs_f64() > rtt_sample {
                serialization
            } else {
                Duration::from_secs_f64(rtt_sample)
            };

            // Two loss processes. (1) Residual random loss from the
            // channel (small: link-layer retransmission hides most radio
            // loss from TCP). (2) Drop-tail overflow at the bottleneck:
            // once the window overruns the pipe plus the buffer, the
            // excess is dropped — the classic self-induced congestion
            // loss every ramping TCP flow suffers, in good radio and
            // bad alike.
            let queue_capacity = bdp_bytes * 1.5 + 64_000.0;
            let overflow = (window_bytes as f64 - queue_capacity).max(0.0);
            let p_overflow = 0.5 * overflow / window_bytes as f64;
            let p_total = (loss_p + p_overflow).clamp(0.0, 0.999);
            let mut lost: u64 = 0;
            for _ in 0..pkts {
                if rng.gen_bool(p_total) {
                    lost += 1;
                }
            }

            stats.packets_sent += pkts;
            stats.rounds += 1;
            rtt_sum += rtt_sample;
            stats.rtt_min = stats.rtt_min.min(rtt_sample);
            stats.rtt_max = stats.rtt_max.max(rtt_sample);
            bif_sum += window_bytes as f64;
            stats.bif_max = stats.bif_max.max(window_bytes as f64);
            bdp_sum += channel.bdp_bytes();

            if lost == 0 {
                backoff = 0;
                let delivered = window_bytes.min(remaining);
                remaining -= delivered;
                now += round_time;
                stats.arrivals.push((now, delivered));
                // Window growth.
                if self.cwnd < self.ssthresh {
                    self.cwnd = (self.cwnd * 2).min(self.ssthresh).min(self.config.max_cwnd);
                } else {
                    self.cwnd = (self.cwnd + 1).min(self.config.max_cwnd);
                }
            } else {
                stats.packets_lost += lost;
                stats.packets_retx += lost;
                let survived = pkts - lost;
                // Enough surviving packets to generate dup-acks?
                if survived >= 3 {
                    // Fast retransmit / fast recovery.
                    let delivered = (survived * mss).min(remaining);
                    remaining -= delivered;
                    now += round_time;
                    if delivered > 0 {
                        stats.arrivals.push((now, delivered));
                    }
                    self.ssthresh = (self.cwnd / 2).max(2);
                    self.cwnd = self.ssthresh;
                    backoff = 0;
                } else {
                    // Whole-window (or near-whole) loss: RTO.
                    stats.timeouts += 1;
                    let delivered = (survived * mss).min(remaining);
                    remaining -= delivered;
                    if delivered > 0 {
                        stats.arrivals.push((now + round_time, delivered));
                    }
                    let srtt = Duration::from_secs_f64(rtt_sample);
                    let rto_base = if self.config.min_rto.as_secs_f64() > 2.0 * srtt.as_secs_f64() {
                        self.config.min_rto
                    } else {
                        srtt.mul_f64(2.0)
                    };
                    let rto = rto_base.mul_f64((1u64 << backoff.min(6)) as f64);
                    backoff = (backoff + 1).min(6);
                    now += round_time + rto;
                    self.ssthresh = (self.cwnd / 2).max(2);
                    self.cwnd = 1;
                }
            }
        }

        stats.end = now;
        if stats.rounds > 0 {
            stats.rtt_mean = rtt_sum / stats.rounds as f64;
            stats.bif_mean = bif_sum / stats.rounds as f64;
            stats.bdp_mean = bdp_sum / stats.rounds as f64;
        }
        if !stats.rtt_min.is_finite() {
            stats.rtt_min = 0.0;
        }

        // Proxy-side estimation noise. The transport annotations a
        // mid-path proxy logs are *estimates* — RTT inferred from
        // seq/ack timing, BDP and bytes-in-flight reconstructed from
        // partial state — while object sizes and arrival timestamps are
        // exact. Reproducing that asymmetry matters: with oracle-grade
        // transport stats the stall classifier would lean on them
        // instead of the chunk-size dynamics the paper found dominant
        // (§4.1, Table 2). One lognormal factor per quantity family
        // keeps each family internally consistent (min ≤ mean ≤ max).
        let mut measure = |sigma: f64| (standard_normal(rng) * sigma).exp();
        let rtt_factor = measure(0.30);
        stats.rtt_min *= rtt_factor;
        stats.rtt_mean *= rtt_factor;
        stats.rtt_max *= rtt_factor;
        let bif_factor = measure(0.30);
        stats.bif_mean *= bif_factor;
        stats.bif_max *= bif_factor;
        stats.bdp_mean *= measure(0.35);

        self.last_activity = Some(now);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Scenario;
    use crate::rng::SeedSequence;

    fn setup(scenario: Scenario, idx: u64) -> (RadioChannel, StdRng, TcpConnection) {
        let seeds = SeedSequence::new(777);
        let channel = RadioChannel::new(scenario, &seeds, idx);
        let rng = seeds.child(1).stream(idx);
        let conn = TcpConnection::new(TcpConfig::default());
        (channel, rng, conn)
    }

    #[test]
    fn transfer_delivers_all_bytes() {
        let (mut ch, mut rng, mut conn) = setup(Scenario::StaticHome, 0);
        let stats = conn.transfer(&mut ch, &mut rng, Instant::ZERO, 500_000, None);
        let delivered: u64 = stats.arrivals.iter().map(|&(_, b)| b).sum();
        assert_eq!(delivered, 500_000);
        assert!(stats.end > stats.start);
        assert!(stats.rounds > 0);
    }

    #[test]
    fn zero_byte_transfer_is_instant() {
        let (mut ch, mut rng, mut conn) = setup(Scenario::StaticHome, 0);
        let stats = conn.transfer(&mut ch, &mut rng, Instant::from_secs(5), 0, None);
        assert_eq!(stats.end, stats.start);
        assert!(stats.arrivals.is_empty());
        assert_eq!(stats.packets_sent, 0);
    }

    #[test]
    fn arrivals_are_time_ordered_and_complete() {
        let (mut ch, mut rng, mut conn) = setup(Scenario::Commuting, 3);
        let stats = conn.transfer(&mut ch, &mut rng, Instant::ZERO, 2_000_000, None);
        let mut prev = Instant::ZERO;
        for &(t, b) in &stats.arrivals {
            assert!(t >= prev, "arrivals out of order");
            assert!(b > 0);
            prev = t;
        }
        let total: u64 = stats.arrivals.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 2_000_000);
        assert!(stats.end >= prev);
    }

    #[test]
    fn goodput_respects_channel_capacity() {
        let (mut ch, mut rng, mut conn) = setup(Scenario::StaticHome, 1);
        // Warm up the window so we measure steady state.
        let _ = conn.transfer(&mut ch, &mut rng, Instant::ZERO, 1_000_000, None);
        let stats = conn.transfer(&mut ch, &mut rng, Instant::from_secs(2), 4_000_000, None);
        // Even in the best state capacity is ~25 Mbps with 20% lognormal
        // spread; goodput must not exceed a generous multiple of that.
        assert!(
            stats.goodput_bps() < 80e6,
            "goodput {} bps",
            stats.goodput_bps()
        );
        assert!(stats.goodput_bps() > 0.5e6);
    }

    #[test]
    fn throttle_caps_goodput() {
        let (mut ch, mut rng, mut conn) = setup(Scenario::StaticHome, 2);
        let _ = conn.transfer(&mut ch, &mut rng, Instant::ZERO, 500_000, None);
        let throttled = conn.transfer(
            &mut ch,
            &mut rng,
            Instant::from_secs(2),
            1_000_000,
            Some(1.0e6),
        );
        // Rate cap 1 Mbps ⇒ ≥ 8 seconds for 1 MB.
        assert!(
            throttled.duration().as_secs_f64() > 7.0,
            "took {}",
            throttled.duration()
        );
    }

    #[test]
    fn lossy_scenarios_produce_retransmissions() {
        let seeds = SeedSequence::new(5);
        let mut total_retx = 0u64;
        for idx in 0..20 {
            let mut ch = RadioChannel::new(Scenario::Commuting, &seeds, idx);
            let mut rng = seeds.child(2).stream(idx);
            let mut conn = TcpConnection::new(TcpConfig::default());
            let stats = conn.transfer(&mut ch, &mut rng, Instant::ZERO, 3_000_000, None);
            total_retx += stats.packets_retx;
            assert_eq!(stats.packets_retx, stats.packets_lost);
        }
        assert!(total_retx > 0, "commuting scenario should lose packets");
    }

    #[test]
    fn degraded_channel_is_slower() {
        let seeds = SeedSequence::new(31);
        let mut durations = Vec::new();
        for scenario in [Scenario::StaticHome, Scenario::Commuting] {
            let mut sum = 0.0;
            for idx in 0..30 {
                let mut ch = RadioChannel::new(scenario, &seeds, idx);
                let mut rng = seeds.child(3).stream(idx);
                let mut conn = TcpConnection::new(TcpConfig::default());
                let stats = conn.transfer(&mut ch, &mut rng, Instant::ZERO, 1_000_000, None);
                sum += stats.duration().as_secs_f64();
            }
            durations.push(sum / 30.0);
        }
        assert!(
            durations[1] > durations[0] * 1.5,
            "home {} vs commute {}",
            durations[0],
            durations[1]
        );
    }

    #[test]
    fn window_persists_across_chunks_and_restarts_after_idle() {
        let (mut ch, mut rng, mut conn) = setup(Scenario::StaticHome, 7);
        let _ = conn.transfer(&mut ch, &mut rng, Instant::ZERO, 2_000_000, None);
        let grown = conn.cwnd();
        assert!(grown > TcpConfig::default().initial_cwnd);
        // Immediately-following chunk keeps the window.
        let s1 = conn.transfer(
            &mut ch,
            &mut rng,
            Instant::from_millis(2_100),
            100_000,
            None,
        );
        assert!(conn.cwnd() >= grown.min(TcpConfig::default().max_cwnd) / 2);
        // A long idle collapses it back to the initial window.
        let idle_start = s1.end + Duration::from_secs(30);
        let _ = conn.transfer(&mut ch, &mut rng, idle_start, 100_000, None);
        // After restart the window re-grows from initial; it cannot still
        // be at the fully-grown steady-state value right at transfer start.
        // (We can't observe mid-transfer cwnd; assert via the stats: the
        // first round's bytes-in-flight is bounded by initial_cwnd * mss.)
        let (mut ch2, mut rng2, mut conn2) = setup(Scenario::StaticHome, 8);
        let a = conn2.transfer(&mut ch2, &mut rng2, Instant::ZERO, 2_000_000, None);
        let _ = a;
        let b = conn2.transfer(
            &mut ch2,
            &mut rng2,
            Instant::from_secs(100),
            2_000_000,
            None,
        );
        let first_round_bif = b.arrivals.first().map(|&(_, bytes)| bytes).unwrap_or(0);
        assert!(
            first_round_bif <= (TcpConfig::default().initial_cwnd as u64 + 1) * 1400,
            "first round after idle carried {first_round_bif} bytes"
        );
    }

    #[test]
    fn rtt_stats_are_consistent() {
        let (mut ch, mut rng, mut conn) = setup(Scenario::CongestedCell, 4);
        let stats = conn.transfer(&mut ch, &mut rng, Instant::ZERO, 800_000, None);
        assert!(stats.rtt_min <= stats.rtt_mean);
        assert!(stats.rtt_mean <= stats.rtt_max);
        assert!(stats.rtt_min > 0.0);
        // Congested cell has ≥ 80 ms base RTT (45ms excellent × 1.8).
        assert!(stats.rtt_min >= 0.075, "rtt_min = {}", stats.rtt_min);
    }

    #[test]
    fn fraction_helpers_are_bounded() {
        let (mut ch, mut rng, mut conn) = setup(Scenario::Commuting, 9);
        let stats = conn.transfer(&mut ch, &mut rng, Instant::ZERO, 1_500_000, None);
        assert!((0.0..=1.0).contains(&stats.loss_fraction()));
        assert!((0.0..=1.0).contains(&stats.retx_fraction()));
        assert!(stats.bif_mean <= stats.bif_max);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let (mut ch, mut rng, mut conn) = setup(Scenario::Commuting, 11);
            conn.transfer(&mut ch, &mut rng, Instant::ZERO, 1_234_567, None)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}
