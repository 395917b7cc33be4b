//! The network-visible view of a session.
//!
//! [`SessionObs`] carries exactly the information an operator can
//! extract for an **encrypted** session (Table 1, left column): per
//! chunk, the request/arrival times, the object size and the transport
//! annotations. Nothing else — no itags, no URIs, no stall reports. The
//! detectors consume only this type, so they are structurally incapable
//! of peeking at ground truth.

use crate::layout::ChunkStep;
use serde::{Deserialize, Serialize};
use vqoe_player::{ChunkRecord, SessionTrace};
use vqoe_telemetry::{ReassembledSession, WeblogEntry};

/// One chunk download as the proxy sees it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChunkObs {
    /// Request timestamp, seconds (absolute trace time).
    pub request_secs: f64,
    /// Last-byte arrival timestamp, seconds — the paper's "chunk time".
    pub arrival_secs: f64,
    /// Object size, bytes — the paper's "chunk size".
    pub bytes: f64,
    /// Minimum RTT during the download (seconds).
    pub rtt_min: f64,
    /// Average RTT (seconds).
    pub rtt_mean: f64,
    /// Maximum RTT (seconds).
    pub rtt_max: f64,
    /// Bandwidth-delay product (bytes).
    pub bdp: f64,
    /// Average bytes in flight.
    pub bif_mean: f64,
    /// Maximum bytes in flight.
    pub bif_max: f64,
    /// Packet-loss fraction.
    pub loss: f64,
    /// Packet-retransmission fraction.
    pub retx: f64,
}

impl From<&ChunkRecord> for ChunkObs {
    fn from(c: &ChunkRecord) -> Self {
        ChunkObs {
            request_secs: c.request_time.as_secs_f64(),
            arrival_secs: c.arrival_time.as_secs_f64(),
            bytes: c.bytes as f64,
            rtt_min: c.transport.rtt_min,
            rtt_mean: c.transport.rtt_mean,
            rtt_max: c.transport.rtt_max,
            bdp: c.transport.bdp_mean,
            bif_mean: c.transport.bif_mean,
            bif_max: c.transport.bif_max,
            loss: c.transport.loss_frac,
            retx: c.transport.retx_frac,
        }
    }
}

impl From<&WeblogEntry> for ChunkObs {
    fn from(e: &WeblogEntry) -> Self {
        ChunkObs {
            request_secs: e.timestamp.as_secs_f64(),
            arrival_secs: e.arrival_time().as_secs_f64(),
            bytes: e.bytes as f64,
            rtt_min: e.transport.rtt_min,
            rtt_mean: e.transport.rtt_mean,
            rtt_max: e.transport.rtt_max,
            bdp: e.transport.bdp_mean,
            bif_mean: e.transport.bif_mean,
            bif_max: e.transport.bif_max,
            loss: e.transport.loss_frac,
            retx: e.transport.retx_frac,
        }
    }
}

/// A session as a time-ordered chunk sequence.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SessionObs {
    /// Chunk observations, ordered by request time.
    pub chunks: Vec<ChunkObs>,
}

impl SessionObs {
    /// Build from a simulated trace (every chunk, video and audio — the
    /// encrypted view cannot tell them apart, so neither do we).
    pub fn from_trace(trace: &SessionTrace) -> Self {
        SessionObs {
            chunks: trace.chunks.iter().map(ChunkObs::from).collect(),
        }
    }

    /// Build from a reassembled encrypted session.
    pub fn from_reassembled(session: &ReassembledSession) -> Self {
        SessionObs {
            chunks: session.chunks.iter().map(ChunkObs::from).collect(),
        }
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when the session has no chunks.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Chunk points `(arrival_secs, bytes)` — the input shape of the
    /// `vqoe-changedet` switch detector.
    pub fn chunk_points(&self) -> Vec<(f64, f64)> {
        self.chunks
            .iter()
            .map(|c| (c.arrival_secs, c.bytes))
            .collect()
    }

    /// Inter-arrival times Δt between consecutive chunks (seconds),
    /// length `len() - 1`.
    pub fn inter_arrivals(&self) -> Vec<f64> {
        self.chunks
            .windows(2)
            .map(|w| (w[1].arrival_secs - w[0].arrival_secs).max(0.0))
            .collect()
    }

    /// The first `n` feature series (in [`SERIES`] order) as columns:
    /// every sample the per-chunk [`ChunkStep`] yields.
    ///
    /// [`SERIES`]: crate::layout::SERIES
    pub(crate) fn series(&self, n: usize) -> Vec<Vec<f64>> {
        let mut cols: Vec<Vec<f64>> = (0..n).map(|_| Vec::with_capacity(self.len())).collect();
        let mut step = ChunkStep::default();
        for c in &self.chunks {
            for (col, x) in cols.iter_mut().zip(step.next(c)) {
                col.extend(x);
            }
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn chunk(req: f64, arr: f64, bytes: f64) -> ChunkObs {
        ChunkObs {
            request_secs: req,
            arrival_secs: arr,
            bytes,
            rtt_min: 0.05,
            rtt_mean: 0.06,
            rtt_max: 0.09,
            bdp: 80_000.0,
            bif_mean: 30_000.0,
            bif_max: 60_000.0,
            loss: 0.0,
            retx: 0.0,
        }
    }

    fn obs() -> SessionObs {
        SessionObs {
            chunks: vec![
                chunk(0.0, 1.0, 100_000.0),
                chunk(1.2, 2.0, 120_000.0),
                chunk(2.5, 4.0, 90_000.0),
            ],
        }
    }

    #[test]
    fn derived_series_shapes() {
        let o = obs();
        let s = o.series(14);
        assert_eq!(o.len(), 3);
        // Δt (12) and Δsize (11) start at the second chunk; the running
        // average size (10) and cumsum throughput (13) at the first.
        assert_eq!(s[12].len(), 2);
        assert_eq!(s[11].len(), 2);
        assert_eq!(s[10].len(), 3);
        assert_eq!(s[13].len(), 3);
    }

    #[test]
    fn inter_arrivals_and_deltas_are_correct() {
        let o = obs();
        let s = o.series(14);
        assert_eq!(o.inter_arrivals(), vec![1.0, 2.0]);
        assert_eq!(s[12], o.inter_arrivals());
        assert_eq!(s[11], vec![20_000.0, 30_000.0]);
    }

    #[test]
    fn throughput_handles_zero_duration() {
        let o = SessionObs {
            chunks: vec![chunk(1.0, 1.0, 500.0)],
        };
        // The cumulative-sum throughput of one zero-duration chunk.
        assert_eq!(o.series(14)[13], vec![0.0]);
    }

    #[test]
    fn running_avg_is_prefix_mean() {
        let o = obs();
        let avg = &o.series(14)[10];
        assert_eq!(avg[0], 100_000.0);
        assert_eq!(avg[1], 110_000.0);
        assert!((avg[2] - 103_333.333).abs() < 0.001);
    }

    #[test]
    fn cumsum_is_monotone() {
        let o = obs();
        let cs = &o.series(14)[13];
        for w in cs.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn empty_session_degenerates() {
        let o = SessionObs::default();
        assert!(o.is_empty());
        assert!(o.inter_arrivals().is_empty());
        assert!(o.chunk_points().is_empty());
        assert!(o.series(14).iter().all(Vec::is_empty));
    }
}
