//! Incremental per-session feature state for the streaming assessment
//! path (ISSUE 10).
//!
//! The batch builders ([`crate::stall_features`],
//! [`crate::representation_features`]) buffer every chunk of a session
//! and summarize at the end — O(n) memory per open session, which is
//! what caps the online assessor far below the paper's million-
//! subscriber vantage point. [`StreamingSessionState`] folds each chunk
//! observation in as it arrives and holds only:
//!
//! * one [`OnlineMoments`] + [`QuantileSketch`] pair per series
//!   ([`SeriesState`]) — exact min/max/mean/std, approximate
//!   percentiles — for each of the 14 §4.2 series (the first 10 double
//!   as the §4.1 series);
//! * the O(1) recurrence state of the per-chunk step the batch builders
//!   also run (previous chunk's arrival and size, running byte and
//!   throughput sums).
//!
//! The emitted vectors ([`stall_features_approx`],
//! [`representation_features_approx`]) go through the batch builders'
//! statistic orders and missing-value policy: 70 and 210 features,
//! all-zero for a chunkless session, [`MISSING_STAT`] across a block
//! whose series is non-empty but has no finite sample. Min and max
//! match the batch values f64-for-f64 on any input; mean and std agree
//! to Welford-vs-two-pass rounding (last ulps); percentiles are the
//! sketch's approximation. That is why sessions assessed from this
//! state are surfaced as `Fidelity::Sketched` (DESIGN.md §15).
//!
//! Everything is deterministic and serde round-trips byte-exactly, so
//! the state rides inside online checkpoints.
//!
//! [`stall_features_approx`]: StreamingSessionState::stall_features_approx
//! [`representation_features_approx`]: StreamingSessionState::representation_features_approx

use crate::layout::{self, ChunkStep, Moments, Stat, REP_ORDER, SERIES, STALL_ORDER};
use crate::obs::ChunkObs;
use crate::MISSING_STAT;
use serde::{DeError, Deserialize, Serialize, Value};
use vqoe_stats::{OnlineMoments, QuantileSketch};

/// Streaming summary of one metric series: exact moments, approximate
/// quantiles, and the sample count that distinguishes "no data" from
/// "all data non-finite".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesState {
    /// Exact running min/max/mean/std over the finite samples.
    pub moments: OnlineMoments,
    /// Deterministic quantile sketch over the finite samples.
    pub sketch: QuantileSketch,
    /// Samples folded in, finite or not. `samples > 0` with
    /// `moments.count() == 0` is the [`MISSING_STAT`] regime.
    pub samples: u64,
}

impl Default for SeriesState {
    fn default() -> Self {
        SeriesState {
            moments: OnlineMoments::new(),
            sketch: QuantileSketch::new(),
            samples: 0,
        }
    }
}

impl SeriesState {
    /// Fold in one sample (non-finite samples count toward `samples`
    /// but not the statistics, as in the exact builders).
    pub fn push(&mut self, x: f64) {
        self.samples += 1;
        self.moments.push(x);
        self.sketch.push(x);
    }

    /// Append this series' block of `order` statistics: exact moments,
    /// sketched percentiles.
    fn push_block(&self, out: &mut Vec<f64>, order: &[(&str, Stat)]) {
        let m = &self.moments;
        let moments = match (m.try_min(), m.try_max(), m.try_mean()) {
            (Some(min), Some(max), Some(mean)) => Some(Moments {
                min,
                max,
                mean,
                std: m.std_dev(),
            }),
            _ => None,
        };
        layout::push_block(out, order, self.samples, moments, |p| {
            self.sketch.try_quantile(p).unwrap_or(MISSING_STAT)
        });
    }
}

/// Bounded-memory feature state of one in-flight session (module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamingSessionState {
    /// One state per series, in [`SERIES`] order.
    series: [SeriesState; 14],
    /// Recurrence state of the constructed series.
    step: ChunkStep,
}

// Hand-written so the state keeps the flat shape checkpoints store:
// `chunks`, each series under its `SERIES` key, then the recurrence
// fields.
impl Serialize for StreamingSessionState {
    fn to_value(&self) -> Value {
        let step = &self.step;
        let mut map = vec![("chunks".to_string(), step.chunks.to_value())];
        map.extend(
            SERIES
                .iter()
                .zip(&self.series)
                .map(|(&(_, key), s)| (key.to_string(), s.to_value())),
        );
        map.extend([
            ("bytes_sum".to_string(), step.bytes_sum.to_value()),
            ("throughput_sum".to_string(), step.throughput_sum.to_value()),
            ("prev_arrival".to_string(), step.prev_arrival.to_value()),
            ("prev_bytes".to_string(), step.prev_bytes.to_value()),
        ]);
        Value::Map(map)
    }
}

impl Deserialize for StreamingSessionState {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, DeError> {
            let v = value
                .get(name)
                .ok_or_else(|| DeError::missing_field("StreamingSessionState", name))?;
            T::from_value(v)
        }
        let chunks = field(value, "chunks")?;
        let mut series: [SeriesState; 14] = Default::default();
        for (s, &(_, key)) in series.iter_mut().zip(&SERIES) {
            *s = field(value, key)?;
        }
        Ok(StreamingSessionState {
            series,
            step: ChunkStep {
                chunks,
                bytes_sum: field(value, "bytes_sum")?,
                throughput_sum: field(value, "throughput_sum")?,
                prev_arrival: field(value, "prev_arrival")?,
                prev_bytes: field(value, "prev_bytes")?,
            },
        })
    }
}

impl StreamingSessionState {
    /// Fresh, chunkless state.
    pub fn new() -> Self {
        StreamingSessionState::default()
    }

    /// Fold in one chunk observation: every series' sample from the
    /// same per-chunk step the exact builders use, so the exact
    /// statistics (min/max/mean/std) see the same samples.
    pub fn fold(&mut self, c: &ChunkObs) {
        for (s, x) in self.series.iter_mut().zip(self.step.next(c)) {
            if let Some(x) = x {
                s.push(x);
            }
        }
    }

    /// Chunks folded in so far.
    pub fn chunk_count(&self) -> u64 {
        self.step.chunks
    }

    /// True before the first chunk.
    pub fn is_empty(&self) -> bool {
        self.step.chunks == 0
    }

    /// The first `series` series, each summarized by `order`.
    fn features(&self, series: usize, order: &[(&str, Stat)]) -> Vec<f64> {
        let mut out = Vec::with_capacity(series * order.len());
        for s in &self.series[..series] {
            s.push_block(&mut out, order);
        }
        out
    }

    /// The 70-dimensional §4.1 vector, shaped and ordered exactly like
    /// [`crate::stall_features`]; percentile slots are sketch
    /// approximations.
    pub fn stall_features_approx(&self) -> Vec<f64> {
        self.features(crate::stall::STALL_METRICS.len(), &STALL_ORDER)
    }

    /// The 210-dimensional §4.2 vector, shaped and ordered exactly like
    /// [`crate::representation_features`]; percentile slots are sketch
    /// approximations.
    pub fn representation_features_approx(&self) -> Vec<f64> {
        self.features(SERIES.len(), &REP_ORDER)
    }

    /// Bytes of heap the state holds beyond its fixed footprint — the
    /// sketch buffers. Used by the budget audit to confirm the
    /// per-subscriber cost stays a small constant.
    pub fn heap_bytes(&self) -> usize {
        self.series
            .iter()
            .map(|s| s.sketch.stored() * std::mem::size_of::<f64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::SessionObs;
    use crate::{representation_features, stall_features};

    fn chunk(req: f64, arr: f64, bytes: f64) -> ChunkObs {
        ChunkObs {
            request_secs: req,
            arrival_secs: arr,
            bytes,
            rtt_min: 0.04 + (arr % 0.01),
            rtt_mean: 0.05 + (arr % 0.02),
            rtt_max: 0.07 + (arr % 0.03),
            bdp: 70_000.0 + bytes % 1_000.0,
            bif_mean: 25_000.0,
            bif_max: 50_000.0,
            loss: 0.001,
            retx: 0.002,
        }
    }

    fn obs(n: usize) -> SessionObs {
        SessionObs {
            chunks: (0..n)
                .map(|i| {
                    chunk(
                        i as f64 * 2.0,
                        i as f64 * 2.0 + 1.0 + (i % 3) as f64 * 0.1,
                        100_000.0 + ((i * 37) % 90) as f64 * 1_000.0,
                    )
                })
                .collect(),
        }
    }

    fn folded(o: &SessionObs) -> StreamingSessionState {
        let mut s = StreamingSessionState::new();
        for c in &o.chunks {
            s.fold(c);
        }
        s
    }

    /// Assert the moment statistics agree with the batch value: min and
    /// max bit-for-bit (same comparisons, different order), mean and
    /// std to Welford-vs-two-pass rounding (≤ 1e-9 relative — the
    /// accumulation orders differ in the last ulps, nothing more).
    fn assert_moments_agree(
        batch: &[f64],
        approx: &[f64],
        min_i: usize,
        max_i: usize,
        mean_i: usize,
        std_i: usize,
        ctx: &str,
    ) {
        assert_eq!(batch[min_i], approx[min_i], "{ctx} min");
        assert_eq!(batch[max_i], approx[max_i], "{ctx} max");
        for (name, i) in [("mean", mean_i), ("std", std_i)] {
            let (b, a) = (batch[i], approx[i]);
            assert!(
                (b - a).abs() <= 1e-9 * b.abs().max(1.0),
                "{ctx} {name}: batch {b} vs approx {a}"
            );
        }
    }

    #[test]
    fn moment_statistics_match_batch() {
        for n in [1usize, 2, 3, 10, 200] {
            let o = obs(n);
            let s = folded(&o);
            let batch70 = stall_features(&o);
            let approx70 = s.stall_features_approx();
            assert_eq!(approx70.len(), 70);
            for (block, (b, a)) in batch70.chunks(7).zip(approx70.chunks(7)).enumerate() {
                // STALL_STATS order: min, max, mean, std.
                assert_moments_agree(b, a, 0, 1, 2, 3, &format!("n={n} stall block {block}"));
            }
            let batch210 = representation_features(&o);
            let approx210 = s.representation_features_approx();
            assert_eq!(approx210.len(), 210);
            for (block, (b, a)) in batch210.chunks(15).zip(approx210.chunks(15)).enumerate() {
                // REP_STATS order: min, mean, max, std.
                assert_moments_agree(b, a, 0, 2, 1, 3, &format!("n={n} rep block {block}"));
            }
        }
    }

    #[test]
    fn percentiles_track_batch_within_rank_tolerance() {
        // 200 chunks is past SKETCH_CAPACITY, so percentiles are
        // genuinely approximate. A sketch's guarantee is on *rank*, not
        // value: each reported percentile must lie between the exact
        // quantiles at q ∓ 0.1 (a 10%-of-population rank band).
        let o = obs(200);
        let s = folded(&o);
        let approx = s.representation_features_approx();
        let series = o.series(14);
        let qs: [f64; 11] = [
            0.05, 0.10, 0.15, 0.20, 0.25, 0.50, 0.75, 0.80, 0.85, 0.90, 0.95,
        ];
        for (block, data) in series.iter().enumerate() {
            for (slot, &q) in qs.iter().enumerate() {
                let a = approx[block * 15 + 4 + slot];
                let lo = vqoe_stats::try_quantile(data, (q - 0.1).max(0.0)).unwrap();
                let hi = vqoe_stats::try_quantile(data, (q + 0.1).min(1.0)).unwrap();
                assert!(
                    a >= lo - 1e-9 && a <= hi + 1e-9,
                    "block {block} q{q}: approx {a} outside rank band [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn empty_session_emits_all_zero_vectors() {
        let s = StreamingSessionState::new();
        assert!(s.is_empty());
        assert!(s.stall_features_approx().iter().all(|&x| x == 0.0));
        assert!(s.representation_features_approx().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn all_nan_metric_column_yields_the_sentinel_block() {
        let mut o = obs(5);
        for c in &mut o.chunks {
            c.loss = f64::NAN;
        }
        let s = folded(&o);
        let batch = stall_features(&o);
        let approx = s.stall_features_approx();
        // The "packet loss" block (metric 6) must be the sentinel in
        // both paths; every other exact stat still agrees.
        for i in 0..7 {
            assert_eq!(approx[6 * 7 + i], MISSING_STAT);
            assert_eq!(batch[6 * 7 + i], MISSING_STAT);
        }
        let rep = s.representation_features_approx();
        for i in 0..15 {
            assert_eq!(rep[6 * 15 + i], MISSING_STAT);
        }
    }

    #[test]
    fn single_chunk_session_has_empty_delta_series() {
        let o = obs(1);
        let s = folded(&o);
        let rep = s.representation_features_approx();
        // Δsize (block 11) and Δt (block 12) have no samples for a
        // single chunk: all-zero, exactly like the batch path.
        for i in 0..15 {
            assert_eq!(rep[11 * 15 + i], 0.0);
            assert_eq!(rep[12 * 15 + i], 0.0);
        }
        assert_eq!(rep, representation_features(&o).as_slice());
    }

    #[test]
    fn deterministic_and_serde_round_trips() {
        let o = obs(300);
        let a = folded(&o);
        let b = folded(&o);
        assert_eq!(a, b);
        let json = serde_json::to_string(&a).unwrap();
        let back: StreamingSessionState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert_eq!(
            back.representation_features_approx(),
            a.representation_features_approx()
        );
    }

    #[test]
    fn heap_stays_bounded_on_long_sessions() {
        let mut s = StreamingSessionState::new();
        for i in 0..100_000usize {
            s.fold(&chunk(i as f64, i as f64 + 0.5, (i % 1_000) as f64 * 100.0));
        }
        // 14 sketches × ~log2(100k/64) levels × 64 slots × 8 bytes
        // ≈ 100 KiB worst case; assert an order-of-magnitude bound.
        assert!(s.heap_bytes() < 256 * 1024, "heap {}", s.heap_bytes());
    }
}
