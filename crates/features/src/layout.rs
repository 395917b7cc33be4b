//! The §4 feature layout, stated once.
//!
//! Both feature sets summarize per-chunk *series* with a fixed list of
//! statistics, series-major: the §4.1 stall set takes [`STALL_ORDER`]
//! over the first ten of [`SERIES`], the §4.2 representation set takes
//! [`REP_ORDER`] over all fourteen. This module holds the three parts of
//! that layout and the one boundary policy both evaluations share:
//!
//! * [`SERIES`] — the fourteen series in feature order;
//! * [`ChunkStep`] — the per-chunk step that yields every series' sample,
//!   the four constructed recurrences included;
//! * [`STALL_ORDER`] / [`REP_ORDER`] — the two statistic orders;
//! * [`push_block`] — one series' block of statistics.
//!
//! The exact builders ([`exact_features`]) buffer each series, sort it
//! once and read every statistic off the sorted slice; the streaming
//! digest (`StreamingSessionState`) folds the same step into running
//! moments and quantile sketches and emits through the same orders.

use crate::obs::{ChunkObs, SessionObs};
use crate::MISSING_STAT;
use vqoe_stats::{mean, population_std, try_quantile_sorted};

/// The fourteen series, in feature order, as `(name, key)`: `name`
/// prefixes the feature names, `key` names the series in a serialized
/// `StreamingSessionState`. The first ten are the Table-1 metrics; the
/// last four are the §4.2 constructed series.
pub(crate) const SERIES: [(&str, &str); 14] = [
    ("RTT minimum", "rtt_min"),
    ("RTT average", "rtt_mean"),
    ("RTT maximum", "rtt_max"),
    ("BDP", "bdp"),
    ("BIF average", "bif_mean"),
    ("BIF maximum", "bif_max"),
    ("packet loss", "loss"),
    ("packet retransmissions", "retx"),
    ("chunk size", "bytes"),
    ("chunk time", "arrival"),
    ("chunk avg size", "avg_size"),
    ("chunk Δsize", "size_delta"),
    ("chunk Δt", "inter_arrival"),
    ("cumsum throughput", "cum_throughput"),
];

/// One summary statistic of a series.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stat {
    Min,
    Max,
    Mean,
    /// Population standard deviation.
    Std,
    /// Type-7 percentile at this fraction.
    Pct(f64),
}

/// The seven §4.1 statistics, in feature order.
pub(crate) const STALL_ORDER: [(&str, Stat); 7] = [
    ("minimum", Stat::Min),
    ("maximum", Stat::Max),
    ("mean", Stat::Mean),
    ("std. deviation", Stat::Std),
    ("25%", Stat::Pct(0.25)),
    ("50%", Stat::Pct(0.50)),
    ("75%", Stat::Pct(0.75)),
];

/// The fifteen §4.2 statistics, in feature order.
pub(crate) const REP_ORDER: [(&str, Stat); 15] = [
    ("minimum", Stat::Min),
    ("mean", Stat::Mean),
    ("maximum", Stat::Max),
    ("std", Stat::Std),
    ("5%", Stat::Pct(0.05)),
    ("10%", Stat::Pct(0.10)),
    ("15%", Stat::Pct(0.15)),
    ("20%", Stat::Pct(0.20)),
    ("25%", Stat::Pct(0.25)),
    ("50%", Stat::Pct(0.50)),
    ("75%", Stat::Pct(0.75)),
    ("80%", Stat::Pct(0.80)),
    ("85%", Stat::Pct(0.85)),
    ("90%", Stat::Pct(0.90)),
    ("95%", Stat::Pct(0.95)),
];

/// The first `N` names of a layout table.
pub(crate) const fn names<T, const N: usize>(table: &[(&'static str, T)]) -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    while i < N {
        out[i] = table[i].0;
        i += 1;
    }
    out
}

/// `"<series> <statistic>"` for every feature, series-major.
pub(crate) fn feature_names(series: &[&str], stats: &[&str]) -> Vec<String> {
    series
        .iter()
        .flat_map(|m| stats.iter().map(move |s| format!("{m} {s}")))
        .collect()
}

/// The per-chunk step: the recurrence state the constructed series
/// carry from one chunk to the next.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ChunkStep {
    /// Chunks stepped past so far.
    pub(crate) chunks: u64,
    /// Sum of chunk sizes.
    pub(crate) bytes_sum: f64,
    /// Sum of per-chunk download throughputs (bps).
    pub(crate) throughput_sum: f64,
    /// The previous chunk's arrival, `None` before the first chunk.
    pub(crate) prev_arrival: Option<f64>,
    /// The previous chunk's size.
    pub(crate) prev_bytes: f64,
}

impl ChunkStep {
    /// Step past chunk `c` and return each series' sample for it, in
    /// [`SERIES`] order. Δsize and Δt compare with the previous chunk,
    /// so the first chunk has no sample of either.
    pub(crate) fn next(&mut self, c: &ChunkObs) -> [Option<f64>; 14] {
        self.chunks += 1;
        self.bytes_sum += c.bytes;
        let dt = c.arrival_secs - c.request_secs;
        self.throughput_sum += if dt > 0.0 { c.bytes * 8.0 / dt } else { 0.0 };
        let (size_delta, inter_arrival) = match self.prev_arrival {
            Some(prev) => (
                Some((c.bytes - self.prev_bytes).abs()),
                Some((c.arrival_secs - prev).max(0.0)),
            ),
            None => (None, None),
        };
        self.prev_arrival = Some(c.arrival_secs);
        self.prev_bytes = c.bytes;
        [
            Some(c.rtt_min),
            Some(c.rtt_mean),
            Some(c.rtt_max),
            Some(c.bdp),
            Some(c.bif_mean),
            Some(c.bif_max),
            Some(c.loss),
            Some(c.retx),
            Some(c.bytes),
            Some(c.arrival_secs),
            Some(self.bytes_sum / self.chunks as f64),
            size_delta,
            inter_arrival,
            Some(self.throughput_sum),
        ]
    }
}

/// A series' moment statistics over its finite samples.
pub(crate) struct Moments {
    pub(crate) min: f64,
    pub(crate) max: f64,
    pub(crate) mean: f64,
    pub(crate) std: f64,
}

/// Append one series' block of `order` statistics to `out`.
///
/// A series with no samples gives all zeros (a chunkless session carries
/// no signal). A series whose samples are all non-finite (`moments` is
/// `None`) gives [`MISSING_STAT`] across the block, so a broken column
/// cannot alias a genuine `0.0`. Otherwise percentiles come from `pct`.
pub(crate) fn push_block(
    out: &mut Vec<f64>,
    order: &[(&str, Stat)],
    samples: u64,
    moments: Option<Moments>,
    pct: impl Fn(f64) -> f64,
) {
    out.extend(order.iter().map(|&(_, stat)| match (samples, &moments) {
        (0, _) => 0.0,
        (_, None) => MISSING_STAT,
        (_, Some(m)) => match stat {
            Stat::Min => m.min,
            Stat::Max => m.max,
            Stat::Mean => m.mean,
            Stat::Std => m.std,
            Stat::Pct(p) => pct(p),
        },
    }));
}

/// The exact feature vector of `obs`: the first `series` of [`SERIES`],
/// each summarized by `order`. Each series keeps its finite samples,
/// sorted once; min and max are its ends, mean and std sum it in that
/// sorted order, and the percentiles interpolate on it.
pub(crate) fn exact_features(obs: &SessionObs, series: usize, order: &[(&str, Stat)]) -> Vec<f64> {
    let mut out = Vec::with_capacity(series * order.len());
    for mut col in obs.series(series) {
        let samples = col.len() as u64;
        col.retain(|v| v.is_finite());
        col.sort_by(f64::total_cmp);
        let moments = match (col.first(), col.last()) {
            (Some(&min), Some(&max)) => Some(Moments {
                min,
                max,
                mean: mean(&col),
                std: population_std(&col),
            }),
            _ => None,
        };
        push_block(&mut out, order, samples, moments, |p| {
            try_quantile_sorted(&col, p).unwrap_or(MISSING_STAT)
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_name_each_percentile_by_its_fraction() {
        for (name, stat) in STALL_ORDER.iter().chain(&REP_ORDER) {
            if let Stat::Pct(p) = stat {
                assert_eq!(format!("{}%", (p * 100.0).round()), *name);
            }
        }
    }
}
