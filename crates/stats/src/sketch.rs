//! A deterministic fixed-capacity quantile sketch.
//!
//! The streaming assessment path (ISSUE 10) keeps per-session state in
//! O(1) memory: running moments ([`crate::OnlineMoments`]) cover
//! min/max/mean/std exactly, and this sketch covers the percentile grid
//! approximately. It is a KLL-style compactor hierarchy with one
//! deliberate deviation from the textbook algorithm: **compaction is
//! seedless**. Where KLL flips a random coin to decide whether the odd
//! or even ranks survive a compaction, we alternate a per-level parity
//! bit. That trades the randomized error guarantee for a weaker
//! deterministic one — acceptable here, because sketched sessions are a
//! declared lower-fidelity tier (`Fidelity::Sketched`) with
//! pinned-tolerance predictions, while the reproduction's bit-identity
//! contract ("same tap, same report, any worker count") demands that
//! every code path be a pure function of its input order.
//!
//! Determinism contract:
//!
//! * `push` sequences that are element-for-element identical produce
//!   byte-identical sketches (no RNG, no addresses, no time);
//! * serialization round-trips bit-exactly (the state is integers and
//!   f64 values already observed).
//!
//! There is no merge: a session's sketch is only ever pushed into, by
//! the one shard that owns the session.
//!
//! Error bound, pinned by a property test: at capacity 64 and up to
//! 20,000 observations, the returned value's rank is within 0.05·n of
//! the requested rank q·(n−1), under sorted, reversed,
//! duplicate-heavy, zig-zag, scrambled and block-adversarial push
//! orders.
//!
//! Memory is bounded by `levels × capacity` values; with the pinned
//! [`SKETCH_CAPACITY`] of 64 and the ~log₂(n/64) levels an hour-long
//! session can reach, a sketch stays in the low kilobytes regardless of
//! session length.

use serde::{Deserialize, Serialize};

/// Values retained per compactor level, pinned workspace-wide (see the
/// `vqoe-analyze` constants pass and DESIGN.md §15). Error roughly
/// tracks O(1/capacity) per level; 64 keeps the §4.2 percentile grid
/// within a few percent of exact on realistic session lengths while
/// costing ~0.5 KiB per level.
pub const SKETCH_CAPACITY: usize = 64;

/// One level of the compactor hierarchy: a buffer of values each
/// representing `2^level` original observations, plus the parity bit
/// that replaces KLL's coin flip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Level {
    values: Vec<f64>,
    /// Which ranks survive the next compaction (alternates per
    /// compaction, making the schedule deterministic and unbiased over
    /// consecutive compactions).
    keep_odd: bool,
}

impl Level {
    fn new() -> Level {
        Level {
            values: Vec::new(),
            keep_odd: false,
        }
    }
}

/// Deterministic, fixed-capacity quantile sketch (see the module docs
/// for the determinism contract and the error bound).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSketch {
    capacity: usize,
    levels: Vec<Level>,
    /// Total finite observations folded in (weights, not slots).
    count: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// Fresh sketch at the pinned [`SKETCH_CAPACITY`].
    pub fn new() -> Self {
        QuantileSketch::with_capacity(SKETCH_CAPACITY)
    }

    /// Fresh sketch retaining `capacity` values per level (minimum 4,
    /// rounded up to even so compaction halves cleanly).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(4) + (capacity % 2);
        QuantileSketch {
            capacity,
            levels: vec![Level::new()],
            count: 0,
        }
    }

    /// Fold in one observation. Non-finite values are ignored, matching
    /// [`crate::OnlineMoments::push`] and the batch builders' NaN
    /// policy.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.levels[0].values.push(x);
        self.compact_from(0);
    }

    /// Observations folded in so far (finite ones only).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no finite observation has been folded in.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Slots currently occupied across all levels (the memory bound is
    /// `capacity` per level; levels grow logarithmically in count).
    pub fn stored(&self) -> usize {
        self.levels.iter().map(|l| l.values.len()).sum()
    }

    /// Compact every level at or above `from` that exceeds capacity:
    /// sort the level, keep alternating ranks (parity bit decides
    /// which), and promote the survivors — now each standing for twice
    /// the weight — to the next level up.
    fn compact_from(&mut self, from: usize) {
        let mut lvl = from;
        while lvl < self.levels.len() {
            if self.levels[lvl].values.len() <= self.capacity {
                lvl += 1;
                continue;
            }
            let keep_odd = self.levels[lvl].keep_odd;
            self.levels[lvl].keep_odd = !keep_odd;
            let mut values = std::mem::take(&mut self.levels[lvl].values);
            values.sort_by(f64::total_cmp);
            let offset = usize::from(keep_odd);
            let survivors: Vec<f64> = values.into_iter().skip(offset).step_by(2).collect();
            if lvl + 1 == self.levels.len() {
                self.levels.push(Level::new());
            }
            self.levels[lvl + 1].values.extend(survivors);
            lvl += 1;
        }
    }

    /// Approximate quantile `q ∈ [0, 1]` (clamped), or `None` when the
    /// sketch is empty — the same honest-`Option` convention as
    /// [`crate::try_quantile`]. Computed over the weighted sorted
    /// union of all levels (a level-`l` value stands for `2^l`
    /// observations).
    pub fn try_quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let mut weighted: Vec<(f64, u64)> = Vec::with_capacity(self.stored());
        for (lvl, level) in self.levels.iter().enumerate() {
            let w = 1u64 << lvl.min(62);
            weighted.extend(level.values.iter().map(|&v| (v, w)));
        }
        weighted.sort_by(|a, b| f64::total_cmp(&a.0, &b.0));
        let total: u64 = weighted.iter().map(|&(_, w)| w).sum();
        // Rank of the requested quantile in the weighted sample,
        // type-7-flavoured: the target rank is q·(total−1), and we
        // return the first value whose cumulative weight passes it.
        let target = (q * (total.saturating_sub(1)) as f64).round() as u64;
        let mut cum = 0u64;
        for &(v, w) in &weighted {
            cum += w;
            if cum > target {
                return Some(v);
            }
        }
        weighted.last().map(|&(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantiles::try_quantile;
    use proptest::prelude::*;

    fn filled(data: &[f64]) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for &x in data {
            s.push(x);
        }
        s
    }

    #[test]
    fn empty_sketch_is_honest_about_it() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.try_quantile(0.5), None);
    }

    #[test]
    fn non_finite_values_are_ignored() {
        let s = filled(&[f64::NAN, 1.0, f64::INFINITY, 3.0, f64::NEG_INFINITY]);
        assert_eq!(s.count(), 2);
        assert_eq!(s.try_quantile(0.0), Some(1.0));
        assert_eq!(s.try_quantile(1.0), Some(3.0));
    }

    #[test]
    fn under_capacity_quantiles_are_near_exact() {
        let data: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let s = filled(&data);
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let exact = try_quantile(&data, q).unwrap();
            let approx = s.try_quantile(q).unwrap();
            assert!(
                (exact - approx).abs() <= 1.0,
                "q={q}: exact {exact} vs sketch {approx}"
            );
        }
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let data: Vec<f64> = (0..10_000)
            .map(|i| ((i * 2_654_435_761u64) % 9973) as f64)
            .collect();
        let a = filled(&data);
        let b = filled(&data);
        assert_eq!(a, b, "same push sequence must be byte-identical");
        let ja = serde_json::to_string(&a).unwrap();
        let jb = serde_json::to_string(&b).unwrap();
        assert_eq!(ja, jb);
        let back: QuantileSketch = serde_json::from_str(&ja).unwrap();
        assert_eq!(back, a, "serde round-trip is bit-exact");
    }

    #[test]
    fn memory_stays_bounded_at_large_counts() {
        let mut s = QuantileSketch::new();
        for i in 0..200_000u64 {
            s.push((i % 1000) as f64);
        }
        // log2(200000/64) ≈ 12 levels at 64+1 slots each.
        assert!(
            s.stored() <= 16 * (SKETCH_CAPACITY + 1),
            "stored {}",
            s.stored()
        );
        assert_eq!(s.count(), 200_000);
    }

    /// The `i`-th of `n` values in push order `order`: sorted,
    /// reversed, duplicate-heavy, zig-zag, LCG-scrambled, and
    /// ascending 65-value blocks (one capacity-64 compaction each).
    fn ordered(order: usize, i: u64, n: u64) -> f64 {
        match order {
            0 => i as f64,
            1 => (n - 1 - i) as f64,
            2 => (i % 3) as f64,
            3 if i % 2 == 0 => (i / 2) as f64,
            3 => (n - 1 - i / 2) as f64,
            4 => {
                (i.wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407)
                    >> 33) as f64
            }
            _ => ((i % 65) * n + i / 65) as f64,
        }
    }

    proptest! {
        #[test]
        fn prop_sketch_quantile_within_range(
            data in proptest::collection::vec(-1e6f64..1e6, 1..400),
            q in 0.0f64..1.0,
        ) {
            let s = filled(&data);
            let v = s.try_quantile(q).unwrap();
            let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= min && v <= max);
        }

        #[test]
        fn prop_sketch_tracks_exact_on_large_streams(
            seed in 0u64..1000,
        ) {
            // A deterministic pseudo-stream well past capacity: the
            // sketch's median must land within a pinned tolerance of
            // the exact one (the Fidelity::Sketched contract).
            let data: Vec<f64> = (0..4096u64)
                .map(|i| ((i.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(seed)) % 100_000) as f64)
                .collect();
            let s = filled(&data);
            let exact = try_quantile(&data, 0.5).unwrap();
            let approx = s.try_quantile(0.5).unwrap();
            prop_assert!(
                (exact - approx).abs() <= 0.05 * 100_000.0,
                "median drifted: exact {exact}, sketch {approx}"
            );
        }

        #[test]
        fn prop_rank_error_stays_within_five_percent(n in 1u64..20_000) {
            for order in 0..6 {
                let data: Vec<f64> = (0..n).map(|i| ordered(order, i, n)).collect();
                let mut s = QuantileSketch::with_capacity(64);
                for &x in &data {
                    s.push(x);
                }
                let mut sorted = data;
                sorted.sort_by(f64::total_cmp);
                for k in 0..=100 {
                    let q = k as f64 / 100.0;
                    let v = s.try_quantile(q).unwrap();
                    // `v` holds every rank in `lo..=hi` (ties share
                    // ranks); its error is the distance from that
                    // range to the requested rank.
                    let lo = sorted.partition_point(|&x| x < v) as f64;
                    let hi = sorted.partition_point(|&x| x <= v) as f64 - 1.0;
                    let target = q * (n - 1) as f64;
                    let err = (lo - target).max(target - hi).max(0.0);
                    prop_assert!(
                        err <= 0.05 * n as f64,
                        "order {order}, n {n}, q {q}: rank error {err}"
                    );
                }
            }
        }

        #[test]
        fn prop_quantiles_monotone(
            data in proptest::collection::vec(-1e6f64..1e6, 1..600),
            q1 in 0.0f64..1.0,
            q2 in 0.0f64..1.0,
        ) {
            let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
            let s = filled(&data);
            prop_assert!(s.try_quantile(lo).unwrap() <= s.try_quantile(hi).unwrap());
        }
    }
}
