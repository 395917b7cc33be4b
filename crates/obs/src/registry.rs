//! Metrics registry: counters, gauges, fixed-boundary histograms, the
//! Prometheus text sink, and the typed `Stable`-class [`Snapshot`] a
//! restore absorbs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use lock::Locked;

/// How many exemplars a histogram bucket retains when exemplar capture
/// is enabled: the top samples by value, ties broken toward the
/// smallest `(session, tick)`. A fixed cap keeps the merge rule
/// commutative — the retained set is a pure function of the observed
/// multiset, independent of worker count or arrival order.
pub const EXEMPLARS_PER_BUCKET: usize = 1;

/// A sample linked back to the session that produced it: the bucket's
/// maximal observation plus enough identity (session id, deterministic
/// tick) to replay it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Exemplar {
    /// The observed sample value.
    pub value: u64,
    /// Session identity (session start time in tap microseconds).
    pub session: u64,
    /// Deterministic tick of the observation (tap-time microseconds).
    pub tick: u64,
}

/// Keep the top [`EXEMPLARS_PER_BUCKET`] exemplars by `(value desc,
/// session asc, tick asc)` — a total order, so the retained set is
/// independent of observation order.
fn merge_exemplar(slots: &mut Vec<Exemplar>, ex: Exemplar) {
    slots.push(ex);
    slots.sort_by_key(|e| (std::cmp::Reverse(e.value), e.session, e.tick));
    slots.dedup();
    slots.truncate(EXEMPLARS_PER_BUCKET);
}

/// Determinism class of a metric.
///
/// [`Registry::snapshot`] exports `Stable` metrics only, which is what
/// makes it identical across runs and worker counts for the same
/// input. The Prometheus text sink renders both classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Derived purely from the input data: identical for identical
    /// input regardless of scheduling, worker count, or wall time.
    Stable,
    /// Scheduling- or wall-clock-dependent (queue depths, stall counts,
    /// wall-time latencies). Excluded from the snapshot.
    Runtime,
}

impl MetricClass {
    /// Stable lowercase label (docs, report tables).
    pub fn label(&self) -> &'static str {
        match self {
            MetricClass::Stable => "stable",
            MetricClass::Runtime => "runtime",
        }
    }
}

/// One registered metric's description, as returned by
/// [`Registry::describe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDesc {
    /// The registered metric name.
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub kind: &'static str,
    /// Determinism class.
    pub class: MetricClass,
    /// The help text it was registered with.
    pub help: String,
}

/// Monotonic counter handle. Clones share the same underlying value.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Gauge handle: a signed value that can move both ways.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Set the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct HistogramState {
    /// `counts.len() == bounds.len() + 1`; the last slot is the +Inf
    /// overflow bucket.
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
    /// Whether [`Histogram::observe_exemplar`] captures exemplars. Off
    /// by default so plain histograms pay nothing and expose nothing.
    exemplars_enabled: AtomicBool,
    /// Per-bucket exemplar slots (same indexing as `counts`), each
    /// holding at most [`EXEMPLARS_PER_BUCKET`] entries. Guarded by a
    /// lock: exemplar capture is opt-in and off the per-entry fast
    /// path (counts stay lock-free).
    exemplars: Locked<Vec<Vec<Exemplar>>>,
}

/// Fixed-boundary histogram handle.
///
/// Boundaries are inclusive upper bounds (`v <= bound` lands in that
/// bucket, Prometheus `le` semantics); values above the last boundary
/// land in the implicit +Inf bucket. All samples are `u64`, so the
/// exposition is integer-only and trivially byte-stable.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Arc<Vec<u64>>,
    state: Arc<HistogramState>,
}

impl Histogram {
    fn with_bounds(bounds: &[u64]) -> Self {
        let mut sorted: Vec<u64> = bounds.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let state = HistogramState {
            counts: (0..=sorted.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            exemplars_enabled: AtomicBool::new(false),
            exemplars: Locked::new((0..=sorted.len()).map(|_| Vec::new()).collect()),
        };
        Histogram {
            bounds: Arc::new(sorted),
            state: Arc::new(state),
        }
    }

    /// Record one sample.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|b| v > *b);
        if let Some(slot) = self.state.counts.get(idx) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        self.state.sum.fetch_add(v, Ordering::Relaxed);
        self.state.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Upper bucket boundaries (sorted, deduplicated).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts, non-cumulative; the final entry is the +Inf
    /// overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.state
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Sum of all observed samples.
    pub fn sum(&self) -> u64 {
        self.state.sum.load(Ordering::Relaxed)
    }

    /// Number of observed samples.
    pub fn count(&self) -> u64 {
        self.state.count.load(Ordering::Relaxed)
    }

    /// Turn on exemplar capture for this histogram (and every clone —
    /// the flag lives in the shared state). Idempotent.
    pub fn enable_exemplars(&self) {
        self.state.exemplars_enabled.store(true, Ordering::Relaxed);
    }

    /// Whether exemplar capture is on.
    pub fn exemplars_enabled(&self) -> bool {
        self.state.exemplars_enabled.load(Ordering::Relaxed)
    }

    /// Record one sample together with its session linkage. Counts as a
    /// plain [`Histogram::observe`]; when exemplar capture is enabled
    /// the bucket additionally retains the top
    /// [`EXEMPLARS_PER_BUCKET`] samples by `(value, session, tick)` —
    /// an order-independent rule, so the retained exemplars are
    /// byte-identical at any worker count.
    pub fn observe_exemplar(&self, v: u64, session: u64, tick: u64) {
        self.observe(v);
        if !self.exemplars_enabled() {
            return;
        }
        let idx = self.bounds.partition_point(|b| v > *b);
        let mut slots = self.state.exemplars.lock();
        if let Some(bucket) = slots.get_mut(idx) {
            merge_exemplar(
                bucket,
                Exemplar {
                    value: v,
                    session,
                    tick,
                },
            );
        }
    }

    /// The retained exemplars, flattened as `(bucket index, exemplar)`
    /// in bucket order (the final index is the +Inf bucket). Empty when
    /// capture is disabled or nothing was observed.
    pub fn exemplars(&self) -> Vec<(usize, Exemplar)> {
        if !self.exemplars_enabled() {
            return Vec::new();
        }
        self.state
            .exemplars
            .lock()
            .iter()
            .enumerate()
            .flat_map(|(i, bucket)| bucket.iter().map(move |&e| (i, e)))
            .collect()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_bounds(&[])
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Entry {
    help: String,
    class: MetricClass,
    metric: Metric,
}

/// Metrics registry.
///
/// Registration takes the registry lock; returned handles are
/// `Arc`-backed and lock-free, so the hot path never contends on the
/// registry. Registering the same name twice with the same kind (and,
/// for a histogram, the same bucket bounds) returns a handle to the
/// same value; a mismatch returns a detached (unregistered) handle
/// rather than panicking.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Locked<BTreeMap<String, Entry>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Look `name` up, or register `fresh` under it. A metric already
    /// registered there that `same` does not accept (another kind, or
    /// other bucket bounds) stays as it is, and the caller gets `fresh`
    /// detached.
    fn register<T: Clone>(
        &self,
        name: &str,
        help: &str,
        class: MetricClass,
        fresh: T,
        wrap: fn(T) -> Metric,
        same: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        let mut entries = self.entries.lock();
        if let Some(existing) = entries.get(name) {
            return same(&existing.metric).unwrap_or(fresh);
        }
        let entry = Entry {
            help: help.to_string(),
            class,
            metric: wrap(fresh.clone()),
        };
        entries.insert(name.to_string(), entry);
        fresh
    }

    /// Register (or look up) a monotonic counter.
    pub fn counter(&self, name: &str, help: &str, class: MetricClass) -> Counter {
        let same = |m: &Metric| match m {
            Metric::Counter(c) => Some(c.clone()),
            _ => None,
        };
        self.register(name, help, class, Counter::default(), Metric::Counter, same)
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, help: &str, class: MetricClass) -> Gauge {
        let same = |m: &Metric| match m {
            Metric::Gauge(g) => Some(g.clone()),
            _ => None,
        };
        self.register(name, help, class, Gauge::default(), Metric::Gauge, same)
    }

    /// Register (or look up) a fixed-boundary histogram. Bounds are
    /// compared sorted and deduplicated, as the histogram keeps them.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        class: MetricClass,
        bounds: &[u64],
    ) -> Histogram {
        let fresh = Histogram::with_bounds(bounds);
        let bounds = Arc::clone(&fresh.bounds);
        let same = |m: &Metric| match m {
            Metric::Histogram(h) if h.bounds == bounds => Some(h.clone()),
            _ => None,
        };
        self.register(name, help, class, fresh, Metric::Histogram, same)
    }

    /// Describe every registered metric — name, kind, class, help — in
    /// name (lexicographic) order. The reference the `vqoe metrics-doc`
    /// subcommand renders.
    pub fn describe(&self) -> Vec<MetricDesc> {
        let entries = self.entries.lock();
        entries
            .iter()
            .map(|(name, entry)| MetricDesc {
                name: name.clone(),
                kind: match &entry.metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                },
                class: entry.class,
                help: entry.help.clone(),
            })
            .collect()
    }

    /// Render every registered metric (both classes) as Prometheus text
    /// exposition: `# HELP` / `# TYPE` comments followed by samples,
    /// histograms as cumulative `_bucket{le=...}` series plus `_sum` and
    /// `_count`.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock();
        let mut out = String::new();
        for (name, entry) in entries.iter() {
            out.push_str(&format!("# HELP {name} {}\n", entry.help));
            match &entry.metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let counts = h.bucket_counts();
                    // OpenMetrics-style exemplar suffix per bucket line
                    // (` # {labels} value`), when capture is enabled.
                    let exemplar_suffix = |idx: usize| -> String {
                        let Some(&(_, e)) = h.exemplars().iter().find(|&&(i, _)| i == idx) else {
                            return String::new();
                        };
                        format!(
                            " # {{session=\"{}\",tick=\"{}\"}} {}",
                            e.session, e.tick, e.value
                        )
                    };
                    let mut cumulative = 0u64;
                    for (idx, (bound, count)) in h.bounds().iter().zip(counts.iter()).enumerate() {
                        cumulative = cumulative.saturating_add(*count);
                        out.push_str(&format!(
                            "{name}_bucket{{le=\"{bound}\"}} {cumulative}{}\n",
                            exemplar_suffix(idx)
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_bucket{{le=\"+Inf\"}} {}{}\n",
                        h.count(),
                        exemplar_suffix(h.bounds().len())
                    ));
                    out.push_str(&format!("{name}_sum {}\n", h.sum()));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                }
            }
        }
        out
    }

    /// Export the `Stable`-class metrics as typed state, each section
    /// in name (lexicographic) order. Identical input data gives an
    /// identical snapshot regardless of worker count, scheduling, or
    /// insertion order; `vqoe-core` gives it its JSON form.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.lock();
        let mut snapshot = Snapshot::default();
        for (name, entry) in entries.iter() {
            if entry.class != MetricClass::Stable {
                continue;
            }
            let name = name.clone();
            match &entry.metric {
                Metric::Counter(c) => snapshot.counters.push((name, c.get())),
                Metric::Gauge(g) => snapshot.gauges.push((name, g.get())),
                Metric::Histogram(h) => snapshot.histograms.push((name, h.snapshot())),
            }
        }
        snapshot
    }

    /// Fold a [`Registry::snapshot`] taken by an earlier run back into
    /// this registry: counters and histograms add their saved totals on
    /// top of the current values, gauges are set to the saved value.
    /// This is the restore half of the pipeline's deterministic
    /// checkpointing — absorb the snapshot into a freshly registered
    /// registry, replay the input tail, and the final snapshot is
    /// identical to an uninterrupted run's.
    ///
    /// Snapshot entries whose name is not registered here are skipped
    /// (an older snapshot restored into a newer registry must not
    /// fail); a registered name of a *different* metric kind, or a
    /// histogram whose bucket boundaries changed, is an error. Returns
    /// the number of metrics absorbed.
    pub fn absorb(&self, snapshot: &Snapshot) -> Result<usize, SnapshotError> {
        let entries = self.entries.lock();
        let mut absorbed = 0usize;
        for (name, value) in &snapshot.counters {
            let Some(entry) = entries.get(name) else {
                continue;
            };
            let Metric::Counter(c) = &entry.metric else {
                return Err(SnapshotError::KindMismatch(name.clone()));
            };
            c.add(*value);
            absorbed += 1;
        }
        for (name, value) in &snapshot.gauges {
            let Some(entry) = entries.get(name) else {
                continue;
            };
            let Metric::Gauge(g) = &entry.metric else {
                return Err(SnapshotError::KindMismatch(name.clone()));
            };
            g.set(*value);
            absorbed += 1;
        }
        for (name, saved) in &snapshot.histograms {
            let Some(entry) = entries.get(name) else {
                continue;
            };
            let Metric::Histogram(h) = &entry.metric else {
                return Err(SnapshotError::KindMismatch(name.clone()));
            };
            h.absorb(saved)
                .ok_or_else(|| SnapshotError::BoundsMismatch(name.clone()))?;
            absorbed += 1;
        }
        Ok(absorbed)
    }
}

/// The `Stable`-class state of a [`Registry`]: what
/// [`Registry::snapshot`] exports and [`Registry::absorb`] folds back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, state)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Why [`Registry::absorb`] rejected a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A snapshot metric is registered here as a different kind.
    KindMismatch(String),
    /// A snapshot histogram's bucket boundaries differ from the
    /// registered ones.
    BoundsMismatch(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::KindMismatch(name) => {
                write!(
                    f,
                    "snapshot metric {name} is registered as a different kind"
                )
            }
            SnapshotError::BoundsMismatch(name) => {
                write!(f, "snapshot histogram {name} has different bucket bounds")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One histogram's saved state within a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// `(upper bound, non-cumulative count)` per finite bucket.
    pub buckets: Vec<(u64, u64)>,
    /// The +Inf overflow bucket count.
    pub inf: u64,
    /// Sum of all observed samples.
    pub sum: u64,
    /// Number of observed samples.
    pub count: u64,
    /// Retained exemplars as `(bucket index, exemplar)`; `Some` exactly
    /// when the histogram has exemplar capture enabled.
    pub exemplars: Option<Vec<(usize, Exemplar)>>,
}

impl Histogram {
    fn snapshot(&self) -> HistogramSnapshot {
        let counts = self.bucket_counts();
        HistogramSnapshot {
            buckets: self
                .bounds
                .iter()
                .copied()
                .zip(counts.iter().copied())
                .collect(),
            inf: counts.last().copied().unwrap_or(0),
            sum: self.sum(),
            count: self.count(),
            exemplars: self.exemplars_enabled().then(|| self.exemplars()),
        }
    }

    /// Add saved bucket/sum/count state on top of the current values.
    /// Returns `None` when the saved bounds differ from this
    /// histogram's bounds.
    fn absorb(&self, parts: &HistogramSnapshot) -> Option<()> {
        if parts.buckets.len() != self.bounds.len()
            || parts
                .buckets
                .iter()
                .zip(self.bounds.iter())
                .any(|(&(b, _), &have)| b != have)
        {
            return None;
        }
        for (slot, &(_, count)) in self.state.counts.iter().zip(parts.buckets.iter()) {
            slot.fetch_add(count, Ordering::Relaxed);
        }
        if let Some(last) = self.state.counts.last() {
            last.fetch_add(parts.inf, Ordering::Relaxed);
        }
        self.state.sum.fetch_add(parts.sum, Ordering::Relaxed);
        self.state.count.fetch_add(parts.count, Ordering::Relaxed);
        // A snapshot carrying exemplars re-enables capture on restore
        // (so restore → snapshot round-trips byte-identically) and
        // merges the saved exemplars under the usual top-K rule.
        if let Some(exemplars) = &parts.exemplars {
            self.enable_exemplars();
            let mut slots = self.state.exemplars.lock();
            for &(idx, ex) in exemplars {
                if let Some(bucket) = slots.get_mut(idx) {
                    merge_exemplar(bucket, ex);
                }
            }
        }
        Some(())
    }
}

/// The registry's two locks: its entries table and each histogram's
/// exemplar slots. Nothing else in the workspace shares state behind a
/// lock, so the type ban is lifted for this module alone.
#[expect(
    clippy::disallowed_types,
    reason = "registration is rare and off the hot path; the exemplar lock is \
              taken once per observation, inside engine jobs, only under \
              `--exemplars`, and its top-K merge is order-independent"
)]
mod lock {
    use std::sync::{Mutex, MutexGuard};

    /// A mutex that shrugs off poisoning: every holder leaves the data
    /// consistent, so a panicked holder is no reason to stop.
    #[derive(Debug, Default)]
    pub(super) struct Locked<T>(Mutex<T>);

    impl<T> Locked<T> {
        pub(super) fn new(value: T) -> Self {
            Locked(Mutex::new(value))
        }

        pub(super) fn lock(&self) -> MutexGuard<'_, T> {
            self.0.lock().unwrap_or_else(|e| e.into_inner())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("vqoe_test_events_total", "events", MetricClass::Stable);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // A second registration of the same name shares the value.
        let c2 = reg.counter("vqoe_test_events_total", "events", MetricClass::Stable);
        c2.inc();
        assert_eq!(c.get(), 6);

        let g = reg.gauge("vqoe_test_open", "open", MetricClass::Stable);
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        let reg = Registry::new();
        let c = reg.counter("vqoe_test_x", "x", MetricClass::Stable);
        c.inc();
        // Asking for the same name as a gauge must not panic and must
        // not clobber the registered counter.
        let g = reg.gauge("vqoe_test_x", "x", MetricClass::Stable);
        g.set(99);
        assert_eq!(c.get(), 1);
        assert!(reg.render_prometheus().contains("vqoe_test_x 1"));
    }

    #[test]
    fn histogram_reregistration_compares_normalized_bounds() {
        let reg = Registry::new();
        let s = MetricClass::Stable;
        let h = reg.histogram("vqoe_test_sizes", "s", s, &[10, 100]);
        // The same bounds, unsorted and repeated: the same histogram.
        reg.histogram("vqoe_test_sizes", "s", s, &[100, 10, 100])
            .observe(5);
        assert_eq!(h.count(), 1);
        // Other bounds: a detached histogram; the registered one stays.
        let other = reg.histogram("vqoe_test_sizes", "s", s, &[10]);
        other.observe(5);
        assert_eq!((h.count(), h.bounds()), (1, &[10, 100][..]));
    }

    #[test]
    fn histogram_bucket_edges_under_over_and_exact_boundary() {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        h.observe(0); // underflow -> first bucket
        h.observe(10); // exact boundary -> first bucket (le semantics)
        h.observe(11); // -> second bucket
        h.observe(100); // exact boundary -> second bucket
        h.observe(1000); // exact boundary -> third bucket
        h.observe(1001); // overflow -> +Inf bucket
        h.observe(9999); // overflow -> +Inf bucket
        assert_eq!(h.bucket_counts(), vec![2, 2, 1, 2]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 10 + 11 + 100 + 1000 + 1001 + 9999);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduplicated() {
        let h = Histogram::with_bounds(&[100, 10, 100, 1]);
        assert_eq!(h.bounds(), &[1, 10, 100]);
    }

    #[test]
    fn prometheus_render_has_cumulative_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("vqoe_test_sizes", "sizes", MetricClass::Stable, &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE vqoe_test_sizes histogram"));
        assert!(text.contains("vqoe_test_sizes_bucket{le=\"10\"} 1"));
        assert!(text.contains("vqoe_test_sizes_bucket{le=\"100\"} 2"));
        assert!(text.contains("vqoe_test_sizes_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("vqoe_test_sizes_sum 555"));
        assert!(text.contains("vqoe_test_sizes_count 3"));
    }

    #[test]
    fn snapshot_is_identical_across_insertion_orders() {
        let make = |order: &[usize]| {
            let reg = Registry::new();
            type Registration = Box<dyn Fn(&Registry)>;
            let registrations: Vec<Registration> = vec![
                Box::new(|r: &Registry| {
                    r.counter("vqoe_b_total", "b", MetricClass::Stable).add(2);
                }),
                Box::new(|r: &Registry| {
                    r.gauge("vqoe_a_open", "a", MetricClass::Stable).set(3);
                }),
                Box::new(|r: &Registry| {
                    r.histogram("vqoe_c_sizes", "c", MetricClass::Stable, &[10])
                        .observe(4);
                }),
            ];
            for &i in order {
                if let Some(f) = registrations.get(i) {
                    f(&reg);
                }
            }
            reg.snapshot()
        };
        let a = make(&[0, 1, 2]);
        let b = make(&[2, 1, 0]);
        let c = make(&[1, 2, 0]);
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.counters, vec![("vqoe_b_total".to_string(), 2)]);
    }

    #[test]
    fn snapshot_excludes_runtime_metrics() {
        let reg = Registry::new();
        reg.counter("vqoe_stable_total", "s", MetricClass::Stable)
            .inc();
        reg.counter("vqoe_runtime_total", "r", MetricClass::Runtime)
            .inc();
        assert_eq!(
            reg.snapshot().counters,
            vec![("vqoe_stable_total".to_string(), 1)]
        );
        // ... but the Prometheus exposition renders both.
        let text = reg.render_prometheus();
        assert!(text.contains("vqoe_stable_total 1"));
        assert!(text.contains("vqoe_runtime_total 1"));
    }

    #[test]
    fn empty_registry_renders_valid_shapes() {
        let reg = Registry::new();
        assert_eq!(reg.render_prometheus(), "");
        assert_eq!(reg.snapshot(), Snapshot::default());
    }

    fn populated() -> Registry {
        let reg = Registry::new();
        reg.counter("vqoe_test_events_total", "e", MetricClass::Stable)
            .add(17);
        reg.gauge("vqoe_test_open", "o", MetricClass::Stable)
            .set(-4);
        let h = reg.histogram("vqoe_test_sizes", "s", MetricClass::Stable, &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5_000);
        reg
    }

    #[test]
    fn absorb_restores_counters_gauges_and_histograms() {
        let saved = populated().snapshot();
        let fresh = Registry::new();
        let c = fresh.counter("vqoe_test_events_total", "e", MetricClass::Stable);
        let g = fresh.gauge("vqoe_test_open", "o", MetricClass::Stable);
        let h = fresh.histogram("vqoe_test_sizes", "s", MetricClass::Stable, &[10, 100]);
        let absorbed = fresh.absorb(&saved).expect("snapshot absorbs");
        assert_eq!(absorbed, 3);
        assert_eq!(c.get(), 17);
        assert_eq!(g.get(), -4);
        assert_eq!(h.bucket_counts(), vec![1, 1, 1]);
        assert_eq!(h.sum(), 5_055);
        assert_eq!(h.count(), 3);
        // Round trip: the restored registry snapshots identically.
        assert_eq!(fresh.snapshot(), saved);
    }

    #[test]
    fn absorb_adds_on_top_of_existing_values() {
        let saved = populated().snapshot();
        let reg = populated();
        reg.absorb(&saved).expect("snapshot absorbs");
        assert_eq!(
            reg.counter("vqoe_test_events_total", "e", MetricClass::Stable)
                .get(),
            34
        );
        // Gauges are set, not summed: last write wins.
        assert_eq!(
            reg.gauge("vqoe_test_open", "o", MetricClass::Stable).get(),
            -4
        );
        let h = reg.histogram("vqoe_test_sizes", "s", MetricClass::Stable, &[10, 100]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 10_110);
    }

    #[test]
    fn absorb_skips_unknown_names_but_rejects_kind_mismatch() {
        let saved = populated().snapshot();
        // No registered metrics at all: everything is skipped.
        let empty = Registry::new();
        assert_eq!(empty.absorb(&saved), Ok(0));
        // Same name registered as the wrong kind: typed error.
        let wrong = Registry::new();
        wrong.gauge("vqoe_test_events_total", "e", MetricClass::Stable);
        assert_eq!(
            wrong.absorb(&saved),
            Err(SnapshotError::KindMismatch(
                "vqoe_test_events_total".to_string()
            ))
        );
        // Same histogram with different bounds: typed error.
        let bounds = Registry::new();
        bounds.histogram("vqoe_test_sizes", "s", MetricClass::Stable, &[10, 999]);
        assert_eq!(
            bounds.absorb(&saved),
            Err(SnapshotError::BoundsMismatch("vqoe_test_sizes".to_string()))
        );
    }

    #[test]
    fn absorb_handles_empty_sections() {
        let reg = populated();
        assert_eq!(reg.absorb(&Registry::new().snapshot()), Ok(0));
    }

    #[test]
    fn exemplars_keep_the_bucket_maximum_regardless_of_order() {
        let forward = Histogram::with_bounds(&[10, 100]);
        forward.enable_exemplars();
        let samples = [(5u64, 1u64, 10u64), (9, 2, 20), (7, 3, 30), (500, 4, 40)];
        for &(v, s, t) in &samples {
            forward.observe_exemplar(v, s, t);
        }
        let backward = Histogram::with_bounds(&[10, 100]);
        backward.enable_exemplars();
        for &(v, s, t) in samples.iter().rev() {
            backward.observe_exemplar(v, s, t);
        }
        assert_eq!(forward.exemplars(), backward.exemplars());
        // Bucket 0 (le=10) keeps the 9-byte sample; the +Inf bucket
        // (index 2) keeps the 500-byte one.
        assert_eq!(
            forward.exemplars(),
            vec![
                (
                    0,
                    Exemplar {
                        value: 9,
                        session: 2,
                        tick: 20
                    }
                ),
                (
                    2,
                    Exemplar {
                        value: 500,
                        session: 4,
                        tick: 40
                    }
                ),
            ]
        );
    }

    #[test]
    fn exemplar_value_ties_break_toward_smallest_session_then_tick() {
        let h = Histogram::with_bounds(&[10]);
        h.enable_exemplars();
        h.observe_exemplar(7, 9, 1);
        h.observe_exemplar(7, 3, 8);
        h.observe_exemplar(7, 3, 2);
        assert_eq!(
            h.exemplars(),
            vec![(
                0,
                Exemplar {
                    value: 7,
                    session: 3,
                    tick: 2
                }
            )]
        );
    }

    #[test]
    fn plain_histograms_capture_and_expose_nothing() {
        let reg = Registry::new();
        let h = reg.histogram("vqoe_test_sizes", "s", MetricClass::Stable, &[10]);
        h.observe_exemplar(5, 1, 1);
        assert!(h.exemplars().is_empty());
        assert_eq!(reg.snapshot().histograms[0].1.exemplars, None);
        assert!(!reg.render_prometheus().contains(" # {"));
    }

    #[test]
    fn exemplar_snapshot_round_trips_through_absorb() {
        let reg = Registry::new();
        let h = reg.histogram("vqoe_test_sizes", "s", MetricClass::Stable, &[10]);
        h.enable_exemplars();
        h.observe_exemplar(5, 11, 100);
        h.observe_exemplar(5_000, 12, 200);
        let saved = reg.snapshot();
        let exemplar = |value, session, tick| Exemplar {
            value,
            session,
            tick,
        };
        assert_eq!(
            saved.histograms[0].1.exemplars,
            Some(vec![
                (0, exemplar(5, 11, 100)),
                (1, exemplar(5_000, 12, 200))
            ])
        );

        let fresh = Registry::new();
        // Registered *without* exemplars: absorb re-enables capture so
        // the round trip is byte-identical.
        let h2 = fresh.histogram("vqoe_test_sizes", "s", MetricClass::Stable, &[10]);
        fresh.absorb(&saved).expect("snapshot absorbs");
        assert!(h2.exemplars_enabled());
        assert_eq!(fresh.snapshot(), saved);

        // An empty exemplar list re-enables capture too.
        let mut none_kept = saved;
        none_kept.histograms[0].1.exemplars = Some(Vec::new());
        let again = Registry::new();
        let h3 = again.histogram("vqoe_test_sizes", "s", MetricClass::Stable, &[10]);
        again.absorb(&none_kept).expect("snapshot absorbs");
        assert!(h3.exemplars_enabled());
    }

    #[test]
    fn exemplars_render_in_prometheus_exemplar_syntax() {
        let reg = Registry::new();
        let h = reg.histogram("vqoe_test_sizes", "s", MetricClass::Stable, &[10]);
        h.enable_exemplars();
        h.observe_exemplar(7, 42, 1_000);
        let text = reg.render_prometheus();
        assert!(
            text.contains("vqoe_test_sizes_bucket{le=\"10\"} 1 # {session=\"42\",tick=\"1000\"} 7"),
            "missing exemplar suffix in:\n{text}"
        );
    }

    #[test]
    fn describe_lists_every_metric_in_name_order() {
        let reg = populated();
        reg.counter("vqoe_test_runtime_total", "r", MetricClass::Runtime);
        let descs = reg.describe();
        let names: Vec<&str> = descs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "vqoe_test_events_total",
                "vqoe_test_open",
                "vqoe_test_runtime_total",
                "vqoe_test_sizes"
            ]
        );
        assert_eq!(descs[0].kind, "counter");
        assert_eq!(descs[1].kind, "gauge");
        assert_eq!(descs[2].class, MetricClass::Runtime);
        assert_eq!(descs[3].kind, "histogram");
        assert_eq!(descs[0].help, "e");
    }
}
