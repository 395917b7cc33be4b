//! Deterministic observability layer for the vqoe pipeline.
//!
//! The monitor runs unattended inside an operator network; the only way
//! to trust a passive QoE pipeline is to watch it run. This crate is the
//! single source of runtime telemetry for the workspace:
//!
//! - [`Registry`] — a metrics registry of monotonic [`Counter`]s,
//!   [`Gauge`]s, and fixed-boundary [`Histogram`]s. Handles are cheap
//!   `Arc`-backed clones; the hot path touches only atomics, never the
//!   registry lock. Its two locks (the entries table and the opt-in
//!   exemplar slots) are the workspace's only ones: clippy's type ban
//!   on `Mutex` / `RwLock` is lifted for that one private module.
//! - [`MetricClass`] — every metric is either `Stable` (derived purely
//!   from the input data, identical across runs and worker counts) or
//!   `Runtime` (scheduling/wall-clock dependent). The Prometheus text
//!   sink renders everything.
//! - [`Snapshot`] — the `Stable` metrics as typed state:
//!   [`Registry::snapshot`] exports it, identical for identical input,
//!   and [`Registry::absorb`] folds a saved one back in on restore. This
//!   crate hands the state over and takes it back; `vqoe-core` owns its
//!   JSON form (the `--metrics PATH.json` file and the copy a
//!   checkpoint embeds).
//! - [`Clock`] / [`SimClock`] / [`StageSpan`] — span-style stage timing
//!   behind a trait. The deterministic crates only ever see `SimClock`,
//!   a tick counter advanced by work units (entries processed), so
//!   clippy's wall-clock gate (`disallowed_types` /
//!   `disallowed_methods`, see the root `clippy.toml`) stays green.
//!   Wall-clock `Clock` implementations live in `vqoe-bench` and the
//!   `vqoe` CLI only.
//! - [`Reporter`] — a levelled (quiet/normal/verbose) stderr reporter
//!   replacing ad-hoc `eprintln!` health reporting in the CLI.
//! - [`TraceSink`] / [`Trace`] — deterministic session tracing: typed
//!   span events (ingest → reassemble → fan-out → deliver → reduce)
//!   recorded per shard job without locks, merged in emission-key
//!   order, exported as Chrome trace-event JSON and compact JSONL.
//!
//! Metric names follow `vqoe_<crate>_<subsystem>_<name>`, with the usual
//! Prometheus `_total` suffix on counters. Bucket boundaries tuned for
//! the pipeline (chunk sizes, session durations, stage latencies, work
//! ticks) live in [`buckets`].

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod buckets;
mod clock;
mod registry;
mod reporter;
mod trace;

pub use clock::{Clock, SimClock, StageSpan};
pub use registry::{
    Counter, Exemplar, Gauge, Histogram, HistogramSnapshot, MetricClass, MetricDesc, Registry,
    Snapshot, SnapshotError, EXEMPLARS_PER_BUCKET,
};
pub use reporter::{ReportLevel, Reporter};
pub use trace::{Trace, TraceConfig, TraceEvent, TraceSink, TraceStage, TRACE_FORMAT_VERSION};
