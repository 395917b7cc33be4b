//! # vqoe-features
//!
//! Feature construction and labelling for the reproduction of *Measuring
//! Video QoE from Encrypted Traffic* (IMC 2016).
//!
//! This crate turns a session's chunk-level observations — whether from
//! cleartext weblogs, encrypted reassembled sessions, or the simulator
//! directly — into the exact feature vectors and labels of §4:
//!
//! * [`obs`] — the network-visible view of a session ([`SessionObs`]): a
//!   time-ordered list of chunk observations carrying only what an
//!   operator can see for *encrypted* traffic (timing, size, transport
//!   annotations). Both dataset flavors convert into it, which is what
//!   makes "train on cleartext, evaluate on encrypted" a type-level
//!   guarantee: no ground-truth field exists on the type.
//! * [`stall`] — the §4.1 feature set: 7 summary statistics over each of
//!   the 10 Table-1 metrics = 70 features.
//! * [`representation`] — the §4.2 feature set: 15 summary statistics
//!   (4 moments + 11 percentiles) over 14 series (the 10 base metrics
//!   plus the constructed *chunk average size*, *chunk Δsize*,
//!   *chunk Δt* and *cumulative-sum throughput*) = 210 features.
//!   Both sets share one layout — the series table, the per-chunk step
//!   that yields every series' sample, and the two statistic orders —
//!   which the exact builders and the streaming digest both evaluate.
//! * [`labels`] — the labelling rules: Rebuffering Ratio → {no, mild,
//!   severe} stalling (threshold 0.1, after Krishnan et al.), mean
//!   resolution → {LD, SD, HD} (360/480 lines), and the binary
//!   has-quality-switches truth of the §4.3 switch detector.
//! * [`view`] — the per-session fan-out payload ([`SessionView`]): one
//!   shared, borrowed [`SessionObs`] plus the recovered boundaries,
//!   delivered identically to every subscribed detector.
//! * [`streaming`] — the bounded-memory fold of the same feature sets
//!   ([`StreamingSessionState`]): running moments + deterministic
//!   quantile sketches per series, emitted as approximate 70/210-dim
//!   vectors for the `Fidelity::Sketched` assessment tier (ISSUE 10).
//! * [`matrix`] — assembly of labelled [`vqoe_ml::Dataset`]s from
//!   session collections.
//! * [`obfuscation`] — provider-side shape countermeasures (padding,
//!   timing jitter, cover traffic) for the robustness extension
//!   analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Sentinel written into a feature slot whose summary statistic is
/// *undefined*: the session has chunks, but every sample of that metric
/// is non-finite (a broken tap annotation, not an absent one).
///
/// The value sits far outside the attainable range of every Table-1 /
/// §4.2 metric (timings are seconds, sizes and windows are bytes ≤ a few
/// hundred MB, ratios are `[0, 1]`), so a missing statistic can never
/// alias a genuine measurement — in particular a genuine `0.0`, which
/// `vqoe_stats::quantile`'s bare sentinel would have collided with.
/// Tree-based models simply split it off as its own regime.
///
/// Distinct from the empty-session convention: a session with *no
/// chunks* still yields the all-zero vector ("no signal", see
/// [`stall_features`]); only a non-empty series with zero finite samples
/// gets the sentinel.
pub const MISSING_STAT: f64 = -1.0e12;

pub mod labels;
mod layout;
pub mod matrix;
pub mod obfuscation;
pub mod obs;
pub mod representation;
pub mod stall;
pub mod streaming;
pub mod view;

pub use labels::{rq_label, stall_label, RqClass, StallClass};
pub use matrix::{build_representation_dataset, build_stall_dataset};
pub use obs::{ChunkObs, SessionObs};
pub use representation::{representation_feature_names, representation_features};
pub use stall::{stall_feature_names, stall_features};
pub use streaming::{SeriesState, StreamingSessionState};
pub use view::SessionView;
