//! # vqoe-changedet
//!
//! Time-series change detection for representation-switch detection
//! (§4.3 of *Measuring Video QoE from Encrypted Traffic*, IMC 2016).
//!
//! The paper's third detector is not ML: for each session it computes
//! the series `Δsize × Δt` over consecutive chunks, runs the Cumulative
//! Sum Control Chart (CUSUM, Page 1954) over it, and scores the session
//! by the **standard deviation of the CUSUM output** — large shifts from
//! the running mean (a representation switch re-entering its start-up
//! phase) blow the CUSUM up, flat steady-state delivery keeps it near
//! zero. A single threshold on that score separates sessions with and
//! without quality switches (Figure 4; the paper's calibrated value is
//! 500 in its units).
//!
//! Modules: [`cusum`] implements the control chart; [`detector`] the
//! session-scoring pipeline (start-up filtering, Δsize × Δt series,
//! scoring, thresholding and threshold calibration); [`streaming`] the
//! bounded-memory one-pass variant of the session score used by the
//! `Fidelity::Sketched` assessment tier (ISSUE 10).

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod cusum;
pub mod detector;
pub mod streaming;

pub use cusum::{cusum_series, drift_alarm, CusumConfig};
pub use detector::{
    calibrate_threshold, delta_product_series, session_score, SwitchDetector, SwitchScoreConfig,
};
pub use streaming::{StreamingSwitchScore, SWITCH_PREFIX_CAP};
