//! # vqoe-bench
//!
//! The reproduction harness for *Measuring Video QoE from Encrypted
//! Traffic* (IMC 2016): one experiment per table and figure in the
//! paper's evaluation, regenerated end to end from the simulation
//! substrate, plus the ablations called out in `DESIGN.md` and the
//! systems harnesses (`chaos-sweep`, `overload-sweep`, `setup-split`,
//! `subscriber-scaling`).
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p vqoe-bench --bin repro -- all
//! ```
//!
//! or a single artifact, scaled up:
//!
//! ```text
//! cargo run --release -p vqoe-bench --bin repro -- tab3 --sessions 20000
//! ```
//!
//! Speed is measured by `qoebench` alone, the benchmark of the
//! assessment path: its own package in `src/bin/qoebench/`, declared in
//! the root `BENCHMARK.json`.

#![warn(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod context;
pub mod experiments;
pub mod render;

pub use context::{ReproContext, ReproScale};
pub use experiments::{run_experiment, EXPERIMENTS};
