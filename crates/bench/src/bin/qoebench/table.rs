//! The benchmark's definition: workloads, metrics, units, bounds.
//!
//! `BENCHMARK.json` at the repository root states the same table for
//! the tools that run the benchmark; a unit test keeps the two equal,
//! and `--list` prints this one, so the documentation cannot drift from
//! the code.

use crate::Workload;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 10;

/// The seed whose input fingerprints are recorded below.
pub const DEFAULT_SEED: u64 = 1;

/// Whether a larger or a smaller value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, efficiency).
    Higher,
    /// Smaller is better (time, memory, waste).
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Stable name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression (gated metrics only).
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn ungated(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Gated metrics a user of the system sees, printed by every untraced
/// run and in its summary. The timings of the passes are diagnostics:
/// on the shared 2-vCPU machine the benchmark was calibrated on, sets
/// of ten runs spread them by 6–51%, beyond any bound that would catch
/// a regression (see `README.md`).
pub const END_TO_END: &[Metric] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("peak_rss_mb", "MB", Lower, 0.05),
];

/// Ungated end-to-end metrics, printed by every untraced run as metric
/// lines but kept out of its summary. An "ingest call" is one call of
/// the workload's entry point that takes records in: a whole pass for
/// `replay` and `chaos`, one record for `online`; an "emit" is a call
/// that returned at least one assessment.
pub const DIAGNOSTICS: &[Metric] = &[
    ungated("entries_per_s", "1/s", Higher),
    ungated("ingest_p50_us", "us", Lower),
    ungated("emit_p50_us", "us", Lower),
];

/// Metrics of single layers, printed by every traced run.
pub const PER_LAYER: &[Metric] = &[
    ungated("binlog.decode_ns_per_entry", "ns", Lower),
    ungated("ingest.push_ns_per_entry", "ns", Lower),
    ungated("ingest.self_ns_per_entry", "ns", Lower),
    ungated("ingest.reordered_frac", "ratio", Lower),
    ungated("ingest.duplicate_frac", "ratio", Lower),
    ungated("ingest.quarantined_frac", "ratio", Lower),
    ungated("ingest.useful_frac", "ratio", Higher),
    ungated("reassembly.push_ns_per_entry", "ns", Lower),
    ungated("reassembly.entries_per_session", "count", Higher),
    ungated("features.obs_us_per_session", "us", Lower),
    ungated("features.stall_us_per_session", "us", Lower),
    ungated("features.representation_us_per_session", "us", Lower),
    ungated("features.streaming_ns_per_chunk", "ns", Lower),
    ungated("ml.stall_predict_us", "us", Lower),
    ungated("ml.representation_predict_us", "us", Lower),
    ungated("changedet.switch_score_us", "us", Lower),
    ungated("subscribe.assess_session_us", "us", Lower),
    ungated("subscribe.fold_self_us", "us", Lower),
    ungated("engine.pass_w1_s", "s", Lower),
    ungated("engine.pass_w2_s", "s", Lower),
    ungated("engine.parallel_efficiency", "ratio", Higher),
    ungated("engine.overhead_frac", "ratio", Lower),
    ungated("engine.shard_skew", "ratio", Lower),
    ungated("online.quiet_call_ns_p50", "ns", Lower),
    ungated("online.emit_call_us_p50", "us", Lower),
    ungated("online.drain_s", "s", Lower),
    ungated("online.tracked_bytes_per_subscriber", "B", Lower),
    ungated("online.open_subscribers_peak", "count", Lower),
    ungated("online.sketched_frac", "ratio", Lower),
    ungated("obs.metrics_overhead_frac", "ratio", Lower),
    ungated("obs.trace_overhead_frac", "ratio", Lower),
    ungated("bench.trace_overhead_frac", "ratio", Lower),
    ungated("bench.spans_dropped", "count", Lower),
];

/// Why each workload is in the benchmark (one line each).
pub const WORKLOADS: &[(Workload, &str)] = &[
    (
        Workload::Replay,
        "archival replay of a packed binary tap on the 2-worker engine; clean long sessions, so \
         decode, reassembly and exact features dominate",
    ),
    (
        Workload::Chaos,
        "a hostile tap (harsh faults, id collisions) on the engine from decoded records; \
         validation, reorder and dedup grow, decode is skipped",
    ),
    (
        Workload::Online,
        "the streaming assessor fed the paper-modelled tap one record at a time, with a small \
         flood and a few sessions past the exact cap; per-record state upkeep and emits dominate",
    ),
];

/// FNV-1a fingerprints of each workload's input at [`DEFAULT_SEED`]
/// and full scale. A change to the simulator that changes a workload
/// makes the run fail instead of silently measuring something else.
pub const INPUT_FINGERPRINTS: &[(Workload, u64)] = &[
    (Workload::Replay, 0x04ca_b252_e4a4_5845),
    (Workload::Chaos, 0x893d_2357_de9a_9b5f),
    (Workload::Online, 0x161f_7ece_91ef_1ec0),
];

/// The recorded input fingerprint for `workload` at `seed`, if any.
pub fn expected_fingerprint(workload: Workload, seed: u64) -> Option<u64> {
    if seed != DEFAULT_SEED {
        return None;
    }
    INPUT_FINGERPRINTS
        .iter()
        .find(|(w, _)| *w == workload)
        .map(|&(_, fp)| fp)
}

/// The table as `--list` prints it.
pub fn listing() -> String {
    let mut out = format!("workloads (run_seconds = {RUN_SECONDS}):\n");
    for (w, why) in WORKLOADS {
        out.push_str(&format!("  {:<8} {why}\n", w.name()));
    }
    out.push_str("end-to-end metrics (untraced run; bound = allowed worsening of the median):\n");
    for m in END_TO_END {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!("{:.0}%", b * 100.0));
        out.push_str(&format!(
            "  {:<40} {:<6} {:<7} {bound}\n",
            m.name,
            m.unit,
            m.better.label()
        ));
    }
    out.push_str("diagnostics (untraced run, not gated):\n");
    for m in DIAGNOSTICS {
        out.push_str(&format!(
            "  {:<40} {:<6} {}\n",
            m.name,
            m.unit,
            m.better.label()
        ));
    }
    out.push_str("per-layer metrics (--trace 1):\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "  {:<40} {:<6} {}\n",
            m.name,
            m.unit,
            m.better.label()
        ));
    }
    out.push_str(&format!("input fingerprints at --seed {DEFAULT_SEED}:\n"));
    for (w, fp) in INPUT_FINGERPRINTS {
        out.push_str(&format!("  {:<8} {fp:016x}\n", w.name()));
    }
    out
}

/// A metric or workload name as `BENCHMARK.json` allows it: letters,
/// digits, `_`, `.` and `-`, starting with a letter or digit, at most
/// 64 long.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(DIAGNOSTICS).chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for (w, why) in WORKLOADS {
            assert!(valid_name(w.name()));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(DIAGNOSTICS
            .iter()
            .chain(PER_LAYER)
            .all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is gated");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn table_matches_benchmark_json() {
        let json: Value = serde_json::from_str(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        assert_eq!(
            json.get("run_seconds").and_then(Value::as_u64),
            Some(RUN_SECONDS)
        );
        let list = |key: &str| {
            json.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .to_vec()
        };
        let s = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (v, (w, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(s(v, "name").as_deref(), Some(w.name()));
            assert_eq!(s(v, "why").as_deref(), Some(*why));
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let metrics = list(key);
            assert_eq!(metrics.len(), table.len(), "{key} length");
            for (v, m) in metrics.iter().zip(table) {
                assert_eq!(s(v, "name").as_deref(), Some(m.name));
                assert_eq!(s(v, "unit").as_deref(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    s(v, "better").as_deref(),
                    Some(m.better.label()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    v.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn fingerprints_are_checked_only_at_the_default_seed() {
        for (w, fp) in INPUT_FINGERPRINTS {
            assert_eq!(expected_fingerprint(*w, DEFAULT_SEED), Some(*fp));
            assert_eq!(expected_fingerprint(*w, DEFAULT_SEED + 1), None);
        }
        let listing = listing();
        for m in END_TO_END.iter().chain(DIAGNOSTICS).chain(PER_LAYER) {
            assert!(listing.contains(m.name));
        }
    }
}
