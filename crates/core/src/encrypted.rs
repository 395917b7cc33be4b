//! The §5 encrypted-traffic evaluation world.
//!
//! Rebuilds the paper's §5.1–§5.2 setup end to end:
//!
//! 1. One instrumented subscriber runs sequential DASH sessions under a
//!    commuting-heavy scenario mix ([`crate::spec::DatasetSpec::encrypted_default`]),
//!    producing ground truth (the handset-side logs).
//! 2. The proxy captures the same sessions **encrypted** — URIs gone,
//!    only timings, sizes and TCP statistics remain — interleaved with
//!    the subscriber's unrelated background traffic.
//! 3. Sessions are reassembled from the encrypted stream by the §5.2
//!    procedure, then joined back to ground truth by timestamps and
//!    chunk counts.
//!
//! The result is evaluation-ready: per reassembled session, a
//! network-visible [`SessionObs`] plus the impairment labels the
//! instrumented handset knew.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vqoe_features::SessionObs;
use vqoe_player::{GroundTruth, SessionTrace};
use vqoe_telemetry::capture::generate_noise;
use vqoe_telemetry::dataset::JoinedSession;
use vqoe_telemetry::{
    capture_session, join_sessions, reassemble_subscriber, CaptureConfig, ReassembledSession,
    ReassemblyConfig, TelemetryError, WeblogEntry,
};

use crate::spec::DatasetSpec;

/// Configuration of the encrypted evaluation world.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncryptedEvalConfig {
    /// Shape of the instrumented subscriber's sessions.
    pub spec: DatasetSpec,
    /// Mean idle gap between consecutive sessions (seconds).
    pub mean_gap_secs: f64,
    /// Background (non-service) transactions interleaved per session.
    pub noise_per_session: usize,
    /// Reassembly parameters.
    pub reassembly: ReassemblyConfig,
}

impl EncryptedEvalConfig {
    /// Paper-shaped defaults: 722 commuting-heavy DASH sessions.
    pub fn paper_default(seed: u64) -> Self {
        EncryptedEvalConfig {
            spec: DatasetSpec::encrypted_default(seed),
            mean_gap_secs: 240.0,
            noise_per_session: 12,
            reassembly: ReassemblyConfig::default(),
        }
    }
}

/// The fully built evaluation world.
#[derive(Debug, Clone)]
pub struct EncryptedWorld {
    /// Ground-truth traces (what the instrumented handset logged).
    pub traces: Vec<SessionTrace>,
    /// The proxy's encrypted weblog stream, noise included.
    pub entries: Vec<WeblogEntry>,
    /// Sessions recovered from the encrypted stream (§5.2).
    pub sessions: Vec<ReassembledSession>,
    /// Matches between recovered sessions and ground truth.
    pub joined: Vec<JoinedSession>,
}

impl EncryptedWorld {
    /// Build the world from a configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`TelemetryError`] from the capture stage; with
    /// simulator-generated traces (the only input this function takes)
    /// capture cannot fail, so callers may treat an error as a bug.
    pub fn build(config: &EncryptedEvalConfig) -> Result<Self, TelemetryError> {
        let traces =
            crate::generate::generate_sequential_traces(&config.spec, config.mean_gap_secs);
        let mut rng = StdRng::seed_from_u64(config.spec.seed ^ 0xE7C9_11AA);
        let mut entries: Vec<WeblogEntry> = Vec::new();
        let capture = CaptureConfig {
            encrypted: true,
            subscriber_id: 1,
        };
        for trace in &traces {
            entries.extend(capture_session(trace, &capture, &mut rng)?);
        }
        if let (Some(first), Some(last)) = (traces.first(), traces.last()) {
            let noise = generate_noise(
                1,
                first.config.start_time,
                last.ground_truth.session_end,
                config.noise_per_session * traces.len(),
                &mut rng,
            );
            entries.extend(noise);
        }
        entries.sort_by_key(|e| e.timestamp);
        let sessions = reassemble_subscriber(&entries, &config.reassembly);
        let joined = join_sessions(&sessions, &traces);
        Ok(EncryptedWorld {
            traces,
            entries,
            sessions,
            joined,
        })
    }

    /// Fraction of ground-truth sessions successfully recovered and
    /// matched (§5.2: "successfully identified the vast majority").
    pub fn reassembly_recall(&self) -> f64 {
        if self.traces.is_empty() {
            return 0.0;
        }
        self.joined.len() as f64 / self.traces.len() as f64
    }

    /// The labelled evaluation sessions, in join order: network-visible
    /// observations from the *reassembled* traffic, each with `label` of
    /// its joined ground truth and whether that session streamed
    /// adaptively (such as `FeatureSpace::label`, or the switch truth).
    /// A session labelled `None` is left out. `build_dataset` turns the
    /// rows into the 70-dim labelled stall dataset (Tables 8–9) or the
    /// 210-dim labelled representation dataset (Tables 10–11).
    pub fn labelled<C>(
        &self,
        label: impl Fn(&GroundTruth, bool) -> Option<C>,
    ) -> Vec<(SessionObs, C)> {
        self.joined
            .iter()
            .filter_map(|j| {
                let t = &self.traces[j.trace_idx];
                let class = label(&t.ground_truth, t.config.delivery.is_adaptive())?;
                Some((
                    SessionObs::from_reassembled(&self.sessions[j.reassembled_idx]),
                    class,
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqoe_features::labels::has_switches;
    use vqoe_features::{build_dataset, FeatureSpace, RepresentationSpace, StallClass, StallSpace};
    use vqoe_ml::TrainConfig;

    fn small_world(n: usize, seed: u64) -> EncryptedWorld {
        let mut config = EncryptedEvalConfig::paper_default(seed);
        config.spec.n_sessions = n;
        EncryptedWorld::build(&config).expect("simulated world builds")
    }

    #[test]
    fn empty_ground_truth_yields_zero_recall_not_a_panic() {
        // Regression: recall once divided by the ground-truth count
        // unguarded; an empty world must report 0.0, not NaN or a panic.
        let world = small_world(0, 44);
        assert!(world.traces.is_empty());
        assert_eq!(world.reassembly_recall(), 0.0);
        assert!(world.reassembly_recall().is_finite());
    }

    #[test]
    fn reassembly_recovers_the_vast_majority() {
        let world = small_world(30, 41);
        assert!(
            world.reassembly_recall() > 0.9,
            "recall {}",
            world.reassembly_recall()
        );
    }

    #[test]
    fn entries_are_encrypted_and_sorted() {
        let world = small_world(10, 42);
        assert!(world.entries.iter().all(|e| e.encrypted));
        assert!(world.entries.iter().all(|e| e.uri.is_none()));
        for w in world.entries.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
    }

    #[test]
    fn labelled_datasets_have_matching_shapes() {
        let world = small_world(20, 43);
        let stall =
            build_dataset::<StallSpace>(world.labelled(StallSpace::label), TrainConfig::auto());
        let rq = build_dataset::<RepresentationSpace>(
            world.labelled(RepresentationSpace::label),
            TrainConfig::auto(),
        );
        assert_eq!(stall.n_rows(), world.joined.len());
        assert_eq!(rq.n_rows(), world.joined.len());
        assert_eq!(stall.n_features(), 70);
        assert_eq!(rq.n_features(), 210);
    }

    #[test]
    fn joined_sessions_have_consistent_chunk_counts() {
        let world = small_world(15, 44);
        for j in &world.joined {
            let recovered = world.sessions[j.reassembled_idx].chunk_count();
            let actual = world.traces[j.trace_idx].chunks.len();
            // Counts match exactly when reassembly is clean; allow tiny
            // slack for boundary effects.
            assert!(
                (recovered as i64 - actual as i64).abs() <= 2,
                "recovered {recovered} vs actual {actual}"
            );
        }
    }

    #[test]
    fn commuting_mix_produces_impairments() {
        // The §5 set exists to evaluate impairment detection; a world
        // with zero stalls or zero switches would be vacuous.
        let world = small_world(60, 45);
        let stalls = world
            .labelled(StallSpace::label)
            .iter()
            .filter(|(_, c)| *c != StallClass::NoStalls)
            .count();
        let switches = world
            .labelled(|gt, _| Some(has_switches(gt)))
            .iter()
            .filter(|(_, s)| *s)
            .count();
        assert!(stalls > 0, "no stalled sessions in the encrypted world");
        assert!(switches > 0, "no switching sessions in the encrypted world");
    }

    #[test]
    fn world_is_deterministic() {
        let a = small_world(8, 46);
        let b = small_world(8, 46);
        assert_eq!(a.traces, b.traces);
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.sessions, b.sessions);
    }
}
