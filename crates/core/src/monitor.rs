//! The deployable operator API.
//!
//! [`QoeMonitor`] is the artifact the paper argues an operator can run:
//! train once on cleartext ground truth, then "the trained models can be
//! ... directly applied on the passively monitored traffic and report
//! issues in real time" (§8) — no client instrumentation, a single
//! vantage point, encryption-proof.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use vqoe_changedet::SwitchScoreConfig;
use vqoe_features::{RqClass, SessionObs, SessionView, StallClass};
use vqoe_ml::{ForestConfig, TrainConfig};
use vqoe_simnet::time::Instant;
use vqoe_telemetry::ReassemblyConfig;

use crate::avgrep_pipeline::{train_representation_detector_with, RepresentationModel};
use crate::generate::generate_traces;
use crate::metrics::PipelineMetrics;
use crate::spec::{DatasetSpec, ScenarioMix};
use crate::stall_pipeline::{train_stall_detector_with, StallModel};
use crate::subscribe::{IngestPipeline, SubscriptionSet};
use crate::switch_pipeline::SwitchModel;

/// End-to-end training configuration.
///
/// Construct it through [`TrainingConfig::builder`], which validates
/// the spec and returns a typed [`ConfigError`] instead of letting a
/// degenerate corpus panic deep inside feature selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// Cleartext corpus size for the stall model (progressive-heavy mix).
    pub cleartext_sessions: usize,
    /// Adaptive corpus size for the representation and switch models.
    pub adaptive_sessions: usize,
    /// Master seed.
    pub seed: u64,
    /// Random Forest hyperparameters (shared by both classifiers).
    pub forest: ForestConfig,
    /// Switch-detector scoring parameters.
    pub switch_scoring: SwitchScoreConfig,
    /// Optional scenario-mix override applied to *both* training
    /// corpora (`None` keeps the per-corpus presets). Must carry at
    /// least one positive weight.
    pub scenarios: Option<ScenarioMix>,
    /// Worker policy for the training fan-out (trees, CV folds, CFS
    /// candidates). Never changes the trained models — only wall-clock.
    pub train: TrainConfig,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            cleartext_sessions: 4_000,
            adaptive_sessions: 1_500,
            seed: 2016,
            forest: ForestConfig::default(),
            switch_scoring: SwitchScoreConfig::default(),
            scenarios: None,
            train: TrainConfig::sequential(),
        }
    }
}

impl TrainingConfig {
    /// Start building a validated training configuration.
    pub fn builder() -> TrainingConfigBuilder {
        TrainingConfigBuilder {
            config: TrainingConfig::default(),
        }
    }
}

/// Why a [`TrainingConfigBuilder`] rejected its spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The cleartext corpus would be empty — nothing to train the
    /// stall model on.
    ZeroCleartextSessions,
    /// The adaptive corpus would be empty — nothing to train the
    /// representation model on or calibrate the switch threshold with.
    ZeroAdaptiveSessions,
    /// A scenario-mix override carried no positive weight, so no class
    /// of sessions could ever be sampled.
    EmptyScenarioMix,
    /// The Random Forest would have zero trees.
    ZeroForestTrees,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCleartextSessions => {
                write!(f, "cleartext_sessions must be at least 1")
            }
            ConfigError::ZeroAdaptiveSessions => {
                write!(f, "adaptive_sessions must be at least 1")
            }
            ConfigError::EmptyScenarioMix => {
                write!(f, "scenario mix has no positive weight (empty class mix)")
            }
            ConfigError::ZeroForestTrees => write!(f, "forest.n_trees must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`TrainingConfig`]; see
/// [`TrainingConfig::builder`].
#[derive(Debug, Clone, Copy)]
pub struct TrainingConfigBuilder {
    config: TrainingConfig,
}

impl TrainingConfigBuilder {
    /// Cleartext corpus size for the stall model.
    pub fn cleartext_sessions(mut self, n: usize) -> Self {
        self.config.cleartext_sessions = n;
        self
    }

    /// Adaptive corpus size for the representation and switch models.
    pub fn adaptive_sessions(mut self, n: usize) -> Self {
        self.config.adaptive_sessions = n;
        self
    }

    /// Master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Random Forest hyperparameters.
    pub fn forest(mut self, forest: ForestConfig) -> Self {
        self.config.forest = forest;
        self
    }

    /// Switch-detector scoring parameters.
    pub fn switch_scoring(mut self, scoring: SwitchScoreConfig) -> Self {
        self.config.switch_scoring = scoring;
        self
    }

    /// Override the scenario mix of both training corpora.
    pub fn scenario_mix(mut self, mix: ScenarioMix) -> Self {
        self.config.scenarios = Some(mix);
        self
    }

    /// Worker threads for the training fan-out (`0` = auto, `1` =
    /// sequential). The trained models are byte-identical either way.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.train = TrainConfig::with_workers(workers);
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<TrainingConfig, ConfigError> {
        let c = &self.config;
        if c.cleartext_sessions == 0 {
            return Err(ConfigError::ZeroCleartextSessions);
        }
        if c.adaptive_sessions == 0 {
            return Err(ConfigError::ZeroAdaptiveSessions);
        }
        if c.forest.n_trees == 0 {
            return Err(ConfigError::ZeroForestTrees);
        }
        if let Some(mix) = &c.scenarios {
            let total = mix.static_home + mix.static_office + mix.commuting + mix.congested;
            if !total.is_finite() || total <= 0.0 {
                return Err(ConfigError::EmptyScenarioMix);
            }
        }
        Ok(self.config)
    }
}

/// How much of a session's stream the assessor actually saw — the
/// degraded-mode tier an [`SessionAssessment`] was produced under, so
/// downstream accuracy can be reported per tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub enum Fidelity {
    /// A proven session boundary or graceful end-of-input: the normal
    /// tier, nothing was cut short.
    #[default]
    Full,
    /// The session outgrew the per-subscriber exact-buffer cap and its
    /// tail was folded into streaming sketches: every chunk was *seen*,
    /// but the assessment ran on approximate (pinned-tolerance) feature
    /// vectors instead of the exact ones. Ranked between `Full` and
    /// `Partial` because nothing is missing — only summarized.
    Sketched,
    /// The subscriber was evicted under the subscriber-count cap (LRU)
    /// while the session was still open; the tail may be missing.
    Partial,
    /// The subscriber was force-finalized by a memory *budget* (load
    /// shedding); the session was assessed from whatever running state
    /// existed at shed time.
    Shed,
}

impl Fidelity {
    /// Stable lowercase label (report tables, metric names).
    pub fn label(&self) -> &'static str {
        match self {
            Fidelity::Full => "full",
            Fidelity::Sketched => "sketched",
            Fidelity::Partial => "partial",
            Fidelity::Shed => "shed",
        }
    }
}

/// One assessed session, as the operator's dashboard would show it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionAssessment {
    /// Recovered session start.
    pub start: Instant,
    /// Recovered session end.
    pub end: Instant,
    /// Number of media chunks observed.
    pub chunk_count: usize,
    /// Predicted stalling severity.
    pub stall: StallClass,
    /// Predicted average representation.
    pub representation: RqClass,
    /// Whether representation switching was detected.
    pub has_quality_switches: bool,
    /// The raw σ(CUSUM) switch score behind the boolean.
    pub switch_score: f64,
    /// Composite 1–5 QoE estimate from the three detections.
    pub qoe: crate::qoe_score::QoeScore,
    /// True when the session was force-closed (its subscriber was
    /// evicted or shed under memory pressure), so the tail may be
    /// missing. Kept in sync with `fidelity`: `partial` is exactly
    /// `fidelity >= Fidelity::Partial` — `Sketched` sessions saw every
    /// chunk (nothing is missing, only summarized) and stay
    /// `partial: false`.
    pub partial: bool,
    /// The degraded-mode tier this assessment was produced under (see
    /// [`Fidelity`]). Always agrees with `partial`.
    pub fidelity: Fidelity,
}

impl SessionAssessment {
    /// Tag this assessment with a degraded-mode tier, keeping the
    /// legacy `partial` flag consistent.
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self.partial = fidelity >= Fidelity::Partial;
        self
    }
}

/// The trained QoE monitoring framework: all three detectors plus the
/// encrypted-session reassembly front-end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QoeMonitor {
    /// The §4.1 stall classifier.
    pub stall_model: StallModel,
    /// The §4.2 average-representation classifier.
    pub representation_model: RepresentationModel,
    /// The §4.3 switch detector (frozen threshold).
    pub switch_model: SwitchModel,
    /// Reassembly parameters for encrypted streams.
    pub reassembly: ReassemblyConfig,
}

impl QoeMonitor {
    /// Train the full framework on simulated cleartext corpora — the
    /// paper's "use the insights and the ground truth from the
    /// non-encrypted traffic" phase.
    pub fn train(config: &TrainingConfig) -> QoeMonitor {
        Self::train_with_metrics(config, None)
    }

    /// [`QoeMonitor::train`] with an optional [`PipelineMetrics`] bundle
    /// attached: the monitor is bit-identical, and the registry behind
    /// `metrics` additionally accumulates training counters (trees
    /// fitted, CV fold spans, skipped folds).
    pub fn train_with_metrics(
        config: &TrainingConfig,
        metrics: Option<&PipelineMetrics>,
    ) -> QoeMonitor {
        let mut cleartext_spec =
            DatasetSpec::cleartext_default(config.cleartext_sessions, config.seed);
        let mut adaptive_spec =
            DatasetSpec::adaptive_default(config.adaptive_sessions, config.seed ^ 0xADA7);
        if let Some(mix) = config.scenarios {
            cleartext_spec.scenarios = mix;
            adaptive_spec.scenarios = mix;
        }
        let cleartext = generate_traces(&cleartext_spec);
        let adaptive = generate_traces(&adaptive_spec);

        // The stall model trains on the union of both corpora. The paper
        // trains it on "the entire dataset" (§3.1) whose 390 k sessions
        // include ~11.7 k adaptive ones — more adaptive sessions than our
        // whole simulated corpus. Folding the adaptive corpus in keeps
        // the *absolute* number of adaptive training examples meaningful
        // at simulation scale rather than preserving the 3 % share.
        let mut stall_corpus = cleartext.clone();
        stall_corpus.extend(adaptive.iter().cloned());
        let stall = train_stall_detector_with(
            &stall_corpus,
            config.forest,
            config.seed,
            config.train,
            metrics,
        );
        let rep = train_representation_detector_with(
            &adaptive,
            config.forest,
            config.seed,
            config.train,
            metrics,
        );
        let switch = SwitchModel::calibrate(&adaptive, config.switch_scoring);

        QoeMonitor {
            stall_model: stall.model,
            representation_model: rep.model,
            switch_model: switch.model,
            reassembly: ReassemblyConfig::default(),
        }
    }

    /// The paper's three detectors subscribed against this monitor's
    /// frozen models — the standard [`SubscriptionSet`] every entry
    /// point fans sessions out to.
    pub fn subscriptions(&self) -> SubscriptionSet<'_> {
        SubscriptionSet::standard(self)
    }

    /// The one front door for assessing traffic with this monitor: an
    /// [`IngestPipeline`] with default engine and hardening parameters
    /// (compose `with_engine` / `with_ingest` / `with_metrics` on it).
    pub fn pipeline(&self) -> IngestPipeline<'_> {
        IngestPipeline::new(self)
    }

    /// Assess one already-extracted session: fan its shared view out
    /// to the standard subscriptions and fold the signals.
    pub fn assess_session(
        &self,
        obs: &SessionObs,
        start: Instant,
        end: Instant,
    ) -> SessionAssessment {
        self.subscriptions()
            .assess_session(SessionView::new(obs, start, end))
    }

    /// Serialize the trained monitor to JSON (model shipping).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Load a monitor from JSON produced by [`QoeMonitor::to_json`].
    pub fn from_json(json: &str) -> serde_json::Result<QoeMonitor> {
        serde_json::from_str(json)
    }
}

/// A convenience seeded RNG for callers that need one alongside the
/// monitor (e.g. capture in examples).
pub fn example_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encrypted::{EncryptedEvalConfig, EncryptedWorld};

    fn tiny_config() -> TrainingConfig {
        TrainingConfig {
            cleartext_sessions: 250,
            adaptive_sessions: 150,
            seed: 51,
            ..TrainingConfig::default()
        }
    }

    #[test]
    fn end_to_end_train_and_assess() {
        let monitor = QoeMonitor::train(&tiny_config());
        let mut config = EncryptedEvalConfig::paper_default(52);
        config.spec.n_sessions = 12;
        let world = EncryptedWorld::build(&config).expect("simulated world builds");
        let assessments = monitor.pipeline().assess_subscriber(&world.entries);
        assert!(!assessments.is_empty());
        assert!(assessments.len() <= 13);
        for a in &assessments {
            assert!(a.chunk_count >= 3);
            assert!(a.end > a.start);
            assert!(a.switch_score.is_finite());
        }
    }

    #[test]
    fn monitor_roundtrips_through_json() {
        let monitor = QoeMonitor::train(&tiny_config());
        let json = monitor.to_json().unwrap();
        let back = QoeMonitor::from_json(&json).unwrap();
        assert_eq!(monitor, back);
    }

    #[test]
    fn training_is_deterministic() {
        let a = QoeMonitor::train(&tiny_config());
        let b = QoeMonitor::train(&tiny_config());
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_training_yields_the_identical_monitor() {
        let sequential = QoeMonitor::train(&tiny_config());
        for workers in [2usize, 7] {
            let cfg = TrainingConfig {
                train: TrainConfig::with_workers(workers),
                ..tiny_config()
            };
            assert_eq!(QoeMonitor::train(&cfg), sequential, "workers {workers}");
        }
    }

    #[test]
    fn assessments_track_the_switch_threshold() {
        let monitor = QoeMonitor::train(&tiny_config());
        let mut config = EncryptedEvalConfig::paper_default(53);
        config.spec.n_sessions = 10;
        let world = EncryptedWorld::build(&config).expect("simulated world builds");
        for a in monitor.pipeline().assess_subscriber(&world.entries) {
            assert_eq!(
                a.has_quality_switches,
                a.switch_score > monitor.switch_model.threshold()
            );
        }
    }

    #[test]
    fn builder_round_trips_the_field_poking_construction() {
        let poked = tiny_config();
        let built = TrainingConfig::builder()
            .cleartext_sessions(250)
            .adaptive_sessions(150)
            .seed(51)
            .build()
            .expect("valid config");
        assert_eq!(poked, built);
    }

    #[test]
    fn builder_rejects_degenerate_specs_with_typed_errors() {
        assert_eq!(
            TrainingConfig::builder().cleartext_sessions(0).build(),
            Err(ConfigError::ZeroCleartextSessions)
        );
        assert_eq!(
            TrainingConfig::builder().adaptive_sessions(0).build(),
            Err(ConfigError::ZeroAdaptiveSessions)
        );
        assert_eq!(
            TrainingConfig::builder()
                .forest(ForestConfig {
                    n_trees: 0,
                    ..ForestConfig::default()
                })
                .build(),
            Err(ConfigError::ZeroForestTrees)
        );
        let empty = ScenarioMix {
            static_home: 0.0,
            static_office: 0.0,
            commuting: 0.0,
            congested: 0.0,
        };
        let err = TrainingConfig::builder()
            .scenario_mix(empty)
            .build()
            .expect_err("empty class mix must be rejected");
        assert_eq!(err, ConfigError::EmptyScenarioMix);
        assert!(err.to_string().contains("empty class mix"));
    }

    #[test]
    fn scenario_mix_override_reaches_training_and_stays_deterministic() {
        let mix = ScenarioMix {
            static_home: 1.0,
            static_office: 0.0,
            commuting: 0.0,
            congested: 0.0,
        };
        let cfg = TrainingConfig::builder()
            .cleartext_sessions(120)
            .adaptive_sessions(80)
            .seed(54)
            .scenario_mix(mix)
            .build()
            .expect("valid config");
        let a = QoeMonitor::train(&cfg);
        let b = QoeMonitor::train(&cfg);
        assert_eq!(a, b);
        // The override changes the corpus, hence the trained models.
        let preset = QoeMonitor::train(
            &TrainingConfig::builder()
                .cleartext_sessions(120)
                .adaptive_sessions(80)
                .seed(54)
                .build()
                .expect("valid config"),
        );
        assert_ne!(a, preset);
    }
}
