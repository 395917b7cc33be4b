//! Shared experiment context: corpora, trained models and the encrypted
//! evaluation world, built once and reused by every experiment.

use vqoe_changedet::SwitchScoreConfig;
use vqoe_core::avgrep_pipeline::{train_representation_detector, RepresentationTrainingReport};
use vqoe_core::stall_pipeline::{train_stall_detector, StallTrainingReport};
use vqoe_core::switch_pipeline::SwitchCalibrationReport;
use vqoe_core::{generate_traces, DatasetSpec, EncryptedEvalConfig, EncryptedWorld};
use vqoe_core::{QoeMonitor, SwitchModel};
use vqoe_ml::ForestConfig;
use vqoe_player::SessionTrace;
use vqoe_telemetry::ReassemblyConfig;

/// How big a reproduction run to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReproScale {
    /// Cleartext (progressive-heavy) corpus size.
    pub cleartext_sessions: usize,
    /// Adaptive corpus size (representation/switch models).
    pub adaptive_sessions: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for ReproScale {
    fn default() -> Self {
        ReproScale {
            cleartext_sessions: 8_000,
            adaptive_sessions: 3_000,
            seed: 2016,
        }
    }
}

impl ReproScale {
    /// A fast scale for tests and smoke runs.
    pub fn smoke() -> Self {
        ReproScale {
            cleartext_sessions: 800,
            adaptive_sessions: 400,
            seed: 2016,
        }
    }
}

/// Everything the experiments share.
pub struct ReproContext {
    /// The scale this context was built at.
    pub scale: ReproScale,
    /// §3 cleartext corpus (97 % progressive).
    pub cleartext: Vec<SessionTrace>,
    /// Adaptive-only corpus (representation & switch models).
    pub adaptive: Vec<SessionTrace>,
    /// §4.1 stall pipeline outputs (Tables 2–4) — trained on the union
    /// of both corpora (see `vqoe_core::monitor` for the rationale).
    pub stall: StallTrainingReport,
    /// §4.2 representation pipeline outputs (Tables 5–7).
    pub representation: RepresentationTrainingReport,
    /// §4.3 switch calibration (Figure 4).
    pub switch: SwitchCalibrationReport,
    /// §5 encrypted evaluation world (722 sessions).
    pub world: EncryptedWorld,
}

impl ReproContext {
    /// Build the full context (generation + training + encrypted world).
    /// At the default scale this takes tens of seconds in release mode.
    pub fn build(scale: ReproScale) -> Self {
        let cleartext = generate_traces(&DatasetSpec::cleartext_default(
            scale.cleartext_sessions,
            scale.seed,
        ));
        let adaptive = generate_traces(&DatasetSpec::adaptive_default(
            scale.adaptive_sessions,
            scale.seed ^ 0xADA7,
        ));

        let mut stall_corpus = cleartext.clone();
        stall_corpus.extend(adaptive.iter().cloned());
        let stall = train_stall_detector(&stall_corpus, ForestConfig::default(), scale.seed);
        let representation =
            train_representation_detector(&adaptive, ForestConfig::default(), scale.seed);
        let switch = SwitchModel::calibrate(&adaptive, SwitchScoreConfig::default());

        let world = EncryptedWorld::build(&EncryptedEvalConfig::paper_default(scale.seed ^ 0x5EC5))
            .expect("simulated world builds");

        ReproContext {
            scale,
            cleartext,
            adaptive,
            stall,
            representation,
            switch,
            world,
        }
    }

    /// The context's trained models as a deployable monitor with
    /// default reassembly parameters.
    pub fn monitor(&self) -> QoeMonitor {
        QoeMonitor {
            stall_model: self.stall.model.clone(),
            representation_model: self.representation.model.clone(),
            switch_model: self.switch.model,
            reassembly: ReassemblyConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_context_builds_consistently() {
        let ctx = ReproContext::build(ReproScale::smoke());
        assert_eq!(ctx.cleartext.len(), 800);
        assert_eq!(ctx.adaptive.len(), 400);
        assert!(ctx.stall.selected.len() >= 4);
        assert!(ctx.representation.selected.len() >= 10);
        assert!(ctx.switch.model.threshold().is_finite());
        assert_eq!(ctx.world.traces.len(), 722);
        assert!(ctx.world.reassembly_recall() > 0.9);
    }
}
