//! Shared experiment context: corpora, trained models and the encrypted
//! evaluation world, built once and reused by every experiment.

use vqoe_core::{
    EncryptedEvalConfig, EncryptedWorld, ModelFit, QoeMonitor, RepresentationTrainingReport,
    StallTrainingReport, TrainConfig, TrainingConfig,
};

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
    /// The three models and what they were fitted on: the §3 cleartext
    /// corpus (97 % progressive), the adaptive corpus, both datasets and
    /// the §4.3 switch calibration (Figure 4).
    pub fit: ModelFit,
    /// §4.1 stall report (Tables 2–4) — trained on the union of both
    /// corpora (see `vqoe_core::monitor` for the rationale).
    pub stall: StallTrainingReport,
    /// §4.2 representation report (Tables 5–7).
    pub representation: RepresentationTrainingReport,
    /// §5 encrypted evaluation world (722 sessions).
    pub world: EncryptedWorld,
}

impl ReproContext {
    /// Build the full context: one [`ModelFit::run`], its
    /// [`ModelFit::reports`] (the 10-fold CV) and the encrypted world. At the default scale this takes tens of seconds in release
    /// mode.
    pub fn build(scale: ReproScale) -> Self {
        let config = TrainingConfig {
            cleartext_sessions: scale.cleartext_sessions,
            adaptive_sessions: scale.adaptive_sessions,
            seed: scale.seed,
            train: TrainConfig::auto(),
            ..TrainingConfig::default()
        };
        let fit = ModelFit::run(&config, |_| {});
        let (stall, representation) = fit.reports();
        let world = EncryptedWorld::build(&EncryptedEvalConfig::paper_default(scale.seed ^ 0x5EC5))
            .expect("simulated world builds");

        ReproContext {
            scale,
            fit,
            stall,
            representation,
            world,
        }
    }

    /// The context's trained models as a deployable monitor with
    /// default reassembly parameters.
    pub fn monitor(&self) -> QoeMonitor {
        self.fit.monitor.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_context_builds_consistently() {
        let ctx = ReproContext::build(ReproScale::smoke());
        assert_eq!(ctx.fit.cleartext().len(), 800);
        assert_eq!(ctx.fit.adaptive.len(), 400);
        assert!(ctx.stall.selected.len() >= 4);
        assert!(ctx.representation.selected.len() >= 10);
        assert!(ctx.fit.switch.model.threshold().is_finite());
        assert_eq!(ctx.world.traces.len(), 722);
        assert!(ctx.world.reassembly_recall() > 0.9);
        // The context fits its models through the same path as the
        // operator's `QoeMonitor::train`, at any worker count.
        let sequential = TrainingConfig {
            train: TrainConfig::sequential(),
            ..ctx.fit.config
        };
        assert_eq!(ctx.monitor(), QoeMonitor::train(&sequential));
    }
}
