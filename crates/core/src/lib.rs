//! # vqoe-core
//!
//! The primary contribution of *Measuring Video QoE from Encrypted
//! Traffic* (Dimopoulos et al., IMC 2016), reproduced end to end: a
//! framework that detects the three key video-QoE impairments — stalls,
//! average representation quality and representation-quality switching —
//! from passively monitored traffic at a single vantage point, **even
//! when the traffic is encrypted**.
//!
//! ## The pipeline
//!
//! ```text
//!            cleartext weblogs (URIs → ground truth)         encrypted weblogs
//!                         │                                        │
//!      ┌──────────────────┴──────────┐                   session reassembly (§5.2)
//!      │   feature construction      │                             │
//!      │   (70-dim stall set,        │                   feature construction
//!      │    210-dim representation   │                             │
//!      │    set, Δsize×Δt series)    │                             ▼
//!      └──────────────────┬──────────┘          ┌─────── frozen models applied ──────┐
//!                         │                     │  stall RF · representation RF ·    │
//!      CFS + info gain → Random Forest (§4.1/2) │  σ(CUSUM(Δsize×Δt)) threshold      │
//!      CUSUM threshold calibration (§4.3)       └─────────────────────────────────────┘
//! ```
//!
//! ## Quickstart
//!
//! ```no_run
//! use vqoe_core::{QoeMonitor, TrainingConfig};
//!
//! // Train the full framework on a simulated operator dataset
//! // (cleartext weblogs with URI ground truth)...
//! let monitor = QoeMonitor::train(&TrainingConfig::default());
//!
//! // ...then assess encrypted traffic through the one front door: a
//! // single ingest pass reassembles sessions and assesses each one
//! // with the three frozen models.
//! # let entries: Vec<vqoe_telemetry::WeblogEntry> = vec![];
//! for assessment in monitor.pipeline().assess_subscriber(&entries) {
//!     println!(
//!         "session at {}: stalls={:?} quality={:?} switching={}",
//!         assessment.start, assessment.stall, assessment.representation,
//!         assessment.has_quality_switches,
//!     );
//! }
//! ```
//!
//! Modules: [`spec`] (dataset specifications), [`generate`] (parallel
//! trace generation), [`stall_pipeline`], [`avgrep_pipeline`],
//! [`switch_pipeline`] (the three detectors' training/evaluation),
//! [`subset`] (the fit step the two classifiers share and their
//! [`TrainingReport`]), [`encrypted`] (the §5 encrypted-traffic
//! evaluation), [`monitor`] (the deployable operator API, and
//! [`ModelFit`], the one path that fits the three models),
//! [`subscribe`] (the per-session
//! assessment fold and the ingest front door), [`engine`] (the sharded
//! parallel driver behind [`IngestPipeline::assess`]), [`online`] (the
//! streaming driver), [`digest`] (bounded-memory per-session digests
//! behind the sketched tier). Both drivers run one private subscriber
//! machine, so they cannot drift apart.
//!
//! Downstream code that just wants "the monitor and friends" can
//! `use vqoe_core::prelude::*;`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerting;
pub mod avgrep_pipeline;
pub mod digest;
pub mod encrypted;
pub mod engine;
pub mod generate;
pub mod metrics;
pub mod monitor;
pub mod online;
pub mod qoe_score;
mod shard;
pub mod spec;
pub mod stall_pipeline;
pub mod subscribe;
pub mod subset;
pub mod switch_pipeline;
pub mod weblog_training;

pub use alerting::{
    default_alert_rules, drift_backend, standard_alert_engine, ALERT_WINDOW_RECORDS,
};
pub use avgrep_pipeline::{RepresentationModel, RepresentationTrainingReport};
pub use digest::{claim_digest, install_digest_sink, DigestSink, SessionDigest};
pub use encrypted::{EncryptedEvalConfig, EncryptedWorld};
pub use engine::{shard_of, EngineConfig};
pub use generate::{generate_sequential_traces, generate_traces};
pub use metrics::PipelineMetrics;
pub use monitor::{
    ConfigError, Fidelity, ModelFit, QoeMonitor, SessionAssessment, TrainStage, TrainingConfig,
    TrainingConfigBuilder,
};
pub use online::{
    AdmissionPolicy, BudgetConfig, IngestReport, OnlineAssessor, OnlineCheckpoint, RestoreError,
    ShardCheckpoint, ShedEvent, ShedLog, ShedReason, ShedReasonCounts, CHECKPOINT_VERSION,
};
pub use qoe_score::QoeScore;
pub use spec::{DatasetSpec, DeliveryMix, ScenarioMix};
pub use stall_pipeline::{StallModel, StallTrainingReport};
pub use subscribe::{IngestPipeline, SubscriptionSet};
pub use subset::TrainingReport;
pub use switch_pipeline::{SwitchCalibrationReport, SwitchEvalReport, SwitchModel};
pub use vqoe_ml::TrainConfig;
pub use weblog_training::{
    capture_cleartext_corpus, representation_dataset_from_weblogs, sessions_from_weblogs,
    stall_dataset_from_weblogs,
};

/// The one-stop import for operating the monitor: train, assess
/// (batch, parallel or streaming), inspect health.
pub mod prelude {
    pub use crate::engine::EngineConfig;
    pub use crate::metrics::PipelineMetrics;
    pub use crate::monitor::{
        ConfigError, Fidelity, QoeMonitor, SessionAssessment, TrainingConfig, TrainingConfigBuilder,
    };
    pub use crate::online::{
        AdmissionPolicy, BudgetConfig, IngestReport, OnlineAssessor, OnlineCheckpoint,
        RestoreError, ShedLog, ShedReason,
    };
    pub use crate::qoe_score::QoeScore;
    pub use crate::subscribe::{IngestPipeline, SubscriptionSet};
    pub use crate::{RepresentationModel, StallModel, SwitchModel};
    pub use vqoe_features::{RqClass, SessionObs, SessionView, StallClass};
    pub use vqoe_ml::TrainConfig;
    pub use vqoe_telemetry::{BinaryCorpus, BinlogError, IngestConfig, StreamHealth, WeblogEntry};
}
