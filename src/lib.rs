//! # iGuard — autoencoder-distilled isolation forests for switch data planes
//!
//! A from-scratch Rust reproduction of *"iGuard: Efficient Isolation Forest
//! Design for Malicious Traffic Detection in Programmable Switches"*
//! (CoNEXT '24). This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`nn`] | from-scratch neural nets (dense + dilated conv, Adam, autoencoders) |
//! | [`flow`] | wire formats, 5-tuples, flow tables, feature extraction |
//! | [`synth`] | benign IoT + 15 attack traffic generators, adversarial transforms |
//! | [`iforest`] | conventional Isolation Forest baseline |
//! | [`models`] | kNN / PCA / X-means / VAE / Magnifier anomaly detectors |
//! | [`core`] | **the contribution**: guided training, distillation, whitelist rules |
//! | [`switch`] | Tofino-like data-plane emulator, TCAM + resource model |
//! | [`metrics`] | macro-F1, ROC/PR AUC, consistency, reward |
//!
//! ## Quickstart
//!
//! ```
//! use iguard::prelude::*;
//!
//! let mut rng = Rng::seed_from_u64(7);
//! // 1. Traffic: benign IoT + a Mirai scan, as log-compressed flow features.
//! let benign = benign_trace(300, 10.0, &mut rng);
//! let attack = Attack::Mirai.trace(60, 10.0, &mut rng);
//! let cfg = ExtractConfig { log_compress: true, ..Default::default() };
//! let train = extract_flows(&benign, &cfg);
//!
//! // 2. Teacher: a Magnifier autoencoder trained on benign flows only.
//! let mag_cfg = MagnifierConfig { epochs: 30, ..Default::default() };
//! let teacher = Magnifier::fit(&train.features, &mag_cfg, &mut rng);
//! let teacher = DetectorTeacher(teacher);
//!
//! // 3. iGuard: guided training + distillation + whitelist rules.
//! let ig_cfg = IGuardConfig { n_trees: 5, subsample: 64, ..Default::default() };
//! let mut forest = IGuardForest::fit(&train.features, &teacher, &ig_cfg, &mut rng);
//! forest.distill(&train.features, &teacher, 16, &mut rng);
//! let rules = RuleSet::from_iguard(&forest, 100_000).unwrap();
//!
//! // 4. Attack flows draw more malicious tree votes than benign ones.
//! let test = extract_flows(&attack, &cfg);
//! let mean = |xs: &Dataset| -> f64 {
//!     xs.iter_rows().map(|f| forest.score(f)).sum::<f64>() / xs.rows() as f64
//! };
//! assert!(mean(&test.features) > mean(&train.features));
//! # let _ = rules;
//! ```

#![forbid(unsafe_code)]

pub use iguard_core as core;
pub use iguard_flow as flow;
pub use iguard_iforest as iforest;
pub use iguard_metrics as metrics;
pub use iguard_models as models;
pub use iguard_nn as nn;
pub use iguard_switch as switch;
pub use iguard_synth as synth;

pub use iguard_runtime as runtime;
pub use iguard_telemetry as telemetry;

/// The names most applications need.
pub mod prelude {
    pub use iguard_runtime::rng::{Rng, SliceRandom};
    pub use iguard_runtime::Dataset;

    pub use iguard_core::early::EarlyModel;
    pub use iguard_core::error::{IguardError, TcamError};
    pub use iguard_core::forest::{IGuardConfig, IGuardForest};
    pub use iguard_core::rules::RuleSet;
    pub use iguard_core::teacher::{DetectorTeacher, EnsembleTeacher, OracleTeacher, Teacher};
    pub use iguard_flow::features::{FeatureSet, MAGNIFIER_DIM, PL_DIM, SWITCH_FL_DIM};
    pub use iguard_flow::five_tuple::FiveTuple;
    pub use iguard_flow::packet::Packet;
    pub use iguard_flow::table::FlowTableConfig;
    pub use iguard_iforest::{IsolationForest, IsolationForestConfig};
    pub use iguard_metrics::{
        best_threshold, best_threshold_among, consistency, macro_f1, pr_auc, roc_auc,
        DetectionSummary,
    };
    pub use iguard_models::detector::AnomalyDetector;
    pub use iguard_models::magnifier::MagnifierConfig;
    pub use iguard_models::Magnifier;
    pub use iguard_switch::controller::{Controller, ControllerConfig};
    pub use iguard_switch::data_plane::DataPlane;
    pub use iguard_switch::pipeline::{Pipeline, PipelineConfig};
    pub use iguard_switch::replay::{replay, ReplayConfig};
    pub use iguard_switch::resources::{ResourceModel, ResourceUsage};
    pub use iguard_switch::sharded::{ShardedPipeline, ShardedPipelineConfig};
    pub use iguard_switch::tcam::{compile_ruleset, compile_ruleset_checked, FieldSpec};
    pub use iguard_synth::attacks::{Attack, ALL_ATTACKS};
    pub use iguard_synth::benign::benign_trace;
    pub use iguard_synth::trace::{extract_flows, ExtractConfig, LabeledFlows, Trace};
}
