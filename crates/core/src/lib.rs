//! # iguard-core — the iGuard model (paper §3.2)
//!
//! The paper's primary contribution: an isolation-forest design whose
//! training is guided by a teacher (an autoencoder ensemble), whose leaves
//! are labelled by knowledge distillation, and which compiles to a small
//! set of whitelist rules installable in a switch data plane.
//!
//! * [`guided`] — **autoencoder-guided iTree training** (§3.2.1): at each
//!   node, augment the node's samples with `k` synthetic points drawn from
//!   the node's feature ranges, label the union with the teacher, and pick
//!   the split `(q*, p*)` maximising information gain; stop on `|X| ≤ 1`,
//!   `h ≥ ⌈log₂ Ψ⌉`, or class skew below `τ_split`.
//! * [`forest`] — the [`forest::IGuardForest`] ensemble: **knowledge
//!   distillation** (§3.2.2) labels each leaf by the teacher's weighted
//!   vote over expected reconstruction-error labels; inference is a
//!   majority vote of leaf labels over the `t` trees.
//! * [`rules`] — **whitelist-rule generation** (§3.2.3): decompose feature
//!   space into hypercubes on which the forest's vote is constant, merge
//!   adjacent same-label cubes, and keep the benign (label-0) cubes as
//!   whitelist rules; includes the consistency check `C`.
//! * [`drift`] — the controller-side [`drift::DriftDetector`]: a
//!   deterministic rolling-window shift detector over digest labels that
//!   triggers the warm-start retrain ([`forest::IGuardForest::refit_warm`])
//!   of the online adaptation loop.
//! * [`teacher`] — the [`teacher::Teacher`] trait decoupling the forest
//!   from any particular guide (autoencoder ensemble, VAE, oracle in
//!   tests), plus adapters. [`teacher::EnsembleTeacher`] is the workspace's
//!   one implementation of the paper's weighted member vote (Eq. 5–6).
//! * [`early`] — the early-packet model (§3.3.1): a conventional iForest
//!   on packet-level features compiled to whitelist rules and merged with
//!   the flow-level rules.
//! * [`rule_index`] — the **compiled rule index**: per-dimension sorted
//!   cut points with interval bitmaps, making first-match classification a
//!   handful of binary searches plus a word-wise AND instead of a linear
//!   scan, with bit-exact agreement with the scan on every key.
//! * [`error`] — the workspace-wide [`error::IguardError`] uniting the
//!   rule-generation, TCAM-compilation, and wire-parse error enums.
//!
//! Hyper-parameters are not searched here. The experiments fix `(t, Ψ, k)`
//! per effort level (backing off to smaller forests when a rule table
//! outgrows its budget) and tune score thresholds on validation data with
//! `iguard_metrics::best_threshold`.

#![forbid(unsafe_code)]

pub mod drift;
pub mod early;
pub mod error;
pub mod forest;
pub mod guided;
pub mod phase;
pub mod rule_index;
pub mod rules;
pub mod teacher;

pub use drift::{DriftConfig, DriftDetector};
pub use error::{IguardError, SwitchError, TcamError};
pub use forest::{IGuardConfig, IGuardForest};
pub use phase::{PhaseModels, PhaseTrainConfig};
pub use rule_index::{IndexBuilder, IntervalIndex, RuleIndex};
pub use rules::{Hypercube, RuleSet};
pub use teacher::Teacher;
