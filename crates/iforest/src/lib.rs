//! # iguard-iforest — conventional Isolation Forest baseline
//!
//! A faithful implementation of Isolation Forest (Liu, Ting & Zhou, ICDM
//! 2008), the baseline iGuard is compared against throughout the paper and
//! the model HorusEye deploys in switch data planes.
//!
//! * [`tree::IsolationTree`] — a single iTree grown on Ψ sub-samples with
//!   uniformly random (feature, split) choices, depth-capped at ⌈log₂ Ψ⌉.
//! * [`forest::IsolationForest`] — an ensemble of `t` iTrees with the
//!   standard anomaly score `s(x) = 2^(−E[h(x)]/c(Ψ))` and a
//!   contamination-quantile threshold, exactly the `(t, Ψ, contamination)`
//!   hyper-parameter surface the paper grid-searches (§3.1).
//! * [`forest::quantile_cut`] — that threshold's order-statistic cut, the
//!   one every detector in `iguard-models` fits its default threshold with.
//!
//! The path-length bookkeeping (the `c(n)` adjustment for unsplit internal
//! terminations) follows the original paper so that expected path lengths —
//! the quantity Figures 2 and 7 histogram — are exact.

#![forbid(unsafe_code)]

pub mod forest;
pub mod tree;

pub use forest::{quantile_cut, IsolationForest, IsolationForestConfig};
pub use tree::{average_path_length, IsolationTree};
