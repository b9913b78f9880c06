//! # iguard-metrics — evaluation metrics for the iGuard reproduction
//!
//! Implements every metric the paper reports:
//!
//! * [`ConfusionMatrix`], precision/recall/F1 and **macro F1** (Figs. 5–9),
//!   and [`best_threshold`], the validation sweep that tunes every
//!   experiment's score threshold for macro F1,
//! * **ROC AUC** via the rank statistic (exact, ties handled) and
//!   **PR AUC** via step-wise interpolation (Figs. 5, 6, 8, 9, Tables 2–3),
//! * **consistency** `C` between a model and its compiled rule set (§3.2.3),
//! * per-packet metric helpers for the testbed experiments (§4.2.1) and the
//!   reward `α/3·(F1 + PRAUC + ROCAUC) + (1−α)(1−ρ)` used for model
//!   selection under a switch memory budget.

#![forbid(unsafe_code)]

pub mod auc;
pub mod confusion;
pub mod reward;

pub use auc::{pr_auc, roc_auc};
pub use confusion::{best_threshold, best_threshold_among, macro_f1, ConfusionMatrix};
pub use reward::{reward, DetectionSummary};

/// Consistency `C` (paper §3.2.3): the fraction of samples on which two
/// binary classifiers agree. Used to validate that compiled whitelist rules
/// retain the behaviour of the distilled forest.
///
/// # Panics
/// Panics if the slices differ in length or are empty.
pub fn consistency(a: &[bool], b: &[bool]) -> f64 {
    assert_eq!(a.len(), b.len(), "consistency needs equal-length predictions");
    assert!(!a.is_empty(), "consistency of empty predictions");
    let agree = a.iter().zip(b).filter(|(x, y)| x == y).count();
    agree as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consistency_one_for_identical() {
        let p = vec![true, false, true];
        assert_eq!(consistency(&p, &p), 1.0);
    }

    #[test]
    fn consistency_counts_agreements() {
        let a = vec![true, true, false, false];
        let b = vec![true, false, false, true];
        assert_eq!(consistency(&a, &b), 0.5);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn consistency_rejects_mismatched_lengths() {
        let _ = consistency(&[true], &[true, false]);
    }
}
