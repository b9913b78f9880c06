//! Ablations of iGuard's design choices (DESIGN.md §5).
//!
//! Each ablation isolates one ingredient of §3.2 on a fixed scenario:
//!
//! * **guidance** — replace the information-gain split search with the
//!   conventional random (feature, split) choice, keeping distillation:
//!   does guided growth (§3.2.1) matter, or is leaf labelling enough?
//! * **τ_split** — sweep the skew stopping threshold: the paper credits it
//!   for the smaller rule table (Table 1's TCAM column).
//! * **k** — sweep the augmentation count used in training/distillation.
//!
//! Every arm of every ablation fits one deterministic teacher and draws
//! its forest from the same training stream ([`ARM_STREAM`]), so arms
//! differ only in the configuration under study: the guided row, the
//! τ = 1e-2 row and the k = 64 row are the same model.

use iguard_runtime::rng::Rng;

use iguard_core::forest::{IGuardConfig, IGuardForest};
use iguard_core::rules::RuleSet;
use iguard_core::teacher::DetectorTeacher;
use iguard_iforest::{IsolationForest, IsolationForestConfig};
use iguard_metrics::DetectionSummary;
use iguard_models::detector::AnomalyDetector;
use iguard_models::magnifier::{Magnifier, MagnifierConfig};
use iguard_synth::attacks::Attack;

use crate::data::{self, Scenario, ScenarioConfig};
use crate::tune::best_threshold;

/// One ablation row.
#[derive(Clone, Debug)]
pub struct AblationPoint {
    pub label: String,
    pub summary: DetectionSummary,
    /// Whitelist rules after compilation (`None` if over budget).
    pub rules: Option<usize>,
    pub total_leaves: usize,
}

const BUDGET: usize = 600_000;

/// Seed salt of the training stream every ablation arm draws from.
const ARM_STREAM: u64 = 0xAB1;

fn teacher_for(s: &Scenario, seed: u64) -> Magnifier {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7E57);
    let mut m = Magnifier::fit(
        &s.train.features,
        &MagnifierConfig { epochs: 60, ..Default::default() },
        &mut rng,
    );
    let scores = m.scores(&s.val.features);
    let (thr, _) = best_threshold(&scores, &s.val.labels);
    m.set_threshold(thr);
    m
}

fn eval_forest(s: &Scenario, forest: &mut IGuardForest) -> (DetectionSummary, Option<usize>) {
    let val_scores = forest.scores(&s.val.features);
    let (vote_thr, _) = best_threshold(&val_scores, &s.val.labels);
    forest.set_vote_threshold(vote_thr);
    let pred = forest.predictions(&s.test.features);
    let scores = forest.scores(&s.test.features);
    let summary = DetectionSummary::compute(&s.test.labels, &pred, &scores);
    let rules = RuleSet::from_iguard(forest, BUDGET).map(|r| r.len()).ok();
    (summary, rules)
}

/// Guided vs unguided growth (distillation in both): grows a conventional
/// iForest, then transplants its partitions into the distillation +
/// vote machinery by re-using the guided pipeline with `n_candidates = 1`
/// and `k_augment = 0`, which degrades the split search to the first
/// quantile midpoint — an uninformed splitter.
pub fn guidance(attack: Attack, seed: u64) -> Vec<AblationPoint> {
    let s = data::build(attack, &ScenarioConfig::testbed(seed));
    let teacher = DetectorTeacher(teacher_for(&s, seed));
    let mut out = Vec::new();
    for (label, k, candidates) in
        [("guided (k=64, 8 candidates)", 64usize, 8usize), ("unguided (k=0, 1 candidate)", 0, 1)]
    {
        let cfg = IGuardConfig {
            n_trees: 7,
            subsample: 64,
            k_augment: k,
            n_candidates: candidates,
            ..Default::default()
        };
        let mut rng = Rng::seed_from_u64(seed ^ ARM_STREAM);
        let mut forest = IGuardForest::fit(&s.train.features, &teacher, &cfg, &mut rng);
        forest.distill(&s.train.features, &teacher, 64, &mut rng);
        let leaves = forest.total_leaves();
        let (summary, rules) = eval_forest(&s, &mut forest);
        out.push(AblationPoint { label: label.into(), summary, rules, total_leaves: leaves });
    }
    // Reference: the raw teacher and the conventional iForest.
    let t_scores = teacher.0.scores(&s.test.features);
    let t_pred: Vec<bool> = t_scores.iter().map(|&v| v > teacher.0.threshold()).collect();
    out.push(AblationPoint {
        label: "teacher (Magnifier)".into(),
        summary: DetectionSummary::compute(&s.test.labels, &t_pred, &t_scores),
        rules: None,
        total_leaves: 0,
    });
    let mut rng = Rng::seed_from_u64(seed ^ 0xAB2);
    let iforest = IsolationForest::fit(
        &s.train.features,
        &IsolationForestConfig { n_trees: 50, subsample: 128, contamination: 0.1 },
        &mut rng,
    );
    let scores = iforest.scores(&s.val.features);
    let (thr, _) = best_threshold(&scores, &s.val.labels);
    let test_scores = iforest.scores(&s.test.features);
    let pred: Vec<bool> = test_scores.iter().map(|&v| v > thr).collect();
    out.push(AblationPoint {
        label: "conventional iForest".into(),
        summary: DetectionSummary::compute(&s.test.labels, &pred, &test_scores),
        rules: None,
        total_leaves: 0,
    });
    out
}

/// τ_split sweep: the extra stopping criterion of §3.2.1, credited in
/// §4.2.2 for the smaller rule table.
pub fn tau_split(attack: Attack, seed: u64) -> Vec<AblationPoint> {
    let s = data::build(attack, &ScenarioConfig::testbed(seed));
    let teacher = DetectorTeacher(teacher_for(&s, seed));
    let mut out = Vec::new();
    for tau in [0.0f64, 1e-3, 1e-2, 1e-1] {
        let cfg = IGuardConfig {
            n_trees: 7,
            subsample: 64,
            k_augment: 64,
            tau_split: tau,
            ..Default::default()
        };
        let mut rng = Rng::seed_from_u64(seed ^ ARM_STREAM);
        let mut forest = IGuardForest::fit(&s.train.features, &teacher, &cfg, &mut rng);
        forest.distill(&s.train.features, &teacher, 64, &mut rng);
        let leaves = forest.total_leaves();
        let (summary, rules) = eval_forest(&s, &mut forest);
        out.push(AblationPoint {
            label: format!("tau_split = {tau:.0e}"),
            summary,
            rules,
            total_leaves: leaves,
        });
    }
    out
}

/// k sweep: augmentation budget during training and distillation.
pub fn k_augment(attack: Attack, seed: u64) -> Vec<AblationPoint> {
    let s = data::build(attack, &ScenarioConfig::testbed(seed));
    let teacher = DetectorTeacher(teacher_for(&s, seed));
    let mut out = Vec::new();
    for k in [0usize, 16, 64, 256] {
        let cfg = IGuardConfig { n_trees: 7, subsample: 64, k_augment: k, ..Default::default() };
        let mut rng = Rng::seed_from_u64(seed ^ ARM_STREAM);
        let mut forest = IGuardForest::fit(&s.train.features, &teacher, &cfg, &mut rng);
        forest.distill(&s.train.features, &teacher, k, &mut rng);
        let leaves = forest.total_leaves();
        let (summary, rules) = eval_forest(&s, &mut forest);
        out.push(AblationPoint { label: format!("k = {k}"), summary, rules, total_leaves: leaves });
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// The τ sweep, computed once for both tests.
    fn tau_points() -> &'static [AblationPoint] {
        static POINTS: OnceLock<Vec<AblationPoint>> = OnceLock::new();
        POINTS.get_or_init(|| tau_split(Attack::UdpDdos, 3))
    }

    #[test]
    fn tau_split_controls_model_size() {
        let points = tau_points();
        assert_eq!(points.len(), 4);
        // A permissive τ (0.1) must not grow more leaves than a strict τ (0):
        // stopping earlier ⇒ fewer leaves.
        let first = points.first().unwrap().total_leaves;
        let last = points.last().unwrap().total_leaves;
        assert!(
            last <= first,
            "τ=0.1 grew {last} leaves vs {first} at τ=0 — stopping criterion inert"
        );
    }

    #[test]
    fn guidance_ablation_produces_all_rows() {
        let points = guidance(Attack::UdpDdos, 3);
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| (0.0..=1.0).contains(&p.summary.macro_f1)));
        // The guided arm's configuration is the τ = 1e-2 default, and both
        // draw from one training stream: they must be the same model.
        let (guided, tau) = (&points[0], &tau_points()[2]);
        assert_eq!(tau.label, "tau_split = 1e-2");
        assert_eq!(
            (guided.rules, guided.total_leaves, guided.summary),
            (tau.rules, tau.total_leaves, tau.summary),
            "the guided arm and the τ = 1e-2 arm trained different models"
        );
    }
}
