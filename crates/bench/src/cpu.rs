//! CPU experiments (paper §4.1, Figs. 5 and 8): iForest vs Magnifier vs
//! iGuard on Magnifier-grade flow features, one attack at a time.

use iguard_runtime::rng::Rng;

use iguard_core::forest::{IGuardConfig, IGuardForest};
use iguard_core::teacher::DetectorTeacher;
use iguard_iforest::{IsolationForest, IsolationForestConfig};
use iguard_metrics::{best_threshold, DetectionSummary};
use iguard_models::detector::AnomalyDetector;
use iguard_models::magnifier::{Magnifier, MagnifierConfig};
use iguard_synth::attacks::Attack;

use crate::data::{self, Scenario, ScenarioConfig};

/// One attack's CPU comparison.
#[derive(Clone, Copy, Debug)]
pub struct CpuResult {
    pub attack: Attack,
    pub iforest: DetectionSummary,
    pub magnifier: DetectionSummary,
    pub iguard: DetectionSummary,
}

/// Experiment effort level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// Small grids / epochs; minutes for all 15 attacks.
    Quick,
    /// The fuller grid of the paper.
    Full,
}

impl Effort {
    /// Training epochs of the Magnifier teacher.
    pub fn teacher_epochs(self) -> usize {
        match self {
            Effort::Quick => 60,
            Effort::Full => 150,
        }
    }
}

/// Fits the Magnifier teacher on the scenario's benign training flows,
/// drawing from `rng`, and tunes its RMSE threshold `T` on validation.
pub fn fit_teacher(s: &Scenario, epochs: usize, rng: &mut Rng) -> Magnifier {
    let cfg = MagnifierConfig { epochs, ..Default::default() };
    let mut mag = Magnifier::fit(&s.train.features, &cfg, rng);
    let (thr, _) = best_threshold(&mag.scores(&s.val.features), &s.val.labels);
    mag.set_threshold(thr);
    mag
}

/// Trains and evaluates the conventional iForest baseline with a
/// `(t, Ψ)` grid and validation-tuned threshold.
pub fn eval_iforest(s: &Scenario, effort: Effort, seed: u64) -> DetectionSummary {
    let grid: Vec<(usize, usize)> = match effort {
        Effort::Quick => vec![(50, 128), (100, 256)],
        Effort::Full => vec![(25, 64), (50, 128), (100, 256), (100, 512)],
    };
    let mut best: Option<(f64, DetectionSummary)> = None;
    for (i, &(t, psi)) in grid.iter().enumerate() {
        let cfg = IsolationForestConfig { n_trees: t, subsample: psi, contamination: 0.1 };
        let mut rng = Rng::seed_from_u64(seed ^ (i as u64) << 8);
        let forest = IsolationForest::fit(&s.train.features, &cfg, &mut rng);
        let val_scores = forest.scores(&s.val.features);
        let (thr, val_f1) = best_threshold(&val_scores, &s.val.labels);
        if best.as_ref().is_some_and(|(b, _)| *b >= val_f1) {
            continue;
        }
        let test_scores = forest.scores(&s.test.features);
        let pred: Vec<bool> = test_scores.iter().map(|&v| v > thr).collect();
        let summary = DetectionSummary::compute(&s.test.labels, &pred, &test_scores);
        best = Some((val_f1, summary));
    }
    best.expect("non-empty grid").1
}

/// Trains Magnifier on benign flows and tunes its RMSE threshold `T` on
/// validation. Returns the fitted model and its test summary.
pub fn eval_magnifier(s: &Scenario, effort: Effort, seed: u64) -> (Magnifier, DetectionSummary) {
    let mag = fit_teacher(s, effort.teacher_epochs(), &mut Rng::seed_from_u64(seed ^ 0xAE));
    let test_scores = mag.scores(&s.test.features);
    let pred: Vec<bool> = test_scores.iter().map(|&v| v > mag.threshold()).collect();
    let summary = DetectionSummary::compute(&s.test.labels, &pred, &test_scores);
    (mag, summary)
}

/// Trains iGuard guided by a fitted teacher and evaluates the distilled
/// forest on the test set.
pub fn eval_iguard(
    s: &Scenario,
    teacher_model: Magnifier,
    effort: Effort,
    seed: u64,
) -> DetectionSummary {
    let cfg = match effort {
        Effort::Quick => {
            IGuardConfig { n_trees: 9, subsample: 128, k_augment: 32, ..Default::default() }
        }
        Effort::Full => {
            IGuardConfig { n_trees: 15, subsample: 256, k_augment: 64, ..Default::default() }
        }
    };
    let mut teacher = DetectorTeacher(teacher_model);
    let mut rng = Rng::seed_from_u64(seed ^ 0x16);
    let mut forest = IGuardForest::fit(&s.train.features, &mut teacher, &cfg, &mut rng);
    forest.distill(&s.train.features, &mut teacher, cfg.k_augment, &mut rng);
    // Calibrate the vote threshold on validation (the paper's grid search
    // over T plays this role).
    let val_scores = forest.scores(&s.val.features);
    let (vote_thr, _) = best_threshold(&val_scores, &s.val.labels);
    forest.set_vote_threshold(vote_thr);
    let pred = forest.predictions(&s.test.features);
    let scores = forest.scores(&s.test.features);
    DetectionSummary::compute(&s.test.labels, &pred, &scores)
}

/// Runs the full Fig.-5/8 comparison for one attack.
pub fn run_attack(attack: Attack, seed: u64, effort: Effort) -> CpuResult {
    let scenario = data::build(attack, &ScenarioConfig::cpu(seed));
    let iforest = eval_iforest(&scenario, effort, seed);
    let (mag, magnifier) = eval_magnifier(&scenario, effort, seed);
    let iguard = eval_iguard(&scenario, mag, effort, seed);
    CpuResult { attack, iforest, magnifier, iguard }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end smoke test reproducing the Fig. 5 *shape* on one attack:
    /// iGuard ≈ Magnifier, both above the conventional iForest.
    #[test]
    fn udp_ddos_shape_matches_paper() {
        let r = run_attack(Attack::UdpDdos, 42, Effort::Quick);
        assert!(
            r.iguard.macro_f1 > r.iforest.macro_f1,
            "iGuard {:.3} should beat iForest {:.3}",
            r.iguard.macro_f1,
            r.iforest.macro_f1
        );
        assert!(r.magnifier.macro_f1 > 0.7, "teacher too weak: {:.3}", r.magnifier.macro_f1);
        assert!(r.iguard.macro_f1 > 0.7, "student too weak: {:.3}", r.iguard.macro_f1);
    }
}
