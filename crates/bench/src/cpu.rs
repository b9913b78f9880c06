//! CPU experiments (paper §4.1, Figs. 5 and 8): iForest vs Magnifier vs
//! iGuard on Magnifier-grade flow features, one attack at a time.
//!
//! Also home of the two training steps every experiment shares: the
//! Magnifier teacher ([`fit_teacher`]) and the student recipe
//! ([`train_student`]).

use iguard_runtime::rng::Rng;

use iguard_core::forest::{IGuardConfig, IGuardForest};
use iguard_core::teacher::{DetectorTeacher, Teacher};
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
/// Returns the teacher and its test summary.
pub fn fit_teacher(s: &Scenario, epochs: usize, rng: &mut Rng) -> (Magnifier, DetectionSummary) {
    let cfg = MagnifierConfig { epochs, ..Default::default() };
    let mut mag = Magnifier::fit(&s.train.features, &cfg, rng);
    let (thr, _, summary) = s.tune_and_test(|x| mag.scores(x));
    mag.set_threshold(thr);
    (mag, summary)
}

/// The student recipe (§3.2) every experiment trains iGuard with: grow
/// the guided forest on the benign training flows, distill its leaves
/// with `distill_k` augmentation points each, then calibrate the vote
/// threshold on validation (the paper's grid search over T plays this
/// role). Draws from `rng` in that order. Callers distill at
/// `cfg.k_augment`, except the unguided ablation arm, which grows at
/// k = 0 and distills at k = 64. This is the one place to change how a
/// student is chosen.
pub fn train_student(
    s: &Scenario,
    teacher: &dyn Teacher,
    cfg: &IGuardConfig,
    distill_k: usize,
    rng: &mut Rng,
) -> IGuardForest {
    let mut forest = IGuardForest::fit(&s.train.features, teacher, cfg, rng);
    forest.distill(&s.train.features, teacher, distill_k, rng);
    let (vote_thr, _) = best_threshold(&forest.scores(&s.val.features), &s.val.labels);
    forest.set_vote_threshold(vote_thr);
    forest
}

/// A calibrated student's test summary: its voted verdicts, scored by the
/// fraction of trees voting malicious.
pub fn student_summary(s: &Scenario, forest: &IGuardForest) -> DetectionSummary {
    let scores = forest.scores(&s.test.features);
    DetectionSummary::compute(&s.test.labels, &forest.predictions(&s.test.features), &scores)
}

/// Trains and evaluates the conventional iForest baseline: the `(t, Ψ)`
/// grid point with the best validation F1 (the first on ties), at its
/// validation-tuned threshold.
pub fn eval_iforest(s: &Scenario, effort: Effort, seed: u64) -> DetectionSummary {
    let grid: Vec<(usize, usize)> = match effort {
        Effort::Quick => vec![(50, 128), (100, 256)],
        Effort::Full => vec![(25, 64), (50, 128), (100, 256), (100, 512)],
    };
    let tuned = grid.iter().enumerate().map(|(i, &(t, psi))| {
        let cfg = IsolationForestConfig { n_trees: t, subsample: psi, contamination: 0.1 };
        let mut rng = Rng::seed_from_u64(seed ^ (i as u64) << 8);
        let forest = IsolationForest::fit(&s.train.features, &cfg, &mut rng);
        s.tune_and_test(|x| forest.scores(x))
    });
    tuned.reduce(|best, next| if best.1 >= next.1 { best } else { next }).expect("non-empty grid").2
}

/// Trains iGuard through the student recipe, guided by a fitted teacher,
/// and evaluates it on the test set.
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
    let teacher = DetectorTeacher(teacher_model);
    let mut rng = Rng::seed_from_u64(seed ^ 0x16);
    student_summary(s, &train_student(s, &teacher, &cfg, cfg.k_augment, &mut rng))
}

/// Runs the full Fig.-5/8 comparison for one attack.
pub fn run_attack(attack: Attack, seed: u64, effort: Effort) -> CpuResult {
    let scenario = data::build(attack, &ScenarioConfig::cpu(seed));
    let iforest = eval_iforest(&scenario, effort, seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0xAE);
    let (mag, magnifier) = fit_teacher(&scenario, effort.teacher_epochs(), &mut rng);
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
