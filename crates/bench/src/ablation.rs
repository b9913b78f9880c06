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
//! [`Ablation::new`] builds the scenario and fits its deterministic
//! teacher once for all three sweeps. Every arm trains through the
//! student recipe ([`train_student`]) from the same training stream
//! ([`ARM_STREAM`]), so arms differ only in the configuration under study:
//! the guided row, the τ = 1e-2 row and the k = 64 row are the same model.

use iguard_runtime::rng::Rng;

use iguard_core::forest::IGuardConfig;
use iguard_core::rules::RuleSet;
use iguard_core::teacher::DetectorTeacher;
use iguard_iforest::{IsolationForest, IsolationForestConfig};
use iguard_metrics::DetectionSummary;
use iguard_models::magnifier::Magnifier;
use iguard_synth::attacks::Attack;

use crate::cpu::{fit_teacher, student_summary, train_student, Effort};
use crate::data::{self, Scenario, ScenarioConfig};

/// One ablation row.
#[derive(Clone, Debug)]
pub struct AblationPoint {
    pub label: String,
    pub summary: DetectionSummary,
    /// Whitelist rules after compilation (`None` if over budget).
    pub rules: Option<usize>,
    pub total_leaves: usize,
}

impl AblationPoint {
    /// A reference row: a detector that is not a compiled forest.
    fn reference(label: &str, summary: DetectionSummary) -> Self {
        Self { label: label.into(), summary, rules: None, total_leaves: 0 }
    }
}

const BUDGET: usize = 600_000;

/// Seed salt of the training stream every ablation arm draws from.
const ARM_STREAM: u64 = 0xAB1;

/// The fixed setting all three sweeps share: one attack's testbed
/// scenario and the testbed's quick-effort teacher, validation-tuned.
pub struct Ablation {
    s: Scenario,
    teacher: DetectorTeacher<Magnifier>,
    teacher_summary: DetectionSummary,
    seed: u64,
}

/// The arm every sweep varies: 7 trees of Ψ = 64 at k = 64 and the
/// default τ_split and candidate count.
fn base_arm() -> IGuardConfig {
    IGuardConfig { n_trees: 7, subsample: 64, k_augment: 64, ..Default::default() }
}

impl Ablation {
    /// Builds `attack`'s testbed scenario and fits its teacher.
    pub fn new(attack: Attack, seed: u64) -> Self {
        let s = data::build(attack, &ScenarioConfig::testbed(seed));
        let mut rng = Rng::seed_from_u64(seed ^ 0x7E57);
        let (teacher, teacher_summary) = fit_teacher(&s, Effort::Quick.teacher_epochs(), &mut rng);
        Self { s, teacher: DetectorTeacher(teacher), teacher_summary, seed }
    }

    /// Trains one arm through the student recipe, distilling at
    /// `distill_k`, and scores it on test.
    fn arm(&self, label: String, cfg: &IGuardConfig, distill_k: usize) -> AblationPoint {
        let mut rng = Rng::seed_from_u64(self.seed ^ ARM_STREAM);
        let forest = train_student(&self.s, &self.teacher, cfg, distill_k, &mut rng);
        AblationPoint {
            label,
            summary: student_summary(&self.s, &forest),
            rules: RuleSet::from_iguard(&forest, BUDGET).map(|r| r.len()).ok(),
            total_leaves: forest.total_leaves(),
        }
    }

    /// Guided vs unguided growth (distillation in both). The unguided arm
    /// grows with `n_candidates = 1` and `k_augment = 0`, which degrades
    /// the split search to the first quantile midpoint — an uninformed
    /// splitter — but still distills at k = 64. The raw teacher and a
    /// conventional iForest follow as references.
    pub fn guidance(&self) -> Vec<AblationPoint> {
        let unguided = IGuardConfig { k_augment: 0, n_candidates: 1, ..base_arm() };
        let mut rng = Rng::seed_from_u64(self.seed ^ 0xAB2);
        let iforest = IsolationForest::fit(
            &self.s.train.features,
            &IsolationForestConfig { n_trees: 50, subsample: 128, contamination: 0.1 },
            &mut rng,
        );
        vec![
            self.arm("guided (k=64, 8 candidates)".into(), &base_arm(), 64),
            self.arm("unguided (k=0, 1 candidate)".into(), &unguided, 64),
            AblationPoint::reference("teacher (Magnifier)", self.teacher_summary),
            AblationPoint::reference(
                "conventional iForest",
                self.s.tune_and_test(|x| iforest.scores(x)).2,
            ),
        ]
    }

    /// τ_split sweep: the extra stopping criterion of §3.2.1, credited in
    /// §4.2.2 for the smaller rule table.
    pub fn tau_split(&self) -> Vec<AblationPoint> {
        [0.0f64, 1e-3, 1e-2, 1e-1]
            .map(|tau| {
                let cfg = IGuardConfig { tau_split: tau, ..base_arm() };
                self.arm(format!("tau_split = {tau:.0e}"), &cfg, 64)
            })
            .into()
    }

    /// k sweep: augmentation budget during training and distillation.
    pub fn k_augment(&self) -> Vec<AblationPoint> {
        [0usize, 16, 64, 256]
            .map(|k| self.arm(format!("k = {k}"), &IGuardConfig { k_augment: k, ..base_arm() }, k))
            .into()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// The UDP DDoS setting and its τ sweep, built once for both tests.
    fn ablation() -> &'static Ablation {
        static ABLATION: OnceLock<Ablation> = OnceLock::new();
        ABLATION.get_or_init(|| Ablation::new(Attack::UdpDdos, 3))
    }

    fn tau_points() -> &'static [AblationPoint] {
        static POINTS: OnceLock<Vec<AblationPoint>> = OnceLock::new();
        POINTS.get_or_init(|| ablation().tau_split())
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
        let points = ablation().guidance();
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
