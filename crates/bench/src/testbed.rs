//! Testbed experiments (paper §4.2): iGuard vs iForest deployed as
//! whitelist rules on the emulated switch — detection (Figs. 6 and 9),
//! resources (Table 1), adversarial robustness (Tables 2–3), rule
//! consistency (§3.2.3) and throughput/latency (App. B.1).
//!
//! A [`Deployment`] is trained once per (attack, seed, effort); the
//! artefacts measure what they print from it.

use iguard_runtime::rng::Rng;

use iguard_core::early::EarlyModel;
use iguard_core::forest::{feature_bounds, IGuardConfig, IGuardForest};
use iguard_core::rules::{RuleGenError, RuleSet};
use iguard_core::teacher::DetectorTeacher;
use iguard_iforest::{IsolationForest, IsolationForestConfig};
use iguard_metrics::{consistency, DetectionSummary};
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::pipeline::{Pipeline, PipelineConfig};
use iguard_switch::replay::{replay, ControlPlaneModel, ReplayConfig, ReplayReport};
use iguard_switch::resources::{ResourceModel, ResourceUsage};
use iguard_switch::tcam::{compile_ruleset, field_specs_for_bounds, FieldSpec, RangeTable};
use iguard_synth::attacks::Attack;

use crate::cpu::{fit_teacher, train_student, Effort};
use crate::data::{self, AttackTransform, Scenario, ScenarioConfig};

/// Region budget for rule compilation.
const MAX_REGIONS: usize = 600_000;

/// 16-bit FL field encodings sized to a rule set's feature bounds, which
/// are finite for a rule set trained on extracted flows.
fn fl_specs_for(rules: &RuleSet) -> Vec<FieldSpec> {
    field_specs_for_bounds(&rules.bounds, 16).expect("trained rule bounds are finite")
}

/// Walks a back-off ladder of `(t, Ψ)` forest sizes, largest first, and
/// keeps the first model whose rules fit the region budget: a deployment
/// would do the same, since the rule table must fit the switch. `fit`
/// gets the rung's index and size.
fn first_that_fits<M>(
    what: &str,
    ladder: &[(usize, usize)],
    mut fit: impl FnMut(usize, usize, usize) -> M,
    compile: impl Fn(&M) -> Result<RuleSet, RuleGenError>,
) -> (M, RuleSet) {
    for (i, &(t, psi)) in ladder.iter().enumerate() {
        let model = fit(i, t, psi);
        match compile(&model) {
            Ok(rules) => return (model, rules),
            Err(RuleGenError::TooManyRegions { .. }) => continue,
            Err(e) => panic!("{what} compile failed: {e}"),
        }
    }
    panic!("even the smallest {what} forest exceeded the region budget");
}

/// One attack's trained testbed deployment: its scenario, both models
/// and their whitelist rule tables. Figs. 6/9, Table 1, §3.2.3 and B.1
/// each measure what they print from one of these.
pub struct Deployment {
    pub attack: Attack,
    s: Scenario,
    iguard_forest: IGuardForest,
    /// Whitelist rules (post-merge) of both models.
    pub iguard_rules: RuleSet,
    pub iforest_rules: RuleSet,
    /// The baseline; [`Self::summaries`] tunes its threshold on validation.
    iforest: IsolationForest,
    early: EarlyModel,
}

impl Deployment {
    /// Builds `attack`'s testbed scenario and trains on it.
    pub fn train(attack: Attack, seed: u64, effort: Effort) -> Self {
        Self::train_on(data::build(attack, &ScenarioConfig::testbed(seed)), effort, seed)
    }

    /// Trains both models (teacher → iGuard → rules; baseline → rules;
    /// early-packet model) on a scenario.
    fn train_on(s: Scenario, effort: Effort, seed: u64) -> Self {
        // Teacher: the custom asymmetric autoencoder of §4.2 (13 features —
        // the 2-D statistics Magnifier uses on the CPU are not extractable).
        // The same rng then grows the student forests.
        let mut rng = Rng::seed_from_u64(seed ^ 0x7E57);
        let teacher = DetectorTeacher(fit_teacher(&s, effort.teacher_epochs(), &mut rng).0);

        // iGuard student. Larger forests compile to fragmented rule tables
        // in 13-D, so the ladder backs off until the table fits.
        let ladder: &[(usize, usize)] = match effort {
            Effort::Quick => &[(9, 128), (7, 64), (5, 64)],
            Effort::Full => &[(15, 256), (11, 128), (9, 128), (7, 64)],
        };
        let student = |_, n_trees, subsample| {
            let cfg = IGuardConfig { n_trees, subsample, k_augment: 64, ..Default::default() };
            train_student(&s, &teacher, &cfg, cfg.k_augment, &mut rng)
        };
        let (iguard_forest, iguard_rules) =
            first_that_fits("iGuard", ladder, student, |f| RuleSet::from_iguard(f, MAX_REGIONS));

        // Baseline at switch-deployable (HorusEye-scale) sizes.
        let bounds = feature_bounds(&s.train.features);
        let baseline = |i: usize, n_trees, subsample| {
            let cfg = IsolationForestConfig { n_trees, subsample, contamination: 0.1 };
            let mut rng = Rng::seed_from_u64(seed ^ ((i as u64) << 12));
            IsolationForest::fit(&s.train.features, &cfg, &mut rng)
        };
        let (iforest, iforest_rules) =
            first_that_fits("baseline", &[(6, 48), (5, 32), (4, 32), (3, 16)], baseline, |f| {
                RuleSet::from_iforest(f, &bounds, MAX_REGIONS)
            });

        // Early-packet PL model.
        let pl_cfg = IsolationForestConfig { n_trees: 10, subsample: 64, contamination: 0.05 };
        let early = EarlyModel::train(&s.benign_first_pl, &pl_cfg, MAX_REGIONS, &mut rng)
            .expect("PL rules within budget");

        Self { attack: s.attack, s, iguard_forest, iguard_rules, iforest_rules, iforest, early }
    }

    /// Flow-level detection summaries of both deployed models, iForest
    /// first.
    pub fn summaries(&self) -> (DetectionSummary, DetectionSummary) {
        // The switch enforces the *rules*; scores for the AUCs come from
        // the underlying models (vote fraction / anomaly score).
        let test = &self.s.test;
        let ig_pred = self.iguard_rules.predictions(&test.features);
        let ig_scores = self.iguard_forest.scores(&test.features);
        let iguard = DetectionSummary::compute(&test.labels, &ig_pred, &ig_scores);
        let iforest = self.s.tune_and_test(|x| self.iforest.scores(x)).2;
        (iforest, iguard)
    }

    /// Rule/forest agreement on the test set (§3.2.3; the paper reports
    /// 0.992–0.996).
    pub fn consistency(&self) -> f64 {
        let test = &self.s.test.features;
        consistency(&self.iguard_rules.predictions(test), &self.iguard_forest.predictions(test))
    }

    /// Switch resource usage of both deployments, iForest first (Table 1).
    pub fn resources(&self) -> (ResourceUsage, ResourceUsage) {
        let flow_table =
            iguard_flow::table::FlowTableConfig { slots_per_table: 16_384, ..Default::default() };
        let pl_specs = vec![
            FieldSpec::new(16, 1.0), // dst port
            FieldSpec::new(8, 1.0),  // proto
            FieldSpec::new(16, 1.0), // pkt len
            FieldSpec::new(8, 1.0),  // ttl
        ];
        let ig_fl = compile_ruleset(&self.iguard_rules, &fl_specs_for(&self.iguard_rules));
        let ig_pl = compile_ruleset(&self.early.rules, &pl_specs);
        let iguard = ResourceModel::for_deployment(&ig_fl, &ig_pl, flow_table, 4096).usage();

        let if_fl = compile_ruleset(&self.iforest_rules, &fl_specs_for(&self.iforest_rules));
        let empty_pl = RangeTable::new(vec![16, 8, 16, 8]);
        let iforest = ResourceModel::for_deployment(&if_fl, &empty_pl, flow_table, 4096).usage();
        (iforest, iguard)
    }

    /// Replays the test trace through the iGuard pipeline under a
    /// control-plane model (App. B.1).
    pub fn replay(&self, cp: ControlPlaneModel) -> ReplayReport {
        let mut pipeline = Pipeline::new(
            PipelineConfig { log_compress: true, ..Default::default() },
            self.iguard_rules.clone(),
            self.early.rules.clone(),
        );
        let mut controller = Controller::new(ControllerConfig::default());
        let cfg = ReplayConfig { control_plane: cp, ..Default::default() };
        replay(&self.s.test_trace, &mut pipeline, &mut controller, &cfg)
    }
}

/// Adversarial testbed evaluation (Tables 2–3): same pipeline, transformed
/// traffic and/or poisoned training. Returns both models' summaries,
/// iForest first.
pub fn run_adversarial(
    attack: Attack,
    transform: AttackTransform,
    poison_frac: f64,
    seed: u64,
    effort: Effort,
) -> (DetectionSummary, DetectionSummary) {
    let scenario = data::build_adv(attack, &ScenarioConfig::testbed(seed), transform, poison_frac);
    Deployment::train_on(scenario, effort, seed).summaries()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_ddos_testbed_shape() {
        let d = Deployment::train(Attack::UdpDdos, 3, Effort::Quick);
        let (iforest, iguard) = d.summaries();
        assert!(
            iguard.macro_f1 > iforest.macro_f1,
            "iGuard {:.3} vs iForest {:.3}",
            iguard.macro_f1,
            iforest.macro_f1
        );
        // §3.2.3 consistency band (we allow a slightly wider floor).
        let c = d.consistency();
        assert!(c >= 0.97, "consistency {c:.4}");
        // Table 1: iGuard's extra stopping criterion shrinks the rule table.
        let (iforest_usage, iguard_usage) = d.resources();
        assert!(
            iguard_usage.tcam <= iforest_usage.tcam * 1.5,
            "iGuard TCAM {:.4} should not dwarf baseline {:.4}",
            iguard_usage.tcam,
            iforest_usage.tcam
        );
        assert!(d.replay(ControlPlaneModel::iguard()).packets > 0);
    }
}
