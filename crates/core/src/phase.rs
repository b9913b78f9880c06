//! Per-phase guided forests for phase-aware classification.
//!
//! pForest-style phases: instead of one verdict at the packet-count
//! threshold `n`, the data plane consults an *additional* whitelist at
//! each intermediate boundary (default 4/16/64 packets). Each phase's
//! whitelist is compiled from a guided forest trained on flow features
//! truncated to that boundary's packet prefix, so the rules only ever see
//! the statistics a switch would actually have accumulated by then.
//!
//! Phase verdicts are **convict-only**: a flow that falls outside the
//! phase whitelist is confidently malicious and is blacklisted
//! immediately; a flow inside the whitelist is *not* labelled benign — it
//! escalates to the next boundary (and finally to the single-shot
//! threshold, which keeps its full two-sided semantics). The certainty
//! knob is the forest's vote-fraction threshold: raising it grows the
//! compiled benign envelope, so early phases only convict flows that a
//! super-majority of trees agree on.
//!
//! Later phases warm-start from the previous phase's forest via
//! [`IGuardForest::refit_warm`] where the bounds allow (same feature
//! dimensionality); the fused feature envelope keeps consecutive phases'
//! rule tables on the same scale so they compile to comparable TCAM
//! footprints.

use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;
use iguard_telemetry::counter;

use crate::forest::{IGuardConfig, IGuardForest};
use crate::rules::{RuleGenError, RuleSet};
use crate::teacher::Teacher;

/// Training configuration shared by every phase.
#[derive(Clone, Debug)]
pub struct PhaseTrainConfig {
    /// Guided-forest shape used for each phase's forest.
    pub forest: IGuardConfig,
    /// Vote-fraction certainty threshold applied to every phase forest
    /// before rule compilation. Higher ⇒ more trees must agree a region
    /// is malicious ⇒ a larger compiled benign envelope ⇒ fewer (more
    /// certain) early convictions.
    pub certainty: f64,
    /// Region budget per compiled phase ruleset.
    pub max_regions: usize,
    /// Warm-start later phases from the previous phase's forest when the
    /// feature dimensionality matches (it always does for the 13 switch
    /// features; truncated feature sets may differ).
    pub warm_start: bool,
}

impl Default for PhaseTrainConfig {
    fn default() -> Self {
        Self {
            forest: IGuardConfig::default(),
            certainty: 0.5,
            max_regions: 500_000,
            warm_start: true,
        }
    }
}

/// The trained phase ladder: one forest and one compiled whitelist per
/// boundary, in boundary order.
pub struct PhaseModels {
    pub forests: Vec<IGuardForest>,
    pub rulesets: Vec<RuleSet>,
    /// How many phases were warm-started from their predecessor.
    pub warm_started: usize,
}

impl PhaseModels {
    pub fn len(&self) -> usize {
        self.rulesets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rulesets.is_empty()
    }
}

/// Trains one guided forest per phase and compiles each to a whitelist.
///
/// `datasets[i]` is the benign training set whose features were extracted
/// from packet prefixes truncated at boundary `i` — the statistics the
/// data plane will actually hold when it consults phase `i`'s rules.
///
/// Phase 0 is a cold [`IGuardForest::fit`]; later phases warm-start from
/// the previous phase's forest via [`IGuardForest::refit_warm`] when
/// `cfg.warm_start` is set and the dimensionality matches (a differing
/// column count falls back to a cold fit rather than panicking). Every
/// phase is distilled, gets the certainty threshold, and compiles under
/// `cfg.max_regions`.
///
/// An empty dataset at any position is a typed
/// [`RuleGenError::EmptyTrainingSet`] — never a panic — mirroring the
/// [`crate::early::EarlyModel::train`] contract.
pub fn train_phases(
    datasets: &[Dataset],
    teacher: &dyn Teacher,
    cfg: &PhaseTrainConfig,
    rng: &mut Rng,
) -> Result<PhaseModels, RuleGenError> {
    let mut forests: Vec<IGuardForest> = Vec::with_capacity(datasets.len());
    let mut rulesets = Vec::with_capacity(datasets.len());
    let mut warm_started = 0usize;
    for data in datasets {
        if data.rows() == 0 {
            return Err(RuleGenError::EmptyTrainingSet);
        }
        let warm_from =
            forests.last().filter(|prev| cfg.warm_start && prev.bounds().len() == data.cols());
        let mut forest = match warm_from {
            Some(prev) => {
                warm_started += 1;
                counter!("core.phase.warm_starts").inc();
                prev.refit_warm(data, teacher, &cfg.forest, rng)
            }
            None => IGuardForest::fit(data, teacher, &cfg.forest, rng),
        };
        forest.distill(data, teacher, cfg.forest.k_augment, rng);
        forest.set_vote_threshold(cfg.certainty);
        let rules = RuleSet::from_iguard(&forest, cfg.max_regions)?;
        counter!("core.phase.trained").inc();
        forests.push(forest);
        rulesets.push(rules);
    }
    Ok(PhaseModels { forests, rulesets, warm_started })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Benign points cluster in the unit square's lower-left quadrant;
    /// the teacher flags anything outside it.
    struct QuadrantTeacher;

    impl Teacher for QuadrantTeacher {
        fn predict(&self, xs: &Dataset) -> Vec<bool> {
            xs.iter_rows().map(|x| x[0] > 0.5 || x[1] > 0.5).collect()
        }

        fn vote_on_set(&self, xs: &Dataset) -> bool {
            if xs.rows() == 0 {
                return false;
            }
            let mal = self.predict(xs).iter().filter(|&&m| m).count();
            mal * 2 > xs.rows()
        }
    }

    /// Mostly benign-core points plus a scatter across the whole square,
    /// so the training envelope straddles the teacher's 0.5 boundary and
    /// the guided trees have something to split on.
    fn quadrant_mix(n: usize, spread: f32, rng: &mut Rng) -> Dataset {
        let mut d = Dataset::new(2);
        for _ in 0..n {
            if rng.gen_bool(0.8) {
                d.push_row(&[rng.gen_range(0.0..spread), rng.gen_range(0.0..spread)]);
            } else {
                d.push_row(&[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
            }
        }
        d
    }

    fn cfg() -> PhaseTrainConfig {
        PhaseTrainConfig {
            forest: IGuardConfig { n_trees: 7, subsample: 64, k_augment: 32, ..Default::default() },
            certainty: 0.5,
            max_regions: 200_000,
            warm_start: true,
        }
    }

    #[test]
    fn ladder_trains_one_whitelist_per_phase_with_warm_starts() {
        let mut rng = Rng::seed_from_u64(11);
        // Successive phases see slightly wider prefixes of the same
        // distribution — the truncated-feature analogue.
        let datasets = vec![
            quadrant_mix(256, 0.35, &mut rng),
            quadrant_mix(256, 0.40, &mut rng),
            quadrant_mix(256, 0.45, &mut rng),
        ];
        let models = train_phases(&datasets, &QuadrantTeacher, &cfg(), &mut rng).unwrap();
        assert_eq!(models.len(), 3);
        assert_eq!(models.warm_started, 2, "phases 1 and 2 must warm-start");
        for (f, rules) in models.forests.iter().zip(&models.rulesets) {
            assert!(f.is_distilled());
            assert!(!rules.is_empty());
            // Deep-benign stays whitelisted; deep-malicious is convicted.
            assert!(rules.matches(&[0.1, 0.1]), "benign core must match the whitelist");
            assert!(rules.predict(&[0.9, 0.9]), "malicious corner must convict");
        }
    }

    #[test]
    fn empty_phase_dataset_is_a_typed_error_not_a_panic() {
        let mut rng = Rng::seed_from_u64(12);
        let datasets = vec![quadrant_mix(128, 0.35, &mut rng), Dataset::new(2)];
        let err = train_phases(&datasets, &QuadrantTeacher, &cfg(), &mut rng)
            .err()
            .expect("empty phase data must fail");
        assert_eq!(err, RuleGenError::EmptyTrainingSet);
    }

    #[test]
    fn dimensionality_change_falls_back_to_cold_fit() {
        let mut rng = Rng::seed_from_u64(13);
        let mut d3 = Dataset::new(3);
        for _ in 0..128 {
            d3.push_row(&[rng.gen_range(0.0..0.4), rng.gen_range(0.0..0.4), 0.1]);
        }
        let datasets = vec![quadrant_mix(128, 0.35, &mut rng), d3];
        let models = train_phases(&datasets, &QuadrantTeacher, &cfg(), &mut rng).unwrap();
        assert_eq!(models.len(), 2);
        assert_eq!(models.warm_started, 0, "2-D → 3-D must not warm-start");
    }

    #[test]
    fn higher_certainty_grows_the_benign_envelope() {
        let mut rng = Rng::seed_from_u64(14);
        let datasets = vec![quadrant_mix(256, 0.35, &mut rng)];
        let probes: Vec<[f32; 2]> =
            (0..200).map(|_| [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]).collect();
        let convictions = |certainty: f64, rng: &mut Rng| -> usize {
            let c = PhaseTrainConfig { certainty, ..cfg() };
            let mut r = Rng::seed_from_u64(99); // same forests, different compile threshold
            let _ = rng;
            let m = train_phases(&datasets, &QuadrantTeacher, &c, &mut r).unwrap();
            probes.iter().filter(|p| m.rulesets[0].predict(&p[..])).count()
        };
        let loose = convictions(0.2, &mut rng);
        let strict = convictions(0.9, &mut rng);
        assert!(
            strict <= loose,
            "raising certainty must not convict more (strict {strict} > loose {loose})"
        );
    }
}
