//! The iGuard forest: guided ensemble + knowledge distillation (§3.2.2).
//!
//! Trees are independent given the (shared, `Sync`) teacher, so both
//! training and distillation fan out across the runtime worker pool: each
//! tree draws from its own RNG stream `base.derive(tree_index)`, which
//! makes the result bit-identical at any `IGUARD_WORKERS` setting.

use iguard_runtime::rng::Rng;
use iguard_runtime::rng::SliceRandom;
use iguard_runtime::{par, Dataset};
use iguard_telemetry::{counter, span};

use crate::guided::{augment, GuidedTree, GuidedTreeConfig};
use crate::teacher::Teacher;

/// The full iGuard hyper-parameter surface the paper grid-searches:
/// `(t, Ψ, k, T)` — `T` lives inside the teacher (its RMSE threshold).
#[derive(Clone, Copy, Debug)]
pub struct IGuardConfig {
    /// `t`: number of guided trees.
    pub n_trees: usize,
    /// `Ψ`: sub-sample size per tree.
    pub subsample: usize,
    /// `k`: augmentation points per node (training) and per leaf
    /// (distillation).
    pub k_augment: usize,
    /// `τ_split` stopping threshold.
    pub tau_split: f64,
    /// Split candidates per feature during the information-gain search.
    pub n_candidates: usize,
}

impl Default for IGuardConfig {
    fn default() -> Self {
        Self { n_trees: 20, subsample: 256, k_augment: 32, tau_split: 1e-2, n_candidates: 8 }
    }
}

/// A trained (and optionally distilled) iGuard forest.
#[derive(Clone)]
pub struct IGuardForest {
    trees: Vec<GuidedTree>,
    bounds: Vec<(f32, f32)>,
    distilled: bool,
    /// Vote-fraction threshold: predict malicious when more than this
    /// fraction of trees vote malicious. 0.5 = the paper's plain majority;
    /// tuned on validation like the other thresholds in the pipeline.
    vote_threshold: f64,
}

impl IGuardForest {
    /// Autoencoder-guided training (paper §3.2.1): grows `t` guided trees
    /// on Ψ-sub-samples of the benign training set under the teacher,
    /// one worker per tree.
    pub fn fit(data: &Dataset, teacher: &dyn Teacher, cfg: &IGuardConfig, rng: &mut Rng) -> Self {
        let bounds = feature_bounds(data);
        Self::fit_with_bounds(data, bounds, teacher, cfg, rng)
    }

    /// Warm-start retrain for drift adaptation: regrows the trees on the
    /// new window but **fuses the previous generation's feature bounds**
    /// into the new envelope (per-feature union) and carries the tuned
    /// vote threshold over. Fused bounds keep the retrained rule
    /// hypercubes on the same feature envelope as the installed
    /// generation, so the compiled tables stay close and the install
    /// delta (the rule diff) stays small; a cold `fit` on a shifted
    /// window would re-derive every cube against fresh bounds and churn
    /// the whole table. The caller re-distills, exactly as after `fit`.
    pub fn refit_warm(
        &self,
        data: &Dataset,
        teacher: &dyn Teacher,
        cfg: &IGuardConfig,
        rng: &mut Rng,
    ) -> Self {
        assert_eq!(
            data.cols(),
            self.bounds.len(),
            "warm refit window must keep the feature dimensionality"
        );
        let mut bounds = feature_bounds(data);
        for (b, prev) in bounds.iter_mut().zip(&self.bounds) {
            b.0 = b.0.min(prev.0);
            b.1 = b.1.max(prev.1);
        }
        counter!("core.forest.warm_refits").inc();
        let mut forest = Self::fit_with_bounds(data, bounds, teacher, cfg, rng);
        forest.vote_threshold = self.vote_threshold;
        forest
    }

    fn fit_with_bounds(
        data: &Dataset,
        bounds: Vec<(f32, f32)>,
        teacher: &dyn Teacher,
        cfg: &IGuardConfig,
        rng: &mut Rng,
    ) -> Self {
        assert!(data.rows() > 0, "cannot fit on empty data");
        assert!(cfg.n_trees > 0, "need at least one tree");
        assert!(cfg.subsample > 1, "subsample must exceed 1");
        let psi = cfg.subsample.min(data.rows());
        let tree_cfg = GuidedTreeConfig {
            max_depth: (psi as f64).log2().ceil() as usize,
            k_augment: cfg.k_augment,
            tau_split: cfg.tau_split,
            n_candidates: cfg.n_candidates,
        };
        let all: Vec<usize> = (0..data.rows()).collect();
        let base = rng.split();
        let trees = span!("core.forest.fit").time(|| {
            par::par_map_range(cfg.n_trees, |i| {
                let mut tree_rng = base.derive(i as u64);
                let sample: Vec<usize> = all.choose_multiple(&mut tree_rng, psi).copied().collect();
                GuidedTree::fit(data, &sample, &bounds, teacher, &tree_cfg, &mut tree_rng)
            })
        });
        counter!("core.forest.trees_fit").add(trees.len() as u64);
        Self { trees, bounds, distilled: false, vote_threshold: 0.5 }
    }

    /// Knowledge distillation (paper §3.2.2): routes every training sample
    /// through every tree, augments each leaf with points from the leaf's
    /// feature ranges, and labels the leaf with the teacher's vote over
    /// the expected reconstruction errors (Eq. 5–6). Trees distill in
    /// parallel on derived RNG streams.
    ///
    /// Deviation from the paper's literal text: augmentation *tops up*
    /// each leaf to `k_augment` samples rather than unconditionally adding
    /// `k_augment`. Synthetic points draw each feature independently, so
    /// they sit far off the benign manifold and carry large reconstruction
    /// errors; added unconditionally they dominate Eq. 5's expectation and
    /// flip leaves that hundreds of real benign samples route to.
    /// Augmentation's role — making *sparse and empty* leaves labelable —
    /// is preserved.
    pub fn distill(
        &mut self,
        data: &Dataset,
        teacher: &dyn Teacher,
        k_augment: usize,
        rng: &mut Rng,
    ) {
        let _span = span!("core.forest.distill");
        let base = rng.split();
        let indexed: Vec<(usize, GuidedTree)> =
            std::mem::take(&mut self.trees).into_iter().enumerate().collect();
        self.trees = _span.time(|| {
            par::par_map_vec(indexed, |(ti, mut tree)| {
                let mut tree_rng = base.derive(ti as u64);
                // Bucket training samples per leaf.
                let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); tree.n_leaves()];
                for i in 0..data.rows() {
                    buckets[tree.leaf_of(data.row(i))].push(i);
                }
                for (leaf_id, bucket) in buckets.into_iter().enumerate() {
                    let mut set = data.select_rows(&bucket);
                    let top_up = k_augment.saturating_sub(set.rows()).max(if set.rows() == 0 {
                        1
                    } else {
                        0
                    });
                    // Top-up points sample the leaf's *volume* (paper footnote
                    // 7's bounds distribution): a sparse leaf whose box is
                    // mostly off the benign manifold should read as malicious
                    // even though a handful of benign samples routed into it.
                    augment(&tree.leaves[leaf_id].bounds, top_up, &mut tree_rng, &mut set);
                    tree.leaves[leaf_id].label = Some(teacher.vote_on_set(&set));
                }
                tree
            })
        });
        counter!("core.forest.leaves_distilled").add(self.total_leaves() as u64);
        self.distilled = true;
    }

    /// Whether distillation has labelled every leaf.
    pub fn is_distilled(&self) -> bool {
        self.distilled
    }

    /// Vote of leaf labels over the `t` trees: malicious when the
    /// malicious-vote fraction exceeds [`Self::vote_threshold`]
    /// (`label(x) = majority_vote(label_leaf)` at the default 0.5, §3.2.2).
    ///
    /// # Panics
    /// Panics if called before [`Self::distill`].
    pub fn predict(&self, x: &[f32]) -> bool {
        assert!(self.distilled, "predict called before distillation");
        let mal = self.trees.iter().filter(|t| t.predict(x).expect("undistilled leaf")).count();
        mal >= self.votes_needed()
    }

    /// The smallest malicious-vote count that crosses the vote threshold.
    pub fn votes_needed(&self) -> usize {
        ((self.vote_threshold * self.trees.len() as f64).floor() as usize + 1).min(self.trees.len())
    }

    /// Current vote-fraction threshold.
    pub fn vote_threshold(&self) -> f64 {
        self.vote_threshold
    }

    /// Overrides the vote-fraction threshold (validation tuning). Values
    /// are clamped to [0, 1).
    pub fn set_vote_threshold(&mut self, v: f64) {
        self.vote_threshold = v.clamp(0.0, 0.999_999);
    }

    /// Continuous score: the fraction of trees voting malicious — used for
    /// the AUC metrics.
    pub fn score(&self, x: &[f32]) -> f64 {
        assert!(self.distilled, "score called before distillation");
        let mal = self.trees.iter().filter(|t| t.predict(x).expect("undistilled leaf")).count();
        mal as f64 / self.trees.len() as f64
    }

    /// Batch predictions over the rows of `xs`, in parallel.
    pub fn predictions(&self, xs: &Dataset) -> Vec<bool> {
        par::par_map_range(xs.rows(), |i| self.predict(xs.row(i)))
    }

    /// Batch scores over the rows of `xs`, in parallel.
    pub fn scores(&self, xs: &Dataset) -> Vec<f64> {
        par::par_map_range(xs.rows(), |i| self.score(xs.row(i)))
    }

    /// Global feature bounds seen at fit time.
    pub fn bounds(&self) -> &[(f32, f32)] {
        &self.bounds
    }

    pub fn trees(&self) -> &[GuidedTree] {
        &self.trees
    }

    /// Total leaves across trees (a proxy for model size).
    pub fn total_leaves(&self) -> usize {
        self.trees.iter().map(|t| t.n_leaves()).sum()
    }
}

/// Per-feature (min, max) over a dataset, widened so max is exclusive-safe.
pub fn feature_bounds(data: &Dataset) -> Vec<(f32, f32)> {
    assert!(data.rows() > 0);
    let dim = data.cols();
    let mut bounds = vec![(f32::INFINITY, f32::NEG_INFINITY); dim];
    for x in data.iter_rows() {
        for (b, &v) in bounds.iter_mut().zip(x) {
            b.0 = b.0.min(v);
            b.1 = b.1.max(v);
        }
    }
    // Widen degenerate / exact bounds slightly so every training point lies
    // strictly inside `[lo, hi)`. The widening must survive f32 rounding
    // even for large constant features (e.g. TTL = 64), so it scales with
    // the magnitude of the bound, not just the span.
    for b in &mut bounds {
        let span = (b.1 - b.0).abs().max(1e-6);
        let mut new_hi = b.1 + span * 1e-3;
        if new_hi <= b.1 {
            new_hi = b.1 + b.1.abs().max(1.0) * 1e-4;
        }
        debug_assert!(new_hi > b.1);
        b.1 = new_hi;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::teacher::OracleTeacher;
    use iguard_runtime::rng::Rng;

    fn uniform_data(n: usize, rng: &mut Rng) -> Dataset {
        let mut d = Dataset::new(2);
        for _ in 0..n {
            d.push_row(&[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
        }
        d
    }

    fn quick_cfg() -> IGuardConfig {
        IGuardConfig { n_trees: 9, subsample: 128, k_augment: 32, ..Default::default() }
    }

    #[test]
    fn learns_oracle_half_plane() {
        let mut rng = Rng::seed_from_u64(1);
        let data = uniform_data(512, &mut rng);
        let teacher = OracleTeacher(|x: &[f32]| x[0] > 0.55);
        let mut forest = IGuardForest::fit(&data, &teacher, &quick_cfg(), &mut rng);
        forest.distill(&data, &teacher, 32, &mut rng);
        // Evaluate far from the boundary.
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..200 {
            let x: Vec<f32> = vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)];
            if (x[0] - 0.55).abs() < 0.1 {
                continue;
            }
            total += 1;
            if forest.predict(&x) == (x[0] > 0.55) {
                correct += 1;
            }
        }
        assert!(correct as f64 / total as f64 > 0.9, "accuracy {correct}/{total} too low");
    }

    #[test]
    #[should_panic(expected = "before distillation")]
    fn predict_requires_distillation() {
        let mut rng = Rng::seed_from_u64(2);
        let data = uniform_data(64, &mut rng);
        let teacher = OracleTeacher(|_: &[f32]| false);
        let forest = IGuardForest::fit(&data, &teacher, &quick_cfg(), &mut rng);
        let _ = forest.predict(&[0.5, 0.5]);
    }

    #[test]
    fn score_is_vote_fraction() {
        let mut rng = Rng::seed_from_u64(3);
        let data = uniform_data(256, &mut rng);
        let teacher = OracleTeacher(|x: &[f32]| x[0] > 0.5);
        let mut forest = IGuardForest::fit(&data, &teacher, &quick_cfg(), &mut rng);
        forest.distill(&data, &teacher, 16, &mut rng);
        for x in [[0.1f32, 0.5], [0.9, 0.5]] {
            let s = forest.score(&x);
            assert!((0.0..=1.0).contains(&s));
            assert_eq!(forest.predict(&x), s > 0.5);
        }
    }

    #[test]
    fn all_leaves_labelled_after_distill() {
        let mut rng = Rng::seed_from_u64(4);
        let data = uniform_data(256, &mut rng);
        let teacher = OracleTeacher(|x: &[f32]| x[1] > 0.7);
        let mut forest = IGuardForest::fit(&data, &teacher, &quick_cfg(), &mut rng);
        forest.distill(&data, &teacher, 8, &mut rng);
        for tree in forest.trees() {
            assert!(tree.leaves.iter().all(|l| l.label.is_some()));
        }
    }

    #[test]
    fn warm_refit_fuses_bounds_and_carries_threshold() {
        let mut rng = Rng::seed_from_u64(11);
        let wide = uniform_data(256, &mut rng);
        let teacher = OracleTeacher(|x: &[f32]| x[0] > 0.5);
        let mut first = IGuardForest::fit(&wide, &teacher, &quick_cfg(), &mut rng);
        first.set_vote_threshold(0.37);
        // The retrain window covers a narrower slice of feature space.
        let mut narrow = Dataset::new(2);
        for _ in 0..256 {
            narrow.push_row(&[rng.gen_range(0.4..0.6), rng.gen_range(0.4..0.6)]);
        }
        let second = first.refit_warm(&narrow, &teacher, &quick_cfg(), &mut rng);
        assert_eq!(second.vote_threshold(), 0.37, "tuned threshold must carry over");
        for (sb, fb) in second.bounds().iter().zip(first.bounds()) {
            assert!(sb.0 <= fb.0 && sb.1 >= fb.1, "fused bounds must cover the old envelope");
        }
        // A cold fit on the same narrow window shrinks to the window.
        let cold = IGuardForest::fit(&narrow, &teacher, &quick_cfg(), &mut rng);
        assert!(cold.bounds()[0].0 > first.bounds()[0].0);
    }

    #[test]
    fn warm_refit_is_seeded_deterministic() {
        let mut drng = Rng::seed_from_u64(12);
        let data = uniform_data(256, &mut drng);
        let teacher = OracleTeacher(|x: &[f32]| x[1] > 0.6);
        let run = || {
            let mut rng = Rng::seed_from_u64(21);
            let first = IGuardForest::fit(&data, &teacher, &quick_cfg(), &mut rng);
            let mut second = first.refit_warm(&data, &teacher, &quick_cfg(), &mut rng);
            second.distill(&data, &teacher, 16, &mut rng);
            second.scores(&data)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn feature_bounds_cover_data() {
        let data = Dataset::from_rows(&[vec![1.0f32, -5.0], vec![3.0, 2.0]]);
        let b = feature_bounds(&data);
        assert!(b[0].0 <= 1.0 && b[0].1 > 3.0);
        assert!(b[1].0 <= -5.0 && b[1].1 > 2.0);
    }

    #[test]
    fn pure_benign_teacher_gives_single_leaf_trees() {
        let mut rng = Rng::seed_from_u64(5);
        let data = uniform_data(256, &mut rng);
        let teacher = OracleTeacher(|_: &[f32]| false);
        let mut forest = IGuardForest::fit(&data, &teacher, &quick_cfg(), &mut rng);
        forest.distill(&data, &teacher, 8, &mut rng);
        assert_eq!(forest.total_leaves(), forest.trees().len());
        assert!(!forest.predict(&[0.5, 0.5]));
    }

    /// Same seed ⇒ bit-identical trees, leaf labels and scores regardless
    /// of how many workers trained the forest.
    #[test]
    fn fit_and_distill_identical_at_any_worker_count() {
        use iguard_runtime::par::with_workers;
        let mut drng = Rng::seed_from_u64(9);
        let data = uniform_data(256, &mut drng);
        let teacher = OracleTeacher(|x: &[f32]| x[0] > 0.5);
        let run = |workers: usize| {
            with_workers(workers, || {
                let mut rng = Rng::seed_from_u64(7);
                let mut f = IGuardForest::fit(&data, &teacher, &quick_cfg(), &mut rng);
                f.distill(&data, &teacher, 16, &mut rng);
                let leaves =
                    format!("{:?}", f.trees().iter().map(|t| &t.leaves).collect::<Vec<_>>());
                (leaves, f.scores(&data))
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }
}
