//! The Isolation Forest ensemble and its anomaly score.

use iguard_runtime::par;
use iguard_runtime::rng::Rng;
use iguard_runtime::rng::SliceRandom;
use iguard_runtime::Dataset;

use crate::tree::{average_path_length, IsolationTree};

/// The fit-time threshold cut every detector shares: sorts `scores`
/// ascending and returns the one at index `round(q · (n − 1))`, so about a
/// `1 − q` share of them lie strictly above it. A contamination `c` is the
/// quantile `q = 1 − c`.
///
/// # Panics
/// Panics on empty or NaN scores.
pub fn quantile_cut(scores: &mut [f64], q: f64) -> f64 {
    assert!(!scores.is_empty(), "need scores to fit threshold");
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = (q * (scores.len() - 1) as f64).round() as usize;
    scores[idx.min(scores.len() - 1)]
}

/// Hyper-parameters of a conventional Isolation Forest — the exact surface
/// the paper grid-searches for the baseline: `(t, Ψ, contamination)` (§3.1).
#[derive(Clone, Copy, Debug)]
pub struct IsolationForestConfig {
    /// `t`: number of iTrees.
    pub n_trees: usize,
    /// `Ψ`: sub-sample size per tree.
    pub subsample: usize,
    /// Estimated fraction of anomalies; sets the score threshold `τ` as the
    /// corresponding quantile of scores on the fitting/validation data.
    pub contamination: f64,
}

impl Default for IsolationForestConfig {
    fn default() -> Self {
        Self { n_trees: 100, subsample: 256, contamination: 0.1 }
    }
}

/// A trained Isolation Forest.
pub struct IsolationForest {
    trees: Vec<IsolationTree>,
    /// `c(Ψ)` normaliser.
    c_psi: f64,
    /// Score threshold `τ`; samples with `score > τ` are anomalies.
    threshold: f64,
}

impl IsolationForest {
    /// Fits `t` trees on random sub-samples of `data` and sets the threshold
    /// from the contamination quantile of the training scores.
    ///
    /// Trees grow in parallel across the runtime worker pool. Each tree
    /// draws its sub-sample and splits from an RNG stream derived *before*
    /// the fan-out, so the fitted forest is bit-identical at any worker
    /// count (and identical to a single-threaded run).
    ///
    /// # Panics
    /// Panics on empty data or non-positive hyper-parameters.
    pub fn fit(data: &Dataset, cfg: &IsolationForestConfig, rng: &mut Rng) -> Self {
        assert!(data.rows() > 0, "cannot fit on empty data");
        assert!(cfg.n_trees > 0, "need at least one tree");
        assert!(cfg.subsample > 1, "subsample must exceed 1");
        assert!((0.0..1.0).contains(&cfg.contamination), "contamination in [0,1)");
        let psi = cfg.subsample.min(data.rows());
        let all: Vec<usize> = (0..data.rows()).collect();
        let base = rng.split();
        let trees: Vec<IsolationTree> = par::par_map_range(cfg.n_trees, |i| {
            let mut tree_rng = base.derive(i as u64);
            let sample: Vec<usize> = all.choose_multiple(&mut tree_rng, psi).copied().collect();
            IsolationTree::fit(data, &sample, &mut tree_rng)
        });
        let mut forest = Self { trees, c_psi: average_path_length(psi), threshold: 0.5 };
        forest.threshold = quantile_cut(&mut forest.scores(data), 1.0 - cfg.contamination);
        forest
    }

    /// Expected path length `E[h(x)]` over all trees — the x-axis of
    /// Figures 2 and 7.
    pub fn expected_path_length(&self, x: &[f32]) -> f64 {
        let total: f64 = self.trees.iter().map(|t| t.path_length(x)).sum();
        total / self.trees.len() as f64
    }

    /// Anomaly score `s(x) = 2^(−E[h(x)]/c(Ψ))` ∈ (0, 1]; higher = more
    /// anomalous.
    pub fn score(&self, x: &[f32]) -> f64 {
        2f64.powf(-self.expected_path_length(x) / self.c_psi)
    }

    /// Hard label: `1{score(x) > τ}`.
    pub fn predict(&self, x: &[f32]) -> bool {
        self.score(x) > self.threshold
    }

    /// Batch scores, computed in parallel across the runtime worker pool.
    /// Output order matches row order regardless of worker count.
    pub fn scores(&self, data: &Dataset) -> Vec<f64> {
        par::par_map_range(data.rows(), |i| self.score(data.row(i)))
    }

    /// Batch labels (parallel, order-preserving).
    pub fn predictions(&self, data: &Dataset) -> Vec<bool> {
        par::par_map_range(data.rows(), |i| self.predict(data.row(i)))
    }

    /// The fitted threshold `τ`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Overrides the threshold (validation-set tuning).
    pub fn set_threshold(&mut self, tau: f64) {
        self.threshold = tau;
    }

    pub fn trees(&self) -> &[IsolationTree] {
        &self.trees
    }

    /// Normalisation constant `c(Ψ)`.
    pub fn c_psi(&self) -> f64 {
        self.c_psi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iguard_runtime::rng::Rng;

    fn cluster(n: usize, center: f32, spread: f32, rng: &mut Rng) -> Dataset {
        let mut d = Dataset::new(2);
        for _ in 0..n {
            d.push_row(&[
                center + rng.gen_range(-spread..spread),
                center + rng.gen_range(-spread..spread),
            ]);
        }
        d
    }

    #[test]
    fn outliers_score_higher_than_inliers() {
        let mut rng = Rng::seed_from_u64(5);
        let data = cluster(512, 0.5, 0.1, &mut rng);
        let cfg = IsolationForestConfig { n_trees: 50, subsample: 128, contamination: 0.05 };
        let forest = IsolationForest::fit(&data, &cfg, &mut rng);
        let inlier = forest.score(&[0.5, 0.5]);
        let outlier = forest.score(&[5.0, 5.0]);
        assert!(outlier > inlier, "outlier {outlier} <= inlier {inlier}");
        assert!(outlier > 0.6, "far outlier should score > 0.6, got {outlier}");
    }

    #[test]
    fn scores_bounded_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(6);
        let data = cluster(128, 0.0, 1.0, &mut rng);
        let forest = IsolationForest::fit(
            &data,
            &IsolationForestConfig { n_trees: 20, subsample: 64, contamination: 0.1 },
            &mut rng,
        );
        for x in data.iter_rows() {
            let s = forest.score(x);
            assert!((0.0..=1.0).contains(&s), "score {s} out of range");
        }
    }

    #[test]
    fn contamination_sets_anomaly_fraction_on_train() {
        let mut rng = Rng::seed_from_u64(7);
        let data = cluster(1000, 0.0, 1.0, &mut rng);
        let cfg = IsolationForestConfig { n_trees: 30, subsample: 128, contamination: 0.1 };
        let forest = IsolationForest::fit(&data, &cfg, &mut rng);
        let flagged = data.iter_rows().filter(|x| forest.predict(x)).count();
        // Quantile thresholding should flag roughly 10% (ties aside).
        assert!((50..=160).contains(&flagged), "expected ~100 of 1000 flagged, got {flagged}");
    }

    #[test]
    fn expected_path_length_below_cap() {
        let mut rng = Rng::seed_from_u64(8);
        let data = cluster(256, 0.0, 1.0, &mut rng);
        let forest = IsolationForest::fit(
            &data,
            &IsolationForestConfig { n_trees: 10, subsample: 256, contamination: 0.1 },
            &mut rng,
        );
        // depth cap 8 plus c(n) credit keeps E[h] under ~8 + c(256).
        let cap = 8.0 + average_path_length(256);
        for x in data.iter_rows().take(50) {
            assert!(forest.expected_path_length(x) <= cap + 1e-9);
        }
    }

    #[test]
    fn subsample_larger_than_data_is_clamped() {
        let mut rng = Rng::seed_from_u64(9);
        let data = cluster(32, 0.0, 1.0, &mut rng);
        let cfg = IsolationForestConfig { n_trees: 5, subsample: 1024, contamination: 0.1 };
        let forest = IsolationForest::fit(&data, &cfg, &mut rng);
        assert_eq!(forest.trees().len(), 5);
        assert!((forest.c_psi() - average_path_length(32)).abs() < 1e-12);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut rng1 = Rng::seed_from_u64(10);
        let data = cluster(128, 0.0, 0.5, &mut rng1);
        let cfg = IsolationForestConfig { n_trees: 10, subsample: 64, contamination: 0.1 };
        let f1 = IsolationForest::fit(&data, &cfg, &mut Rng::seed_from_u64(99));
        let f2 = IsolationForest::fit(&data, &cfg, &mut Rng::seed_from_u64(99));
        for x in data.iter_rows().take(20) {
            assert_eq!(f1.score(x), f2.score(x));
        }
    }

    /// The fitted forest and its batch scores must not depend on how many
    /// workers grew the trees: 1, 2, and 8 workers give bit-identical
    /// results because every tree derives its RNG stream before the fan-out.
    #[test]
    fn fit_and_scores_identical_at_any_worker_count() {
        use iguard_runtime::par::with_workers;
        let mut rng = Rng::seed_from_u64(11);
        let data = cluster(256, 0.2, 0.4, &mut rng);
        let cfg = IsolationForestConfig { n_trees: 16, subsample: 64, contamination: 0.1 };
        let run = |workers: usize| {
            with_workers(workers, || {
                let f = IsolationForest::fit(&data, &cfg, &mut Rng::seed_from_u64(3));
                (f.threshold(), f.scores(&data))
            })
        };
        let serial = run(1);
        assert_eq!(serial, run(2));
        assert_eq!(serial, run(8));
    }
}
