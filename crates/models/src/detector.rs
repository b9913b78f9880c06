//! The common anomaly-detector interface and the iForest adapter.

use iguard_iforest::{IsolationForest, IsolationForestConfig};
use iguard_runtime::rng::Rng;
use iguard_runtime::{par, Dataset};

/// An unsupervised anomaly detector: fitted on benign data only, it assigns
/// each sample a score (higher = more anomalous) and a hard label via a
/// threshold.
///
/// Scoring goes through `&self` so a fitted detector can be shared across
/// the runtime worker pool; the default batch methods exploit that by
/// scoring [`Dataset`] rows in parallel (output order matches row order).
pub trait AnomalyDetector: Sync {
    /// Human-readable model name (matches paper Fig. 10 labels).
    fn name(&self) -> &'static str;

    /// Anomaly score of one sample; higher = more anomalous.
    fn score(&self, x: &[f32]) -> f64;

    /// The decision threshold used by [`Self::predict`].
    fn threshold(&self) -> f64;

    /// Overrides the decision threshold (validation tuning).
    fn set_threshold(&mut self, t: f64);

    /// Hard label: `true` = malicious.
    fn predict(&self, x: &[f32]) -> bool {
        self.score(x) > self.threshold()
    }

    /// Batch scores over the rows of `data`, in parallel.
    fn scores(&self, data: &Dataset) -> Vec<f64> {
        par::par_map_range(data.rows(), |i| self.score(data.row(i)))
    }

    /// Batch labels over the rows of `data`, in parallel.
    fn predictions(&self, data: &Dataset) -> Vec<bool> {
        par::par_map_range(data.rows(), |i| self.predict(data.row(i)))
    }
}

/// Conventional Isolation Forest behind the common interface (the sixth
/// candidate of paper Fig. 10 and the baseline of every comparison).
pub struct IForestDetector {
    forest: IsolationForest,
    threshold: f64,
}

impl IForestDetector {
    /// Fits an Isolation Forest on benign training data with a
    /// deterministic internal RNG derived from `seed`.
    pub fn fit(train: &Dataset, cfg: &IsolationForestConfig, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let forest = IsolationForest::fit(train, cfg, &mut rng);
        let threshold = forest.threshold();
        Self { forest, threshold }
    }

    pub fn forest(&self) -> &IsolationForest {
        &self.forest
    }
}

impl AnomalyDetector for IForestDetector {
    fn name(&self) -> &'static str {
        "iForest"
    }

    fn score(&self, x: &[f32]) -> f64 {
        self.forest.score(x)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn set_threshold(&mut self, t: f64) {
        self.threshold = t;
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use iguard_runtime::rng::Rng;
    use iguard_runtime::Dataset;

    /// A benign cluster around 0.3 with mild spread in `dim` dimensions.
    pub fn benign(n: usize, dim: usize, rng: &mut Rng) -> Dataset {
        let mut d = Dataset::new(dim);
        for _ in 0..n {
            let row: Vec<f32> = (0..dim).map(|_| 0.3 + rng.gen_range(-0.08..0.08)).collect();
            d.push_row(&row);
        }
        d
    }

    /// Anomalies around 0.85.
    pub fn anomalies(n: usize, dim: usize, rng: &mut Rng) -> Dataset {
        let mut d = Dataset::new(dim);
        for _ in 0..n {
            let row: Vec<f32> = (0..dim).map(|_| 0.85 + rng.gen_range(-0.05..0.05)).collect();
            d.push_row(&row);
        }
        d
    }

    /// Asserts the detector separates the clusters with AUC-like quality.
    pub fn assert_separates(det: &dyn super::AnomalyDetector, rng: &mut Rng) {
        let ben = benign(64, 4, rng);
        let mal = anomalies(64, 4, rng);
        let b_mean: f64 = det.scores(&ben).iter().sum::<f64>() / 64.0;
        let m_mean: f64 = det.scores(&mal).iter().sum::<f64>() / 64.0;
        assert!(m_mean > b_mean, "{}: anomaly score {m_mean} <= benign {b_mean}", det.name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iguard_runtime::rng::Rng;

    #[test]
    fn iforest_detector_separates_clusters() {
        let mut rng = Rng::seed_from_u64(1);
        let train = testutil::benign(512, 4, &mut rng);
        let cfg = IsolationForestConfig { n_trees: 50, subsample: 128, contamination: 0.05 };
        let det = IForestDetector::fit(&train, &cfg, 7);
        testutil::assert_separates(&det, &mut rng);
    }

    #[test]
    fn threshold_override_changes_predictions() {
        let mut rng = Rng::seed_from_u64(2);
        let train = testutil::benign(256, 4, &mut rng);
        let cfg = IsolationForestConfig::default();
        let mut det = IForestDetector::fit(&train, &cfg, 7);
        let x = vec![0.3; 4];
        det.set_threshold(-1.0);
        assert!(det.predict(&x)); // everything above an impossible threshold
        det.set_threshold(2.0);
        assert!(!det.predict(&x));
    }

    #[test]
    fn batch_scores_match_serial_at_any_worker_count() {
        use iguard_runtime::par::with_workers;
        let mut rng = Rng::seed_from_u64(3);
        let train = testutil::benign(256, 4, &mut rng);
        let det = IForestDetector::fit(&train, &IsolationForestConfig::default(), 7);
        let serial: Vec<f64> = train.iter_rows().map(|x| det.score(x)).collect();
        for workers in [1, 2, 8] {
            let batch = with_workers(workers, || det.scores(&train));
            assert_eq!(serial, batch, "workers = {workers}");
        }
    }

    #[test]
    fn contamination_quantile_threshold() {
        let mut scores: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let t = iguard_iforest::quantile_cut(&mut scores, 1.0 - 0.1);
        assert_eq!(t, 89.0);
        let above = scores.iter().filter(|&&s| s > t).count();
        assert_eq!(above, 10);
    }
}
