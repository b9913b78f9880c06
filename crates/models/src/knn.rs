//! k-nearest-neighbour anomaly detection.
//!
//! Score = Euclidean distance (in min-max-scaled space) to the k-th nearest
//! benign training sample. Far from every benign sample ⇒ anomalous.

use iguard_iforest::quantile_cut;
use iguard_nn::matrix::Matrix;
use iguard_nn::scale::MinMaxScaler;
use iguard_runtime::Dataset;

use crate::detector::AnomalyDetector;

/// Configuration of the kNN detector.
#[derive(Clone, Copy, Debug)]
pub struct KnnConfig {
    /// The k in k-th nearest neighbour.
    pub k: usize,
    /// Reference-set cap: at most this many training samples are kept
    /// (evenly strided) to bound inference cost.
    pub max_refs: usize,
    /// Contamination for the default threshold.
    pub contamination: f64,
}

impl Default for KnnConfig {
    fn default() -> Self {
        Self { k: 5, max_refs: 2048, contamination: 0.02 }
    }
}

/// The fitted kNN detector.
pub struct KnnDetector {
    /// Columnar reference set (already min-max scaled).
    refs: Dataset,
    scaler: MinMaxScaler,
    k: usize,
    threshold: f64,
}

impl KnnDetector {
    /// Fits on benign training samples.
    ///
    /// # Panics
    /// Panics if `train` is empty or `k` is zero.
    pub fn fit(train: &Dataset, cfg: &KnnConfig) -> Self {
        assert!(train.rows() > 0, "empty training set");
        assert!(cfg.k >= 1, "k must be >= 1");
        let scaler = MinMaxScaler::fit(&Matrix::from_dataset(train));
        // Evenly strided subsample keeps the reference set representative
        // without randomness.
        let stride = (train.rows() / cfg.max_refs.max(1)).max(1);
        let mut refs = Dataset::new(train.cols());
        for x in train.iter_rows().step_by(stride).take(cfg.max_refs) {
            refs.push_row(&scaler.transform_row(x));
        }
        let det = Self { refs, scaler, k: cfg.k, threshold: f64::INFINITY };
        let mut train_scores: Vec<f64> = train.iter_rows().map(|x| det.score_raw(x)).collect();
        assert!((0.0..1.0).contains(&cfg.contamination), "contamination in [0,1)");
        let threshold = quantile_cut(&mut train_scores, 1.0 - cfg.contamination);
        Self { threshold, ..det }
    }

    fn score_raw(&self, x: &[f32]) -> f64 {
        let xs = self.scaler.transform_row(x);
        let k = self.k.min(self.refs.rows());
        // Maintain the k smallest distances with a small insertion buffer.
        let mut best = vec![f64::INFINITY; k];
        for r in self.refs.iter_rows() {
            let mut d = 0.0f64;
            for (a, b) in xs.iter().zip(r) {
                let diff = (*a - *b) as f64;
                d += diff * diff;
            }
            if d < best[k - 1] {
                // Insertion sort into the top-k buffer.
                let mut i = k - 1;
                while i > 0 && best[i - 1] > d {
                    best[i] = best[i - 1];
                    i -= 1;
                }
                best[i] = d;
            }
        }
        best[k - 1].sqrt()
    }
}

impl AnomalyDetector for KnnDetector {
    fn name(&self) -> &'static str {
        "kNN"
    }

    fn score(&self, x: &[f32]) -> f64 {
        self.score_raw(x)
    }

    fn threshold(&self) -> f64 {
        self.threshold
    }

    fn set_threshold(&mut self, t: f64) {
        self.threshold = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::testutil;
    use iguard_runtime::rng::Rng;

    #[test]
    fn separates_clusters() {
        let mut rng = Rng::seed_from_u64(1);
        let train = testutil::benign(512, 4, &mut rng);
        let det = KnnDetector::fit(&train, &KnnConfig::default());
        testutil::assert_separates(&det, &mut rng);
    }

    #[test]
    fn training_point_scores_near_zero() {
        let mut rng = Rng::seed_from_u64(2);
        let train = testutil::benign(128, 4, &mut rng);
        let det = KnnDetector::fit(&train, &KnnConfig { k: 1, ..Default::default() });
        // A sample from the training set has distance 0 to itself.
        let s = det.score(train.row(0));
        assert!(s < 1e-6, "self-distance {s}");
    }

    #[test]
    fn kth_distance_monotone_in_k() {
        let mut rng = Rng::seed_from_u64(3);
        let train = testutil::benign(128, 4, &mut rng);
        let x = vec![0.5; 4];
        let mut prev = 0.0;
        for k in [1, 3, 9] {
            let det = KnnDetector::fit(&train, &KnnConfig { k, ..Default::default() });
            let s = det.score(&x);
            assert!(s >= prev, "k={k}: {s} < {prev}");
            prev = s;
        }
    }

    #[test]
    fn max_refs_caps_reference_set() {
        let mut rng = Rng::seed_from_u64(4);
        let train = testutil::benign(1000, 4, &mut rng);
        let det = KnnDetector::fit(&train, &KnnConfig { max_refs: 100, ..Default::default() });
        assert!(det.refs.rows() <= 100);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn rejects_empty_train() {
        let _ = KnnDetector::fit(&Dataset::new(4), &KnnConfig::default());
    }
}
