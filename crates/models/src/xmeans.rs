//! X-means anomaly detection (Pelleg & Moore 2000).
//!
//! k-means whose k is chosen by recursively splitting clusters when the
//! Bayesian Information Criterion of a 2-way split beats the unsplit
//! parent. Anomaly score = distance to the nearest centroid in scaled
//! space (benign data sits near a centroid; attack traffic does not).

use iguard_iforest::quantile_cut;
use iguard_nn::matrix::Matrix;
use iguard_nn::scale::MinMaxScaler;
use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;

use crate::detector::AnomalyDetector;

/// Configuration of the X-means detector.
#[derive(Clone, Copy, Debug)]
pub struct XMeansConfig {
    /// Initial number of clusters.
    pub k_init: usize,
    /// Hard cap on clusters.
    pub k_max: usize,
    /// Lloyd iterations per k-means run.
    pub iterations: usize,
    /// Contamination for the default threshold.
    pub contamination: f64,
}

impl Default for XMeansConfig {
    fn default() -> Self {
        Self { k_init: 2, k_max: 16, iterations: 30, contamination: 0.02 }
    }
}

/// The fitted X-means detector.
pub struct XMeansDetector {
    scaler: MinMaxScaler,
    centroids: Vec<Vec<f32>>,
    threshold: f64,
}

/// Lloyd's k-means on scaled rows; returns (centroids, assignment).
fn kmeans(
    data: &Dataset,
    k: usize,
    iterations: usize,
    rng: &mut Rng,
) -> (Vec<Vec<f32>>, Vec<usize>) {
    let n = data.rows();
    let dim = data.cols();
    let k = k.min(n).max(1);
    // k-means++-lite seeding: first centroid random, rest farthest-point.
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(data.row(rng.gen_range(0..n)).to_vec());
    while centroids.len() < k {
        let (mut best_i, mut best_d) = (0usize, -1.0f64);
        for (i, x) in data.iter_rows().enumerate() {
            let d = centroids.iter().map(|c| dist2(x, c)).fold(f64::INFINITY, f64::min);
            if d > best_d {
                best_d = d;
                best_i = i;
            }
        }
        centroids.push(data.row(best_i).to_vec());
    }
    let mut assign = vec![0usize; n];
    for _ in 0..iterations {
        let mut moved = false;
        for (i, x) in data.iter_rows().enumerate() {
            let (mut best_c, mut best_d) = (0usize, f64::INFINITY);
            for (c, cent) in centroids.iter().enumerate() {
                let d = dist2(x, cent);
                if d < best_d {
                    best_d = d;
                    best_c = c;
                }
            }
            if assign[i] != best_c {
                assign[i] = best_c;
                moved = true;
            }
        }
        let mut sums = vec![vec![0.0f64; dim]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (i, x) in data.iter_rows().enumerate() {
            counts[assign[i]] += 1;
            for (s, &v) in sums[assign[i]].iter_mut().zip(x) {
                *s += v as f64;
            }
        }
        for (c, cent) in centroids.iter_mut().enumerate() {
            if counts[c] > 0 {
                for (cv, s) in cent.iter_mut().zip(&sums[c]) {
                    *cv = (*s / counts[c] as f64) as f32;
                }
            }
        }
        if !moved {
            break;
        }
    }
    (centroids, assign)
}

fn dist2(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| ((x - y) as f64).powi(2)).sum()
}

/// BIC of a spherical-Gaussian mixture model over `points` with the given
/// centroids/assignment (Pelleg & Moore's formulation).
fn bic(points: &Dataset, centroids: &[Vec<f32>], assign: &[usize]) -> f64 {
    let n = points.rows() as f64;
    let k = centroids.len() as f64;
    let dim = points.cols() as f64;
    if points.rows() <= centroids.len() {
        return f64::NEG_INFINITY;
    }
    let rss: f64 = points.iter_rows().zip(assign).map(|(x, &a)| dist2(x, &centroids[a])).sum();
    let variance = (rss / (n - k)).max(1e-12);
    let mut loglik = 0.0;
    for (c, cent) in centroids.iter().enumerate() {
        let nc = assign.iter().filter(|&&a| a == c).count() as f64;
        if nc == 0.0 {
            continue;
        }
        let _ = cent;
        loglik += nc * (nc / n).ln()
            - nc * dim / 2.0 * (2.0 * std::f64::consts::PI * variance).ln()
            - (nc - 1.0) / 2.0;
    }
    let params = k * (dim + 1.0);
    loglik - params / 2.0 * n.ln()
}

impl XMeansDetector {
    /// Fits on benign training samples.
    pub fn fit(train: &Dataset, cfg: &XMeansConfig, rng: &mut Rng) -> Self {
        assert!(train.rows() > 0, "empty training set");
        let scaler = MinMaxScaler::fit(&Matrix::from_dataset(train));
        let mut data = Dataset::new(train.cols());
        for x in train.iter_rows() {
            data.push_row(&scaler.transform_row(x));
        }
        let (mut centroids, mut assign) = kmeans(&data, cfg.k_init, cfg.iterations, rng);
        // Improve-structure loop: try splitting each cluster in two; keep
        // the split if the local BIC improves. One pass per doubling until
        // k_max or no split helps.
        loop {
            if centroids.len() >= cfg.k_max {
                break;
            }
            let mut new_centroids: Vec<Vec<f32>> = Vec::new();
            let mut split_any = false;
            for (c, cent) in centroids.iter().enumerate() {
                let member_idx: Vec<usize> =
                    assign.iter().enumerate().filter(|(_, &a)| a == c).map(|(i, _)| i).collect();
                let members = data.select_rows(&member_idx);
                if members.rows() < 8 || new_centroids.len() + 2 > cfg.k_max {
                    new_centroids.push(cent.clone());
                    continue;
                }
                let parent_bic = bic(&members, &[cent.clone()], &vec![0; members.rows()]);
                let (kids, kid_assign) = kmeans(&members, 2, cfg.iterations, rng);
                let child_bic = bic(&members, &kids, &kid_assign);
                if child_bic > parent_bic {
                    new_centroids.extend(kids);
                    split_any = true;
                } else {
                    new_centroids.push(cent.clone());
                }
            }
            centroids = new_centroids;
            // Re-assign globally after structural changes.
            let (refined, refined_assign) = {
                let mut cents = centroids.clone();
                let mut asg = vec![0usize; data.rows()];
                for _ in 0..cfg.iterations {
                    for (i, x) in data.iter_rows().enumerate() {
                        let (mut bc, mut bd) = (0usize, f64::INFINITY);
                        for (c, cent) in cents.iter().enumerate() {
                            let d = dist2(x, cent);
                            if d < bd {
                                bd = d;
                                bc = c;
                            }
                        }
                        asg[i] = bc;
                    }
                    let dim = data.cols();
                    let mut sums = vec![vec![0.0f64; dim]; cents.len()];
                    let mut counts = vec![0usize; cents.len()];
                    for (i, x) in data.iter_rows().enumerate() {
                        counts[asg[i]] += 1;
                        for (s, &v) in sums[asg[i]].iter_mut().zip(x) {
                            *s += v as f64;
                        }
                    }
                    for (c, cent) in cents.iter_mut().enumerate() {
                        if counts[c] > 0 {
                            for (cv, s) in cent.iter_mut().zip(&sums[c]) {
                                *cv = (*s / counts[c] as f64) as f32;
                            }
                        }
                    }
                }
                (cents, asg)
            };
            centroids = refined;
            assign = refined_assign;
            if !split_any {
                break;
            }
        }
        let mut det = Self { scaler, centroids, threshold: f64::INFINITY };
        let mut scores: Vec<f64> = train.iter_rows().map(|x| det.score_raw(x)).collect();
        assert!((0.0..1.0).contains(&cfg.contamination), "contamination in [0,1)");
        det.threshold = quantile_cut(&mut scores, 1.0 - cfg.contamination);
        det
    }

    pub fn n_clusters(&self) -> usize {
        self.centroids.len()
    }

    fn score_raw(&self, x: &[f32]) -> f64 {
        let xs = self.scaler.transform_row(x);
        self.centroids.iter().map(|c| dist2(&xs, c)).fold(f64::INFINITY, f64::min).sqrt()
    }
}

impl AnomalyDetector for XMeansDetector {
    fn name(&self) -> &'static str {
        "X-means"
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
        let det = XMeansDetector::fit(&train, &XMeansConfig::default(), &mut rng);
        testutil::assert_separates(&det, &mut rng);
    }

    #[test]
    fn finds_multiple_well_separated_clusters() {
        let mut rng = Rng::seed_from_u64(2);
        let mut train = Dataset::new(2);
        for center in [0.1f32, 0.5, 0.9] {
            for _ in 0..200 {
                train.push_row(&[
                    center + rng.gen_range(-0.02..0.02),
                    center + rng.gen_range(-0.02..0.02),
                ]);
            }
        }
        let det = XMeansDetector::fit(&train, &XMeansConfig::default(), &mut rng);
        assert!(det.n_clusters() >= 3, "found only {} clusters", det.n_clusters());
    }

    #[test]
    fn centroid_proximity_scores_low() {
        let mut rng = Rng::seed_from_u64(3);
        let train = testutil::benign(256, 4, &mut rng);
        let det = XMeansDetector::fit(&train, &XMeansConfig::default(), &mut rng);
        let near = det.score(&[0.3, 0.3, 0.3, 0.3]);
        let far = det.score(&[0.95, 0.95, 0.95, 0.95]);
        assert!(far > 3.0 * near.max(1e-6));
    }

    #[test]
    fn k_max_is_respected() {
        let mut rng = Rng::seed_from_u64(4);
        let train = testutil::benign(512, 4, &mut rng);
        let det =
            XMeansDetector::fit(&train, &XMeansConfig { k_max: 4, ..Default::default() }, &mut rng);
        assert!(det.n_clusters() <= 4);
    }

    #[test]
    fn kmeans_partitions_all_points() {
        let mut rng = Rng::seed_from_u64(5);
        let data = testutil::benign(100, 3, &mut rng);
        let (cents, assign) = kmeans(&data, 4, 20, &mut rng);
        assert_eq!(assign.len(), 100);
        assert!(assign.iter().all(|&a| a < cents.len()));
    }
}
