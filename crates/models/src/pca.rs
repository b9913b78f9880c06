//! PCA-subspace anomaly detection.
//!
//! Fit: eigen-decompose the covariance of (standard-scaled) benign data via
//! cyclic Jacobi rotations; keep the top components explaining
//! `variance_kept` of total variance. Score: reconstruction error after
//! projecting onto the retained subspace — samples off the benign subspace
//! reconstruct poorly.

use iguard_iforest::quantile_cut;
use iguard_nn::matrix::Matrix;
use iguard_nn::scale::StandardScaler;
use iguard_runtime::Dataset;

use crate::detector::AnomalyDetector;

/// Configuration of the PCA detector.
#[derive(Clone, Copy, Debug)]
pub struct PcaConfig {
    /// Fraction of variance the retained subspace must explain.
    pub variance_kept: f64,
    /// Contamination for the default threshold.
    pub contamination: f64,
}

impl Default for PcaConfig {
    fn default() -> Self {
        Self { variance_kept: 0.95, contamination: 0.02 }
    }
}

/// Symmetric eigen-decomposition by the cyclic Jacobi method.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvectors as *columns* of
/// the returned matrix, sorted by descending eigenvalue.
pub fn jacobi_eigen(a: &Matrix, sweeps: usize) -> (Vec<f64>, Matrix) {
    let n = a.rows();
    assert_eq!(n, a.cols(), "matrix must be square");
    let mut m: Vec<Vec<f64>> =
        (0..n).map(|i| a.row(i).iter().map(|&v| v as f64).collect()).collect();
    let mut v = vec![vec![0.0f64; n]; n];
    for (i, row) in v.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for _ in 0..sweeps {
        let mut off = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[i][j] * m[i][j];
            }
        }
        if off < 1e-18 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                if m[p][q].abs() < 1e-15 {
                    continue;
                }
                let theta = (m[q][q] - m[p][p]) / (2.0 * m[p][q]);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..n {
                    let (mkp, mkq) = (m[k][p], m[k][q]);
                    m[k][p] = c * mkp - s * mkq;
                    m[k][q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let (mpk, mqk) = (m[p][k], m[q][k]);
                    m[p][k] = c * mpk - s * mqk;
                    m[q][k] = s * mpk + c * mqk;
                }
                for vk in v.iter_mut() {
                    let (vkp, vkq) = (vk[p], vk[q]);
                    vk[p] = c * vkp - s * vkq;
                    vk[q] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[i][i], i)).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let eigenvalues: Vec<f64> = pairs.iter().map(|(val, _)| *val).collect();
    let mut vectors = Matrix::zeros(n, n);
    for (col, (_, src)) in pairs.iter().enumerate() {
        for r in 0..n {
            vectors[(r, col)] = v[r][*src] as f32;
        }
    }
    (eigenvalues, vectors)
}

/// The fitted PCA detector.
pub struct PcaDetector {
    scaler: StandardScaler,
    /// `dim x k` matrix of retained components (columns).
    components: Matrix,
    threshold: f64,
    n_components: usize,
}

impl PcaDetector {
    /// Fits on benign training samples.
    ///
    /// The covariance is accumulated straight off the columnar [`Dataset`]:
    /// one pass over the flat row-major buffer, one scratch row for the
    /// scaled sample — no intermediate row-of-vecs materialisation.
    pub fn fit(train: &Dataset, cfg: &PcaConfig) -> Self {
        assert!(train.rows() > 0, "empty training set");
        assert!((0.0..=1.0).contains(&cfg.variance_kept));
        let scaler = StandardScaler::fit(&Matrix::from_dataset(train));
        let dim = train.cols();
        let n = train.rows();
        // Covariance = X^T X / n (data already centred by the scaler),
        // accumulated in f64 row by row off the columnar buffer.
        let mut acc = vec![0.0f64; dim * dim];
        for row in train.iter_rows() {
            let xs = scaler.transform_row(row);
            for j in 0..dim {
                let xj = xs[j] as f64;
                for k in j..dim {
                    acc[j * dim + k] += xj * xs[k] as f64;
                }
            }
        }
        let mut cov = Matrix::zeros(dim, dim);
        for j in 0..dim {
            for k in j..dim {
                let v = (acc[j * dim + k] / n as f64) as f32;
                cov[(j, k)] = v;
                cov[(k, j)] = v;
            }
        }
        let (eigenvalues, vectors) = jacobi_eigen(&cov, 50);
        let total: f64 = eigenvalues.iter().map(|&e| e.max(0.0)).sum();
        let mut kept = 0usize;
        let mut acc = 0.0;
        for &e in &eigenvalues {
            kept += 1;
            acc += e.max(0.0);
            if total > 0.0 && acc / total >= cfg.variance_kept {
                break;
            }
        }
        let kept = kept.clamp(1, dim);
        // Copy the first `kept` columns.
        let mut components = Matrix::zeros(dim, kept);
        for r in 0..dim {
            for c in 0..kept {
                components[(r, c)] = vectors[(r, c)];
            }
        }
        let mut det = Self { scaler, components, threshold: f64::INFINITY, n_components: kept };
        let mut scores: Vec<f64> = train.iter_rows().map(|s| det.score_raw(s)).collect();
        assert!((0.0..1.0).contains(&cfg.contamination), "contamination in [0,1)");
        det.threshold = quantile_cut(&mut scores, 1.0 - cfg.contamination);
        det
    }

    pub fn n_components(&self) -> usize {
        self.n_components
    }

    fn score_raw(&self, x: &[f32]) -> f64 {
        let xs = self.scaler.transform(&Matrix::from_rows(&[x.to_vec()]));
        // Project and reconstruct: x̂ = (x W) Wᵀ.
        let z = xs.matmul(&self.components);
        let recon = z.matmul_t(&self.components);
        let mut err = 0.0f64;
        for (a, b) in xs.as_slice().iter().zip(recon.as_slice()) {
            let d = (*a - *b) as f64;
            err += d * d;
        }
        (err / xs.cols() as f64).sqrt()
    }
}

impl AnomalyDetector for PcaDetector {
    fn name(&self) -> &'static str {
        "PCA"
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
    use iguard_runtime::rng::Rng;

    #[test]
    fn jacobi_recovers_diagonal() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 1.0]]);
        let (vals, _) = jacobi_eigen(&a, 20);
        assert!((vals[0] - 3.0).abs() < 1e-5);
        assert!((vals[1] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn jacobi_known_symmetric() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        let (vals, vecs) = jacobi_eigen(&a, 20);
        assert!((vals[0] - 3.0).abs() < 1e-5);
        assert!((vals[1] - 1.0).abs() < 1e-5);
        // First eigenvector ∝ (1,1)/√2.
        let v0 = (vecs[(0, 0)], vecs[(1, 0)]);
        assert!((v0.0.abs() - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!((v0.0 - v0.1).abs() < 1e-3);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0, 0.5], vec![1.0, 3.0, 0.2], vec![0.5, 0.2, 2.0]]);
        let (_, vecs) = jacobi_eigen(&a, 30);
        let gram = vecs.t_matmul(&vecs);
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((gram[(i, j)] - want).abs() < 1e-4, "gram[{i}{j}] = {}", gram[(i, j)]);
            }
        }
    }

    /// Data on a 1-D line embedded in 3-D: off-line points score high.
    #[test]
    fn detects_off_subspace_points() {
        let mut rng = Rng::seed_from_u64(1);
        let mut train = Dataset::new(3);
        for _ in 0..400 {
            let t: f32 = rng.gen_range(-1.0..1.0);
            train.push_row(&[
                t,
                2.0 * t + rng.gen_range(-0.01..0.01),
                -t + rng.gen_range(-0.01..0.01),
            ]);
        }
        let det = PcaDetector::fit(&train, &PcaConfig { variance_kept: 0.9, contamination: 0.02 });
        assert!(det.n_components() < 3, "line data should need < 3 components");
        let on_line = det.score(&[0.5, 1.0, -0.5]);
        let off_line = det.score(&[0.5, -1.0, 0.5]);
        assert!(off_line > 5.0 * on_line, "off {off_line} vs on {on_line}");
    }

    #[test]
    fn full_variance_keeps_all_components_and_zero_error() {
        let mut rng = Rng::seed_from_u64(2);
        let mut train = Dataset::new(2);
        for _ in 0..100 {
            train.push_row(&[rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
        }
        let det = PcaDetector::fit(&train, &PcaConfig { variance_kept: 1.0, contamination: 0.05 });
        assert_eq!(det.n_components(), 2);
        // With all components kept, reconstruction is exact.
        assert!(det.score(train.row(3)) < 1e-3);
    }
}
