//! Magnifier — the asymmetric autoencoder of HorusEye (USENIX Sec '23),
//! the teacher the paper selects to guide iGuard (Appendix A, Fig. 10).
//!
//! Architecture reproduced here: a *heavy* encoder opening with a dilated
//! 1-D convolution over the feature vector followed by dense compression,
//! and a deliberately *light* decoder (asymmetric) — the encoder does the
//! representational work, keeping reconstruction of benign traffic easy
//! and out-of-distribution traffic hard.

use iguard_iforest::quantile_cut;
use iguard_nn::conv::DilatedConv1d;
use iguard_nn::layer::{Activation, ActivationLayer, Dense};
use iguard_nn::loss::per_sample_rmse;
use iguard_nn::matrix::Matrix;
use iguard_nn::network::{Network, TrainConfig};
use iguard_nn::optim::Adam;
use iguard_nn::scale::MinMaxScaler;
use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;

use crate::detector::AnomalyDetector;

/// Configuration of the Magnifier detector.
#[derive(Clone, Copy, Debug)]
pub struct MagnifierConfig {
    /// Channels produced by the dilated-conv front end.
    pub conv_channels: usize,
    /// Kernel size of the dilated conv (odd).
    pub kernel: usize,
    /// Dilation factor.
    pub dilation: usize,
    /// Dense bottleneck width.
    pub latent: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    /// Quantile of benign training RMSE used as threshold `T`.
    pub threshold_quantile: f64,
}

impl Default for MagnifierConfig {
    fn default() -> Self {
        Self {
            conv_channels: 2,
            kernel: 3,
            dilation: 2,
            latent: 6,
            epochs: 60,
            batch_size: 32,
            learning_rate: 2e-3,
            threshold_quantile: 0.98,
        }
    }
}

/// The fitted Magnifier autoencoder.
pub struct Magnifier {
    scaler: MinMaxScaler,
    net: Network,
    threshold: f64,
    input_dim: usize,
}

impl Magnifier {
    /// Trains on benign samples.
    pub fn fit(train: &Dataset, cfg: &MagnifierConfig, rng: &mut Rng) -> Self {
        assert!(train.rows() > 0, "empty training set");
        let x_raw = Matrix::from_dataset(train);
        let scaler = MinMaxScaler::fit(&x_raw);
        let x = scaler.transform(&x_raw);
        let dim = x.cols();
        // Heavy encoder: dilated conv (1 -> C channels over the feature
        // signal) then dense compression; light decoder: single linear map
        // from the bottleneck back to the features (the asymmetry).
        let conv_out = cfg.conv_channels * dim;
        let enc_mid = (dim * 2).max(cfg.latent + 1);
        let mut net = Network::new(vec![
            Box::new(DilatedConv1d::new(1, cfg.conv_channels, dim, cfg.kernel, cfg.dilation, rng)),
            Box::new(ActivationLayer::new(Activation::LeakyRelu)),
            Box::new(Dense::new(conv_out, enc_mid, rng)),
            Box::new(ActivationLayer::new(Activation::Tanh)),
            Box::new(Dense::new(enc_mid, cfg.latent, rng)),
            Box::new(ActivationLayer::new(Activation::Tanh)),
            // Asymmetric decoder: straight linear reconstruction.
            Box::new(Dense::new(cfg.latent, dim, rng)),
        ]);
        let mut opt = Adam::new(cfg.learning_rate);
        let tc = TrainConfig {
            epochs: cfg.epochs,
            batch_size: cfg.batch_size,
            tol: 1e-7,
            shuffle: true,
        };
        net.fit(&x.clone(), &x, &mut opt, &tc, rng);
        let mut mag = Self { scaler, net, threshold: f64::INFINITY, input_dim: dim };
        let mut scores: Vec<f64> = train.iter_rows().map(|s| mag.score_raw(s)).collect();
        // The default T is a benign quantile; callers tune it on validation.
        let q = cfg.threshold_quantile.clamp(0.0, 1.0);
        mag.threshold = quantile_cut(&mut scores, q);
        mag
    }

    /// Reconstruction errors for a batch of raw (unscaled) samples.
    /// Shared-reference inference: many threads can score one Magnifier.
    pub fn reconstruction_errors(&self, xs: &Dataset) -> Vec<f64> {
        if xs.rows() == 0 {
            return Vec::new();
        }
        let x = self.scaler.transform(&Matrix::from_dataset(xs));
        let y = self.net.infer(&x);
        per_sample_rmse(&y, &x).into_iter().map(|v| v as f64).collect()
    }

    /// Mean reconstruction error over a sample set — `RE_leaf` of paper
    /// Eq. 5 when called on a leaf's samples.
    pub fn mean_reconstruction_error(&self, xs: &Dataset) -> f64 {
        let errs = self.reconstruction_errors(xs);
        if errs.is_empty() {
            0.0
        } else {
            errs.iter().sum::<f64>() / errs.len() as f64
        }
    }

    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }
}

impl AnomalyDetector for Magnifier {
    fn name(&self) -> &'static str {
        "Magnifier"
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

impl Magnifier {
    fn score_raw(&self, x: &[f32]) -> f64 {
        assert_eq!(x.len(), self.input_dim, "feature width mismatch");
        self.reconstruction_errors(&Dataset::from_rows(&[x.to_vec()]))[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::testutil;
    use iguard_runtime::rng::Rng;

    fn quick_cfg() -> MagnifierConfig {
        MagnifierConfig { epochs: 50, ..Default::default() }
    }

    #[test]
    fn separates_clusters() {
        let mut rng = Rng::seed_from_u64(1);
        let train = testutil::benign(512, 4, &mut rng);
        let det = Magnifier::fit(&train, &quick_cfg(), &mut rng);
        testutil::assert_separates(&det, &mut rng);
    }

    #[test]
    fn benign_errors_below_threshold_mostly() {
        let mut rng = Rng::seed_from_u64(2);
        let train = testutil::benign(256, 4, &mut rng);
        let det = Magnifier::fit(&train, &quick_cfg(), &mut rng);
        let flagged = train.iter_rows().filter(|x| det.predict(x)).count();
        // 98th-percentile threshold: ~2% of training flagged.
        assert!(flagged <= 16, "flagged {flagged}/256");
    }

    #[test]
    fn mean_reconstruction_error_orders_classes() {
        let mut rng = Rng::seed_from_u64(3);
        let train = testutil::benign(512, 4, &mut rng);
        let det = Magnifier::fit(&train, &quick_cfg(), &mut rng);
        let ben = testutil::benign(64, 4, &mut rng);
        let mal = testutil::anomalies(64, 4, &mut rng);
        assert!(det.mean_reconstruction_error(&mal) > det.mean_reconstruction_error(&ben));
    }

    #[test]
    fn empty_batch_is_safe() {
        let mut rng = Rng::seed_from_u64(4);
        let train = testutil::benign(64, 4, &mut rng);
        let det =
            Magnifier::fit(&train, &MagnifierConfig { epochs: 3, ..Default::default() }, &mut rng);
        let empty = Dataset::new(4);
        assert!(det.reconstruction_errors(&empty).is_empty());
        assert_eq!(det.mean_reconstruction_error(&empty), 0.0);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn rejects_wrong_width() {
        let mut rng = Rng::seed_from_u64(5);
        let train = testutil::benign(64, 4, &mut rng);
        let det =
            Magnifier::fit(&train, &MagnifierConfig { epochs: 2, ..Default::default() }, &mut rng);
        let _ = det.score(&[0.0; 7]);
    }
}
