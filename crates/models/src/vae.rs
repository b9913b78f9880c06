//! Variational autoencoder anomaly detection.
//!
//! A small VAE trained on benign data with the reparameterisation trick:
//! `z = μ + exp(logσ²/2)·ε`. Loss = reconstruction MSE + β·KL(q‖N(0,I)).
//! Anomaly score = reconstruction RMSE with the deterministic code `z = μ`.

use iguard_iforest::quantile_cut;
use iguard_nn::layer::{Activation, ActivationLayer, Dense, Layer};
use iguard_nn::loss::{kl_standard_normal, mse, per_sample_rmse};
use iguard_nn::matrix::Matrix;
use iguard_nn::optim::{Adam, Optimizer};
use iguard_nn::scale::MinMaxScaler;
use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;

use crate::detector::AnomalyDetector;

/// Configuration of the VAE detector.
#[derive(Clone, Copy, Debug)]
pub struct VaeConfig {
    pub hidden: usize,
    pub latent: usize,
    pub epochs: usize,
    pub batch_size: usize,
    pub learning_rate: f32,
    /// Weight of the KL term.
    pub beta: f32,
    /// Contamination for the default threshold.
    pub contamination: f64,
}

impl Default for VaeConfig {
    fn default() -> Self {
        Self {
            hidden: 16,
            latent: 4,
            epochs: 60,
            batch_size: 32,
            learning_rate: 2e-3,
            beta: 0.05,
            contamination: 0.02,
        }
    }
}

/// The fitted VAE detector.
pub struct VaeDetector {
    scaler: MinMaxScaler,
    enc: Dense,
    enc_act: ActivationLayer,
    mu_head: Dense,
    logvar_head: Dense,
    dec: Dense,
    dec_act: ActivationLayer,
    out: Dense,
    threshold: f64,
}

impl VaeDetector {
    /// Trains on benign samples.
    pub fn fit(train: &Dataset, cfg: &VaeConfig, rng: &mut Rng) -> Self {
        assert!(train.rows() > 0, "empty training set");
        let x_raw = Matrix::from_dataset(train);
        let scaler = MinMaxScaler::fit(&x_raw);
        let x = scaler.transform(&x_raw);
        let dim = x.cols();
        let mut vae = Self {
            scaler,
            enc: Dense::new(dim, cfg.hidden, rng),
            enc_act: ActivationLayer::new(Activation::Tanh),
            mu_head: Dense::new(cfg.hidden, cfg.latent, rng),
            logvar_head: Dense::new(cfg.hidden, cfg.latent, rng),
            dec: Dense::new(cfg.latent, cfg.hidden, rng),
            dec_act: ActivationLayer::new(Activation::Tanh),
            out: Dense::new(cfg.hidden, dim, rng),
            threshold: f64::INFINITY,
        };
        let mut opt = Adam::new(cfg.learning_rate);
        let n = x.rows();
        let mut order: Vec<usize> = (0..n).collect();
        for _ in 0..cfg.epochs {
            // Fisher–Yates via rand.
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for chunk in order.chunks(cfg.batch_size) {
                let xb = x.select_rows(chunk);
                vae.train_step(&xb, cfg.beta, &mut opt, rng);
            }
        }
        let mut scores: Vec<f64> = train.iter_rows().map(|s| vae.score_raw(s)).collect();
        assert!((0.0..1.0).contains(&cfg.contamination), "contamination in [0,1)");
        vae.threshold = quantile_cut(&mut scores, 1.0 - cfg.contamination);
        vae
    }

    fn train_step(&mut self, xb: &Matrix, beta: f32, opt: &mut Adam, rng: &mut Rng) {
        // Forward.
        let h = self.enc_act.forward(&self.enc.forward(xb));
        let mu = self.mu_head.forward(&h);
        let logvar = self.logvar_head.forward(&h);
        // Reparameterise: z = mu + exp(logvar/2) * eps.
        let mut eps = Matrix::zeros(mu.rows(), mu.cols());
        for v in eps.as_mut_slice() {
            *v = crate::vae::gauss01(rng);
        }
        let sigma = logvar.map(|lv| (0.5 * lv).exp());
        let z = mu.add(&sigma.hadamard(&eps));
        let y = self.out.forward(&self.dec_act.forward(&self.dec.forward(&z)));

        // Losses and gradients.
        let (_recon, dy) = mse(&y, xb);
        let (_kl, dkl_mu, dkl_lv) = kl_standard_normal(&mu, &logvar);

        // Backward through decoder.
        for l in [&mut self.out as &mut dyn Layer, &mut self.dec_act, &mut self.dec] {
            l.zero_grads();
        }
        self.enc.zero_grads();
        self.enc_act.zero_grads();
        self.mu_head.zero_grads();
        self.logvar_head.zero_grads();

        let dz = self.dec.backward(&self.dec_act.backward(&self.out.backward(&dy)));
        // dz/dmu = 1; dz/dlogvar = 0.5 * sigma * eps.
        let dmu = dz.add(&dkl_mu.scale(beta));
        let dlv = dz.hadamard(&sigma.hadamard(&eps).scale(0.5)).add(&dkl_lv.scale(beta));
        let dh_mu = self.mu_head.backward(&dmu);
        let dh_lv = self.logvar_head.backward(&dlv);
        let dh = dh_mu.add(&dh_lv);
        let _dx = self.enc.backward(&self.enc_act.backward(&dh));

        // Optimizer step over every tensor in stable order.
        let mut pairs: Vec<(&mut [f32], &mut [f32])> = Vec::new();
        pairs.extend(self.enc.params_and_grads());
        pairs.extend(self.mu_head.params_and_grads());
        pairs.extend(self.logvar_head.params_and_grads());
        pairs.extend(self.dec.params_and_grads());
        pairs.extend(self.out.params_and_grads());
        opt.step(&mut pairs);
    }

    /// Deterministic reconstruction (z = μ) of scaled inputs. Cache-free
    /// inference, so scoring shares the detector across threads.
    fn reconstruct(&self, x_scaled: &Matrix) -> Matrix {
        let h = self.enc_act.infer(&self.enc.infer(x_scaled));
        let mu = self.mu_head.infer(&h);
        self.out.infer(&self.dec_act.infer(&self.dec.infer(&mu)))
    }

    fn score_raw(&self, x: &[f32]) -> f64 {
        let xs = self.scaler.transform(&Matrix::from_rows(&[x.to_vec()]));
        let y = self.reconstruct(&xs);
        per_sample_rmse(&y, &xs)[0] as f64
    }
}

/// Standard-normal sample via Box–Muller.
fn gauss01(rng: &mut Rng) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

impl AnomalyDetector for VaeDetector {
    fn name(&self) -> &'static str {
        "VAE"
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

    fn quick_cfg() -> VaeConfig {
        VaeConfig { epochs: 40, hidden: 12, latent: 3, ..Default::default() }
    }

    #[test]
    fn separates_clusters() {
        let mut rng = Rng::seed_from_u64(1);
        let train = testutil::benign(512, 4, &mut rng);
        let det = VaeDetector::fit(&train, &quick_cfg(), &mut rng);
        testutil::assert_separates(&det, &mut rng);
    }

    #[test]
    fn benign_reconstruction_error_is_small() {
        let mut rng = Rng::seed_from_u64(2);
        let train = testutil::benign(512, 4, &mut rng);
        let det = VaeDetector::fit(&train, &quick_cfg(), &mut rng);
        // The blob is isotropic in 4-D, so a 3-D latent necessarily loses
        // ~one dimension of variance; the bound reflects that floor.
        let mean: f64 = train.iter_rows().take(64).map(|x| det.score(x)).sum::<f64>() / 64.0;
        assert!(mean < 0.35, "benign RMSE {mean} too large — VAE failed to train");
    }

    #[test]
    fn threshold_flags_contamination_fraction() {
        let mut rng = Rng::seed_from_u64(3);
        let train = testutil::benign(256, 4, &mut rng);
        let det =
            VaeDetector::fit(&train, &VaeConfig { contamination: 0.1, ..quick_cfg() }, &mut rng);
        let flagged = train.iter_rows().filter(|x| det.predict(x)).count();
        assert!((10..=60).contains(&flagged), "flagged {flagged}/256");
    }

    #[test]
    fn gauss01_is_standard_normal() {
        let mut rng = Rng::seed_from_u64(4);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| gauss01(&mut rng) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05);
        assert!((var - 1.0).abs() < 0.1);
    }
}
