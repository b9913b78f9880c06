//! Candidate-teacher study (paper Appendix A, Fig. 10): macro F1 of six
//! unsupervised models, fine-tuned on validation, per attack.

use iguard_runtime::rng::Rng;

use iguard_iforest::IsolationForestConfig;
use iguard_models::detector::{AnomalyDetector, IForestDetector};
use iguard_models::knn::{KnnConfig, KnnDetector};
use iguard_models::magnifier::{Magnifier, MagnifierConfig};
use iguard_models::pca::{PcaConfig, PcaDetector};
use iguard_models::vae::{VaeConfig, VaeDetector};
use iguard_models::xmeans::{XMeansConfig, XMeansDetector};
use iguard_synth::attacks::Attack;

use crate::cpu::Effort;
use crate::data::{self, ScenarioConfig};

/// The candidate order of Fig. 10.
pub const CANDIDATES: [&str; 6] = ["kNN", "PCA", "iForest", "X-means", "VAE", "Magnifier"];

/// Macro F1 per candidate, index-aligned with [`CANDIDATES`].
#[derive(Clone, Debug)]
pub struct CandidateResult {
    pub attack: Attack,
    pub macro_f1: [f64; 6],
}

/// Runs the Fig.-10 comparison for one attack.
pub fn run_attack(attack: Attack, seed: u64, effort: Effort) -> CandidateResult {
    let s = data::build(attack, &ScenarioConfig::cpu(seed));
    let mut rng = Rng::seed_from_u64(seed ^ 0xF16);
    let epochs = match effort {
        Effort::Quick => 40,
        Effort::Full => 120,
    };

    let knn = KnnDetector::fit(&s.train.features, &KnnConfig::default());
    let pca = PcaDetector::fit(&s.train.features, &PcaConfig::default());
    let iforest = IForestDetector::fit(
        &s.train.features,
        &IsolationForestConfig { n_trees: 100, subsample: 256, contamination: 0.1 },
        seed,
    );
    let xmeans = XMeansDetector::fit(&s.train.features, &XMeansConfig::default(), &mut rng);
    let vae =
        VaeDetector::fit(&s.train.features, &VaeConfig { epochs, ..Default::default() }, &mut rng);
    let magnifier = Magnifier::fit(
        &s.train.features,
        &MagnifierConfig { epochs, ..Default::default() },
        &mut rng,
    );

    // Each candidate is fine-tuned on validation and scored on test.
    let detectors: [&dyn AnomalyDetector; 6] = [&knn, &pca, &iforest, &xmeans, &vae, &magnifier];
    let macro_f1 = detectors.map(|det| s.tune_and_test(|x| det.scores(x)).2.macro_f1);
    CandidateResult { attack, macro_f1 }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig.-10 takeaway: the deep models (VAE / Magnifier) should be
    /// competitive with or better than the conventional iForest on an
    /// attack whose signature is joint rather than marginal.
    #[test]
    fn scan_attack_favours_reconstruction_models() {
        let r = run_attack(Attack::Aidra, 11, Effort::Quick);
        let iforest = r.macro_f1[2];
        let magnifier = r.macro_f1[5];
        assert!(
            magnifier >= iforest - 0.05,
            "Magnifier {magnifier:.3} should not lose clearly to iForest {iforest:.3}"
        );
        assert!(r.macro_f1.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
