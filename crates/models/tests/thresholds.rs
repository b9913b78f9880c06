//! Pins each detector's fitted threshold and test scores to the bit.
//!
//! Every detector cuts its default threshold at a quantile of its benign
//! training scores. These values were recorded before the detectors shared
//! one cut, so a cut that moves by one index or one ulp fails here by name,
//! not only through the end-to-end golden matrices.

use iguard_iforest::IsolationForestConfig;
use iguard_models::detector::AnomalyDetector;
use iguard_models::knn::KnnConfig;
use iguard_models::magnifier::MagnifierConfig;
use iguard_models::pca::PcaConfig;
use iguard_models::vae::VaeConfig;
use iguard_models::xmeans::XMeansConfig;
use iguard_models::{
    IForestDetector, KnnDetector, Magnifier, PcaDetector, VaeDetector, XMeansDetector,
};
use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;

/// Two benign modes with feature-dependent spread, `dim` features.
fn benign(n: usize, dim: usize, rng: &mut Rng) -> Dataset {
    let mut d = Dataset::new(dim);
    for i in 0..n {
        let centre = if i % 3 == 0 { 0.25 } else { 0.45 };
        let row: Vec<f32> = (0..dim)
            .map(|j| centre + 0.02 * j as f32 + rng.gen_range(-0.06..0.06) * (1.0 + j as f32 / 4.0))
            .collect();
        d.push_row(&row);
    }
    d
}

/// The seeded `(train, test)` split: benign training rows, and a test set
/// of fresh benign rows followed by off-distribution rows.
fn dataset() -> (Dataset, Dataset) {
    let dim = 6;
    let mut rng = Rng::seed_from_u64(0x7E5D);
    let train = benign(400, dim, &mut rng);
    let mut test = benign(60, dim, &mut rng);
    for _ in 0..30 {
        let row: Vec<f32> = (0..dim).map(|_| rng.gen_range(0.0..1.2)).collect();
        test.push_row(&row);
    }
    (train, test)
}

/// 64-bit FNV-1a over the little-endian bits of every score.
fn fnv1a(scores: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in scores {
        for b in s.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Asserts a fitted detector's threshold bits and test-score hash.
fn check(det: &dyn AnomalyDetector, test: &Dataset, threshold_bits: u64, scores_fnv: u64) {
    let got = (det.threshold().to_bits(), fnv1a(&det.scores(test)));
    assert_eq!(
        got,
        (threshold_bits, scores_fnv),
        "{}: (threshold bits, score hash) = ({:#018x}, {:#018x}), threshold {}",
        det.name(),
        got.0,
        got.1,
        det.threshold()
    );
}

#[test]
fn knn_threshold_and_scores() {
    let (train, test) = dataset();
    let det = KnnDetector::fit(&train, &KnnConfig::default());
    check(&det, &test, 0x3fd3_8ad5_4d13_aa05, 0xf89a_72d1_01c7_551d);
}

#[test]
fn pca_threshold_and_scores() {
    let (train, test) = dataset();
    let det = PcaDetector::fit(&train, &PcaConfig::default());
    check(&det, &test, 0x3fd3_ef3a_07f1_a486, 0xcd1e_2c67_612b_0bdc);
}

#[test]
fn xmeans_threshold_and_scores() {
    let (train, test) = dataset();
    let det = XMeansDetector::fit(&train, &XMeansConfig::default(), &mut Rng::seed_from_u64(11));
    check(&det, &test, 0x3fdd_f075_5fea_83c9, 0x9a65_32cb_13be_5537);
}

#[test]
fn vae_threshold_and_scores() {
    let (train, test) = dataset();
    let cfg = VaeConfig { epochs: 4, ..Default::default() };
    let det = VaeDetector::fit(&train, &cfg, &mut Rng::seed_from_u64(12));
    check(&det, &test, 0x3fd3_05c2_e000_0000, 0x45ad_de37_c5d4_cc2c);
}

#[test]
fn magnifier_threshold_and_scores() {
    let (train, test) = dataset();
    let cfg = MagnifierConfig { epochs: 4, ..Default::default() };
    let det = Magnifier::fit(&train, &cfg, &mut Rng::seed_from_u64(13));
    check(&det, &test, 0x3fd9_0539_e000_0000, 0x7a81_27ef_b978_2dc4);
}

#[test]
fn iforest_threshold_and_scores() {
    let (train, test) = dataset();
    let cfg = IsolationForestConfig { n_trees: 40, subsample: 128, contamination: 0.05 };
    let det = IForestDetector::fit(&train, &cfg, 14);
    check(&det, &test, 0x3fe2_3f80_0ebf_f270, 0x5be9_2544_a474_043a);
}
