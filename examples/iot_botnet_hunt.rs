//! IoT botnet hunt: one trained deployment screened against the whole
//! botnet family (Mirai, Aidra, Bashlite and the router-NAT variants) —
//! the "unseen attack" property of unsupervised detection: nothing about
//! any botnet was used during training.
//!
//! ```text
//! cargo run --release --example iot_botnet_hunt
//! ```

use iguard::prelude::*;
use iguard_runtime::rng::Rng;

fn main() {
    let mut rng = Rng::seed_from_u64(33);
    let cfg = ExtractConfig { log_compress: true, ..Default::default() };

    println!("training once on benign traffic only...");
    let train = extract_flows(&benign_trace(700, 20.0, &mut rng), &cfg);
    let mag = Magnifier::fit(
        &train.features,
        &MagnifierConfig { epochs: 60, ..Default::default() },
        &mut rng,
    );
    let mut teacher = DetectorTeacher(mag);
    let ig = IGuardConfig { n_trees: 7, subsample: 64, k_augment: 64, ..Default::default() };
    let mut forest = IGuardForest::fit(&train.features, &mut teacher, &ig, &mut rng);
    forest.distill(&train.features, &mut teacher, ig.k_augment, &mut rng);
    // Calibrate the vote threshold on a small labelled validation mix —
    // the role the paper's validation grid search plays. Only *one* known
    // attack is used for calibration; the others stay unseen.
    {
        let val_b = extract_flows(&benign_trace(200, 10.0, &mut rng), &cfg);
        let val_a = extract_flows(&Attack::Mirai.trace(60, 10.0, &mut rng), &cfg);
        let mut feats = val_b.features.clone();
        feats.extend_rows(&val_a.features);
        let mut labels = vec![false; val_b.len()];
        labels.extend(vec![true; val_a.len()]);
        let scores = forest.scores(&feats);
        let best = best_threshold_among(&scores, &labels, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]);
        forest.set_vote_threshold(best.0);
        println!("  vote threshold {:.2} (val F1 {:.3})", best.0, best.1);
    }
    let rules = RuleSet::from_iguard(&forest, 400_000).expect("rule budget");
    println!("  {} whitelist rules\n", rules.len());

    let benign_test = extract_flows(&benign_trace(250, 10.0, &mut rng), &cfg);
    let fp_rate = benign_test.features.iter_rows().filter(|f| rules.predict(f)).count() as f64
        / benign_test.len() as f64;

    println!("{:<22} {:>9} {:>9} {:>9}", "botnet", "flows", "caught", "recall");
    let family = [Attack::Mirai, Attack::Aidra, Attack::Bashlite, Attack::MiraiRouterFilter];
    for attack in family {
        let flows = extract_flows(&attack.trace(100, 10.0, &mut rng), &cfg);
        let caught = flows.features.iter_rows().filter(|f| rules.predict(f)).count();
        println!(
            "{:<22} {:>9} {:>9} {:>8.1}%",
            attack.name(),
            flows.len(),
            caught,
            caught as f64 / flows.len() as f64 * 100.0
        );
    }
    println!("\nbenign false-positive rate: {:.1}%", fp_rate * 100.0);
    println!("(the same rule table, never shown a single botnet packet during training)");
}
