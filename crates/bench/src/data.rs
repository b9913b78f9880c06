//! Dataset assembly shared by every experiment.
//!
//! Mirrors the paper's protocol (§4): benign traffic is split into train /
//! validation / test; 20 % attack traffic is added to the validation and
//! test sets (one attack at a time); the best configuration is picked on
//! validation and reported on test ([`Scenario::tune_and_test`] for a
//! scored detector's threshold).

use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;

use iguard_flow::features::FeatureSet;
use iguard_metrics::{best_threshold, DetectionSummary};
use iguard_synth::attacks::Attack;
use iguard_synth::benign::benign_trace;
use iguard_synth::trace::{extract_flows, first_packet_pl, ExtractConfig, LabeledFlows, Trace};

/// Scenario sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioConfig {
    /// Benign flows in the training trace.
    pub train_flows: usize,
    /// Benign flows in each of the validation / test traces.
    pub eval_flows: usize,
    /// Attack flows generated per evaluation trace (capped to 20 % of
    /// samples afterwards).
    pub attack_flows: usize,
    /// Trace window (seconds).
    pub window_secs: f64,
    /// Flow-sample truncation (`n`, `δ` of §3.3.1).
    pub extract: ExtractConfig,
    pub seed: u64,
}

impl ScenarioConfig {
    /// CPU experiments: Magnifier-grade features, generous flows.
    pub fn cpu(seed: u64) -> Self {
        Self {
            train_flows: 700,
            eval_flows: 280,
            attack_flows: 160,
            window_secs: 20.0,
            extract: ExtractConfig {
                pkt_threshold: 16,
                timeout_ns: 2_000_000_000,
                feature_set: FeatureSet::Magnifier,
                log_compress: true,
            },
            seed,
        }
    }

    /// Testbed experiments: the 13 switch features only.
    pub fn testbed(seed: u64) -> Self {
        Self {
            train_flows: 700,
            eval_flows: 280,
            attack_flows: 160,
            window_secs: 20.0,
            extract: ExtractConfig {
                pkt_threshold: 8,
                timeout_ns: 2_000_000_000,
                feature_set: FeatureSet::SwitchFl,
                log_compress: true,
            },
            seed,
        }
    }
}

/// One attack's full experimental setting.
pub struct Scenario {
    pub attack: Attack,
    /// Benign-only training samples.
    pub train: LabeledFlows,
    /// Validation samples (benign + 20 % attack).
    pub val: LabeledFlows,
    /// Test samples (benign + 20 % attack).
    pub test: LabeledFlows,
    /// The raw benign+attack test trace for switch replay.
    pub test_trace: Trace,
    /// Attack-only flow samples (poisoning source).
    pub attack_flows: LabeledFlows,
    /// PL features of benign flows' first packets (early-model training).
    pub benign_first_pl: Dataset,
}

impl Scenario {
    /// The §4 protocol for a detector that flags `score > t`: `t` is the
    /// validation sweep's best macro-F1 cut, and the test set is summarised
    /// at it. Returns `(t, validation macro F1, test summary)`.
    pub fn tune_and_test(
        &self,
        scores: impl Fn(&Dataset) -> Vec<f64>,
    ) -> (f64, f64, DetectionSummary) {
        let (t, val_f1) = best_threshold(&scores(&self.val.features), &self.val.labels);
        let test_scores = scores(&self.test.features);
        let pred: Vec<bool> = test_scores.iter().map(|&v| v > t).collect();
        (t, val_f1, DetectionSummary::compute(&self.test.labels, &pred, &test_scores))
    }
}

/// Black-box adversarial manipulations of the evaluation traffic
/// (paper Tables 2–3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttackTransform {
    /// Unmodified attack traffic.
    None,
    /// Rate dilution: stretch attack inter-packet delays by this factor
    /// (the paper's "1/100 rate" is `LowRate(100.0)`).
    LowRate(f64),
    /// Benign blending at 1:`ratio` attack:padding packets.
    Evasion(u32),
}

/// Builds the scenario for one attack.
pub fn build(attack: Attack, cfg: &ScenarioConfig) -> Scenario {
    build_adv(attack, cfg, AttackTransform::None, 0.0)
}

/// Builds an adversarial scenario: `transform` manipulates the attack
/// traffic in validation/test, and `poison_frac` of the *training set* is
/// silently replaced with attack samples presented as benign
/// (paper Table 2's poisoning).
pub fn build_adv(
    attack: Attack,
    cfg: &ScenarioConfig,
    transform: AttackTransform,
    poison_frac: f64,
) -> Scenario {
    // Independent deterministic streams per role.
    let mut rng_train = Rng::seed_from_u64(cfg.seed ^ 0x1111);
    let mut rng_val = Rng::seed_from_u64(cfg.seed ^ 0x2222);
    let mut rng_test = Rng::seed_from_u64(cfg.seed ^ 0x3333);
    let mut rng_atk_v = Rng::seed_from_u64(cfg.seed ^ 0x4444);
    let mut rng_atk_t = Rng::seed_from_u64(cfg.seed ^ 0x5555);

    let train_trace = benign_trace(cfg.train_flows, cfg.window_secs, &mut rng_train);
    let val_benign = benign_trace(cfg.eval_flows, cfg.window_secs, &mut rng_val);
    let test_benign = benign_trace(cfg.eval_flows, cfg.window_secs, &mut rng_test);
    let mut val_attack = attack.trace(cfg.attack_flows, cfg.window_secs, &mut rng_atk_v);
    let mut test_attack = attack.trace(cfg.attack_flows, cfg.window_secs, &mut rng_atk_t);
    match transform {
        AttackTransform::None => {}
        AttackTransform::LowRate(f) => {
            val_attack = iguard_synth::adversarial::low_rate(&val_attack, f);
            test_attack = iguard_synth::adversarial::low_rate(&test_attack, f);
        }
        AttackTransform::Evasion(ratio) => {
            val_attack =
                iguard_synth::adversarial::evasion_blend(&val_attack, ratio, &mut rng_atk_v);
            test_attack =
                iguard_synth::adversarial::evasion_blend(&test_attack, ratio, &mut rng_atk_t);
        }
    }

    let mut train = extract_flows(&train_trace, &cfg.extract);
    if poison_frac > 0.0 {
        let mut rng_poison = Rng::seed_from_u64(cfg.seed ^ 0x6666);
        let poison_src = extract_flows(
            &attack.trace(cfg.attack_flows, cfg.window_secs, &mut rng_poison),
            &cfg.extract,
        );
        let poisoned = iguard_synth::adversarial::poison_training_set(
            &train.features,
            &poison_src.features,
            poison_frac,
            &mut rng_poison,
        );
        // Poison samples are *presented* as benign to every trainer.
        train = LabeledFlows { labels: vec![false; poisoned.rows()], features: poisoned };
    }
    let mut val = extract_flows(&Trace::merge(vec![val_benign, val_attack.clone()]), &cfg.extract);
    let test_trace = Trace::merge(vec![test_benign, test_attack]);
    let mut test = extract_flows(&test_trace, &cfg.extract);
    // The paper adds 20 % attack traffic to the evaluation sets.
    val.cap_malicious_fraction(0.2);
    test.cap_malicious_fraction(0.2);
    let attack_flows = extract_flows(&val_attack, &cfg.extract);

    let benign_first_pl = first_packet_pl(&train_trace);

    Scenario { attack, train, val, test, test_trace, attack_flows, benign_first_pl }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_respects_protocol() {
        let cfg = ScenarioConfig {
            train_flows: 60,
            eval_flows: 40,
            attack_flows: 30,
            ..ScenarioConfig::testbed(1)
        };
        let s = build(Attack::Mirai, &cfg);
        // Benign-only training.
        assert!(s.train.labels.iter().all(|&l| !l));
        assert!(!s.train.is_empty());
        // ~20 % malicious in val/test.
        for (name, set) in [("val", &s.val), ("test", &s.test)] {
            let frac = set.labels.iter().filter(|&&l| l).count() as f64 / set.len() as f64;
            assert!((0.1..=0.25).contains(&frac), "{name} malicious fraction {frac}");
        }
        assert!(!s.benign_first_pl.is_empty());
        assert_eq!(s.benign_first_pl.cols(), 4);
    }

    #[test]
    fn scenarios_are_deterministic() {
        let cfg = ScenarioConfig {
            train_flows: 30,
            eval_flows: 20,
            attack_flows: 15,
            ..ScenarioConfig::cpu(9)
        };
        let a = build(Attack::UdpDdos, &cfg);
        let b = build(Attack::UdpDdos, &cfg);
        assert_eq!(a.train.features, b.train.features);
        assert_eq!(a.test.labels, b.test.labels);
    }
}
