//! DDoS mitigation end to end on the emulated switch: train → compile →
//! install → replay a mixed 40 Gbps trace through the Fig.-4 pipeline with
//! a live controller installing blacklist rules.
//!
//! ```text
//! cargo run --release --example ddos_mitigation
//! ```

use iguard::core::early::EarlyModel;
use iguard::prelude::*;
use iguard::switch::pipeline::PipelineConfig as SwitchPipelineConfig;
use iguard::switch::replay::{ControlPlaneModel, ReplayConfig};
use iguard::synth::trace::first_packet_pl;
use iguard_iforest::IsolationForestConfig;
use iguard_runtime::rng::Rng;

fn main() {
    let mut rng = Rng::seed_from_u64(21);
    let cfg = ExtractConfig { log_compress: true, ..Default::default() };

    // Train the full deployment on benign traffic.
    println!("training deployment (teacher -> iGuard -> rules)...");
    let train_trace = benign_trace(700, 20.0, &mut rng);
    let train = extract_flows(&train_trace, &cfg);
    let mag = Magnifier::fit(
        &train.features,
        &MagnifierConfig { epochs: 60, ..Default::default() },
        &mut rng,
    );
    let mut teacher = DetectorTeacher(mag);
    let ig = IGuardConfig { n_trees: 7, subsample: 64, k_augment: 64, ..Default::default() };
    let mut forest = IGuardForest::fit(&train.features, &mut teacher, &ig, &mut rng);
    forest.distill(&train.features, &mut teacher, ig.k_augment, &mut rng);
    // Calibrate the vote threshold on a small held-out mix.
    {
        let val_b = extract_flows(&benign_trace(200, 10.0, &mut rng), &cfg);
        let val_a = extract_flows(&Attack::UdpDdos.trace(60, 10.0, &mut rng), &cfg);
        let mut feats = val_b.features.clone();
        feats.extend_rows(&val_a.features);
        let mut labels = vec![false; val_b.len()];
        labels.extend(vec![true; val_a.len()]);
        let scores = forest.scores(&feats);
        // Pick the vote fraction maximising macro F1.
        let candidates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
        let best = best_threshold_among(&scores, &labels, candidates);
        forest.set_vote_threshold(best.0);
        println!("  vote threshold {:.2} (val F1 {:.3})", best.0, best.1);
    }
    let fl_rules = RuleSet::from_iguard(&forest, 400_000).expect("rule budget");
    // Early-packet PL model for the brown path.
    let pl_trace = benign_trace(300, 10.0, &mut rng);
    let pl_feats = first_packet_pl(&pl_trace);
    let pl_cfg = IsolationForestConfig { n_trees: 10, subsample: 64, contamination: 0.05 };
    let early = EarlyModel::train(&pl_feats, &pl_cfg, 400_000, &mut rng).expect("PL rules");
    println!("  {} FL rules, {} PL rules installed", fl_rules.len(), early.n_rules());

    // Build the attack scenario: benign + UDP flood on a 40 Gbps link.
    let benign = benign_trace(300, 15.0, &mut rng);
    let flood = Attack::UdpDdos.trace(120, 15.0, &mut rng);
    let trace = Trace::merge(vec![benign, flood]);
    println!(
        "replaying {} packets ({:.1}% attack) through the data plane...",
        trace.len(),
        trace.malicious_fraction() * 100.0
    );

    let mut pipeline = Pipeline::new(
        SwitchPipelineConfig { log_compress: true, ..Default::default() },
        fl_rules,
        early.rules.clone(),
    );
    let mut controller = Controller::new(ControllerConfig::default());
    let report = replay(
        &trace,
        &mut pipeline,
        &mut controller,
        &ReplayConfig { control_plane: ControlPlaneModel::iguard(), ..Default::default() },
    );

    let cm = report.confusion();
    println!("\n-- mitigation report --");
    println!("packets: {}  dropped: {}", report.packets, report.dropped);
    println!(
        "per-packet recall {:.3}, precision {:.3}, macro F1 {:.3}",
        cm.recall(),
        cm.precision(),
        cm.macro_f1()
    );
    println!("blacklist entries installed: {}", pipeline.blacklist_len());
    let paths = pipeline.stats().paths;
    println!(
        "paths: blacklist {} brown {} blue {} purple {} orange {} (+{} loopback)",
        paths.blacklist, paths.brown, paths.blue, paths.purple, paths.orange, paths.green_loopback,
    );
    println!(
        "throughput {:.2} Gbps, avg latency {:.1} ns, digest bandwidth {:.1} KBps",
        report.throughput_gbps, report.avg_latency_ns, report.digest_kbps
    );
}
