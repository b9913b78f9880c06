//! Cross-crate integration tests: the full paper pipeline from synthetic
//! packets to switch verdicts.

use iguard::core::early::EarlyModel;
use iguard::flow::features::packet_level_features;
use iguard::prelude::*;
use iguard::switch::pipeline::PipelineConfig as SwitchPipelineConfig;
use iguard::switch::replay::{ControlPlaneModel, ReplayConfig};
use iguard_iforest::IsolationForestConfig as PlForestConfig;
use iguard_runtime::rng::Rng;

fn extract_cfg() -> ExtractConfig {
    ExtractConfig { log_compress: true, ..Default::default() }
}

/// Trains the full deployment once for reuse across assertions.
struct Deployment {
    forest: IGuardForest,
    rules: RuleSet,
    early: EarlyModel,
}

fn train_deployment(seed: u64) -> (Deployment, LabeledFlows) {
    let mut rng = Rng::seed_from_u64(seed);
    let cfg = extract_cfg();
    let train_trace = benign_trace(600, 20.0, &mut rng);
    let train = extract_flows(&train_trace, &cfg);
    let mag = Magnifier::fit(
        &train.features,
        &MagnifierConfig { epochs: 50, ..Default::default() },
        &mut rng,
    );
    let mut teacher = DetectorTeacher(mag);
    let ig = IGuardConfig { n_trees: 7, subsample: 64, k_augment: 64, ..Default::default() };
    let mut forest = IGuardForest::fit(&train.features, &mut teacher, &ig, &mut rng);
    forest.distill(&train.features, &mut teacher, ig.k_augment, &mut rng);
    // Calibrate the vote threshold against a labelled validation mix.
    let val_b = extract_flows(&benign_trace(150, 10.0, &mut rng), &cfg);
    let val_a = extract_flows(&Attack::UdpDdos.trace(50, 10.0, &mut rng), &cfg);
    let mut feats = val_b.features.clone();
    feats.extend_rows(&val_a.features);
    let mut labels = vec![false; val_b.len()];
    labels.extend(vec![true; val_a.len()]);
    let scores = forest.scores(&feats);
    let (vote_thr, _) = best_threshold_among(&scores, &labels, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]);
    forest.set_vote_threshold(vote_thr);
    let rules = RuleSet::from_iguard(&forest, 600_000).expect("rule budget");

    // Early-packet model on first-packet PL features.
    let mut seen = std::collections::HashSet::new();
    let mut pl = iguard_runtime::Dataset::default();
    for p in &train_trace.packets {
        if seen.insert(p.five.canonical()) {
            pl.push_row(&packet_level_features(p));
        }
    }
    let early = EarlyModel::train(
        &pl,
        &PlForestConfig { n_trees: 10, subsample: 64, contamination: 0.05 },
        600_000,
        &mut rng,
    )
    .expect("PL rules");
    (Deployment { forest, rules, early }, train)
}

#[test]
fn rules_reproduce_forest_on_fresh_traffic() {
    let (d, _) = train_deployment(101);
    let mut rng = Rng::seed_from_u64(9);
    let cfg = extract_cfg();
    let mut probes = extract_flows(&benign_trace(150, 8.0, &mut rng), &cfg);
    probes.extend(extract_flows(&Attack::TcpDdos.trace(60, 8.0, &mut rng), &cfg));
    let c = consistency(
        &d.rules.predictions(&probes.features),
        &d.forest.predictions(&probes.features),
    );
    assert!(c >= 0.99, "rule/forest consistency {c} below the paper's band");
}

#[test]
fn deployment_detects_flood_on_the_switch() {
    let (d, _) = train_deployment(102);
    let mut rng = Rng::seed_from_u64(10);
    let benign = benign_trace(200, 12.0, &mut rng);
    let flood = Attack::UdpDdos.trace(80, 12.0, &mut rng);
    let trace = Trace::merge(vec![benign, flood]);
    let mut pipeline = Pipeline::new(
        SwitchPipelineConfig { log_compress: true, ..Default::default() },
        d.rules.clone(),
        d.early.rules.clone(),
    );
    let mut controller = Controller::new(ControllerConfig::default());
    let report = replay(
        &trace,
        &mut pipeline,
        &mut controller,
        &ReplayConfig { control_plane: ControlPlaneModel::iguard(), ..Default::default() },
    );
    let cm = report.confusion();
    assert!(cm.recall() > 0.5, "per-packet recall {:.3}", cm.recall());
    assert!(cm.fpr() < 0.5, "per-packet FPR {:.3}", cm.fpr());
    assert!(pipeline.blacklist_len() > 0, "controller installed no blacklist rules");
    assert!(report.digests > 0);
    assert!(report.throughput_gbps > 30.0);
    assert!(report.avg_latency_ns >= 532.8);
}

#[test]
fn controller_blacklist_shortens_detection_path() {
    let (d, _) = train_deployment(103);
    let mut rng = Rng::seed_from_u64(11);
    // Two identical flood waves: the second should hit blacklist entries
    // installed during the first.
    let wave1 = Attack::UdpDdos.trace(40, 6.0, &mut rng);
    let mut wave2 = wave1.clone();
    wave2.shift_time(10_000_000_000);
    let trace = Trace::merge(vec![wave1, wave2]);
    let mut pipeline = Pipeline::new(
        SwitchPipelineConfig { log_compress: true, ..Default::default() },
        d.rules.clone(),
        d.early.rules.clone(),
    );
    let mut controller = Controller::new(ControllerConfig::default());
    let _ = replay(&trace, &mut pipeline, &mut controller, &ReplayConfig::default());
    assert!(
        pipeline.stats().paths.blacklist > 0,
        "no packet was dropped by an installed blacklist rule"
    );
}

#[test]
fn adversarial_low_rate_changes_flow_durations() {
    use iguard::synth::adversarial::low_rate;
    let mut rng = Rng::seed_from_u64(12);
    let flood = Attack::TcpDdos.trace(30, 5.0, &mut rng);
    let slow = low_rate(&flood, 100.0);
    assert_eq!(slow.len(), flood.len());
    // Flow *durations* stretch ~100x; the trace envelope grows by the
    // longest stretched flow on top of the 5 s start window.
    assert!(
        slow.duration_secs() > 3.0 * flood.duration_secs(),
        "slow {} vs orig {}",
        slow.duration_secs(),
        flood.duration_secs()
    );
}

/// One cheap, fully deterministic deployment for the golden test: an oracle
/// teacher (no NN training), a small guided forest, a PL early model, and a
/// benign+flood replay through the emulated switch.
fn golden_setup() -> (RuleSet, RuleSet, Trace) {
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    let cfg = ExtractConfig::default();
    let train_trace = benign_trace(200, 8.0, &mut rng);
    let train = extract_flows(&train_trace, &cfg);
    let teacher = OracleTeacher(|x: &[f32]| x[10] < 0.0008 || x[2] > 1200.0);
    let ig = IGuardConfig { n_trees: 5, subsample: 64, k_augment: 32, ..Default::default() };
    let mut forest = IGuardForest::fit(&train.features, &teacher, &ig, &mut rng);
    forest.distill(&train.features, &teacher, ig.k_augment, &mut rng);
    let rules = RuleSet::from_iguard(&forest, 400_000).expect("rule budget");

    let mut seen = std::collections::HashSet::new();
    let mut pl = iguard_runtime::Dataset::default();
    for p in &train_trace.packets {
        if seen.insert(p.five.canonical()) {
            pl.push_row(&packet_level_features(p));
        }
    }
    let early = EarlyModel::train(
        &pl,
        &PlForestConfig { n_trees: 10, subsample: 64, contamination: 0.05 },
        400_000,
        &mut rng,
    )
    .expect("PL rules");

    let benign = benign_trace(100, 6.0, &mut rng);
    let flood = Attack::UdpDdos.trace(40, 6.0, &mut rng);
    (rules, early.rules, Trace::merge(vec![benign, flood]))
}

fn golden_pipeline_cfg() -> SwitchPipelineConfig {
    SwitchPipelineConfig {
        flow_table: FlowTableConfig { pkt_threshold: 4, ..Default::default() },
        ..Default::default()
    }
}

fn golden_run() -> (RuleSet, iguard::switch::replay::ReplayReport) {
    let (rules, pl_rules, trace) = golden_setup();
    let mut pipeline = Pipeline::new(golden_pipeline_cfg(), rules.clone(), pl_rules);
    let mut controller = Controller::new(ControllerConfig::default());
    let report = replay(&trace, &mut pipeline, &mut controller, &ReplayConfig::default());
    (rules, report)
}

/// Golden end-to-end: from a fixed seed, the exact rule count and the exact
/// per-packet confusion matrix — and the compiled whitelist is
/// byte-identical at 1, 2, and 8 workers. Any drift in the RNG streams,
/// the decomposition order, or the replay loop shows up here first.
#[test]
fn golden_deployment_is_exact_and_worker_invariant() {
    use iguard_runtime::par::with_workers;

    const GOLDEN_RULES: usize = 11;
    const GOLDEN_REGIONS: usize = 51;
    const GOLDEN_PACKETS: u64 = 6759;
    const GOLDEN_CONFUSION: (u64, u64, u64, u64) = (3999, 1019, 1569, 172); // (tp, fp, tn, fn)

    let (rules, report) = golden_run();
    assert_eq!(rules.len(), GOLDEN_RULES, "whitelist rule count drifted");
    assert_eq!(rules.total_regions, GOLDEN_REGIONS, "decomposition region count drifted");
    assert_eq!(report.packets, GOLDEN_PACKETS, "replayed packet count drifted");
    assert_eq!(
        (report.tp, report.fp, report.tn, report.fn_),
        GOLDEN_CONFUSION,
        "per-packet confusion matrix drifted"
    );

    let tsv = rules.to_tsv();
    for workers in [1usize, 2, 8] {
        let (w_rules, w_report) = with_workers(workers, golden_run);
        assert_eq!(w_rules.to_tsv(), tsv, "whitelist differs at {workers} workers");
        assert_eq!(
            (w_report.tp, w_report.fp, w_report.tn, w_report.fn_),
            GOLDEN_CONFUSION,
            "confusion matrix differs at {workers} workers"
        );
    }
}

/// The golden matrix holds through the columnar batch path, and the
/// scalar per-packet oracle reproduces it bit for bit. At coarser
/// feedback granularity (bigger replay batches delay blacklist installs)
/// the matrix may legitimately shift — but the columnar and scalar
/// backends must still agree exactly at every batch size.
#[test]
fn golden_matrix_holds_through_batch_path() {
    use iguard::switch::pipeline::ScalarPipeline;
    use iguard::switch::DataPlane;

    const GOLDEN_CONFUSION: (u64, u64, u64, u64) = (3999, 1019, 1569, 172);

    let (fl, pl, trace) = golden_setup();
    let run = |dp: &mut dyn DataPlane, batch: usize| {
        let mut controller = Controller::new(ControllerConfig::default());
        let rcfg = ReplayConfig { batch_size: batch, ..Default::default() };
        let r = replay(&trace, dp, &mut controller, &rcfg);
        (r.tp, r.fp, r.tn, r.fn_)
    };

    let mut soa = Pipeline::new(golden_pipeline_cfg(), fl.clone(), pl.clone());
    assert_eq!(run(&mut soa, 1), GOLDEN_CONFUSION, "columnar batch path drifted");
    let mut scalar = ScalarPipeline::new(golden_pipeline_cfg(), fl.clone(), pl.clone());
    assert_eq!(run(&mut scalar, 1), GOLDEN_CONFUSION, "scalar oracle drifted");

    for batch in [64usize, 1024, 4096] {
        let mut soa = Pipeline::new(golden_pipeline_cfg(), fl.clone(), pl.clone());
        let mut scalar = ScalarPipeline::new(golden_pipeline_cfg(), fl.clone(), pl.clone());
        assert_eq!(
            run(&mut soa, batch),
            run(&mut scalar, batch),
            "columnar/scalar diverged at batch {batch}"
        );
    }
}

#[test]
fn tcam_compilation_agrees_with_rules_on_probes() {
    use iguard::switch::tcam::{compile_ruleset, field_specs_for_bounds, quantize_key_into};
    let (d, train) = train_deployment(104);
    let n_probes = 200.min(train.len());

    // --- Coarse 16-bit fields: compilation is grid-exact regardless of
    // resolution. The trained whitelist carves cubes thinner than one
    // 16-bit quantum (concentrated benign traffic), so some cubes cover no
    // grid point and are skipped rather than installed as over-matching
    // point ranges; every source rule is accounted for either way, and the
    // installed table agrees with the float rules *exactly* at every key's
    // canonical grid image `dequantize(key)`.
    let coarse = field_specs_for_bounds(&d.rules.bounds, 16).expect("finite bounds");
    let tcam = compile_ruleset(&d.rules, &coarse);
    assert_eq!(tcam.len() as u64 + tcam.skipped_empty, d.rules.len() as u64);
    assert!(!tcam.is_empty(), "a trained whitelist must install some entries");
    assert!(
        tcam.skipped_empty > 0,
        "this deployment is known to have sub-quantum cubes at 16 bits"
    );
    let index = iguard::switch::rule_index::RangeIndex::build(&tcam);
    let mut scratch = Vec::new();
    let mut key = Vec::new();
    for f in train.features.iter_rows().take(n_probes) {
        quantize_key_into(f, &coarse, &mut key);
        let tcam_hit = tcam.lookup_idx(&key);
        // The compiled index is bit-exact against the TCAM scan on every key.
        assert_eq!(index.lookup(&key, &mut scratch), tcam_hit, "index/scan diverged at {key:?}");
        let deq: Vec<f32> = key.iter().enumerate().map(|(i, &k)| coarse[i].dequantize(k)).collect();
        assert_eq!(
            tcam_hit.is_some(),
            d.rules.matches(&deq),
            "TCAM verdict diverged from float rules at grid point {deq:?}"
        );
    }

    // --- 24-bit fields resolve every cube in this whitelist, so nothing is
    // skipped and the quantised verdict tracks the float verdict on the raw
    // (off-grid) probes too; only rows within half a quantum of a cube
    // boundary may flip, hence agreement rather than bit-exactness.
    let fine = field_specs_for_bounds(&d.rules.bounds, 24).expect("finite bounds");
    let tcam = compile_ruleset(&d.rules, &fine);
    assert_eq!(tcam.len(), d.rules.len(), "24-bit fields must resolve every cube");
    assert_eq!(tcam.skipped_empty, 0);
    let index = iguard::switch::rule_index::RangeIndex::build(&tcam);
    let mut agree = 0usize;
    for f in train.features.iter_rows().take(n_probes) {
        quantize_key_into(f, &fine, &mut key);
        let tcam_hit = tcam.lookup_idx(&key);
        assert_eq!(index.lookup(&key, &mut scratch), tcam_hit, "index/scan diverged at {key:?}");
        if tcam_hit.is_some() == d.rules.matches(f) {
            agree += 1;
        }
    }
    assert!(agree as f64 / n_probes as f64 > 0.95, "TCAM/rule agreement {agree}/{n_probes}");
}
