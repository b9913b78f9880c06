//! Deployment gates on a trained whitelist (DESIGN.md §12, §13, §15,
//! §16): the drift loop, budgeted streams, bounded shedding, storm
//! recovery, admission tightening and the phase payoff. Each claim is
//! about how the switch treats a real distilled whitelist, so every test
//! replays `support::trained_rules` rather than a hand-written rule. The
//! overload canon is the adversarial scenario storm over a starved flow
//! table (512 slots per table, 64 flows per logical shard), then a calm
//! benign tail.

mod support;

use std::sync::OnceLock;

use iguard_core::drift::DriftConfig;
use iguard_core::forest::IGuardForest;
use iguard_core::phase::{train_phases, PhaseTrainConfig};
use iguard_core::rules::RuleSet;
use iguard_flow::table::{FlowShard, FlowTableConfig, PhaseSchedule};
use iguard_runtime::par::with_workers;
use iguard_runtime::rng::Rng;
use iguard_runtime::{ChannelKind, FaultPlan};
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::data_plane::DataPlane;
use iguard_switch::pipeline::{OverloadConfig, Pipeline, PipelineConfig};
use iguard_switch::replay::{
    replay, replay_chaos_traced, replay_source, ChaosConfig, MitigationLog, ReplayConfig,
    ReplayReport,
};
use iguard_switch::ruleset::RulesetTxn;
use iguard_switch::sharded::{ShardedPipeline, ShardedPipelineConfig};
use iguard_switch::tcam::{compile_ruleset, FieldSpec};
use iguard_switch::{SketchEviction, SketchedPipeline, SketchedPipelineConfig};
use iguard_synth::attacks::Attack;
use iguard_synth::benign::benign_trace;
use iguard_synth::scenarios::{Scenario, ALL_SCENARIOS};
use iguard_synth::streaming::{StreamingConfig, StreamingTrace};
use iguard_synth::trace::{extract_flows, ExtractConfig, Trace};
use support::{fixture_forest_cfg, flood_oracle, flow_cfg, trained_rules};

const SEED: u64 = 7;

/// Replay batch of the overload canon: small enough that the calm tail
/// spans many control ticks, so the hysteresis exit can complete.
const CANON_BATCH: usize = 1024;

/// Flow-table slots per table of the overload canon.
const CANON_SLOTS: usize = 512;

/// Idle gap that separates a follow-on segment from the traffic before
/// it: past the 2 s idle timeout, so old residents are reclaimable.
const PAST_IDLE_NS: u64 = 2_500_000_000;

/// The trained `(fl, pl)` whitelists, shared by every test here.
fn rules() -> &'static (RuleSet, RuleSet) {
    static RULES: OnceLock<(RuleSet, RuleSet)> = OnceLock::new();
    RULES.get_or_init(|| trained_rules(SEED))
}

/// 16-bit quantization specs scaled to a rule set's feature bounds.
fn specs_for(rules: &RuleSet) -> Vec<FieldSpec> {
    rules
        .bounds
        .iter()
        .map(|&(_, hi)| FieldSpec::new(16, (65_535.0 / hi.max(1e-6)).min(65_535.0)))
        .collect()
}

/// One canon scenario's workload: benign background across the storm
/// window, the storm, and a calm tail. The tail is one benign flow set
/// (well under the table's capacity) replayed nine times, each pass
/// starting past the idle timeout. The first pass displaces stale storm
/// residents; later passes are pure resident hits with no window churn,
/// so every degraded shard sees calm windows and can exit.
fn canon_trace(sc: Scenario) -> Trace {
    // The churn floods offer several times the table's capacity in live
    // flows; the stealth scenarios stay under it.
    let intensity = match sc {
        Scenario::StateExhaustion => 16_000,
        Scenario::PulseWave => 8_000,
        Scenario::Slowloris => 300,
        Scenario::C2Beacon => 200,
    };
    let window = 8.0;
    let salt = ALL_SCENARIOS.iter().position(|s| s.name() == sc.name()).unwrap_or(0) as u64;
    let mut rng = Rng::seed_from_u64(SEED ^ 0x0E11_0AD0 ^ (salt << 8));
    let storm = sc.trace(intensity, window, &mut rng);
    let storm_end = storm.packets.last().map_or(0, |p| p.ts_ns);
    let background = benign_trace(60, window, &mut rng);
    let tail = benign_trace(150, 12.0, &mut rng);
    let tail_span = tail.packets.last().map_or(0, |p| p.ts_ns) + PAST_IDLE_NS;
    let mut segs = vec![background, storm];
    for echo in 0..9 {
        let mut pass = tail.clone();
        pass.shift_time(storm_end + PAST_IDLE_NS + echo * tail_span);
        segs.push(pass);
    }
    Trace::merge(segs)
}

/// One single-shard, single-worker replay through the trained
/// whitelists, with the per-flow mitigation log. Returns the backend too,
/// so a caller can keep replaying through its storm-worn state.
fn canon_replay(
    trace: &Trace,
    cfg: PipelineConfig,
    phase_rules: &[RuleSet],
) -> (ReplayReport, MitigationLog, ShardedPipeline) {
    let (fl, pl) = rules();
    with_workers(1, || {
        let scfg = ShardedPipelineConfig::from(cfg).with_shards(1);
        let mut dp = ShardedPipeline::new(scfg, fl.clone(), pl.clone());
        if !phase_rules.is_empty() {
            dp.set_phase_rulesets(phase_rules);
        }
        let mut controller = Controller::new(ControllerConfig::default());
        let mut log = MitigationLog::default();
        let report = replay_chaos_traced(
            trace,
            &mut dp,
            &mut controller,
            &ReplayConfig::default().with_batch_size(CANON_BATCH),
            &ChaosConfig::default(),
            Some(&mut log),
        );
        (report, log, dp)
    })
}

#[test]
fn drift_loop_fires_on_shift_and_lands_the_retrain_diff() {
    let (_, pl) = rules();
    let mut rng = Rng::seed_from_u64(SEED ^ 0x0DD5_11F7);
    let extract_cfg = ExtractConfig::default();
    let (teacher, ig) = (flood_oracle(), fixture_forest_cfg());

    // Generation 1: train, compile, install as transaction v1.
    let train = extract_flows(&benign_trace(250, 10.0, &mut rng), &extract_cfg);
    let mut forest = IGuardForest::fit(&train.features, &teacher, &ig, &mut rng);
    forest.distill(&train.features, &teacher, ig.k_augment, &mut rng);
    let old_rules = RuleSet::from_iguard(&forest, 600_000).expect("FL rule budget");
    let old_table = compile_ruleset(&old_rules, &specs_for(&old_rules));
    let drift = DriftConfig::default()
        .with_window(64)
        .with_min_samples(32)
        .with_threshold(0.2)
        .with_cooldown(64);
    let mut controller =
        Controller::new(ControllerConfig { drift: Some(drift), ..Default::default() });
    let mut pipeline = Pipeline::new(flow_cfg(4096), old_rules.clone(), pl.clone());
    pipeline
        .apply_ruleset(&RulesetTxn::full_install(1, &old_table, old_rules))
        .expect("bootstrap v1");

    // A calm segment arms the detector and freezes its reference.
    let rcfg = ReplayConfig::default().with_batch_size(1024);
    replay(&benign_trace(220, 10.0, &mut rng), &mut pipeline, &mut controller, &rcfg);
    assert!(!controller.take_drift_trigger(), "drift fired on calm traffic");

    // Regime shift: a flood joins and the malicious digest fraction jumps.
    let shifted = Trace::merge(vec![
        benign_trace(60, 10.0, &mut rng),
        Attack::UdpDdos.trace(90, 10.0, &mut rng),
    ]);
    replay(&shifted, &mut pipeline, &mut controller, &rcfg);
    assert!(controller.take_drift_trigger(), "the regime shift did not fire the drift trigger");

    // Warm retrain on the shifted window, compile generation 2, diff.
    let retrain = extract_flows(&shifted, &extract_cfg);
    let mut new_forest = forest.refit_warm(&retrain.features, &teacher, &ig, &mut rng);
    new_forest.distill(&retrain.features, &teacher, ig.k_augment, &mut rng);
    let new_rules = RuleSet::from_iguard(&new_forest, 600_000).expect("refit FL budget");
    let new_table = compile_ruleset(&new_rules, &specs_for(&new_rules));
    let v2 = RulesetTxn::diff(2, &old_table, &new_table, new_rules);
    let churn = v2.churn();
    let full_reinstall = old_table.len() + new_table.len();
    assert!(churn <= full_reinstall, "diff churn {churn} exceeds full reinstall {full_reinstall}");

    // Deliver v2 through an action channel that is dark for the first 4
    // ticks: the transaction must survive on backoff and land after the
    // heal, writing no more TCAM entries than the diff holds.
    controller.stage_ruleset(v2);
    let before = pipeline.ruleset_counters();
    let plan = FaultPlan::none().with_seed(SEED ^ 0xAC70).with_outage(ChannelKind::Action, 0, 4);
    let chaos = ChaosConfig::default().with_plan(plan).with_resync_interval(4);
    let settle = Trace::merge(vec![
        benign_trace(80, 8.0, &mut rng),
        Attack::UdpDdos.trace(40, 8.0, &mut rng),
    ]);
    let r = replay_chaos_traced(&settle, &mut pipeline, &mut controller, &rcfg, &chaos, None);
    assert_eq!(pipeline.ruleset_version(), 2, "the drift transaction did not land");
    assert_eq!(r.ruleset_swaps, 1, "the drift transaction must swap exactly once");
    assert!(r.ruleset_retries > 0, "the action outage produced no ruleset retries");
    let after = pipeline.ruleset_counters();
    let writes = (after.installed + after.removed) - (before.installed + before.removed);
    assert!(writes <= churn as u64, "{writes} TCAM writes exceed the diff size {churn}");
}

/// An 8,000-flow Zipf stream through the sketch-fronted pipeline at a
/// moderately (512) and a severely (128) starved slot budget, against
/// the exact pipeline on the same packets. The stream keeps ~1.3k flows
/// in flight, so both budgets evict continuously. Every verdict flip
/// must trace back to shed work: a packet the sketch absorbed, or an
/// evicted flow's at most 4 re-windowed packets.
#[test]
fn budgeted_stream_keeps_detecting_within_its_shed_work() {
    let (fl, pl) = rules();
    let pipe =
        PipelineConfig::default().with_flow_table(FlowTableConfig::default().with_pkt_threshold(4));
    let stream = StreamingConfig::default().with_seed(SEED ^ 0x57E4).with_total_flows(8_000);
    let run = |dp: &mut dyn DataPlane| {
        let mut controller = Controller::new(ControllerConfig::default());
        let rcfg = ReplayConfig::default().with_batch_size(8192);
        let mut source = StreamingTrace::new(stream.clone());
        replay_source(&mut source, dp, &mut controller, &rcfg, &ChaosConfig::default(), None)
            .expect("generated packets need no parsing")
    };
    let exact = run(&mut Pipeline::new(pipe, fl.clone(), pl.clone()));
    assert!(exact.tp > 0, "the exact stream must detect attacks");
    for slots in [512usize, 128] {
        let cfg = SketchedPipelineConfig::default()
            .with_pipeline(pipe)
            .with_budget_bytes(Some(slots * FlowShard::slot_bytes()))
            .with_promote_threshold(2)
            .with_eviction(SketchEviction::TwoQ);
        let mut dp = SketchedPipeline::new(cfg, fl.clone(), pl.clone());
        let r = run(&mut dp);
        let s = dp.sketch_stats().expect("sketched backend reports stats");
        assert!(s.tracked <= s.max_tracked, "{slots} slots: {s:?}");
        assert!(s.budget_bytes.is_some_and(|b| s.resident_bytes <= b), "{slots} slots: {s:?}");
        assert_eq!(r.packets, exact.packets, "{slots} slots: packets not conserved");
        assert_eq!(r.tp + r.fn_, exact.tp + exact.fn_, "{slots} slots: positives not conserved");
        let shed = s.absorbed + s.evicted * 4;
        let (dfp, dfn) = (r.fp.abs_diff(exact.fp), r.fn_.abs_diff(exact.fn_));
        assert!(dfp <= shed && dfn <= shed, "{slots} slots: fp Δ{dfp}, fn Δ{dfn} > shed {shed}");
        assert!(r.tp > 0, "{slots} slots lost every detection");
    }
}

/// Shedding benign digests defers `ClearFlow` housekeeping but never
/// flips a verdict, so a degraded run's benign FPs stay within 5 % + 8 of
/// the same replay with shedding disabled. Slot lifetimes still shift,
/// which moves collision timing; hence the slack rather than equality.
#[test]
fn degraded_mode_keeps_benign_fp_inflation_bounded() {
    let no_shedding = flow_cfg(CANON_SLOTS)
        .with_overload(OverloadConfig::default().with_degrade_enter_milli(1001));
    for sc in ALL_SCENARIOS {
        let trace = canon_trace(sc);
        let (degraded, _, dp) = canon_replay(&trace, flow_cfg(CANON_SLOTS), &[]);
        if matches!(sc, Scenario::StateExhaustion | Scenario::PulseWave) {
            let o = dp.overload_stats();
            assert!(
                o.degraded_batches > 0 && o.shed_benign > 0,
                "{}: never shed: {o:?}",
                sc.name()
            );
        }
        let (twin, _, twin_dp) = canon_replay(&trace, no_shedding, &[]);
        assert_eq!(twin_dp.overload_stats().degraded_entries, 0, "{}: twin degraded", sc.name());
        let cap = twin.fp + twin.fp / 20 + 8;
        assert!(
            degraded.fp <= cap,
            "{}: degraded mode inflated benign FPs ({} > cap {cap}, twin {})",
            sc.name(),
            degraded.fp,
            twin.fp
        );
        assert_eq!(
            degraded.packets,
            twin.packets,
            "{}: packet population not conserved",
            sc.name()
        );
    }
}

/// The storm-worn pulse-wave pipeline, on a follow-on segment past the
/// idle timeout (disjoint address pools, fresh controller), produces the
/// exact confusion matrix of a never-stormed pipeline: no stale storm
/// state leaks into the new flows.
#[test]
fn storm_worn_pipeline_reconverges_with_a_fresh_one() {
    let trace = canon_trace(Scenario::PulseWave);
    let (_, _, mut worn) = canon_replay(&trace, flow_cfg(CANON_SLOTS), &[]);
    let mut rng = Rng::seed_from_u64(SEED ^ 0x4EC0_FE4);
    let mut segment = Trace::merge(vec![
        benign_trace(100, 6.0, &mut rng),
        Attack::UdpDdos.trace(40, 6.0, &mut rng),
    ]);
    segment.shift_time(trace.packets.last().map_or(0, |p| p.ts_ns) + PAST_IDLE_NS);
    let confusion = |dp: &mut dyn DataPlane| {
        let mut controller = Controller::new(ControllerConfig::default());
        let rcfg = ReplayConfig::default().with_batch_size(CANON_BATCH);
        let r = with_workers(1, || replay(&segment, dp, &mut controller, &rcfg));
        (r.tp, r.fp, r.tn, r.fn_)
    };
    let (fl, pl) = rules();
    let fresh_cfg = ShardedPipelineConfig::from(flow_cfg(CANON_SLOTS)).with_shards(1);
    let mut fresh = ShardedPipeline::new(fresh_cfg, fl.clone(), pl.clone());
    assert_eq!(
        confusion(&mut worn),
        confusion(&mut fresh),
        "storm-worn pipeline did not reconverge"
    );
}

/// Under storm pressure the sketch demands more repeat evidence before
/// admitting a flow; on calm traffic it never does. The storm is a
/// slowloris hold: long-lived flows that stay untracked once the table
/// fills collide on nearly every packet, driving churn past the degrade
/// threshold. The sketched table is a single 128-flow table; the calm
/// control fits inside it.
#[test]
fn admission_tightens_under_a_slowloris_hold_and_never_on_calm_traffic() {
    let (fl, pl) = rules();
    let tightened = |trace: &Trace| {
        let cfg =
            SketchedPipelineConfig::default().with_pipeline(flow_cfg(64)).with_promote_threshold(2);
        let mut dp = SketchedPipeline::new(cfg, fl.clone(), pl.clone());
        let mut controller = Controller::new(ControllerConfig::default());
        let rcfg = ReplayConfig::default().with_batch_size(CANON_BATCH);
        with_workers(1, || replay(trace, &mut dp, &mut controller, &rcfg));
        dp.overload_stats().admission_tightened
    };
    let storm = Scenario::Slowloris.trace(1_200, 8.0, &mut Rng::seed_from_u64(SEED ^ 0x51C0));
    let calm = benign_trace(30, 8.0, &mut Rng::seed_from_u64(SEED ^ 0xCA1));
    assert!(tightened(&storm) > 0, "admission never tightened under the slowloris hold");
    assert_eq!(tightened(&calm), 0, "admission tightened on calm traffic");
}

/// Intermediate phase boundaries against the canon's 4-packet threshold.
/// Boundary 2 is what reaches the 1–3-packet state-exhaustion probes.
const PHASE_BOUNDARIES: [u64; 2] = [2, 3];

/// One guided forest per boundary on flow features truncated to that
/// boundary's packet prefix (later phases warm-started from the previous
/// one), under a prefix-shape oracle: fast, small packets are the storm
/// signature at two packets. The training mix straddles the oracle's
/// boundary, or the whitelist would be all-benign and never convict.
fn phase_rulesets() -> Vec<RuleSet> {
    let mut rng = Rng::seed_from_u64(SEED ^ 0x0F1A_5E10);
    let mixed = Trace::merge(vec![
        benign_trace(150, 8.0, &mut rng),
        Scenario::StateExhaustion.trace(600, 8.0, &mut rng),
        Scenario::PulseWave.trace(300, 8.0, &mut rng),
        Scenario::Slowloris.trace(80, 8.0, &mut rng),
        Scenario::C2Beacon.trace(60, 8.0, &mut rng),
    ]);
    let teacher = iguard_core::teacher::OracleTeacher(|x: &[f32]| x[7] < 0.008 && x[6] <= 130.0);
    let datasets: Vec<_> = PHASE_BOUNDARIES
        .iter()
        .map(|&b| {
            extract_flows(&mixed, &ExtractConfig { pkt_threshold: b, ..Default::default() })
                .features
        })
        .collect();
    let cfg = PhaseTrainConfig {
        forest: fixture_forest_cfg(),
        // A wrong early conviction stays blacklisted, so demand a 6-of-7
        // super-majority rather than a plain one.
        certainty: 0.7,
        max_regions: 600_000,
        warm_start: true,
    };
    train_phases(&datasets, &teacher, &cfg, &mut rng).expect("phase training data").rulesets
}

/// Median of a sorted sample set (0 when empty).
fn p50(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * 0.5).round() as usize]
}

/// Against the single-shot pipeline on the same storm: pulse-wave median
/// exposure (packets seen before the blacklist install) strictly drops,
/// and state exhaustion, whose probes die before the single-shot
/// threshold, gets flows mitigated at all.
#[test]
fn phase_ladder_cuts_pulse_wave_exposure_and_mitigates_state_exhaustion() {
    let phase_rules = phase_rulesets();
    let mut phased_cfg = flow_cfg(CANON_SLOTS);
    phased_cfg.flow_table =
        phased_cfg.flow_table.with_phases(PhaseSchedule::new(&PHASE_BOUNDARIES));

    let pulse = canon_trace(Scenario::PulseWave);
    let (_, single, _) = canon_replay(&pulse, flow_cfg(CANON_SLOTS), &[]);
    let (_, phased, _) = canon_replay(&pulse, phased_cfg, &phase_rules);
    let (single_p50, phased_p50) =
        (p50(&single.ttm_packets_sorted()), p50(&phased.ttm_packets_sorted()));
    assert!(!phased.records.is_empty(), "the phased run mitigated no pulse-wave flow");
    assert!(
        phased_p50 < single_p50,
        "pulse-wave median exposure did not improve (phased {phased_p50}, single-shot {single_p50})"
    );

    let (_, phased, _) =
        canon_replay(&canon_trace(Scenario::StateExhaustion), phased_cfg, &phase_rules);
    assert!(!phased.records.is_empty(), "state exhaustion mitigated no flows with phases enabled");
}
