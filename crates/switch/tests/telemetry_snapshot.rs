//! The telemetry registry after the switch's instrumented paths run:
//! every sketch, ruleset, drift, overload and phase metric is on the
//! board with a nonzero reading, each snapshot passes
//! [`Snapshot::verify`], and counters never move backwards between two
//! snapshots ([`Snapshot::verify_monotonic_since`]).
//!
//! The registry is process-global, so this suite is its own test binary
//! holding a single test.
//!
//! [`Snapshot::verify`]: iguard_telemetry::registry::Snapshot::verify
//! [`Snapshot::verify_monotonic_since`]: iguard_telemetry::registry::Snapshot::verify_monotonic_since

mod support;

use iguard_core::drift::DriftConfig;
use iguard_core::forest::IGuardConfig;
use iguard_core::phase::{train_phases, PhaseTrainConfig};
use iguard_core::teacher::OracleTeacher;
use iguard_flow::five_tuple::{FiveTuple, PROTO_TCP};
use iguard_flow::packet::Packet;
use iguard_flow::table::{FlowShard, FlowTableConfig, PhaseSchedule};
use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::data_plane::DataPlane;
use iguard_switch::pipeline::{Digest, Pipeline, PipelineConfig, SeqDigest};
use iguard_switch::replay::{replay, ReplayConfig};
use iguard_switch::ruleset::RulesetTxn;
use iguard_switch::tcam::{RangeEntry, RangeTable};
use iguard_switch::{SketchEviction, SketchedPipeline, SketchedPipelineConfig};
use iguard_synth::scenarios::Scenario;
use support::{accept_all, fl_mean_size_below, flow_cfg, mixed_trace, pkt, stable_trace};

/// Sketch admission and eviction: a mixed trace through an 8-flow budget.
fn run_sketch() {
    let cfg = SketchedPipelineConfig::default()
        .with_pipeline(flow_cfg(4096))
        .with_budget_bytes(Some(8 * FlowShard::slot_bytes()))
        .with_promote_threshold(2)
        .with_eviction(SketchEviction::TwoQ);
    let mut dp = SketchedPipeline::new(cfg, accept_all(13), accept_all(4));
    let mut out = Vec::new();
    for chunk in mixed_trace().packets.chunks(1024) {
        dp.process_batch(chunk, &mut out);
    }
}

/// The transactional ruleset lifecycle: install, idempotent replay, a
/// diff that removes and installs, and a rejected version gap.
fn run_ruleset() {
    let fl = accept_all(13);
    let mut dp = Pipeline::new(flow_cfg(512), fl.clone(), accept_all(4));
    let mut t1 = RangeTable::new(vec![8]);
    let mut t2 = RangeTable::new(vec![8]);
    for p in 0..4u32 {
        t1.push(RangeEntry { fields: vec![(p * 10, p * 10 + 9)], priority: p });
        t2.push(RangeEntry { fields: vec![(p * 20, p * 20 + 9)], priority: p });
    }
    let v1 = RulesetTxn::full_install(1, &t1, fl.clone());
    dp.apply_ruleset(&v1).expect("v1");
    dp.apply_ruleset(&v1).expect("replaying v1 is a no-op");
    dp.apply_ruleset(&RulesetTxn::diff(2, &t1, &t2, fl.clone())).expect("v2");
    assert!(dp.apply_ruleset(&RulesetTxn::full_install(9, &t2, fl)).is_err(), "gap accepted");
}

/// A benign digest stream followed by a malicious one fires the drift
/// detector and surfaces the controller's trigger.
fn run_drift() {
    let drift = DriftConfig::default().with_window(50).with_min_samples(25).with_cooldown(50);
    let mut c = Controller::new(ControllerConfig { drift: Some(drift), ..Default::default() });
    let mut actions = Vec::new();
    for seq in 0..400u64 {
        let five = FiveTuple::new(seq as u32 + 1, 2, 7, 80, PROTO_TCP);
        let digest = Digest::new(five, seq >= 200);
        c.process_seq_digests_into(&[SeqDigest { seq, digest }], &mut actions);
    }
    assert!(c.take_drift_trigger(), "the malicious regime must fire the drift trigger");
}

/// Degraded mode, entered and left: 512 distinct one-packet flows
/// against a 2-slot table collide on nearly every packet; then resident
/// flow 0 alone sends four calm batches. Its second packet is classified
/// while the shard is still degraded, so that benign digest is shed. The
/// sketch-admission seam tightens under a slowloris hold.
fn run_overload() {
    let table = FlowTableConfig::default().with_slots_per_table(2).with_pkt_threshold(2);
    let mut dp = Pipeline::new(PipelineConfig::from(table), accept_all(13), accept_all(4));
    let mut out = Vec::new();
    let storm: Vec<Packet> = (0..512u32).map(|f| pkt(f, f as u64 * 1_000_000, 100)).collect();
    dp.process_batch(&storm, &mut out);
    for b in 0..4u64 {
        let base = 600_000_000 + b * 300_000_000;
        let calm: Vec<Packet> = (0..256u64).map(|i| pkt(0, base + i * 1_000_000, 100)).collect();
        dp.process_batch(&calm, &mut out);
    }
    let stats = dp.overload_stats();
    assert!(stats.degraded_exits > 0 && stats.shed_benign > 0, "no degraded cycle: {stats:?}");

    let hold = Scenario::Slowloris.trace(1_200, 8.0, &mut Rng::seed_from_u64(0x51C0));
    let cfg =
        SketchedPipelineConfig::default().with_pipeline(flow_cfg(64)).with_promote_threshold(2);
    let mut dp = SketchedPipeline::new(cfg, accept_all(13), accept_all(4));
    let rcfg = ReplayConfig::default().with_batch_size(1024);
    replay(&hold, &mut dp, &mut Controller::new(ControllerConfig::default()), &rcfg);
    assert!(dp.overload_stats().admission_tightened > 0, "admission never tightened");
}

/// Phase verdicts at a 2-packet boundary (large-packet flows convict,
/// small ones escalate), and warm-started phase training.
fn run_phases() {
    let mut cfg = flow_cfg(4096);
    cfg.flow_table = cfg.flow_table.with_phases(PhaseSchedule::new(&[2]));
    let mut dp = Pipeline::new(cfg, accept_all(13), accept_all(4));
    dp.set_phase_rulesets(&[fl_mean_size_below(800.0)]);
    let mut out = Vec::new();
    dp.process_batch(&stable_trace(30, 6).packets, &mut out);

    let grid: Vec<f32> = (0..256).map(|i| (i * 37 % 101) as f32 / 101.0).collect();
    let data = Dataset::from_vec(grid, 128, 2);
    let tcfg = PhaseTrainConfig {
        forest: IGuardConfig { n_trees: 3, subsample: 32, k_augment: 8, ..Default::default() },
        certainty: 0.5,
        max_regions: 100_000,
        warm_start: true,
    };
    let teacher = OracleTeacher(|x: &[f32]| x[0] > 0.6);
    let mut rng = Rng::seed_from_u64(42);
    train_phases(&[data.clone(), data], &teacher, &tcfg, &mut rng).expect("phase training data");
}

/// Every metric name the instrumented paths above must register.
const MARKERS: [&str; 20] = [
    "switch.sketch.promoted",
    "switch.sketch.absorbed",
    "switch.sketch.evicted",
    "switch.ruleset.installed",
    "switch.ruleset.removed",
    "switch.ruleset.swaps",
    "switch.ruleset.stale",
    "switch.ruleset.replayed",
    "switch.controller.drift_trigger",
    "core.drift.fired",
    "switch.flow_table.pressure",
    "switch.overload.degraded_enter",
    "switch.overload.degraded_exit",
    "switch.overload.shed_benign",
    "switch.overload.admission_tightened",
    "switch.phase.boundary",
    "switch.phase.convicted",
    "switch.phase.escalated",
    "core.phase.trained",
    "core.phase.warm_starts",
];

#[test]
fn instrumented_paths_register_and_snapshots_verify() {
    iguard_telemetry::set_enabled(true);
    run_sketch();
    run_ruleset();
    run_drift();
    let first = iguard_telemetry::registry::snapshot().expect("telemetry enabled");
    first.verify().expect("first snapshot invariants");

    run_overload();
    run_phases();
    let last = iguard_telemetry::registry::snapshot().expect("telemetry enabled");
    last.verify().expect("final snapshot invariants");
    last.verify_monotonic_since(&first).expect("counters moved backwards");

    for name in MARKERS {
        let reading = match (last.counters.get(name), last.histograms.get(name)) {
            (Some(&c), _) => c,
            (None, Some(h)) => h.count,
            (None, None) => panic!("{name} is not registered"),
        };
        assert!(reading > 0, "{name} is registered but never recorded");
    }
}
