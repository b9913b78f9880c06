//! Registry parity: each backend replays one fixed storm-plus-mixed trace
//! (phase rulesets live, one ruleset diff mid-stream, flow clears after
//! the last batch, one bulk classification), and every published registry counter must advance by
//! exactly its field of the backend's [`DataPlane::stats`] snapshot, read
//! through a name-to-field table written here, not the pipeline's own.
//! Fourteen counters are also pinned as literals per layout, recorded
//! before the snapshot existed; `switch.phase.rulesets_installed` is both
//! mirrored and pinned.
//!
//! The registry is process-global, so this suite is its own test binary
//! holding a single test; each backend reads its own registry delta.

mod support;

use std::collections::BTreeMap;
use std::num::NonZeroU64;

use iguard_flow::table::{FlowShard, FlowTableConfig, PhaseSchedule};
use iguard_runtime::par::with_workers;
use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;
use iguard_switch::pipeline::{
    ControlAction, OverloadConfig, Pipeline, PipelineConfig, ScalarPipeline,
};
use iguard_switch::ruleset::RulesetTxn;
use iguard_switch::sharded::ShardedPipelineConfig;
use iguard_switch::sketched::{SketchEviction, SketchedPipelineConfig};
use iguard_switch::tcam::{RangeEntry, RangeTable};
use iguard_switch::DataPlane;
use iguard_synth::scenarios::Scenario;
use iguard_synth::trace::{extract_flows, ExtractConfig, Trace};
use support::{accept_all, fl_ipd_jitter_above, fl_mean_size_below, mixed_trace};

/// State exhaustion against a 256-slot table, then the mixed trace.
fn storm_trace() -> Trace {
    let storm = Scenario::StateExhaustion.trace(4_000, 8.0, &mut Rng::seed_from_u64(5));
    Trace::merge(vec![storm, mixed_trace()])
}

/// A 4-packet threshold with one phase boundary at packet 2, and a small
/// digest buffer so shedding fires between drains.
fn pipeline_cfg() -> PipelineConfig {
    let table = FlowTableConfig::default()
        .with_slots_per_table(256)
        .with_pkt_threshold(4)
        .with_phases(PhaseSchedule::new(&[2]));
    PipelineConfig::default()
        .with_flow_table(table)
        .with_overload(OverloadConfig::default().with_digest_buffer_cap(16))
}

fn fl_rules() -> iguard_core::rules::RuleSet {
    fl_ipd_jitter_above(0.0008)
}

/// Two 4-entry TCAM images over one 8-bit field, so the diff both
/// removes and installs.
fn tables() -> (RangeTable, RangeTable) {
    let (mut t1, mut t2) = (RangeTable::new(vec![8]), RangeTable::new(vec![8]));
    for p in 0..4u32 {
        t1.push(RangeEntry { fields: vec![(p * 10, p * 10 + 9)], priority: p });
        t2.push(RangeEntry { fields: vec![(p * 20, p * 20 + 9)], priority: p });
    }
    (t1, t2)
}

/// The fixed workload: v1 and eight blacklist entries installed up
/// front, the v2 diff halfway through the trace, a replay of v2 and a
/// version gap at the end, clears of 64 of the trace's flows (resident or
/// not), then one bulk FL classification of the trace's flows, whose
/// publish counts the clears.
fn drive(dp: &mut impl DataPlane, trace: &Trace, rows: &Dataset) {
    let (t1, t2) = tables();
    dp.apply_ruleset(&RulesetTxn::full_install(1, &t1, fl_rules())).expect("v1");
    for p in trace.packets.iter().step_by(997).take(8) {
        dp.apply(ControlAction::InstallBlacklist(p.five));
    }
    let v2 = RulesetTxn::diff(2, &t1, &t2, fl_rules());
    let batches: Vec<_> = trace.packets.chunks(1024).collect();
    let (mut out, mut digests) = (Vec::new(), Vec::new());
    for (i, batch) in batches.iter().enumerate() {
        if i == batches.len() / 2 {
            dp.apply_ruleset(&v2).expect("v2");
        }
        dp.process_batch(batch, &mut out);
        // Drain every other batch: the 16-digest buffer overflows.
        if i % 2 == 1 {
            dp.drain_seq_digests_into(&mut digests);
        }
    }
    dp.apply_ruleset(&v2).expect("replaying v2 is a no-op");
    assert!(dp.apply_ruleset(&RulesetTxn::full_install(9, &t2, fl_rules())).is_err());
    for p in trace.packets.iter().rev().step_by(61).take(64) {
        dp.apply(ControlAction::ClearFlow(p.five));
    }
    let mut verdicts = Vec::new();
    dp.classify_batch(rows, &mut verdicts);
}

/// Registry counter totals right now.
fn counters() -> BTreeMap<String, u64> {
    iguard_telemetry::registry::snapshot_unchecked().counters
}

/// Counters pinned as literals, in the order the pins list them.
const PINNED: [&str; 14] = [
    "flow.table.classified",
    "flow.table.ready",
    "flow.table.ready_timeout",
    "flow.table.phase_ready",
    "flow.table.early",
    "flow.table.install",
    "flow.table.evict_classified",
    "flow.table.evict_budget",
    "switch.phase.boundary",
    "switch.phase.escalated",
    "switch.phase.convicted",
    "switch.phase.rulesets_installed",
    "switch.sketch.window_reset",
    "switch.flow_table.collision_hwm",
];

/// Builds a backend with `make`, runs it through [`drive`] and checks its
/// registry delta: every published counter against its snapshot field,
/// every [`PINNED`] counter against `pins`.
fn check<D: DataPlane>(
    what: &str,
    make: impl FnOnce() -> D,
    trace: &Trace,
    rows: &Dataset,
    pins: [u64; 14],
) {
    let before = counters();
    let mut dp = make();
    drive(&mut dp, trace, rows);
    let after = counters();
    let delta =
        |name: &str| after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0);

    let s = dp.stats();
    let (p, wl, e, ov, rs) = (&s.paths, &s.whitelist, &s.events, &s.overload, &s.ruleset);
    let sk = s.sketch.unwrap_or_default();
    let mirrored = [
        ("switch.pipeline.path.blacklist", p.blacklist),
        ("switch.pipeline.path.brown", p.brown),
        ("switch.pipeline.path.blue", p.blue),
        ("switch.pipeline.path.orange", p.orange),
        ("switch.pipeline.path.purple", p.purple),
        ("switch.pipeline.path.green_loopback", p.green_loopback),
        ("core.rule_index.lookup", wl.lookups),
        ("core.rule_index.hit", wl.hits),
        ("flow.table.classified", e.classified),
        ("flow.table.ready", e.ready),
        ("flow.table.ready_timeout", e.ready_timeout),
        ("flow.table.phase_ready", e.phase_ready),
        ("flow.table.early", e.early),
        ("flow.table.install", e.install),
        ("flow.table.evict_classified", e.evict_classified),
        ("flow.table.evict_budget", e.evict_budget),
        ("flow.table.clear", e.clear),
        ("flow.table.collision", s.flow_table().collision_packets),
        ("switch.phase.boundary", e.phase_ready),
        ("switch.phase.escalated", e.phase_ready - s.phase_convicted),
        ("switch.phase.convicted", s.phase_convicted),
        ("switch.overload.degraded_enter", ov.degraded_entries),
        ("switch.overload.degraded_exit", ov.degraded_exits),
        ("switch.overload.shed_benign", ov.shed_benign),
        ("switch.overload.shed_malicious", ov.shed_malicious),
        ("switch.overload.admission_tightened", ov.admission_tightened),
        ("switch.sketch.promoted", sk.promoted),
        ("switch.sketch.absorbed", sk.absorbed),
        ("switch.sketch.evicted", s.sketch_stats().map_or(0, |k| k.evicted)),
        ("switch.sketch.window_reset", sk.window_resets),
        ("switch.ruleset.installed", rs.installed),
        ("switch.ruleset.removed", rs.removed),
        ("switch.ruleset.swaps", rs.swaps),
        ("switch.ruleset.stale", rs.stale),
        ("switch.ruleset.replayed", rs.replayed),
        ("switch.phase.rulesets_installed", rs.phase_installed),
        ("switch.flow_table.occupancy_hwm", ov.pressure.occupancy_hwm as u64),
        ("switch.flow_table.collision_hwm", ov.pressure.collision_window_hwm),
    ];
    assert!(e.clear > 0, "{what}: the trailing clears must find resident flows");
    for (name, own) in mirrored {
        assert_eq!(delta(name), own, "{what}: registry {name} vs the backend's stats() field");
    }
    let got: Vec<u64> = PINNED.iter().map(|n| delta(n)).collect();
    assert_eq!(got, pins, "{what}: pinned registry deltas, in PINNED order");
}

#[test]
fn registry_deltas_equal_the_data_plane_counts() {
    let trace = storm_trace();
    let rows = extract_flows(&trace, &ExtractConfig::default()).features;
    let cfg = pipeline_cfg();
    let phase_rules = [fl_mean_size_below(800.0)];
    let build = |layout: iguard_switch::pipeline::Layout| {
        let mut dp = Pipeline::new(layout, fl_rules(), accept_all(4));
        dp.set_phase_rulesets(&phase_rules);
        dp
    };

    // Recorded from the per-event registry bumps these counts replaced.
    // The scalar walk shares the serial layout's pins.
    const SERIAL: [u64; 14] = [4665, 232, 1, 1395, 2548, 1972, 230, 0, 1395, 1331, 64, 1, 0, 237];
    const SHARDED: [u64; 14] = [4327, 242, 1, 1416, 2559, 1993, 243, 0, 1416, 1345, 71, 1, 0, 256];
    const SKETCHED: [u64; 14] = [11125, 114, 0, 856, 6599, 6483, 11, 6398, 856, 798, 58, 1, 2, 5];

    check("serial", || build(cfg.into()), &trace, &rows, SERIAL);
    for shards in [1, 2, 8] {
        for workers in [1, 8] {
            let layout = ShardedPipelineConfig { pipeline: cfg, shards };
            with_workers(workers, || {
                let what = format!("sharded {shards}x{workers}");
                check(&what, || build(layout.into()), &trace, &rows, SHARDED)
            });
        }
    }
    let sketched = SketchedPipelineConfig {
        window_packets: NonZeroU64::new(4096).unwrap(),
        ..SketchedPipelineConfig::default()
            .with_pipeline(cfg)
            .with_budget_bytes(Some(64 * FlowShard::slot_bytes()))
            .with_promote_threshold(2)
            .with_eviction(SketchEviction::TwoQ)
    };
    check("sketched", || build(sketched.into()), &trace, &rows, SKETCHED);
    let scalar = || {
        let mut dp = ScalarPipeline::new(cfg, fl_rules(), accept_all(4));
        dp.set_phase_rulesets(&phase_rules);
        dp
    };
    check("scalar", scalar, &trace, &rows, SERIAL);
}
