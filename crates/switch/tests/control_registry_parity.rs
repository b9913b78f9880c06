//! Control-plane registry parity: one faulty replay, run at every shard
//! and worker count, moves each of the 19 `switch.controller.*` and
//! `switch.chan.*` registry counters by exactly its field of the
//! replay's three snapshots (`ReplayReport::{controller, digest_channel,
//! action_channel}`), read through a name-to-field table written here,
//! not the replay loop's own. Every row must move, and the 19 deltas are
//! pinned as literals recorded from the per-event counter bumps the
//! snapshots replaced.
//!
//! The run drops, duplicates, reorders and delays digests; blacks out
//! the action channel; holds the blacklist, the TCAM and the retry queue
//! small enough that evictions, TCAM-full rejections, exhausted retries,
//! shedding and degraded entries all happen; shifts its digest stream
//! from benign to malicious under a drift detector; and scripts one swap
//! that is retried through the outage and delivered, and one version gap
//! that is rejected.
//!
//! The registry is process-global, so this suite is its own test binary
//! holding a single test; each run reads its own registry delta.

mod support;

use std::collections::BTreeMap;

use iguard_core::drift::DriftConfig;
use iguard_runtime::par::with_workers;
use iguard_runtime::{ChannelKind, FaultPlan};
use iguard_switch::controller::{Controller, ControllerConfig, RetryPolicy};
use iguard_switch::pipeline::Pipeline;
use iguard_switch::replay::{replay_chaos_traced, ChaosConfig, ReplayConfig, ReplayReport};
use iguard_switch::ruleset::RulesetTxn;
use iguard_switch::sharded::ShardedPipelineConfig;
use iguard_switch::tcam::{RangeEntry, RangeTable};
use iguard_synth::trace::Trace;
use support::{accept_all, fl_mean_size_below, flow_cfg, shifting_trace};

/// Registry counter totals right now.
fn counters() -> BTreeMap<String, u64> {
    iguard_telemetry::registry::snapshot_unchecked().counters
}

/// Each control-plane registry name with its field of `r`'s snapshots.
fn mirrored(r: &ReplayReport) -> [(&'static str, u64); 19] {
    let (c, d, a) = (&r.controller, &r.digest_channel, &r.action_channel);
    [
        ("switch.controller.digest", c.digests),
        ("switch.controller.dup_digest", c.dup_digests),
        ("switch.controller.blacklist_install", c.installs),
        ("switch.controller.blacklist_evict", c.evictions),
        ("switch.controller.drift_trigger", c.drift_triggers),
        ("switch.controller.retry", c.retries),
        ("switch.controller.retry_exhausted", c.retries_exhausted),
        ("switch.controller.shed", c.shed),
        ("switch.controller.degraded", c.degraded_entries),
        ("switch.controller.ruleset_staged", c.rulesets_staged),
        ("switch.controller.ruleset_delivered", c.rulesets_delivered),
        ("switch.controller.ruleset_rejected", c.rulesets_rejected),
        ("switch.controller.ruleset_retry", c.ruleset_retries),
        ("switch.chan.dropped", d.dropped),
        ("switch.chan.duplicated", d.duplicated),
        ("switch.chan.reordered", d.reordered),
        ("switch.chan.delayed", d.delayed),
        ("switch.chan.send_failed", a.send_failed),
        ("switch.chan.tcam_full", a.tcam_full),
    ]
}

/// Recorded from the per-event registry bumps these snapshots replaced,
/// in [`mirrored`]'s order; the same at every shard and worker count.
const PINS: [u64; 19] = [190, 14, 95, 79, 1, 191, 4, 152, 2, 2, 1, 1, 4, 50, 14, 8, 40, 129, 66];

/// The faulty replay on `shards` shard groups; returns its report and
/// the registry delta of every [`mirrored`] name.
fn run(trace: &Trace, chaos: &ChaosConfig, shards: usize) -> (ReplayReport, Vec<u64>) {
    let fl = fl_mean_size_below(800.0);
    let drift = DriftConfig::default().with_window(50).with_min_samples(25).with_cooldown(50);
    let mut controller = Controller::new(ControllerConfig {
        blacklist_capacity: 16,
        drift: Some(drift),
        retry: RetryPolicy { queue_cap: 4, ..RetryPolicy::default() },
        ..ControllerConfig::default()
    });
    let layout = ShardedPipelineConfig { pipeline: flow_cfg(4096), shards };
    let mut dp = Pipeline::new(layout, fl, accept_all(4));
    let before = counters();
    let rcfg = ReplayConfig::default().with_batch_size(16);
    let r = replay_chaos_traced(trace, &mut dp, &mut controller, &rcfg, chaos, None);
    let after = counters();
    let delta = mirrored(&r)
        .iter()
        .map(|(name, _)| after.get(*name).unwrap_or(&0) - before.get(*name).unwrap_or(&0))
        .collect();
    assert_eq!(r.controller, controller.stats(), "the report holds the controller's snapshot");
    (r, delta)
}

#[test]
fn control_registry_deltas_equal_the_snapshot_counts() {
    let trace = shifting_trace(120, 6);
    let fl = fl_mean_size_below(800.0);
    let mut table = RangeTable::new(vec![4]);
    table.push(RangeEntry { fields: vec![(0, 15)], priority: 0 });
    let chaos = ChaosConfig::default()
        .with_plan(FaultPlan::lossy(23, 0.2).with_outage(ChannelKind::Action, 10, 30))
        .with_tcam_capacity(8)
        .with_ruleset_swap(12, RulesetTxn::full_install(1, &table, fl.clone()))
        .with_ruleset_swap(50, RulesetTxn::full_install(3, &table, fl));
    for shards in [1, 2, 8] {
        for workers in [1, 8] {
            let what = format!("sharded {shards}x{workers}");
            let (r, delta) = with_workers(workers, || run(&trace, &chaos, shards));
            for ((name, own), got) in mirrored(&r).into_iter().zip(&delta) {
                assert!(own > 0, "{what}: {name} never moved");
                assert_eq!(*got, own, "{what}: registry {name} vs its snapshot field");
            }
            assert_eq!(delta, PINS, "{what}: pinned registry deltas, in mirrored order");
        }
    }
}
