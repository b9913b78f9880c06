//! Chaos suite: the control loop must stay correct — and deterministic —
//! when the digest and action channels drop, duplicate, reorder and delay
//! messages, when whole channels black out, and when the controller
//! crashes mid-run.
//!
//! Three families of assertions:
//!
//! 1. **Byte-identity of the ideal loop.** `replay_chaos_traced` with
//!    `FaultPlan::none()` equals plain `replay` exactly, at every
//!    shard/worker combination, with every chaos counter at zero.
//! 2. **Determinism of faulty runs.** For a fixed fault seed, replay
//!    output (confusion, blacklist, fault counters) is byte-identical
//!    across 1/2/8 shards and 1/2/8 workers — the fault draws ride the
//!    merged digest stream, which PR 3 made backend-invariant.
//! 3. **Eventual convergence.** After the channel heals (or the
//!    controller recovers from a crash), label resync restores the exact
//!    fault-free blacklist, and the confusion matrix equals the
//!    fault-free run — classifications live in data-plane flow labels,
//!    so lost digests delay installs but never change verdicts.
//!
//! Convergence tests use a constructed trace with per-flow-constant
//! packet sizes and a mean-size FL rule, so a flow's classification is
//! stable no matter when (or how often) it is re-derived.

mod support;

use iguard_core::rules::RuleSet;
use iguard_flow::five_tuple::FiveTuple;
use iguard_runtime::par::with_workers;
use iguard_runtime::{ChannelKind, FaultPlan};
use iguard_switch::channel::ActionStats;
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::data_plane::DataPlane;
use iguard_switch::replay::{
    replay, replay_chaos_traced, ChaosConfig, CrashRecovery, ReplayConfig, ReplayReport,
};
use iguard_switch::sharded::{ShardedPipeline, ShardedPipelineConfig};
use iguard_synth::trace::Trace;
use support::{
    accept_all, fl_ipd_jitter_above, fl_mean_size_below, flow_cfg, mixed_trace, stable_trace,
};

/// Everything a chaos run makes observable, for exact equality.
#[derive(Debug, PartialEq)]
struct ChaosFingerprint {
    confusion: (u64, u64, u64, u64),
    dropped: u64,
    digests: u64,
    blacklist: Vec<FiveTuple>,
    controller_installed: usize,
    chan: (u64, u64, u64, u64),
    action: ActionStats,
    retries: u64,
    shed: u64,
    dup_digests: u64,
    degraded: bool,
    flush_ticks: u64,
    resync_digests: u64,
}

impl ChaosFingerprint {
    fn of(r: &ReplayReport, dp: &ShardedPipeline, controller: &Controller) -> Self {
        let d = &r.digest_channel;
        Self {
            confusion: (r.tp, r.fp, r.tn, r.fn_),
            dropped: r.dropped,
            digests: r.digests,
            blacklist: dp.blacklist_contents(),
            controller_installed: controller.installed_len(),
            chan: (d.dropped, d.duplicated, d.reordered, d.delayed),
            action: r.action_channel,
            retries: r.controller.retries,
            shed: r.controller.shed,
            dup_digests: r.controller.dup_digests,
            degraded: r.controller.degraded_entries > 0,
            flush_ticks: r.flush_ticks,
            resync_digests: r.resync_digests,
        }
    }
}

fn run_chaos(
    trace: &Trace,
    fl: RuleSet,
    shards: usize,
    workers: usize,
    batch: usize,
    chaos: &ChaosConfig,
) -> ChaosFingerprint {
    with_workers(workers, || {
        let cfg = ShardedPipelineConfig::from(flow_cfg(4096)).with_shards(shards);
        let mut dp = ShardedPipeline::new(cfg, fl.clone(), accept_all(4));
        let mut controller = Controller::new(ControllerConfig::default());
        let r = replay_chaos_traced(
            trace,
            &mut dp,
            &mut controller,
            &ReplayConfig::default().with_batch_size(batch),
            chaos,
            None,
        );
        ChaosFingerprint::of(&r, &dp, &controller)
    })
}

/// Fault seeds exercised by the determinism grid. [`run_chaos`] pins each
/// run's worker count itself through `with_workers`, so the grid covers
/// both sides of the worker-invariance claim whatever `IGUARD_WORKERS` is.
const CHAOS_SEEDS: [u64; 2] = [11, 47];

#[test]
fn none_plan_chaos_equals_plain_replay_at_all_scales() {
    let trace = mixed_trace();
    let ideal = ChaosConfig::default();
    // Plain-replay reference on the serial grid point.
    let reference = with_workers(1, || {
        let cfg = ShardedPipelineConfig::from(flow_cfg(4096)).with_shards(1);
        let mut dp = ShardedPipeline::new(cfg, fl_ipd_jitter_above(0.0008), accept_all(4));
        let mut controller = Controller::new(ControllerConfig::default());
        let r =
            replay(&trace, &mut dp, &mut controller, &ReplayConfig::default().with_batch_size(256));
        ChaosFingerprint::of(&r, &dp, &controller)
    });
    assert_eq!(reference.chan, (0, 0, 0, 0), "ideal loop must not fault");
    assert_eq!(reference.flush_ticks, 0, "ideal loop must already be quiescent");
    assert!(!reference.degraded);
    for (shards, workers) in [(1, 1), (2, 1), (8, 1), (1, 8), (2, 2), (8, 8)] {
        let got = run_chaos(&trace, fl_ipd_jitter_above(0.0008), shards, workers, 256, &ideal);
        assert_eq!(got, reference, "none-plan chaos diverged at {shards}s/{workers}w");
    }
}

#[test]
fn faulty_replay_is_deterministic_across_shards_and_workers() {
    let trace = mixed_trace();
    for seed in CHAOS_SEEDS {
        let chaos =
            ChaosConfig::default().with_plan(FaultPlan::lossy(seed, 0.2)).with_resync_interval(16);
        let base = run_chaos(&trace, fl_ipd_jitter_above(0.0008), 1, 1, 256, &chaos);
        assert!(
            base.chan.0 > 0 && base.chan.1 > 0 && base.chan.3 > 0,
            "seed {seed} must exercise drop/duplicate/delay: {:?}",
            base.chan
        );
        assert!(base.retries > 0, "seed {seed} must exercise the retry path");
        for (shards, workers) in [(2, 1), (8, 1), (1, 8), (2, 8), (8, 8)] {
            let got = run_chaos(&trace, fl_ipd_jitter_above(0.0008), shards, workers, 256, &chaos);
            assert_eq!(got, base, "seed {seed} diverged at {shards} shards / {workers} workers");
        }
    }
}

/// Ticks in the stable trace at batch 64: 60 flows × 12 pkts / 64.
const STABLE_TICKS: u64 = 12;

#[test]
fn digest_outage_converges_exactly_after_heal_via_resync() {
    let trace = stable_trace(60, 12);
    let fl = fl_mean_size_below(800.0);
    let clean = run_chaos(&trace, fl.clone(), 4, 2, 64, &ChaosConfig::default());
    assert!(!clean.blacklist.is_empty(), "stable trace must blacklist its heavy flows");
    assert_eq!(clean.confusion.1, 0, "mean-size rule must not false-positive here");

    // Digest channel dark for the whole trace, healing 4 ticks after it
    // ends: every install and storage release rides the resync path.
    let chaos = ChaosConfig::default()
        .with_plan(FaultPlan::none().with_outage(ChannelKind::Digest, 0, STABLE_TICKS + 4))
        .with_resync_interval(4);
    let faulty = run_chaos(&trace, fl.clone(), 4, 2, 64, &chaos);
    assert_eq!(
        faulty.blacklist, clean.blacklist,
        "post-heal blacklist must equal the fault-free run"
    );
    assert_eq!(
        faulty.confusion, clean.confusion,
        "verdicts live in data-plane labels; an outage must not change them"
    );
    assert!(faulty.chan.0 > 0, "outage must have dropped digests");
    assert!(faulty.flush_ticks > 0, "recovery must extend past the trace");
    assert!(faulty.resync_digests > 0, "recovery must ride resync digests");

    // The healed run is itself worker/shard invariant.
    for (shards, workers) in [(1, 1), (8, 8)] {
        assert_eq!(
            run_chaos(&trace, fl.clone(), shards, workers, 64, &chaos),
            faulty,
            "outage recovery diverged at {shards} shards / {workers} workers"
        );
    }
}

#[test]
fn lossy_channel_converges_exactly_with_resync() {
    let trace = stable_trace(60, 12);
    let fl = fl_mean_size_below(800.0);
    let clean = run_chaos(&trace, fl.clone(), 4, 2, 64, &ChaosConfig::default());
    for seed in CHAOS_SEEDS {
        let chaos =
            ChaosConfig::default().with_plan(FaultPlan::lossy(seed, 0.25)).with_resync_interval(4);
        let faulty = run_chaos(&trace, fl.clone(), 4, 2, 64, &chaos);
        assert_eq!(
            faulty.blacklist, clean.blacklist,
            "seed {seed}: lossy channel must still converge to the exact blacklist"
        );
        // A send failure can release a flow's storage while its install is
        // still retrying; malicious packets in that gap are forwarded and
        // the flow re-learned — so a lossy *action* channel may trade a
        // bounded number of TPs for FNs. It must never inflate FPs.
        assert_eq!(faulty.confusion.1, clean.confusion.1, "seed {seed}: no FP inflation");
        assert_eq!(
            faulty.confusion.0 + faulty.confusion.3,
            clean.confusion.0 + clean.confusion.3,
            "seed {seed}: malicious packet population must be conserved"
        );
        let fn_inflation = faulty.confusion.3.saturating_sub(clean.confusion.3);
        assert!(fn_inflation <= 16, "seed {seed}: FN inflation {fn_inflation} exceeds bound");
        assert!(faulty.chan.0 > 0 && faulty.retries > 0, "seed {seed} must exercise faults");
    }
}

#[test]
fn controller_crash_rebuilds_from_data_plane_and_converges() {
    let trace = stable_trace(60, 12);
    let fl = fl_mean_size_below(800.0);
    let clean = run_chaos(&trace, fl.clone(), 4, 2, 64, &ChaosConfig::default());
    let chaos = ChaosConfig::default()
        .with_resync_interval(4)
        .with_crash(STABLE_TICKS / 2, CrashRecovery::RebuildFromDataPlane);
    let crashed = run_chaos(&trace, fl.clone(), 4, 2, 64, &chaos);
    assert_eq!(crashed.blacklist, clean.blacklist, "rebuild must recover the blacklist");
    assert_eq!(crashed.confusion, clean.confusion);
    assert_eq!(crashed.controller_installed, clean.controller_installed);
}

#[test]
fn controller_crash_restores_checkpoint_byte_identically() {
    let trace = stable_trace(60, 12);
    let fl = fl_mean_size_below(800.0);
    // Checkpoint every tick: restoring at the start of tick T yields the
    // exact end-of-tick-T-1 state, so the whole run — counters included —
    // is indistinguishable from one that never crashed.
    let base = run_chaos(
        &trace,
        fl.clone(),
        4,
        2,
        64,
        &ChaosConfig::default().with_checkpoint_interval(1),
    );
    let crashed = run_chaos(
        &trace,
        fl.clone(),
        4,
        2,
        64,
        &ChaosConfig::default()
            .with_checkpoint_interval(1)
            .with_crash(STABLE_TICKS / 2, CrashRecovery::RestoreCheckpoint),
    );
    assert_eq!(crashed, base, "per-tick checkpoints must make crashes invisible");
}

/// A crash does not rewind the controller's counts: under an action
/// outage that spans the crash, every failed per-flow send is one retry,
/// whichever way the controller recovers. Restoring a checkpoint used to
/// rewind the retry count to the checkpoint's, forgetting the failures
/// between the checkpoint and the crash.
#[test]
fn controller_crash_keeps_the_lifetime_counts() {
    let trace = stable_trace(60, 12);
    let fl = fl_mean_size_below(800.0);
    for recovery in [CrashRecovery::RestoreCheckpoint, CrashRecovery::RebuildFromDataPlane] {
        let chaos = ChaosConfig::default()
            .with_plan(FaultPlan::none().with_outage(ChannelKind::Action, 1, 40))
            .with_checkpoint_interval(8)
            .with_crash(14, recovery);
        let mut dp = ShardedPipeline::new(
            ShardedPipelineConfig::from(flow_cfg(4096)).with_shards(2),
            fl.clone(),
            accept_all(4),
        );
        let mut controller = Controller::new(ControllerConfig::default());
        let r = replay_chaos_traced(
            &trace,
            &mut dp,
            &mut controller,
            &ReplayConfig::default().with_batch_size(16),
            &chaos,
            None,
        );
        let failed = r.action_channel.send_failed + r.action_channel.tcam_full;
        assert!(failed > 0, "{recovery:?}: the outage must fail sends");
        assert_eq!(r.controller.retries, failed, "{recovery:?}: one retry per failed send");
    }
}

#[test]
fn tcam_saturation_degrades_gracefully() {
    let trace = stable_trace(60, 12);
    let fl = fl_mean_size_below(800.0);
    // 20 malicious flows but room for 4 rules: installs 5..20 fail with
    // TcamFull, exhaust their retry budget, and flip the degraded flag —
    // but the run completes and the 4 installed rules keep matching.
    let chaos = ChaosConfig::default().with_tcam_capacity(4);
    let mut dp = ShardedPipeline::new(
        ShardedPipelineConfig::from(flow_cfg(4096)).with_shards(4),
        fl,
        accept_all(4),
    );
    let mut controller = Controller::new(ControllerConfig::default());
    let r = replay_chaos_traced(
        &trace,
        &mut dp,
        &mut controller,
        &ReplayConfig::default().with_batch_size(64),
        &chaos,
        None,
    );
    assert_eq!(dp.blacklist_len(), 4, "TCAM budget must cap the installed rules");
    let c = r.controller;
    assert!(c.degraded_entries > 0, "saturation must raise the degraded flag");
    assert!(c.retries > 0 && c.retries_exhausted > 0, "installs must retry then exhaust");
    assert!(r.action_channel.tcam_full > 0);
    assert_eq!(r.digest_channel.dropped, 0, "digest channel was clean in this scenario");
    assert!(r.tp > 0 && r.tn > 0, "the pipeline keeps classifying throughout");
}
