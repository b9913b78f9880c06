//! Ruleset-swap suite: the rule-diff engine and the transactional,
//! versioned swap path introduced by PR 8.
//!
//! Four families of assertions:
//!
//! 1. **Diff round-trip.** For random pairs of compiled tables,
//!    `diff(old, new)` applied on top of `old` reconstructs exactly the
//!    canonical form of `new`, and its churn is the multiset-minimal
//!    `|old| + |new| − 2·|old ∩ new|` — never a full reinstall when the
//!    tables share entries.
//! 2. **Hitless membership.** Swapping mid-stream (controller-free, at a
//!    random batch boundary) classifies every packet by exactly one
//!    complete ruleset: each verdict equals the pure-old run's or the
//!    pure-new run's verdict at the same position, with zero missed
//!    packets, and the pre-swap prefix is byte-identical to pure-old.
//! 3. **Convergence under faults.** A scripted swap riding the PR-4
//!    fault plans (lossy channel, action outage) retries until delivered
//!    and lands the same final blacklist, version and table as the
//!    fault-free scripted run.
//! 4. **Scale invariance.** The whole swap-under-chaos run is
//!    byte-identical at 1/2/8 shards × 1/2/8 workers.
//!
//! The convergence tests swap to a txn whose float whitelist is
//! *semantically identical* (only the TCAM image differs) so delivery
//! *timing* — which faults legitimately shift — cannot alter any flow
//! label, making exact fingerprint equality the right oracle.

mod support;

use iguard_core::rules::RuleSet;
use iguard_flow::five_tuple::FiveTuple;
use iguard_runtime::par::with_workers;
use iguard_runtime::proptest_lite;
use iguard_runtime::rng::Rng;
use iguard_runtime::{ChannelKind, FaultPlan};
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::data_plane::DataPlane;
use iguard_switch::pipeline::{PacketVerdict, Pipeline, ProcessOutcome};
use iguard_switch::replay::{replay_chaos_traced, ChaosConfig, CrashRecovery, ReplayConfig};
use iguard_switch::ruleset::{canonical_entries, RulesetDiff, RulesetTxn};
use iguard_switch::sharded::{ShardedPipeline, ShardedPipelineConfig};
use iguard_switch::tcam::{RangeEntry, RangeTable};
use iguard_synth::trace::Trace;
use support::{accept_all, fl_mean_size_below, flow_cfg, stable_trace};

fn rand_entry(rng: &mut Rng, fields: usize, bits: u8) -> RangeEntry {
    let max = (1u32 << bits) - 1;
    let mut fs = Vec::with_capacity(fields);
    for _ in 0..fields {
        let a = rng.gen_range(0..=max);
        let b = rng.gen_range(0..=max);
        fs.push((a.min(b), a.max(b)));
    }
    RangeEntry { fields: fs, priority: rng.gen_range(0..8) }
}

fn table_of(field_bits: &[u8], entries: &[RangeEntry]) -> RangeTable {
    let mut t = RangeTable::new(field_bits.to_vec());
    for e in entries {
        t.push(e.clone());
    }
    t
}

/// Multiset intersection size of two canonical entry lists.
fn common_entries(old: &RangeTable, new: &RangeTable) -> usize {
    let (a, b) = (canonical_entries(old), canonical_entries(new));
    let (mut i, mut j, mut shared) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let ka = (a[i].priority, &a[i].fields);
        let kb = (b[j].priority, &b[j].fields);
        match ka.cmp(&kb) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    shared
}

proptest_lite! {
    /// diff(old, new) applied on top of old reconstructs new exactly, and
    /// its churn is the multiset-minimal edit — strictly below a full
    /// reinstall whenever the tables share entries.
    fn diff_apply_roundtrips_random_table_pairs(rng) {
        let field_bits = vec![8u8, 8];
        let n_base = rng.gen_range(0..12usize);
        let n_old = rng.gen_range(0..8usize);
        let n_new = rng.gen_range(0..8usize);
        let base: Vec<RangeEntry> =
            (0..n_base).map(|_| rand_entry(rng, 2, 8)).collect();
        let mut old_entries = base.clone();
        old_entries.extend((0..n_old).map(|_| rand_entry(rng, 2, 8)));
        let mut new_entries = base;
        new_entries.extend((0..n_new).map(|_| rand_entry(rng, 2, 8)));
        let old = table_of(&field_bits, &old_entries);
        let new = table_of(&field_bits, &new_entries);

        let d = RulesetDiff::between(&old, &new);
        let shared = common_entries(&old, &new);
        assert_eq!(
            d.churn(),
            old_entries.len() + new_entries.len() - 2 * shared,
            "churn must be the multiset-minimal edit"
        );
        if shared > 0 {
            assert!(
                d.churn() < old_entries.len() + new_entries.len(),
                "shared entries must never be rewritten"
            );
        }

        // Round-trip through the real transactional path: bootstrap old
        // as v1, then apply the v2 delta, and compare installed tables.
        let mut dp = Pipeline::new(flow_cfg(512), accept_all(13), accept_all(4));
        dp.apply_ruleset(&RulesetTxn::full_install(1, &old, accept_all(13)))
            .expect("bootstrap install");
        assert_eq!(dp.ruleset_table().entries(), canonical_entries(&old).as_slice());
        dp.apply_ruleset(&RulesetTxn::diff(2, &old, &new, accept_all(13)))
            .expect("delta apply");
        assert_eq!(
            dp.ruleset_table().entries(),
            canonical_entries(&new).as_slice(),
            "applied delta must reconstruct the new table"
        );
        assert_eq!(dp.ruleset_version(), 2);
        let c = dp.ruleset_counters();
        assert_eq!(c.swaps, 2);
        assert_eq!(c.installed as usize, canonical_entries(&old).len() + d.installs.len());
        assert_eq!(c.removed as usize, d.removes.len());
    }

    /// Swapping the whitelist at a random batch boundary mid-stream:
    /// every verdict belongs to the pure-old or pure-new run at the same
    /// position, no packet is missed, and the pre-swap prefix is
    /// byte-identical to pure-old.
    fn mid_swap_verdicts_belong_to_old_or_new(rng, cases = 8) {
        const BATCH: usize = 64;
        let trace = stable_trace(30, 12);
        let n_batches = trace.packets.len().div_ceil(BATCH);
        let swap_at = rng.gen_range(1..n_batches);

        // Old generation drops heavy flows; the retrained generation
        // whitelists everything (the heavy mix became the new normal).
        let old_fl = fl_mean_size_below(800.0);
        let new_fl = accept_all(13);
        let mut table = RangeTable::new(vec![4, 4]);
        table.push(RangeEntry { fields: vec![(0, 15), (0, 15)], priority: 0 });
        let txn = RulesetTxn::full_install(1, &table, new_fl.clone());

        let run = |fl: RuleSet, swap: Option<usize>| -> Vec<PacketVerdict> {
            let mut dp = Pipeline::new(flow_cfg(4096), fl, accept_all(4));
            let mut outcomes: Vec<ProcessOutcome> = Vec::new();
            let mut verdicts = Vec::with_capacity(trace.packets.len());
            for (b, chunk) in trace.packets.chunks(BATCH).enumerate() {
                if swap == Some(b) {
                    dp.apply_ruleset(&txn).expect("mid-stream swap");
                }
                dp.process_batch(chunk, &mut outcomes);
                assert_eq!(outcomes.len(), chunk.len(), "no packet may be missed");
                verdicts.extend(outcomes.iter().map(|o| o.verdict));
            }
            verdicts
        };

        let old_run = run(old_fl.clone(), None);
        let new_run = run(new_fl.clone(), None);
        let swap_run = run(old_fl, Some(swap_at));
        assert_eq!(swap_run.len(), trace.packets.len());
        assert_ne!(old_run, new_run, "generations must disagree somewhere");
        let boundary = swap_at * BATCH;
        assert_eq!(
            &swap_run[..boundary],
            &old_run[..boundary],
            "pre-swap prefix must be byte-identical to the old generation"
        );
        for (i, v) in swap_run.iter().enumerate() {
            assert!(
                *v == old_run[i] || *v == new_run[i],
                "packet {i} (swap at batch {swap_at}) saw a verdict of neither generation"
            );
        }
    }
}

/// Everything a swap-under-chaos run makes observable, for exact equality.
#[derive(Debug, PartialEq)]
struct SwapFingerprint {
    confusion: (u64, u64, u64, u64),
    blacklist: Vec<FiveTuple>,
    version: u64,
    counters: iguard_switch::ruleset::RulesetCounters,
    table: Vec<RangeEntry>,
    swaps: u64,
    retries: u64,
}

/// The scripted two-transaction swap schedule used by the convergence and
/// scale tests: v1 bootstraps a table at tick 1, v2 swaps to a perturbed
/// table mid-trace. Both carry the same (semantically identical) float
/// whitelist, so delivery timing cannot alter flow labels.
fn swap_schedule(fl: &RuleSet) -> Vec<(u64, RulesetTxn)> {
    let mut t1 = RangeTable::new(vec![8, 8]);
    for p in 0..6u32 {
        t1.push(RangeEntry { fields: vec![(p * 10, p * 10 + 9), (0, 255)], priority: p });
    }
    let mut t2 = RangeTable::new(vec![8, 8]);
    // Shares three entries with t1; the rest is churned.
    for p in 0..3u32 {
        t2.push(RangeEntry { fields: vec![(p * 10, p * 10 + 9), (0, 255)], priority: p });
    }
    for p in 6..9u32 {
        t2.push(RangeEntry { fields: vec![(p * 7, p * 7 + 3), (1, 200)], priority: p });
    }
    let v2 = RulesetTxn::diff(2, &t1, &t2, fl.clone());
    assert!(v2.churn() > 0 && v2.churn() < t1.entries().len() + t2.entries().len());
    vec![(1, RulesetTxn::full_install(1, &t1, fl.clone())), (6, v2)]
}

fn run_swap_chaos(
    trace: &Trace,
    fl: RuleSet,
    shards: usize,
    workers: usize,
    chaos: &ChaosConfig,
) -> SwapFingerprint {
    with_workers(workers, || {
        let cfg = ShardedPipelineConfig::from(flow_cfg(4096)).with_shards(shards);
        let mut dp = ShardedPipeline::new(cfg, fl.clone(), accept_all(4));
        let mut controller = Controller::new(ControllerConfig::default());
        let r = replay_chaos_traced(
            trace,
            &mut dp,
            &mut controller,
            &ReplayConfig::default().with_batch_size(64),
            chaos,
            None,
        );
        SwapFingerprint {
            confusion: (r.tp, r.fp, r.tn, r.fn_),
            blacklist: dp.blacklist_contents(),
            version: dp.ruleset_version(),
            counters: dp.ruleset_counters(),
            table: dp.ruleset_table().entries().to_vec(),
            swaps: r.ruleset_swaps,
            retries: r.controller.ruleset_retries,
        }
    })
}

fn swap_chaos(plan: FaultPlan, fl: &RuleSet) -> ChaosConfig {
    let mut chaos = ChaosConfig::default().with_plan(plan).with_resync_interval(4);
    for (at, txn) in swap_schedule(fl) {
        chaos = chaos.with_ruleset_swap(at, txn);
    }
    chaos
}

#[test]
fn scripted_swap_converges_exactly_under_lossy_channel() {
    let trace = stable_trace(60, 12);
    let fl = fl_mean_size_below(800.0);
    let clean = run_swap_chaos(&trace, fl.clone(), 4, 2, &swap_chaos(FaultPlan::none(), &fl));
    assert_eq!(clean.version, 2, "both transactions must land fault-free");
    assert_eq!(clean.swaps, 2);
    assert_eq!(clean.retries, 0);
    assert!(!clean.blacklist.is_empty());

    for seed in [11u64, 47] {
        let faulty = run_swap_chaos(
            &trace,
            fl.clone(),
            4,
            2,
            &swap_chaos(FaultPlan::lossy(seed, 0.25), &fl),
        );
        assert_eq!(faulty.version, 2, "seed {seed}: both transactions must converge");
        assert_eq!(faulty.swaps, 2, "seed {seed}");
        assert_eq!(
            faulty.blacklist, clean.blacklist,
            "seed {seed}: blacklist must equal the fault-free scripted run"
        );
        assert_eq!(faulty.table, clean.table, "seed {seed}: installed tables must agree");
        // A lossy *action* channel can release a flow's storage while its
        // install retries, trading a bounded number of TPs for FNs (the
        // PR-4 invariant); it must never inflate FPs, and the swap must
        // not change that contract.
        assert_eq!(faulty.confusion.1, clean.confusion.1, "seed {seed}: no FP inflation");
        assert_eq!(
            faulty.confusion.0 + faulty.confusion.3,
            clean.confusion.0 + clean.confusion.3,
            "seed {seed}: malicious packet population must be conserved"
        );
        let fn_inflation = faulty.confusion.3.saturating_sub(clean.confusion.3);
        assert!(fn_inflation <= 16, "seed {seed}: FN inflation {fn_inflation} exceeds bound");
    }
}

#[test]
fn scripted_swap_converges_exactly_through_action_outage() {
    let trace = stable_trace(60, 12);
    let fl = fl_mean_size_below(800.0);
    let clean = run_swap_chaos(&trace, fl.clone(), 4, 2, &swap_chaos(FaultPlan::none(), &fl));
    // The action channel is dark over both scripted staging ticks; the
    // transactions survive on backoff and land after the heal.
    let plan = FaultPlan::none().with_outage(ChannelKind::Action, 0, 8).with_seed(3);
    let faulty = run_swap_chaos(&trace, fl.clone(), 4, 2, &swap_chaos(plan, &fl));
    assert!(faulty.retries > 0, "outage must force ruleset retries");
    assert_eq!(faulty.version, 2, "both transactions must land after the heal");
    assert_eq!(faulty.swaps, 2, "each transaction must swap exactly once");
    assert_eq!(faulty.counters.stale, 0, "the queue must deliver v1 before offering v2");
    assert_eq!(faulty.blacklist, clean.blacklist);
    assert_eq!(faulty.table, clean.table);
    // Per-flow installs were also dark during the outage, so TPs may
    // trade for FNs exactly as in the PR-4 outage tests — never FPs.
    assert_eq!(faulty.confusion.1, clean.confusion.1, "no FP inflation");
    assert_eq!(
        faulty.confusion.0 + faulty.confusion.3,
        clean.confusion.0 + clean.confusion.3,
        "malicious packet population must be conserved"
    );
}

#[test]
fn swap_under_chaos_is_byte_identical_across_shards_and_workers() {
    let trace = stable_trace(60, 12);
    let fl = fl_mean_size_below(800.0);
    for plan in [FaultPlan::none(), FaultPlan::lossy(11, 0.2)] {
        let chaos = swap_chaos(plan, &fl);
        let base = run_swap_chaos(&trace, fl.clone(), 1, 1, &chaos);
        assert_eq!(base.version, 2);
        for (shards, workers) in [(2, 2), (8, 8), (8, 1), (1, 8)] {
            let got = run_swap_chaos(&trace, fl.clone(), shards, workers, &chaos);
            assert_eq!(got, base, "swap run diverged at {shards} shards / {workers} workers");
        }
    }
}

#[test]
fn replayed_and_stale_transactions_account_correctly() {
    let fl = accept_all(13);
    let mut dp = Pipeline::new(flow_cfg(512), fl.clone(), accept_all(4));
    let mut table = RangeTable::new(vec![4]);
    table.push(RangeEntry { fields: vec![(0, 15)], priority: 0 });
    let v1 = RulesetTxn::full_install(1, &table, fl.clone());
    dp.apply_ruleset(&v1).expect("v1");
    dp.apply_ruleset(&v1).expect("replay of v1 is a no-op");
    let v9 = RulesetTxn::full_install(9, &table, fl);
    let err = dp.apply_ruleset(&v9).expect_err("version gap must be rejected");
    assert_eq!(err, iguard_core::SwitchError::StaleRuleset { expected: 2, got: 9 });
    let c = dp.ruleset_counters();
    assert_eq!((c.swaps, c.replayed, c.stale), (1, 1, 1));
    assert_eq!(dp.ruleset_version(), 1, "rejected transaction must not advance the version");
}

/// Regression: a transaction the data plane rejects is dropped and
/// counted, not resent. Delivery is strictly in order, so resending a
/// v2 that arrived before v1 used to hold the valid v1 behind it for the
/// whole flush budget, and v1 never landed.
#[test]
fn rejected_transaction_is_dropped_not_retried() {
    let trace = stable_trace(60, 12);
    let fl = accept_all(13);
    let mut table = RangeTable::new(vec![4]);
    table.push(RangeEntry { fields: vec![(0, 15)], priority: 0 });
    let chaos = ChaosConfig::default()
        .with_ruleset_swap(0, RulesetTxn::full_install(2, &table, fl.clone()))
        .with_ruleset_swap(1, RulesetTxn::full_install(1, &table, fl.clone()));
    let mut dp = Pipeline::new(flow_cfg(4096), fl, accept_all(4));
    let mut controller = Controller::new(ControllerConfig::default());
    let r = replay_chaos_traced(
        &trace,
        &mut dp,
        &mut controller,
        &ReplayConfig::default().with_batch_size(64),
        &chaos,
        None,
    );
    assert_eq!(dp.ruleset_version(), 1, "v1 must land behind the rejected v2");
    assert_eq!((r.ruleset_swaps, r.controller.rulesets_rejected), (1, 1));
    assert_eq!(r.controller.ruleset_retries, 0, "a rejection is not a transport failure");
    assert_eq!(dp.ruleset_counters().stale, 1, "v2 is offered exactly once");
    assert!(!controller.has_pending_ruleset());
    assert!(r.flush_ticks < 16, "flush ran {} ticks", r.flush_ticks);
}

/// A controller crash loses its in-memory state, not the transactions
/// staged for delivery: v1 is staged while the action channel is dark,
/// the controller crashes before it lands, and under either recovery v1
/// still lands after the heal and v2 swaps on top of it. Before the
/// staging queue was kept out of the crash-losable state, recovery
/// dropped v1, the plane stayed at version 0 and v2 was rejected as a
/// version gap.
#[test]
fn crash_keeps_a_staged_undelivered_swap() {
    let trace = iguard_synth::benign::benign_trace(120, 10.0, &mut Rng::seed_from_u64(5));
    let fl = accept_all(13);
    let mut table = RangeTable::new(vec![4]);
    table.push(RangeEntry { fields: vec![(0, 15)], priority: 0 });
    for recovery in [CrashRecovery::RestoreCheckpoint, CrashRecovery::RebuildFromDataPlane] {
        let chaos = ChaosConfig::default()
            .with_plan(FaultPlan::none().with_outage(ChannelKind::Action, 0, 10))
            .with_checkpoint_interval(4)
            .with_crash(5, recovery)
            .with_ruleset_swap(2, RulesetTxn::full_install(1, &table, fl.clone()))
            .with_ruleset_swap(20, RulesetTxn::full_install(2, &table, fl.clone()));
        let mut dp = Pipeline::new(flow_cfg(4096), fl.clone(), accept_all(4));
        let mut controller = Controller::new(ControllerConfig::default());
        let r = replay_chaos_traced(
            &trace,
            &mut dp,
            &mut controller,
            &ReplayConfig::default().with_batch_size(8),
            &chaos,
            None,
        );
        assert_eq!(dp.ruleset_version(), 2, "{recovery:?}: both swaps must land");
        assert_eq!((r.ruleset_swaps, r.controller.rulesets_rejected), (2, 0), "{recovery:?}");
        let retries = r.controller.ruleset_retries;
        assert!(retries > 0, "{recovery:?}: the outage must delay v1 past the crash");
        assert!(!controller.has_pending_ruleset());
    }
}
