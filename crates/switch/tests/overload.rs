//! Overload-resilience suite: adversarial state-exhaustion pressure must
//! degrade the data plane *predictably* — same fingerprints at every
//! shard × worker grid point, observable degraded-mode entry/exit with
//! full recovery, and clean flow rebirth across the idle-timeout
//! boundary (pulse-wave shape): digest sequence tags stay unique and no
//! stale statistics leak into a reborn flow's features (DESIGN.md §15).

mod support;

use std::collections::HashMap;

use iguard_flow::five_tuple::FiveTuple;
use iguard_flow::packet::Packet;
use iguard_flow::table::PhaseSchedule;
use iguard_flow::table::{FlowShard, FlowTableConfig, InsertOutcome};
use iguard_runtime::par::with_workers;
use iguard_runtime::proptest_lite;
use iguard_runtime::rng::Rng;
use iguard_switch::data_plane::{DataPlaneStats, OverloadStats};
use iguard_switch::pipeline::{
    ControlAction, PathTaken, Pipeline, PipelineConfig, ProcessOutcome, SeqDigest, FINAL_PHASE,
};
use iguard_switch::sharded::{ShardedPipeline, ShardedPipelineConfig, LOGICAL_SHARDS};
use iguard_switch::DataPlane;
use iguard_synth::benign::benign_trace;
use iguard_synth::scenarios::Scenario;
use iguard_synth::trace::Trace;
use support::{accept_all, fl_mean_size_below, pkt};

// ---------------------------------------------------------------------
// Idle-timeout boundary: the raw flow-table rebirth contract.
// ---------------------------------------------------------------------

proptest_lite! {
    /// A flow that goes idle and returns re-enters cleanly at the
    /// timeout boundary. Strictly *after* the timeout the returning
    /// packet yields the accumulated pre-gap stats exactly once (tagged
    /// `timed_out`) and tracking restarts from that packet: the reborn
    /// flow's features contain only post-gap state — first timestamp at
    /// rebirth, packet count from 1, and the idle gap itself never
    /// appears as an inter-packet delay. At or below the timeout the
    /// same gap is ordinary jitter and accumulation continues.
    fn idle_timeout_rebirth_has_no_stale_stats(rng) {
        let timeout_ns = rng.gen_range(200_000_000u64..2_000_000_000);
        let threshold = rng.gen_range(3u64..6);
        let cfg = FlowTableConfig::default()
            .with_timeout_ns(timeout_ns)
            .with_pkt_threshold(threshold)
            .with_slots_per_table(64);
        let ipd = rng.gen_range(1_000_000u64..10_000_000);
        // Pre-gap burst stops short of the threshold so the flow is
        // resident-but-unlabeled when it goes idle (the pulse shape).
        let pre = rng.gen_range(1u64..threshold);
        let expired = rng.gen_bool(0.5);
        // `timed_out` is strictly greater-than: a gap of exactly the
        // timeout is still the same flow incarnation.
        let gap = if expired {
            timeout_ns + rng.gen_range(1u64..50_000_000)
        } else {
            timeout_ns - rng.gen_range(0u64..timeout_ns.min(50_000_000))
        };
        assert!(gap > ipd, "gap must dominate the burst ipd");

        let mut shard = FlowShard::new(cfg);
        let mut ts = 1_000_000u64;
        for i in 0..pre {
            let out = shard.observe(&pkt(7, ts, 400), ts);
            assert!(
                matches!(out, InsertOutcome::Early { pkt_count } if pkt_count == i + 1),
                "pre-gap burst stays early, got {out:?}"
            );
            ts += ipd;
        }
        let last_pre_ts = ts - ipd;

        // The returning packet.
        let rebirth_ts = last_pre_ts + gap;
        let out = shard.observe(&pkt(7, rebirth_ts, 400), rebirth_ts);
        if expired {
            // Stale state is flushed exactly once, tagged as a timeout.
            match out {
                InsertOutcome::Ready { stats, timed_out: true } => {
                    assert_eq!(stats.pkt_count, pre, "flushed stats are the pre-gap burst");
                    assert_eq!(stats.last_ts_ns, last_pre_ts);
                }
                other => panic!("expired re-entry must flush stale stats, got {other:?}"),
            }
        } else {
            let expect = pre + 1;
            if expect >= threshold {
                assert!(matches!(out, InsertOutcome::Ready { stats, timed_out: false }
                    if stats.pkt_count == expect));
            } else {
                assert!(matches!(out, InsertOutcome::Early { pkt_count } if pkt_count == expect));
            }
            return; // continuation case: nothing was reborn
        }

        // Drive the reborn incarnation to its threshold and inspect the
        // features the blue path would classify on.
        let mut ts = rebirth_ts;
        for i in 1..threshold {
            ts += ipd;
            let out = shard.observe(&pkt(7, ts, 400), ts);
            if i + 1 < threshold {
                assert!(matches!(out, InsertOutcome::Early { pkt_count } if pkt_count == i + 1));
            } else {
                match out {
                    InsertOutcome::Ready { stats, timed_out: false } => {
                        assert_eq!(stats.pkt_count, threshold, "count restarts at rebirth");
                        assert_eq!(stats.first_ts_ns, rebirth_ts, "history starts at rebirth");
                        assert!(
                            stats.max_ipd_ns < gap,
                            "idle gap leaked into reborn ipd: {} >= {gap}",
                            stats.max_ipd_ns
                        );
                    }
                    other => panic!("reborn flow must reach Ready cleanly, got {other:?}"),
                }
            }
        }
    }

    /// Pulse-wave traffic through the full pipeline + a minimal control
    /// loop (benign classifications release storage, as the controller
    /// does): every flow re-enters across the inter-pulse idle gap, each
    /// incarnation emits its own digest, and the sequence tags over the
    /// whole run are globally unique — rebirth never reuses or skips
    /// evidence identity.
    fn pulse_reentry_digest_seqs_stay_unique(rng) {
        let trace = Scenario::PulseWave.trace(rng.gen_range(8usize..24), 8.0, rng);
        assert!(!trace.packets.is_empty());
        let cfg = PipelineConfig::default().with_flow_table(
            FlowTableConfig::default().with_slots_per_table(4096).with_pkt_threshold(4),
        );
        // accept-all whitelists: every digest is benign, so the clear-on-
        // benign loop exercises the rebirth path for every flow.
        let mut p = Pipeline::new(cfg, accept_all(13), accept_all(4));
        let mut out: Vec<ProcessOutcome> = Vec::new();
        let mut digests: Vec<SeqDigest> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut per_flow: HashMap<FiveTuple, u64> = HashMap::new();
        // Small batches: storage releases land between pulses, as the
        // real control loop's per-tick feedback would deliver them.
        for chunk in trace.packets.chunks(16) {
            p.process_batch(chunk, &mut out);
            digests.clear();
            p.drain_seq_digests_into(&mut digests);
            for d in &digests {
                assert!(seen.insert(d.seq), "duplicate digest seq {}", d.seq);
                assert!(!d.digest.malicious);
                *per_flow.entry(d.digest.five).or_default() += 1;
                p.apply(ControlAction::ClearFlow(d.digest.five));
            }
        }
        // The 3 s inter-pulse gap exceeds the 2 s idle timeout, so every
        // pulse flow is reborn at least once and re-classified each time.
        assert!(
            per_flow.values().any(|&n| n >= 2),
            "no flow re-entered across the idle gap: {per_flow:?}"
        );
    }

    /// A flow reborn after the idle timeout restarts the phase ladder
    /// at phase 0 (end-to-end, through the full pipeline). The first
    /// incarnation walks past the phase boundary (escalating), goes
    /// idle past the timeout, and its stale stats are flushed as a
    /// benign timeout verdict that the control loop answers with
    /// `ClearFlow`. The reborn incarnation then sends packets that the
    /// phase whitelist rejects: if phase progress had leaked across the
    /// rebirth the boundary would never re-fire and the flow would run
    /// to the final threshold — instead it must be convicted at its own
    /// second packet with a digest stamped `phase == 0`.
    fn reborn_flow_reenters_phase_ladder_at_phase_zero(rng) {
        let timeout_ns = rng.gen_range(200_000_000u64..2_000_000_000);
        let cfg = PipelineConfig::default().with_flow_table(
            FlowTableConfig::default()
                .with_timeout_ns(timeout_ns)
                .with_pkt_threshold(4)
                .with_slots_per_table(64)
                .with_phases(PhaseSchedule::new(&[2])),
        );
        let mut p = Pipeline::new(cfg, accept_all(13), accept_all(4));
        p.set_phase_rulesets(&[fl_mean_size_below(200.0)]);
        let drained = |p: &mut Pipeline| {
            let mut v = Vec::new();
            p.drain_seq_digests_into(&mut v);
            v.into_iter().map(|sd| sd.digest).collect::<Vec<_>>()
        };
        let ipd = rng.gen_range(1_000_000u64..10_000_000);
        let mut ts = 1_000_000u64;

        // First incarnation: two small packets. The second crosses the
        // phase boundary, the whitelist accepts (mean 100 < 200), and
        // the flow escalates — phase progress now points past boundary 0.
        assert_eq!(p.process(&pkt(7, ts, 100)).path, PathTaken::Brown);
        ts += ipd;
        assert_eq!(p.process(&pkt(7, ts, 100)).path, PathTaken::Brown);
        assert!(drained(&mut p).is_empty(), "escalation emits no digest");

        // Idle strictly past the timeout. The returning packet flushes
        // the stale stats as a single-shot timeout verdict (benign under
        // accept-all FL) and the controller releases the slot.
        ts += timeout_ns + rng.gen_range(1u64..50_000_000);
        assert_eq!(p.process(&pkt(7, ts, 1000)).path, PathTaken::Blue);
        let flushed = drained(&mut p);
        assert_eq!(flushed.len(), 1);
        assert!(!flushed[0].malicious, "stale small-packet stats judge benign");
        assert_eq!(flushed[0].phase, FINAL_PHASE, "timeout flush is a single-shot verdict");
        p.apply(ControlAction::ClearFlow(flushed[0].five));

        // Reborn incarnation, large packets: the boundary must re-fire
        // at the *reborn* flow's second packet and convict on post-gap
        // stats only (mean 1000 > 200).
        ts += ipd;
        assert_eq!(p.process(&pkt(7, ts, 1000)).path, PathTaken::Brown);
        ts += ipd;
        let out = p.process(&pkt(7, ts, 1000));
        assert_eq!(out.path, PathTaken::Blue, "reborn flow must re-enter the phase ladder");
        assert!(out.mirrored, "phase conviction mirrors the deciding packet");
        let convicted = drained(&mut p);
        assert_eq!(convicted.len(), 1);
        assert!(convicted[0].malicious);
        assert_eq!(convicted[0].phase, 0, "reborn flow restarts at phase 0");
    }
}

// ---------------------------------------------------------------------
// Overload behaviour at scale: grid invariance + hysteresis recovery.
// ---------------------------------------------------------------------

/// The adversarial canon at test scale, over a benign background.
fn canon_storm() -> Trace {
    let mut rng = Rng::seed_from_u64(0x0E11);
    let mut segs = vec![benign_trace(40, 6.0, &mut rng)];
    segs.push(Scenario::StateExhaustion.trace(3_000, 6.0, &mut rng));
    segs.push(Scenario::PulseWave.trace(600, 6.0, &mut rng));
    segs.push(Scenario::Slowloris.trace(120, 6.0, &mut rng));
    segs.push(Scenario::C2Beacon.trace(80, 6.0, &mut rng));
    Trace::merge(segs)
}

/// Everything the overload layer makes observable, for exact equality.
#[derive(Debug, PartialEq)]
struct OverloadFingerprint {
    outcomes: Vec<ProcessOutcome>,
    digests: Vec<SeqDigest>,
    overload: OverloadStats,
}

fn run_grid_point(trace: &Trace, shards: usize, workers: usize) -> OverloadFingerprint {
    with_workers(workers, || {
        // Deliberately small slots so the storm drives real pressure:
        // 512 slots/table divide across the 16 logical shards into a
        // 64-flow capacity per shard.
        let pcfg = PipelineConfig::default().with_flow_table(
            FlowTableConfig::default().with_slots_per_table(512).with_pkt_threshold(4),
        );
        let cfg = ShardedPipelineConfig::from(pcfg).with_shards(shards);
        let mut dp = ShardedPipeline::new(cfg, accept_all(13), accept_all(4));
        let mut outcomes = Vec::new();
        let mut digests = Vec::new();
        let mut out = Vec::new();
        for chunk in trace.packets.chunks(1024) {
            dp.process_batch(chunk, &mut out);
            outcomes.extend_from_slice(&out);
            dp.drain_seq_digests_into(&mut digests);
        }
        OverloadFingerprint { outcomes, digests, overload: dp.overload_stats() }
    })
}

/// Pressure, degraded-mode bookkeeping, shed counts and the digest
/// stream must be byte-identical at every shard × worker combination —
/// overload behaviour is part of the deterministic surface, not a
/// best-effort side channel.
#[test]
fn overload_fingerprint_invariant_across_grid() {
    let trace = canon_storm();
    let base = run_grid_point(&trace, 1, 1);
    assert!(base.overload.degraded_entries > 0, "storm must trip degraded mode");
    assert!(base.overload.shed_benign > 0, "degraded shards must shed benign digests");
    for (shards, workers) in [(2, 1), (8, 1), (1, 8), (2, 8), (8, 8)] {
        let got = run_grid_point(&trace, shards, workers);
        assert_eq!(
            got, base,
            "overload fingerprint diverged at {shards} shards / {workers} workers"
        );
    }
}

/// Degraded mode is a *cycle*, not a ratchet: a state-exhaustion storm
/// trips shards in, a calm resident-only tail walks every one of them
/// back out, and the per-shard views sum exactly to the merged stats.
#[test]
fn degraded_shards_recover_after_storm() {
    // 128 slots/table → 8/table per logical shard → 16-flow capacity.
    let pcfg = PipelineConfig::default().with_flow_table(
        FlowTableConfig::default().with_slots_per_table(128).with_pkt_threshold(100),
    );
    let mut dp =
        ShardedPipeline::new(ShardedPipelineConfig::from(pcfg), accept_all(13), accept_all(4));
    let mut out = Vec::new();

    // Pre-install a small calm working set while the table is empty.
    let calm_flows = 64u32;
    let calm_batch = |base_ns: u64| -> Vec<Packet> {
        (0..80u64)
            .flat_map(|rep| {
                (0..calm_flows)
                    .map(move |f| pkt(f, base_ns + rep * 2_000_000 + f as u64 * 1_000, 200))
            })
            .collect()
    };
    dp.process_batch(&calm_batch(0), &mut out);
    let installed = dp.overload_stats();
    assert_eq!(installed.degraded_shards, 0, "calm working set must not trip pressure");

    // State-exhaustion storm: thousands of one-packet flows against the
    // live residents — near-total collision churn in every shard.
    let storm: Vec<Packet> =
        (0..12_000u32).map(|f| pkt(1_000 + f, 200_000_000 + f as u64 * 20_000, 60)).collect();
    for chunk in storm.chunks(1024) {
        dp.process_batch(chunk, &mut out);
    }
    let stormy = dp.overload_stats();
    assert!(stormy.degraded_entries > 0, "storm must enter degraded mode");
    assert!(stormy.degraded_shards > 0, "storm pressure persists while churn lasts");
    assert!(stormy.pressure.churn_milli_hwm >= 750, "churn {}", stormy.pressure.churn_milli_hwm);

    // Calm tail: resident-only traffic rolls the pressure windows clean
    // and the hysteresis exit walks every shard back to normal.
    for b in 1..=8u64 {
        dp.process_batch(&calm_batch(500_000_000 + b * 170_000_000), &mut out);
    }
    let after = dp.overload_stats();
    assert_eq!(after.degraded_shards, 0, "every shard must exit degraded mode");
    assert_eq!(after.degraded_exits, after.degraded_entries, "exits must match entries");
    assert!(after.degraded_batches >= after.degraded_entries);

    // The merged view is exactly the sum of the per-shard views.
    let views = dp.shard_stats();
    assert_eq!(views.len(), LOGICAL_SHARDS);
    let summed = views.iter().fold(OverloadStats::default(), |acc, v| acc.merge(&v.overload));
    assert_eq!(summed, after);
    assert!(views.iter().all(|v| v.overload.degraded_shards == 0));
}

proptest_lite! {
    /// The shard snapshots are the exact constituents of the pipeline's
    /// own at 1, 2 and 8 physical groupings: folded with
    /// `DataPlaneStats::merge` they give `stats()` back, once the two
    /// pipeline-scoped parts every shard view reads as zero (whitelist
    /// lookups, ruleset lifecycle) are added. Each shard's view is the
    /// same at every grouping.
    fn shard_stats_fold_to_the_pipeline_snapshot(rng, cases = 6) {
        let pcfg = PipelineConfig::default().with_flow_table(
            FlowTableConfig::default()
                .with_slots_per_table(rng.gen_range(16usize..256))
                .with_pkt_threshold(rng.gen_range(3u64..6))
                .with_phases(PhaseSchedule::new(&[2])),
        );
        let flows = rng.gen_range(50u32..2_000);
        let mut ts = 0u64;
        let pkts: Vec<Packet> = (0..rng.gen_range(500usize..5_000))
            .map(|_| {
                ts += rng.gen_range(0u64..5_000_000);
                pkt(rng.gen_range(0..flows), ts, rng.gen_range(60u16..1500))
            })
            .collect();
        let batch = rng.gen_range(1usize..1500);
        let mut first: Option<Vec<DataPlaneStats>> = None;
        for shards in [1, 2, 8] {
            let cfg = ShardedPipelineConfig::from(pcfg).with_shards(shards);
            let mut dp = ShardedPipeline::new(cfg, accept_all(13), accept_all(4));
            dp.set_phase_rulesets(&[fl_mean_size_below(800.0)]);
            let mut out = Vec::new();
            for chunk in pkts.chunks(batch) {
                dp.process_batch(chunk, &mut out);
            }
            let (all, views) = (dp.stats(), dp.shard_stats());
            assert_eq!(views.len(), LOGICAL_SHARDS);
            assert!(views.iter().all(|v| v.whitelist == Default::default()));
            let folded = views.iter().fold(DataPlaneStats::default(), |acc, v| acc.merge(v));
            let scoped =
                DataPlaneStats { whitelist: all.whitelist, ruleset: all.ruleset, ..folded };
            assert_eq!(scoped, all, "fold of shard views != stats() at {shards} groups");
            assert!(all.phase_convicted > 0 && all.events.collision > 0, "{all:?}");
            match &first {
                None => first = Some(views),
                Some(base) => assert_eq!(&views, base, "shard views moved at {shards} groups"),
            }
        }
    }
}
