//! Shard-invariance suite: the `ShardedPipeline` backend must produce
//! **byte-identical** replay output — confusion matrix, digest stream,
//! blacklist contents, the whole `stats()` snapshot — at 1, 2 and 8
//! physical shards, at 1 and 8 workers, and with telemetry on or off. It
//! must also match the serial `Pipeline` packet-for-packet when the flow
//! table is large enough that neither backend sees slot collisions
//! (cross-flow coupling exists only through shared slots).

mod support;

use iguard_flow::five_tuple::FiveTuple;
use iguard_runtime::par::with_workers;
use iguard_runtime::rng::Rng;
use iguard_switch::controller::{Controller, ControllerConfig};
use iguard_switch::data_plane::{DataPlane, DataPlaneStats};
use iguard_switch::pipeline::{Digest, Pipeline, ProcessOutcome};
use iguard_switch::replay::{replay, ReplayConfig};
use iguard_switch::sharded::{ShardedPipeline, ShardedPipelineConfig};
use iguard_synth::trace::Trace;
use support::{accept_all, fl_ipd_jitter_above, flow_cfg, mixed_trace};

/// Everything replay makes observable, for exact equality comparison.
#[derive(Debug, PartialEq)]
struct ReplayFingerprint {
    tp: u64,
    fp: u64,
    tn: u64,
    fn_: u64,
    dropped: u64,
    digests: u64,
    loopback: u64,
    stats: DataPlaneStats,
    blacklist: Vec<FiveTuple>,
    controller_installed: usize,
}

fn replay_sharded(trace: &Trace, shards: usize, workers: usize, batch: usize) -> ReplayFingerprint {
    with_workers(workers, || {
        let cfg = ShardedPipelineConfig::from(flow_cfg(4096)).with_shards(shards);
        let mut dp = ShardedPipeline::new(cfg, fl_ipd_jitter_above(0.0008), accept_all(4));
        let mut controller = Controller::new(ControllerConfig::default());
        let r = replay(
            trace,
            &mut dp,
            &mut controller,
            &ReplayConfig::default().with_batch_size(batch),
        );
        ReplayFingerprint {
            tp: r.tp,
            fp: r.fp,
            tn: r.tn,
            fn_: r.fn_,
            dropped: r.dropped,
            digests: r.digests,
            loopback: r.loopback,
            stats: dp.stats(),
            blacklist: dp.blacklist_contents(),
            controller_installed: controller.installed_len(),
        }
    })
}

#[test]
fn replay_identical_across_shards_and_workers() {
    let trace = mixed_trace();
    let base = replay_sharded(&trace, 1, 1, 256);
    assert!(base.tp > 0 && base.tn > 0, "trace must exercise both classes");
    assert!(!base.blacklist.is_empty(), "floods must be blacklisted");
    for (shards, workers) in [(2, 1), (8, 1), (1, 8), (2, 8), (8, 8)] {
        let got = replay_sharded(&trace, shards, workers, 256);
        assert_eq!(got, base, "replay diverged at {shards} shards / {workers} workers");
    }
}

#[test]
fn replay_identical_across_batch_sizes() {
    // Batch size changes controller feedback *granularity*, which may
    // legitimately change results vs batch=1; but for a fixed batch size
    // the shard count still must not matter — and feedback at batch=64
    // must equal feedback at batch=64 regardless of sharding.
    let trace = mixed_trace();
    for batch in [1usize, 64] {
        let base = replay_sharded(&trace, 1, 1, batch);
        for shards in [2usize, 8] {
            assert_eq!(
                replay_sharded(&trace, shards, 4, batch),
                base,
                "batch {batch} diverged at {shards} shards"
            );
        }
    }
}

/// Drives batches straight into the data plane (no controller feedback)
/// and returns the full drained digest stream, byte-for-byte.
fn digest_stream<D: DataPlane + ?Sized>(trace: &Trace, dp: &mut D, batch: usize) -> Vec<Digest> {
    let mut out = Vec::new();
    let mut outcomes: Vec<ProcessOutcome> = Vec::new();
    for chunk in trace.packets.chunks(batch) {
        dp.process_batch(chunk, &mut outcomes);
        dp.drain_seq_digests_into(&mut out);
    }
    out.into_iter().map(|sd| sd.digest).collect()
}

#[test]
fn digest_stream_byte_identical_across_shards() {
    let trace = mixed_trace();
    let mk = |shards: usize| {
        ShardedPipeline::new(
            ShardedPipelineConfig::from(flow_cfg(4096)).with_shards(shards),
            fl_ipd_jitter_above(0.0008),
            accept_all(4),
        )
    };
    // Odd batch size so batch boundaries don't align with anything.
    let base = with_workers(1, || digest_stream(&trace, &mut mk(1), 337));
    assert!(!base.is_empty());
    for (shards, workers) in [(2, 1), (8, 1), (8, 8), (16, 3)] {
        let got = with_workers(workers, || digest_stream(&trace, &mut mk(shards), 337));
        assert_eq!(got, base, "digest stream diverged at {shards} shards / {workers} workers");
    }
}

#[test]
fn sharded_matches_serial_pipeline_without_slot_pressure() {
    // 64k slots per table → 4k per logical shard; a few hundred flows
    // cannot collide in either layout, so the backends must agree on
    // every packet, digest and blacklist entry — including when driven
    // through `&mut dyn DataPlane` (trait-object parity).
    let trace = mixed_trace();
    let fl = fl_ipd_jitter_above(0.0008);
    let mut serial = Pipeline::new(flow_cfg(65_536), fl.clone(), accept_all(4));
    let mut sharded = ShardedPipeline::new(
        ShardedPipelineConfig::from(flow_cfg(65_536)).with_shards(8),
        fl,
        accept_all(4),
    );
    let backends: [&mut dyn DataPlane; 2] = [&mut serial, &mut sharded];
    let cfg = ReplayConfig::default().with_batch_size(1);
    let mut results = Vec::new();
    for dp in backends {
        let mut controller = Controller::new(ControllerConfig::default());
        let r = replay(&trace, dp, &mut controller, &cfg);
        results.push((
            (r.tp, r.fp, r.tn, r.fn_),
            r.digests,
            r.dropped,
            r.loopback,
            dp.counters(),
            dp.blacklist_len(),
            dp.packets_processed(),
        ));
    }
    assert_eq!(results[0], results[1], "serial and sharded backends disagree");
    assert_eq!(serial.blacklist_contents(), sharded.blacklist_contents());
    // Same digest *stream*, not just count: re-run without feedback.
    let mut serial2 = Pipeline::new(flow_cfg(65_536), fl_ipd_jitter_above(0.0008), accept_all(4));
    let mut sharded2 = ShardedPipeline::new(
        ShardedPipelineConfig::from(flow_cfg(65_536)).with_shards(8),
        fl_ipd_jitter_above(0.0008),
        accept_all(4),
    );
    let a = digest_stream(&trace, &mut serial2, 337);
    let b = digest_stream(&trace, &mut sharded2, 337);
    assert_eq!(a, b, "digest streams differ between serial and sharded");
}

#[test]
fn telemetry_toggle_does_not_change_results() {
    let trace = mixed_trace();
    iguard_telemetry::set_enabled(true);
    let on = replay_sharded(&trace, 8, 4, 128);
    iguard_telemetry::set_enabled(false);
    let off = replay_sharded(&trace, 8, 4, 128);
    iguard_telemetry::set_enabled(false);
    assert_eq!(on, off, "telemetry must be observe-only");
}

/// One pipeline whose worker count changes between batches (1 → 2 → 8
/// → 1, so its crew is built, rebuilt and dropped to none mid-run) must
/// fingerprint-equal a fresh 1-shard × 1-worker run: outcomes, digest
/// stream, blacklist, the `stats()` snapshot, and batch-classification
/// verdicts.
#[test]
fn worker_count_changes_between_batches() {
    let trace = mixed_trace();
    let rows = {
        let mut rng = Rng::seed_from_u64(7);
        let data: Vec<f32> = (0..9_000 * 13).map(|_| rng.gen_range(0.0f32..0.002)).collect();
        iguard_runtime::Dataset::from_vec(data, 9_000, 13)
    };
    let run = |shards: usize, schedule: &[usize]| {
        let mut dp = ShardedPipeline::new(
            ShardedPipelineConfig::from(flow_cfg(4096)).with_shards(shards),
            fl_ipd_jitter_above(0.0008),
            accept_all(4),
        );
        let (mut outcomes, mut all_outcomes, mut digests) = (Vec::new(), Vec::new(), Vec::new());
        let mut verdicts = Vec::new();
        for (k, chunk) in trace.packets.chunks(337).enumerate() {
            let workers = schedule[k % schedule.len()];
            with_workers(workers, || {
                dp.process_batch(chunk, &mut outcomes);
                if k % 8 == 0 {
                    let mut v = Vec::new();
                    dp.classify_batch(&rows, &mut v);
                    verdicts.push(v);
                }
            });
            all_outcomes.extend_from_slice(&outcomes);
            dp.drain_seq_digests_into(&mut digests);
        }
        (all_outcomes, digests, verdicts, dp.blacklist_contents(), dp.stats())
    };
    let base = run(1, &[1]);
    assert!(!base.1.is_empty(), "trace must emit digests");
    assert_eq!(run(8, &[1, 2, 8, 1]), base, "changing worker counts diverged");
}
