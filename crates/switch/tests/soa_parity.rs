//! Structure-of-arrays ↔ scalar parity.
//!
//! The columnar batch path ([`Pipeline::process_batch`] /
//! [`DataPlane::classify_batch`]) must be byte-identical to per-packet
//! processing ([`ScalarPipeline`]) — same verdicts, same seq-tagged digest
//! stream, same path and whitelist counters — on every layout (serial,
//! sharded, sketched), at any worker count, and at any physical shard
//! grouping. These seeded randomized suites throw NaN/∞ features, edge
//! wire lengths and TTLs, timeout-crossing timestamp jumps, mid-stream
//! blacklist installs and flow clears, and chunk-boundary-straddling
//! batch sizes at that claim.

mod support;

use iguard_flow::features::{log_compress_vec, SWITCH_FL_DIM};
use iguard_flow::five_tuple::{FiveTuple, PROTO_TCP};
use iguard_flow::packet::{Packet, TcpFlags};
use iguard_flow::table::FlowTableConfig;
use iguard_runtime::par::with_workers;
use iguard_runtime::proptest_lite;
use iguard_runtime::rng::Rng;
use iguard_runtime::Dataset;
use iguard_switch::pipeline::{
    ControlAction, Layout, PacketVerdict, PathCounters, Pipeline, PipelineConfig, ProcessOutcome,
    ScalarPipeline, SeqDigest, WhitelistCounters,
};
use iguard_switch::sharded::ShardedPipelineConfig;
use iguard_switch::{
    DataPlane, OverloadStats, ShardedPipeline, SketchEviction, SketchStats, SketchedPipelineConfig,
};
use support::{accept_all, random_pool, random_rules};

/// Random packets over a small flow pool: edge wire lengths/TTLs and
/// occasional timeout-crossing timestamp jumps.
fn random_packets(rng: &mut Rng, pool: &[FiveTuple], n: usize) -> Vec<Packet> {
    let mut ts = 0u64;
    (0..n)
        .map(|_| {
            ts += if rng.gen_bool(0.02) {
                10_000_000_000 // 10 s: crosses any sane flow timeout
            } else {
                rng.gen_range(0u64..3_000_000)
            };
            let mut five = pool[rng.gen_range(0..pool.len())];
            if rng.gen_bool(0.3) {
                five = five.reversed();
            }
            Packet {
                ts_ns: ts,
                five,
                wire_len: [0u16, 1, 64, 120, 1400, u16::MAX][rng.gen_range(0..6usize)],
                ttl: [0u8, 1, 64, 255][rng.gen_range(0..4usize)],
                flags: TcpFlags::default(),
            }
        })
        .collect()
}

type Observed =
    (Vec<ProcessOutcome>, Vec<SeqDigest>, WhitelistCounters, PathCounters, Vec<FiveTuple>, u64);

/// Feed `batches` through `dp` with a blacklist install/remove pair
/// between the first and second halves, then collect everything
/// observable.
fn drive(dp: &mut dyn DataPlane, batches: &[Vec<Packet>], victims: &[FiveTuple]) -> Observed {
    let mut out = Vec::new();
    let mut digests = Vec::new();
    let mut buf = Vec::new();
    for (b, batch) in batches.iter().enumerate() {
        if b == batches.len() / 2 {
            for &v in victims {
                dp.apply(ControlAction::InstallBlacklist(v));
            }
            if let Some(&v) = victims.first() {
                dp.apply(ControlAction::RemoveBlacklist(v));
            }
        }
        dp.process_batch(batch, &mut buf);
        out.extend_from_slice(&buf);
        dp.drain_seq_digests_into(&mut digests);
    }
    (
        out,
        digests,
        dp.whitelist_counters(),
        dp.counters(),
        dp.blacklist_contents(),
        dp.packets_processed(),
    )
}

/// Feeds `pkts` in batches of `size` with controller feedback at fixed
/// packet offsets — blacklist installs plus one removal, then
/// `ClearFlow`s — and collects everything observable, the sketch and
/// overload views included. In the sketched layout the eviction book must
/// track the table exactly after every step, so a `ClearFlow` that left
/// its flow in the book would show as `tracked > occupancy`.
fn drive_sliced(
    dp: &mut dyn DataPlane,
    pkts: &[Packet],
    size: usize,
    victims: &[FiveTuple],
) -> (Observed, Option<SketchStats>, OverloadStats) {
    let (mut out, mut digests, mut buf) = (Vec::new(), Vec::new(), Vec::new());
    let book_in_lockstep = |dp: &dyn DataPlane| {
        if let Some(sk) = dp.sketch_stats() {
            assert_eq!(sk.tracked, dp.flow_table_stats().occupancy, "eviction book drifted");
        }
    };
    for (b, chunk) in pkts.chunks(size).enumerate() {
        let (lo, hi) = (b * size, b * size + chunk.len());
        if (lo..hi).contains(&(pkts.len() / 3)) {
            for &v in victims {
                dp.apply(ControlAction::InstallBlacklist(v));
            }
            dp.apply(ControlAction::RemoveBlacklist(victims[0]));
        }
        if (lo..hi).contains(&(2 * pkts.len() / 3)) {
            for &v in victims {
                dp.apply(ControlAction::ClearFlow(v));
            }
            book_in_lockstep(dp);
        }
        dp.process_batch(chunk, &mut buf);
        book_in_lockstep(dp);
        out.extend_from_slice(&buf);
        dp.drain_seq_digests_into(&mut digests);
    }
    let observed = (
        out,
        digests,
        dp.whitelist_counters(),
        dp.counters(),
        dp.blacklist_contents(),
        dp.packets_processed(),
    );
    (observed, dp.sketch_stats(), dp.overload_stats())
}

fn random_cfg(rng: &mut Rng) -> PipelineConfig {
    PipelineConfig::default()
        .with_flow_table(FlowTableConfig::default().with_pkt_threshold(rng.gen_range(2u64..6)))
        .with_drop_malicious(rng.gen_bool(0.8))
        .with_log_compress(rng.gen_bool(0.5))
}

proptest_lite! {
    /// Columnar `Pipeline`, `ScalarPipeline`, and `ShardedPipeline` at
    /// every (shards, workers) grouping agree packet-for-packet: verdicts,
    /// seq-tagged digests, whitelist counters, path counters, blacklist,
    /// processed count.
    fn process_batch_matches_scalar_everywhere(rng) {
        let cfg = random_cfg(rng);
        let fl = random_rules(rng, SWITCH_FL_DIM);
        let pl = random_rules(rng, 4);
        let flows = rng.gen_range(4usize..24);
        let pool = random_pool(rng, flows);
        let batches: Vec<Vec<Packet>> = (0..rng.gen_range(2usize..6))
            .map(|_| {
                let n = rng.gen_range(1usize..200);
                random_packets(rng, &pool, n)
            })
            .collect();
        let victims: Vec<FiveTuple> =
            (0..3).map(|_| pool[rng.gen_range(0..pool.len())]).collect();

        let mut scalar = ScalarPipeline::new(cfg, fl.clone(), pl.clone());
        let want = drive(&mut scalar, &batches, &victims);

        let mut soa = Pipeline::new(cfg, fl.clone(), pl.clone());
        assert_eq!(drive(&mut soa, &batches, &victims), want, "SoA Pipeline != scalar");

        // Default flow-table slots and ≤ 24 flows: no slot pressure, so the
        // sharded backend agrees with the serial one packet-for-packet.
        for (shards, workers) in [(1usize, 1usize), (1, 8), (8, 1), (8, 8)] {
            let got = with_workers(workers, || {
                let scfg = ShardedPipelineConfig::default()
                    .with_pipeline(cfg)
                    .with_shards(shards);
                let mut dp = ShardedPipeline::new(scfg, fl.clone(), pl.clone());
                drive(&mut dp, &batches, &victims)
            });
            assert_eq!(got, want, "sharded({shards})/workers({workers}) != scalar");
        }
    }

    /// Same parity with batches straddling the 1024-row chunk boundary
    /// (fewer cases — each one pushes thousands of packets).
    fn process_batch_parity_across_chunk_boundaries(rng, cases = 6) {
        let cfg = random_cfg(rng);
        let fl = random_rules(rng, SWITCH_FL_DIM);
        let pl = random_rules(rng, 4);
        let pool = random_pool(rng, 16);
        let n = 1024 * rng.gen_range(1usize..3) + rng.gen_range(0usize..3) + 1022;
        let batches = vec![random_packets(rng, &pool, n)];

        let mut scalar = ScalarPipeline::new(cfg, fl.clone(), pl.clone());
        let want = drive(&mut scalar, &batches, &[]);
        let mut soa = Pipeline::new(cfg, fl.clone(), pl.clone());
        assert_eq!(drive(&mut soa, &batches, &[]), want, "SoA Pipeline != scalar at n={n}");
        let got = with_workers(8, || {
            let scfg =
                ShardedPipelineConfig::default().with_pipeline(cfg).with_shards(8);
            let mut dp = ShardedPipeline::new(scfg, fl.clone(), pl.clone());
            drive(&mut dp, &batches, &[])
        });
        assert_eq!(got, want, "sharded != scalar at n={n}");
    }

    /// `classify_batch` (offline FL rows, NaN/∞/−0.0 injected) returns the
    /// same verdict vector and whitelist counters on every backend, worker
    /// count, and shard grouping.
    fn classify_batch_matches_scalar_everywhere(rng) {
        let cfg = random_cfg(rng);
        let fl = random_rules(rng, SWITCH_FL_DIM);
        let pl = random_rules(rng, 4);
        let n = rng.gen_range(0usize..2200);
        let mut data = Dataset::zeros(n, SWITCH_FL_DIM);
        for i in 0..n {
            for v in data.row_mut(i) {
                *v = if rng.gen_bool(0.1) {
                    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0]
                        [rng.gen_range(0..5usize)]
                } else {
                    rng.gen_range(-100.0f32..2000.0)
                };
            }
        }

        let mut want = Vec::new();
        let mut scalar = ScalarPipeline::new(cfg, fl.clone(), pl.clone());
        scalar.classify_batch(&data, &mut want);
        let want_wl = scalar.whitelist_counters();
        // The scalar walk probes the compiled index; it must agree with
        // the linear first-match scan over the same (compressed) row.
        let mut row = Vec::new();
        let linear: Vec<bool> = data
            .iter_rows()
            .map(|r| {
                row.clear();
                row.extend_from_slice(r);
                if cfg.log_compress {
                    log_compress_vec(&mut row);
                }
                fl.lookup(&row).is_none()
            })
            .collect();
        assert_eq!(want, linear, "indexed verdicts != linear scan at n={n}");

        let mut got = Vec::new();
        let mut soa = Pipeline::new(cfg, fl.clone(), pl.clone());
        soa.classify_batch(&data, &mut got);
        assert_eq!(got, want, "SoA verdicts != scalar at n={n}");
        assert_eq!(soa.whitelist_counters(), want_wl);

        for (shards, workers) in [(1usize, 1usize), (1, 8), (8, 1), (8, 8)] {
            let (got, wl) = with_workers(workers, || {
                let scfg = ShardedPipelineConfig::default()
                    .with_pipeline(cfg)
                    .with_shards(shards);
                let mut dp = ShardedPipeline::new(scfg, fl.clone(), pl.clone());
                let mut v = Vec::new();
                dp.classify_batch(&data, &mut v);
                (v, dp.whitelist_counters())
            });
            assert_eq!(got, want, "sharded({shards})/workers({workers}) verdicts differ");
            assert_eq!(wl, want_wl, "sharded({shards})/workers({workers}) counters differ");
        }
    }

    /// The oracle covers every layout: `ScalarPipeline` over a budgeted
    /// sketched layout, and over the sharded layout with slot pressure,
    /// equals the columnar walk of the same layout — verdicts, digests,
    /// counters, blacklist, sketch and overload views — at batch sizes 1,
    /// 7, and one straddling the 1,024-row chunk boundary, with mid-stream
    /// blacklist installs and `ClearFlow`s.
    fn scalar_oracle_matches_columnar_on_every_layout(rng, cases = 8) {
        let cfg = random_cfg(rng).with_flow_table(
            FlowTableConfig::default()
                .with_pkt_threshold(rng.gen_range(2u64..6))
                .with_slots_per_table(64),
        );
        let fl = random_rules(rng, SWITCH_FL_DIM);
        let pl = random_rules(rng, 4);
        let pool = random_pool(rng, 160);
        let pkts = random_packets(rng, &pool, 2600);
        let victims: Vec<FiveTuple> = (0..6).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        let eviction = [SketchEviction::Fifo, SketchEviction::Lru, SketchEviction::Random,
            SketchEviction::TwoQ][rng.gen_range(0..4usize)];
        let sketched = SketchedPipelineConfig::default()
            .with_pipeline(cfg)
            .with_budget_bytes(Some(24 * iguard_flow::table::FlowShard::slot_bytes()))
            .with_promote_threshold(rng.gen_range(2u32..4))
            .with_eviction(eviction);
        let sharded = ShardedPipelineConfig::default().with_pipeline(cfg).with_shards(4);

        for size in [1usize, 7, 1024 + 500] {
            let mut scalar = ScalarPipeline::new(sketched, fl.clone(), pl.clone());
            let want = drive_sliced(&mut scalar, &pkts, size, &victims);
            let mut soa = Pipeline::new(sketched, fl.clone(), pl.clone());
            let got = drive_sliced(&mut soa, &pkts, size, &victims);
            assert_eq!(got, want, "sketched columnar != scalar oracle at batch {size}");
            let sk = got.1.expect("sketched layout reports sketch stats");
            assert!(sk.absorbed > 0 && sk.evicted > 0, "budget never bit: {sk:?}");

            let mut scalar = ScalarPipeline::new(sharded, fl.clone(), pl.clone());
            let want = drive_sliced(&mut scalar, &pkts, size, &victims);
            let got = with_workers(2, || {
                let mut soa = ShardedPipeline::new(sharded, fl.clone(), pl.clone());
                drive_sliced(&mut soa, &pkts, size, &victims)
            });
            assert_eq!(got, want, "sharded columnar != scalar oracle at batch {size}");
        }
    }

    /// Drop-malicious off means nothing is ever dropped on either path,
    /// and outcome parity still holds.
    fn forward_only_mode_parity(rng, cases = 8) {
        let cfg = random_cfg(rng).with_drop_malicious(false);
        let fl = random_rules(rng, SWITCH_FL_DIM);
        let pl = random_rules(rng, 4);
        let pool = random_pool(rng, 8);
        let n = rng.gen_range(50usize..300);
        let batches = vec![random_packets(rng, &pool, n)];

        let mut scalar = ScalarPipeline::new(cfg, fl.clone(), pl.clone());
        let want = drive(&mut scalar, &batches, &[]);
        let mut soa = Pipeline::new(cfg, fl, pl);
        let got = drive(&mut soa, &batches, &[]);
        assert_eq!(got, want);
        assert!(
            got.0.iter().all(|o| o.verdict == PacketVerdict::Forward),
            "nothing may drop with drop_malicious=false and no blacklist"
        );
    }
}

/// An empty batch is a no-op on every path and every layout; in
/// particular it must not tick the per-batch overload clock. A 512-flow
/// storm into a 2-slot table trips degraded mode (the sharded layout
/// needs 16× the flows to fill every logical shard's pressure window);
/// five empty batches afterwards must leave the scalar oracle's overload
/// view (degraded residency included) equal to the columnar walk's and
/// unchanged.
#[test]
fn empty_batches_are_no_ops_on_every_path() {
    let cfg = PipelineConfig::default().with_flow_table(
        FlowTableConfig::default().with_slots_per_table(2).with_pkt_threshold(100),
    );
    let storm = |flows: u32| -> Vec<Packet> {
        (0..flows)
            .map(|f| Packet {
                ts_ns: f as u64 * 1_000_000,
                five: FiveTuple::new(0x0A00_0000 + f, 0xC0A8_0001, 40_000, 80, PROTO_TCP),
                wire_len: 100,
                ttl: 64,
                flags: TcpFlags::default(),
            })
            .collect()
    };
    let sketched =
        SketchedPipelineConfig::default().with_pipeline(cfg).with_budget_bytes(Some(1 << 12));
    let sharded = ShardedPipelineConfig::default().with_pipeline(cfg).with_shards(2);
    let layouts: [(&str, Layout, u32); 3] = [
        ("serial", cfg.into(), 512),
        ("sketched", sketched.into(), 512),
        ("sharded", sharded.into(), 512 * 16),
    ];
    for (name, layout, flows) in layouts {
        let storm = storm(flows);
        let run = |dp: &mut dyn DataPlane| {
            let mut out = Vec::new();
            dp.process_batch(&storm, &mut out);
            let after_storm = dp.overload_stats();
            for _ in 0..5 {
                dp.process_batch(&[], &mut out);
                assert!(out.is_empty());
            }
            assert_eq!(dp.overload_stats(), after_storm, "{name}: an empty batch ticked overload");
            (after_storm, dp.packets_processed(), dp.counters())
        };
        let columnar = run(&mut Pipeline::new(layout, accept_all(SWITCH_FL_DIM), accept_all(4)));
        assert!(columnar.0.degraded_entries > 0, "{name}: the storm must trip degraded mode");
        let scalar =
            run(&mut ScalarPipeline::new(layout, accept_all(SWITCH_FL_DIM), accept_all(4)));
        assert_eq!(scalar, columnar, "{name}: scalar oracle != columnar walk");
    }
}
